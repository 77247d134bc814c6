"""Witness identity, pinned by one hash.

Which witness, bijection or graph comes first is part of the observable
behaviour: a change to the search that alters it must say so and update
PINNED_SHA256.  The canonical text below covers the built-in replays,
graphicness certificates of the catalog and its duals, seeded minor
searches and seeded isomorphism searches; on a mismatch it is printed so
the differing lines can be found.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

from gf2minor import catalog
from gf2minor.certify import replay_all
from gf2minor.errors import CapacityError
from gf2minor.iso import find_isomorphism
from gf2minor.matroid import Graph
from gf2minor.minors import find_minor_witness, graphic_certificate

from gen import planted_host, random_matroid, relabeled_copy

PINNED_SHA256 = "ff683fda51c7d4263717ef486f9dc9fc746053cf646cd222be335d17a5217cfc"


def _witness_text(w) -> str:
    return "none" if w is None else json.dumps(w.as_dict(), sort_keys=True)


def _replay_lines() -> list[str]:
    reports, _ = replay_all(jobs=1)
    lines = []
    for r in reports:
        row = r.to_dict()
        del row["elapsed_s"]
        lines.append("replay " + json.dumps(row, sort_keys=True))
    return lines


def _graphic_lines() -> list[str]:
    lines = []
    for name in catalog.catalog_names():
        base = catalog.get_named(name)
        for side, m in (("", base), ("*", base.dual())):
            try:
                cert = graphic_certificate(m)
            except CapacityError as exc:
                text = f"capacity {exc}"
            else:
                if isinstance(cert, Graph):
                    text = f"graph {cert.n_vertices} {list(cert.edges)}"
                else:
                    text = f"minor {cert[0]} {_witness_text(cert[1])}"
            lines.append(f"graphic {name}{side} {text}")
    return lines


def _minor_lines() -> list[str]:
    rng = Random(20261018)
    lines = []
    for i in range(60):
        target = random_matroid(rng, 7, min_elements=1)
        if i % 2:
            host = planted_host(rng, target, rng.randint(0, 4))
        else:
            host = random_matroid(rng, 11, min_elements=target.size)
        lines.append(f"minor {i} {_witness_text(find_minor_witness(host, target))}")
    return lines


def _iso_lines() -> list[str]:
    rng = Random(8080)
    lines = []
    for i in range(100):
        m1 = random_matroid(rng, 8)
        m2 = relabeled_copy(rng, m1) if i % 4 else random_matroid(rng, 8)
        mapping = find_isomorphism(m1, m2)
        text = "none" if mapping is None else str(sorted(mapping.items()))
        lines.append(f"iso {i} {text}")
    return lines


def test_witness_identity_is_pinned():
    text = "\n".join(
        _replay_lines() + _graphic_lines() + _minor_lines() + _iso_lines()
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != PINNED_SHA256:
        print(text)
    assert digest == PINNED_SHA256
