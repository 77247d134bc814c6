"""Witness identity, pinned by one hash.

Which witness, bijection or graph comes first is part of the observable
behaviour: a change to the search that alters it must say so and update
PINNED_SHA256.  The canonical text below covers the built-in replays,
graphicness certificates of the catalog and its duals, seeded minor
searches and seeded isomorphism searches; on a mismatch it is printed so
the differing lines can be found.  CLI_PINNED_SHA256 pins, the same way, what
the command line prints and returns for a fixed set of commands, so that a
change meant to keep behaviour can show the CLI's output byte-identical.
REPORT_PINNED_SHA256 pins the paper's check: ``check_graphic_cocircuits`` on
the 29 matroids N, the duals of the g and r catalog entries, with every
cocircuit's labels and its certificate (the graph, or the excluded minor and
its witness), computed under two hash seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

from gf2minor import catalog
from gf2minor.certify import replay_all
from gf2minor.cli import execute_command
from gf2minor.errors import CapacityError
from gf2minor.iso import find_isomorphism
from gf2minor.matroid import Graph
from gf2minor.minors import find_minor_witness, graphic_certificate

from gen import planted_host, random_matroid, relabeled_copy

PINNED_SHA256 = "00840d2e8d2e3e357dbe57b30ed9c85c774f7faf188f19cd1e2429c2f4291be9"
CLI_PINNED_SHA256 = "650ccf7c4d3b65782182a449b5dd5b3bf5cf5da3d9ba39944e0353a560c175f4"
REPORT_PINNED_SHA256 = "23305e33bcb05232d773fdc2d898825c4e07fa53457bb2675584720b5946126c"


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


def _cli_commands(tmp_path) -> list[list[str]]:
    """``verify`` both ways; ``graphic`` (with and without a certificate),
    ``cocircuits --check-graphic`` and ``info`` on each catalog entry and on
    its dual as written by ``dual -o``; ``minor --witness`` for five hosts
    against three targets."""
    commands = [["verify"], ["verify", "--json"]]
    for i, name in enumerate(catalog.catalog_names()):
        path = str(tmp_path / f"{i}.mat")
        commands.append(["dual", "--matroid", name, "-o", path])
        for m in (name, path):
            commands += [
                ["graphic", "--matroid", m],
                ["graphic", "--certificate", "--matroid", m],
                ["cocircuits", "--check-graphic", "--matroid", m],
                ["info", "--matroid", m],
            ]
    for host in ("g7", "g24", "r15", "g1", "g12"):
        for target in ("M_K5", "M_K33", "F7"):
            commands.append(
                ["minor", "--matroid", host, "--target", target, "--witness"]
            )
    return commands


def _untimed(argv: list[str], out: str) -> str:
    """``out`` without the times ``verify`` prints."""
    if argv[0] != "verify":
        return out
    if "--json" not in argv:
        return re.sub(r"\d+\.\d+s\b", "Ts", out)
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        del row["elapsed_s"]
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def test_cli_output_is_pinned(tmp_path, capsys):
    lines = []
    for argv in _cli_commands(tmp_path):
        code = execute_command(argv)
        out, err = capsys.readouterr()
        record = [" ".join(argv), str(code), _untimed(argv, out), err]
        lines.append("\n".join(record).replace(str(tmp_path), "TMP"))
    text = "\n".join(lines)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != CLI_PINNED_SHA256:
        print(text)
    assert digest == CLI_PINNED_SHA256


# One line per cocircuit check of each N: its sorted labels, then its graph
# (vertex count and edges) or its excluded minor and witness.
REPORT_SCRIPT = """
import json, re
from gf2minor import catalog
from gf2minor.matroid import Graph
from gf2minor.minors import check_graphic_cocircuits
for name in catalog.catalog_names():
    if not re.fullmatch(r"[gr][0-9]+", name):
        continue
    for check in check_graphic_cocircuits(catalog.get_named(name).dual()).checks:
        cert = check.certificate
        if isinstance(cert, Graph):
            text = f"graph {cert.n_vertices} {list(cert.edges)}"
        else:
            text = f"minor {cert[0]} {json.dumps(cert[1].as_dict(), sort_keys=True)}"
        print(f"{name}* {sorted(check.cocircuit)} {text}")
"""


def test_cocircuit_reports_are_pinned_across_hash_seeds():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in ("0", "31337"):
        res = subprocess.run(
            [sys.executable, "-c", REPORT_SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        assert len({line.split()[0] for line in res.stdout.splitlines()}) == 29
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        if digest != REPORT_PINNED_SHA256:
            print(res.stdout)
        assert digest == REPORT_PINNED_SHA256, seed
