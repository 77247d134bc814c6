"""Graphicness by graph realization, against the excluded-minor search.

Every "yes" from ``graphic_certificate`` must be a graph that
``verify_graph`` accepts, and every "no" an excluded minor whose witness
``verify_witness`` accepts against the named target.  The verdict must equal
the excluded-minor oracle, Tutte's criterion decided by the exhaustive
search: no F7, F7*, M*(K5) or M*(K33) minor.  The realization shares no code
with that search, so these tests are also an independent check of the
search's answers for the 9- and 10-element targets M*(K5) and M*(K33).
"""

from __future__ import annotations

import time
from random import Random

import pytest

from gf2minor.audit import verify_graph, verify_witness
from gf2minor.catalog import catalog_names, get_named
from gf2minor.errors import CapacityError, InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    BinaryMatroid,
    Graph,
    complete_graph,
    cycle_matroid,
)
from gf2minor.minors import (
    GRAPHICNESS_EXCLUDED,
    find_minor_witness,
    graphic_certificate,
)

from gen import planted_host, random_graph, random_matroid


def excluded_minor_oracle(m: BinaryMatroid, first: str | None = None) -> bool:
    """``all(find_minor_witness(m, t) is None for t in the excluded minors)``.

    The target ``first`` is searched first.  The verdict does not depend on
    the order, but a non-graphic input then stops after one search.
    """
    order = sorted(GRAPHICNESS_EXCLUDED, key=lambda name: name != first)
    return all(find_minor_witness(m, get_named(name)) is None for name in order)


def certified_verdict(m: BinaryMatroid) -> tuple[bool, str | None]:
    """The verdict of ``graphic_certificate``, its certificate checked."""
    cert = graphic_certificate(m)
    if isinstance(cert, Graph):
        assert verify_graph(m, cert)
        return True, None
    name, w = cert
    assert name in GRAPHICNESS_EXCLUDED
    assert verify_witness(m, get_named(name), w), name
    return False, name


def assert_matches_oracle(m: BinaryMatroid) -> bool:
    verdict, name = certified_verdict(m)
    assert verdict == excluded_minor_oracle(m, first=name), str(m)
    return verdict


# -- differential: realization against the excluded-minor search ---------------


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_entry_and_dual_match_the_oracle(name):
    m = get_named(name)
    assert_matches_oracle(m)
    assert_matches_oracle(m.dual())


def test_random_matroids_match_the_oracle():
    rng = Random(6001)
    verdicts = []
    for _ in range(60):
        m = random_matroid(rng, 12, 6)
        verdicts += [assert_matches_oracle(m), assert_matches_oracle(m.dual())]
    assert True in verdicts and False in verdicts


def test_cycle_matroids_of_random_graphs_are_graphic():
    # random_graph draws loops, parallel edges, bridges and isolated vertices.
    rng = Random(6002)
    for _ in range(40):
        m = cycle_matroid(random_graph(rng, 7, 12))
        assert certified_verdict(m) == (True, None)
        assert excluded_minor_oracle(m)
        assert_matches_oracle(m.dual())


@pytest.mark.parametrize("name", GRAPHICNESS_EXCLUDED)
def test_planted_excluded_minors_are_not_graphic(name):
    rng = Random(6003)
    for _ in range(6):
        host = planted_host(rng, get_named(name), rng.randint(0, 6))
        verdict, found = certified_verdict(host)
        assert not verdict
        assert not excluded_minor_oracle(host, first=found)


# -- edge cases -------------------------------------------------------------------


def test_empty_loop_and_coloop():
    empty = BinaryMatroid((), (), Gf2Matrix(0, 0, ()))
    loop = BinaryMatroid((), ("a",), Gf2Matrix(0, 1, ()))
    coloop = BinaryMatroid(("a",), (), Gf2Matrix(1, 0, (0,)))
    assert graphic_certificate(empty) == Graph(0, ())
    assert graphic_certificate(loop) == Graph(1, ((0, 0, "a"),))
    assert graphic_certificate(coloop) == Graph(2, ((0, 1, "a"),))
    for m in (empty, loop, coloop):
        assert verify_graph(m, graphic_certificate(m))


def test_twenty_element_circuit_is_a_polygon_in_milliseconds():
    circuit = BinaryMatroid(
        tuple(f"x{i}" for i in range(19)), ("y",), Gf2Matrix(19, 1, (1,) * 19)
    )
    start = time.perf_counter()
    g = graphic_certificate(circuit)
    assert time.perf_counter() - start < 0.5
    assert g.n_vertices == 20 and verify_graph(circuit, g)
    degrees = [0] * 20
    for u, v, _ in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    assert degrees == [2] * 20


def test_certificate_capacity_guard():
    big = BinaryMatroid(
        (), tuple(f"s{j}" for j in range(21)), Gf2Matrix(0, 21, ())
    )
    with pytest.raises(CapacityError):
        graphic_certificate(big)


# -- verify_graph -------------------------------------------------------------------


def test_verify_graph_accepts_the_graph_of_a_cycle_matroid():
    rng = Random(6004)
    for _ in range(100):
        g = random_graph(rng, 8, 14)
        assert verify_graph(cycle_matroid(g), g)


def test_verify_graph_rejects_a_moved_endpoint():
    g = complete_graph(4)
    m = cycle_matroid(g)
    (u, v, lab), *rest = g.edges
    moved = Graph(g.n_vertices, ((u, u, lab), *rest))
    assert not verify_graph(m, moved)
    # Moved endpoints on random graphs: accepted exactly when the circuits,
    # computed by a different route, still agree.
    rng = Random(6005)
    rejected = 0
    for _ in range(100):
        g = random_graph(rng, 6, 10)
        if not g.edges:
            continue
        i = rng.randrange(len(g.edges))
        u, v, lab = g.edges[i]
        edges = list(g.edges)
        edges[i] = (u, rng.randrange(g.n_vertices), lab)
        moved = Graph(g.n_vertices, tuple(edges))
        m = cycle_matroid(g)
        same = cycle_matroid(moved).circuits() == m.circuits()
        assert verify_graph(m, moved) == same
        rejected += not same
    assert rejected > 20


def test_verify_graph_needs_a_label_bijection():
    triangle = complete_graph(3)
    m = cycle_matroid(triangle)
    missing = triangle.edges[1:]
    renamed = ((0, 1, "zz"), *missing)
    extra = (*triangle.edges, (0, 1, "zz"))
    for edges in (missing, renamed, extra):
        with pytest.raises(InputError):
            verify_graph(m, Graph(3, edges))
