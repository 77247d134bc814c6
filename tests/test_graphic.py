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
from collections import Counter
from random import Random

import pytest

from gf2minor import realize
from gf2minor.audit import verify_graph, verify_witness
from gf2minor.catalog import catalog_names, get_named
from gf2minor.errors import CapacityError, InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    BinaryMatroid,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_matroid,
)
from gf2minor.minors import (
    GRAPHICNESS_EXCLUDED,
    find_minor_witness,
    graphic_certificate,
)
from gf2minor.realize import _extend

from gen import planted_host, random_graph, random_matroid, random_simple_graph
from oracles import (
    cocircuits_reference,
    connected_after_deleting_reference,
    reduced_echelon_reference,
    stars_reference,
)


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


# -- the star search against its eager reference ----------------------------------


def star_searches(m: BinaryMatroid, monkeypatch) -> list[tuple]:
    """Each ``_stars`` call of ``realize(m)``: its arguments and its answer."""
    search = realize._stars
    calls = []

    def spy(cycles, ground, rank):
        stars = search(cycles, ground, rank)
        # A copy: the caller sorts the list in place.
        calls.append((cycles, ground, rank, stars and list(stars)))
        return stars

    monkeypatch.setattr(realize, "_stars", spy)
    realize.realize(m)
    monkeypatch.undo()
    return calls


def needs_the_dfs(cycles, ground, rank) -> bool:
    """Whether fewer than rank + 1 cocircuits are forced stars."""
    _, cocircuits = cocircuits_reference(cycles, ground)
    forced = sum(connected_after_deleting_reference(cycles, ground, y) for y in cocircuits)
    return forced <= rank


def assert_stars_match_the_reference(matroids, monkeypatch) -> Counter:
    """``_stars`` answers as ``stars_reference`` on each call; outcome counts."""
    outcomes = Counter()
    for m in matroids:
        for cycles, ground, rank, stars in star_searches(m, monkeypatch):
            assert stars == stars_reference(cycles, ground, rank), str(m)
            if stars is None:
                outcomes["none"] += 1
            else:
                outcomes["dfs" if needs_the_dfs(cycles, ground, rank) else "forced"] += 1
    return outcomes


def seeded(rng: Random, g: Graph) -> BinaryMatroid:
    """The cycle matroid of ``g`` with its vertices and edge order shuffled."""
    names = list(range(g.n_vertices))
    rng.shuffle(names)
    edges = [(names[u], names[v], lab) for u, v, lab in g.edges]
    rng.shuffle(edges)
    return cycle_matroid(Graph(g.n_vertices, tuple(edges)))


def wheel(n: int) -> Graph:
    """The wheel with n spokes: hub 0 and rim 1..n."""
    rim = [(i, i % n + 1, f"r{i}") for i in range(1, n + 1)]
    return Graph(n + 1, tuple(rim + [(0, i, f"s{i}") for i in range(1, n + 1)]))


def prism(n: int) -> Graph:
    """Two n-gons 0..n-1 and n..2n-1 joined by a matching."""
    edges = [(i, (i + 1) % n, f"a{i}") for i in range(n)]
    edges += [(n + i, n + (i + 1) % n, f"b{i}") for i in range(n)]
    edges += [(i, n + i, f"m{i}") for i in range(n)]
    return Graph(2 * n, tuple(edges))


def test_stars_match_the_reference_on_the_catalog(monkeypatch):
    matroids = [get_named(name) for name in catalog_names()]
    outcomes = assert_stars_match_the_reference(
        matroids + [m.dual() for m in matroids], monkeypatch)
    assert outcomes["none"] and outcomes["forced"] and outcomes["dfs"]


def test_stars_match_the_reference_on_3_connected_graphs(monkeypatch):
    rng = Random(0x57A25)
    graphs = [wheel(n) for n in range(3, 8)] + [prism(n) for n in range(3, 6)]
    graphs += [complete_graph(n) for n in range(3, 7)] + [complete_bipartite_graph(3, 3)]
    matroids = [seeded(rng, g) for g in graphs for _ in range(3)]
    outcomes = assert_stars_match_the_reference(matroids, monkeypatch)
    assert outcomes["forced"] and not outcomes["none"]


def test_stars_match_the_reference_on_random_graphs(monkeypatch):
    rng = Random(0x57A26)
    graphs = [random_simple_graph(rng, 7, 6, 14) for _ in range(30)]
    graphs += [random_graph(rng, 7, 12) for _ in range(30)]
    outcomes = assert_stars_match_the_reference(
        [cycle_matroid(g) for g in graphs], monkeypatch)
    assert outcomes["dfs"] and outcomes["forced"] and not outcomes["none"]


def test_stars_match_the_reference_on_planted_excluded_minors(monkeypatch):
    rng = Random(0x57A27)
    hosts = [
        planted_host(rng, get_named(name), rng.randint(0, 6))
        for name in GRAPHICNESS_EXCLUDED for _ in range(6)
    ]
    outcomes = assert_stars_match_the_reference(hosts, monkeypatch)
    assert outcomes["none"]


@pytest.mark.parametrize("name", ["g18", "M(K5)"])
def test_forced_star_test_stops_at_a_complete_family(name, monkeypatch):
    # The forced-star test deletes each cocircuit it reads from the cycle
    # basis; once rank + 1 forced stars are found no more are read.  On g18
    # the 10 stars are the first 11 of its 146 cocircuits by weight.
    m = get_named(name)
    eliminations = []
    kernel = realize.delete_cycles

    def counting(vectors, mask):
        eliminations.append(mask)
        return kernel(vectors, mask)

    monkeypatch.setattr(realize, "delete_cycles", counting)
    assert verify_graph(m, realize.realize(m))
    assert len(eliminations) <= m.full_rank + 2


# -- the span step -------------------------------------------------------------------


def test_extend_fold_matches_the_reduced_echelon_reference():
    # Folding _extend over a list gives the reference's basis, vectors and
    # order alike, so the cocycle rows of _stars cannot drift; None comes
    # exactly when the rank does not grow, and the basis passed in, which
    # the star search shares between branches, is left as it was.
    rng = Random(0xEC4E1)
    outcomes = Counter()
    for _ in range(300):
        width = rng.randint(1, 12)
        vectors = []
        for _ in range(rng.randint(0, 10)):
            v = rng.getrandbits(width)
            if vectors and rng.random() < 0.3:  # a sum of earlier ones, or 0
                v = 0
                for w in rng.sample(vectors, rng.randint(1, len(vectors))):
                    v ^= w
            vectors.append(v)
        basis = []
        for i, v in enumerate(vectors):
            before = list(basis)
            grown = _extend(basis, v)
            assert basis == before
            expected = reduced_echelon_reference(vectors[:i + 1])
            assert (grown is None) == (len(expected) == len(before))
            outcomes[grown is None] += 1
            basis = grown or basis
            assert basis == expected
    assert outcomes[True] and outcomes[False]


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
