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
from functools import cache
from itertools import combinations_with_replacement
from random import Random

import pytest

from gf2minor import minors, realize
from gf2minor.audit import verify_graph, verify_witness
from gf2minor.catalog import catalog_names, get_named
from gf2minor.errors import InputError
from gf2minor.gf2 import Gf2Matrix, rank_of_vectors
from gf2minor.matroid import (
    BinaryMatroid,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    contract,
    contract_cycles,
    cycle_matroid,
    delete,
    delete_cycles,
    equal_columns,
    extend_echelon,
    mask_positions,
    span_vectors,
    sums_of_at_most,
    support,
)
from gf2minor.minors import (
    GRAPHICNESS_EXCLUDED,
    check_graphic_cocircuits,
    find_minor_witness,
    graphic_certificate,
)
from gf2minor.realize import cocircuit_deletions, cocycle_rows

from gen import planted_host, random_graph, random_matroid, random_simple_graph
from oracles import (
    cocircuits_reference,
    cocycles_reference,
    connected_after_deleting_reference,
    delete_cycles_reference,
    equal_columns_reference,
    reduced_echelon_reference,
    stars_reference,
    tidy_reference,
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


def realization(m: BinaryMatroid):
    """``realize_cycles`` on m's own fundamental circuits; None when m is
    not graphic."""
    return realize.realize_cycles(m.fundamental_cycles(), (1 << m.size) - 1)


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


def standard_form(width: int, rows: tuple[int, ...]) -> BinaryMatroid:
    """[I | A] with basis x1, x2, ..., cobasis y1, y2, ... and the rows of A
    as bitmasks of ``width`` bits."""
    return BinaryMatroid(
        tuple(f"x{i + 1}" for i in range(len(rows))),
        tuple(f"y{j + 1}" for j in range(width)),
        Gf2Matrix(len(rows), width, rows),
    )


def standard_forms(max_elements: int):
    """Every [I | A] of at most ``max_elements`` elements, one per multiset of
    columns of A, the empty one included."""
    for size in range(max_elements + 1):
        for rank in range(size + 1):
            for cols in combinations_with_replacement(range(1 << rank), size - rank):
                yield standard_form(size - rank, tuple(
                    sum((c >> i & 1) << j for j, c in enumerate(cols)) for i in range(rank)
                ))


def test_tutte_identity_on_every_standard_form_up_to_8_elements():
    # Every answer is certified, and a form is non-graphic exactly when it
    # has an F7 or F7* minor: M*(K5) and M*(K33) have 10 and 9 elements.
    # Every non-graphic form here runs the reduction and its tidy step.
    fano = [get_named("F7"), get_named("F7*")]
    verdicts = Counter()
    for m in standard_forms(8):
        verdict, name = certified_verdict(m)
        assert name in (None, "F7", "F7*")
        assert verdict == all(find_minor_witness(m, t) is None for t in fano), str(m)
        verdicts[verdict] += 1
    assert verdicts == {True: 14967, False: 240}


# -- the greedy reduction to an excluded minor ------------------------------------


@cache
def nonplanar_duals() -> tuple[BinaryMatroid, ...]:
    """Duals of 25 seeded random multigraphs, 6-9 vertices and 15-20 edges
    (loops and parallel edges allowed), kept when ``realize_cycles`` finds
    no graph: the graph is then not planar.  Every "no" is confirmed by a
    witness."""
    rng = Random(11)
    bank = []
    while len(bank) < 25:
        nv, ne = rng.randint(6, 9), rng.randint(15, 20)
        g = Graph(nv, tuple(
            (rng.randrange(nv), rng.randrange(nv), f"e{i + 1}") for i in range(ne)))
        m = cycle_matroid(g).dual()
        if realization(m) is None:
            bank.append(m)
    return tuple(bank)


@cache
def non_graphic_catalog() -> tuple[BinaryMatroid, ...]:
    """The catalog's non-graphic entries and duals."""
    catalog = [get_named(name) for name in catalog_names()]
    return tuple(m for m in catalog + [m.dual() for m in catalog] if realization(m) is None)


@cache
def non_graphic_bank() -> tuple[BinaryMatroid, ...]:
    """The catalog's non-graphic entries and duals, planted hosts of every
    excluded minor and the non-planar duals."""
    rng = Random(6006)
    planted = [
        planted_host(rng, get_named(name), rng.randint(0, 8))
        for name in GRAPHICNESS_EXCLUDED for _ in range(4)
    ]
    return (*non_graphic_catalog(), *planted, *nonplanar_duals())


def k5_with_extras() -> BinaryMatroid:
    """The dual of K5 plus six parallel edges and three loops: 19 elements,
    with six series pairs and three coloops around M*(K5)."""
    k5 = complete_graph(5)
    parallel = [(u, v, lab + "p") for u, v, lab in k5.edges[:6]]
    loops = [(i, i, f"l{i}") for i in range(3)]
    return cycle_matroid(Graph(5, k5.edges + tuple(parallel + loops))).dual()


def counting_realizations(monkeypatch) -> list[int]:
    """One entry per realization of ``graphic_certificate``: the first
    ``realize_cycles`` call and each ``realizable`` verdict of the reduction."""
    calls: list[int] = []

    def counted(kernel):
        def call(cycles, ground):
            calls.append(ground)
            return kernel(cycles, ground)
        return call

    for name in ("realize_cycles", "realizable"):
        monkeypatch.setattr(minors, name, counted(getattr(realize, name)))
    return calls


def direct_sum(m1: BinaryMatroid, m2: BinaryMatroid) -> BinaryMatroid:
    """The direct sum of m1 and m2, labels prefixed "a" and "b"; m1's first
    basis element comes first."""
    rows = list(m1.a.rows) + [r << m1.corank for r in m2.a.rows]
    return BinaryMatroid(
        tuple("a" + x for x in m1.basis_labels) + tuple("b" + x for x in m2.basis_labels),
        tuple("a" + x for x in m1.cobasis_labels) + tuple("b" + x for x in m2.cobasis_labels),
        Gf2Matrix(len(rows), m1.corank + m2.corank, tuple(rows)),
    )


def test_nonplanar_duals_match_the_oracle():
    for m in nonplanar_duals():
        assert not assert_matches_oracle(m)


def test_excluded_minor_witness_is_minor_minimal():
    # Every single deletion and contraction of the witness's minor is
    # graphic, with a graph that verify_graph accepts.
    for m in non_graphic_bank():
        name, w = graphic_certificate(m)
        assert verify_witness(m, get_named(name), w), name
        ops = [contract(e) for e in sorted(w.contract_set)]
        minor = m.apply_ops(ops + [delete(e) for e in sorted(w.delete_set)])
        assert minor.ground_set == w.survivors()
        assert realization(minor) is None
        for e in minor.elements():
            for op in (contract(e), delete(e)):
                smaller = minor.apply_ops([op])
                assert verify_graph(smaller, graphic_certificate(smaller)), (str(m), op)


def test_reduction_realizes_at_most_twice_per_element(monkeypatch):
    # The walk tests a contraction and a deletion per element at most, after
    # the one realization that failed: 2n + 1 in all.  r15 and r16 are
    # pinned exactly, so a counter that missed the verdicts would fail.
    calls = counting_realizations(monkeypatch)
    for m in non_graphic_bank():
        del calls[:]
        graphic_certificate(m)
        assert len(calls) <= 2 * m.size + 1, str(m)
    for name, count in [("r15", 9), ("r16", 5)]:
        del calls[:]
        graphic_certificate(get_named(name))
        assert len(calls) == count, name


def test_edges_are_laid_out_only_for_a_graph(monkeypatch):
    # A non-graphic input gets verdicts only, even when a graphic component
    # comes before the one that is not; a graphic input is laid out once.
    lay_out = realize._lay_out
    calls = []

    def counted(families):
        calls.append(families)
        return lay_out(families)

    monkeypatch.setattr(realize, "_lay_out", counted)
    triangle = cycle_matroid(complete_graph(3))
    mixed = direct_sum(triangle, get_named("F7"))
    assert realization(triangle) is not None
    assert realization(mixed) is None
    for m in (mixed, *non_graphic_bank()):
        del calls[:]
        verdict, _ = certified_verdict(m)
        assert not verdict and not calls, str(m)
    for name in ("g6", "M(K5)"):
        del calls[:]
        assert certified_verdict(get_named(name)) == (True, None)
        assert len(calls) == 1


def test_reduction_never_tidies_an_unchanged_minor(monkeypatch):
    # After a kept element the minor is the one tidied last, so the walk
    # goes on to the next element without tidying or matching it again.
    tidy = minors._tidy
    calls: list[tuple[list[int], int]] = []
    returned: list[tuple[list[int], int]] = []

    def recorded(cycles, alive):
        calls.append((cycles, alive))
        out = tidy(cycles, alive)
        returned.append(out[:2])
        return out

    monkeypatch.setattr(minors, "_tidy", recorded)
    assert len(non_graphic_catalog()) == 38
    for m in non_graphic_catalog():
        del calls[:], returned[:]
        name, w = graphic_certificate(m)
        assert verify_witness(m, get_named(name), w), str(m)
        assert calls
        for before, arguments in zip(returned, calls[1:]):
            assert arguments != before, str(m)


def test_k5_with_parallel_edges_and_loops_dual(monkeypatch):
    # Its six series pairs and three coloops are removed without a
    # realization, so the reduction reaches M*(K5) at once.
    m = k5_with_extras()
    assert m.size == 19
    calls = counting_realizations(monkeypatch)
    start = time.perf_counter()
    name, w = graphic_certificate(m)
    assert time.perf_counter() - start < 0.5
    assert len(calls) <= 2 * m.size + 1
    assert name == "M*(K5)"
    assert verify_witness(m, get_named(name), w)


# -- the tidy step against its reference -----------------------------------------


def tidy_inputs(rng: Random, count: int):
    """``count`` fundamental circuits (cycles, alive): standard forms of 1-16
    elements, every other one with sparse A (each entry 1 with probability
    1/4), after random contractions and deletions of up to half of them."""
    for i in range(count):
        size = rng.randint(1, 16)
        rank = rng.randint(0, size)
        width = size - rank
        m = standard_form(width, tuple(
            rng.getrandbits(width) & rng.getrandbits(width) if i % 2 else rng.getrandbits(width)
            for _ in range(rank)
        ))
        cycles, alive = m.fundamental_cycles(), (1 << size) - 1
        for _ in range(rng.randint(0, size // 2)):
            bit = 1 << rng.choice([p for p in range(size) if alive >> p & 1])
            if rng.random() < 0.5:
                cycles = contract_cycles(cycles, bit)
            else:
                cycles, _ = delete_cycles(cycles, bit)
            alive ^= bit
        yield cycles, alive


def test_tidy_matches_the_reference_on_seeded_inputs():
    # The parallel classes read off the fundamental circuits are those of
    # equal columns over the folded cocycle rows, so every result is the
    # reference's, cycles included.  Some inputs lose loops or parallel
    # extras, and some lose no element.
    deleted = Counter()
    for cycles, alive in tidy_inputs(Random(0x71D7), 2400):
        expected = tidy_reference(cycles, alive)
        assert minors._tidy(cycles, alive) == expected, (cycles, alive)
        deleted[expected[1] | expected[2] != alive] += 1
    assert deleted[True] > 400 and deleted[False] > 400


def test_tidy_matches_the_reference_on_every_catalog_call(monkeypatch):
    # Every tidy step of the reductions on the catalog entries and their
    # duals, caught as it runs, gives the reference's result.
    tidy = minors._tidy
    calls = []

    def recorded(cycles, alive):
        out = tidy(cycles, alive)
        calls.append((cycles, alive, out))
        return out

    monkeypatch.setattr(minors, "_tidy", recorded)
    for name in catalog_names():
        graphic_certificate(get_named(name))
        graphic_certificate(get_named(name).dual())
    assert len(calls) > len(non_graphic_catalog())
    for cycles, alive, out in calls:
        assert out == tidy_reference(cycles, alive), (cycles, alive)


# -- the star search against its eager reference ----------------------------------


def counting_reads(monkeypatch) -> list[int]:
    """Cocircuits the star search reads, in order: the cocycles whose
    deletion from the cycle basis lowers the rank by exactly 1."""
    kernel = realize.delete_cycles
    reads: list[int] = []

    def counted(vectors, mask):
        out = kernel(vectors, mask)
        if out[1] == 1:
            reads.append(mask)
        return out

    monkeypatch.setattr(realize, "delete_cycles", counted)
    return reads


def star_searches(m: BinaryMatroid, monkeypatch) -> list[tuple]:
    """Each ``_stars`` call of ``realization(m)``: its arguments, its answer and
    the number of cocircuits it read."""
    search = realize._stars
    reads = counting_reads(monkeypatch)
    calls = []

    def spy(cycles, ground, rank):
        before = len(reads)
        stars = search(cycles, ground, rank)
        calls.append((cycles, ground, rank, stars, len(reads) - before))
        return stars

    monkeypatch.setattr(realize, "_stars", spy)
    realization(m)
    monkeypatch.undo()
    return calls


def forced_flags(cycles, ground) -> list[bool]:
    """For each cocircuit, lightest first, whether it is a forced star; the
    forced-star test of ``_stars`` must say the same on each."""
    _, cocircuits = cocircuits_reference(cycles, ground)
    flags = [connected_after_deleting_reference(cycles, ground, y) for y in cocircuits]
    # The test grows the component of the lowest element left after Y.
    grown = [realize._component(delete_cycles(cycles, y)[0], ground & ~y) for y in cocircuits]
    assert flags == [comp == ground & ~y for comp, y in zip(grown, cocircuits)]
    return flags


def assert_stars_match_the_reference(matroids, monkeypatch) -> Counter:
    """``_stars`` answers as ``stars_reference`` on each call; outcome counts.

    "dfs" counts the families found with fewer than rank + 1 forced stars,
    "cut" the calls whose forced stars fell short and whose reading stopped
    before its last cocircuit, and "past" those with a forced cocircuit
    left unread, which must answer None.
    """
    outcomes = Counter()
    for m in matroids:
        for cycles, ground, rank, stars, read in star_searches(m, monkeypatch):
            assert stars == stars_reference(cycles, ground, rank), str(m)
            forced = forced_flags(cycles, ground)
            short = sum(forced) <= rank
            if stars is None:
                outcomes["none"] += 1
            else:
                outcomes["dfs" if short else "forced"] += 1
            outcomes["cut"] += short and read < len(forced)
            if any(forced[read:]):
                assert stars is None, str(m)
                outcomes["past"] += 1
    return outcomes


def shuffled(rng: Random, g: Graph) -> Graph:
    """``g`` with its vertices and edge order shuffled."""
    names = list(range(g.n_vertices))
    rng.shuffle(names)
    edges = [(names[u], names[v], lab) for u, v, lab in g.edges]
    rng.shuffle(edges)
    return Graph(g.n_vertices, tuple(edges))


def seeded(rng: Random, g: Graph) -> BinaryMatroid:
    """The cycle matroid of ``g`` with its vertices and edge order shuffled."""
    return cycle_matroid(shuffled(rng, g))


def two_sum(m1: BinaryMatroid, m2: BinaryMatroid) -> BinaryMatroid:
    """The 2-sum of m1 and m2 along m1's last cobasis and m2's first basis
    element, labels prefixed "a" and "b".

    [[A1', a b], [0, A2']]: a is the dropped column of A1, b the dropped
    row of A2.  For cycle matroids it is the graph glued along the two
    edges, with the glued edge deleted.
    """
    c1 = m1.corank - 1
    b = m2.a.rows[0]
    rows = [r & ~(1 << c1) | (b << c1 if r >> c1 & 1 else 0) for r in m1.a.rows]
    rows += [r << c1 for r in m2.a.rows[1:]]
    return BinaryMatroid(
        tuple("a" + x for x in m1.basis_labels) + tuple("b" + x for x in m2.basis_labels[1:]),
        tuple("a" + x for x in m1.cobasis_labels[:-1]) + tuple("b" + x for x in m2.cobasis_labels),
        Gf2Matrix(len(rows), c1 + m2.corank, tuple(rows)),
    )


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


def test_stars_match_the_reference_on_2_sums(monkeypatch):
    # Two graphs glued along an edge that is then deleted are 2-connected
    # but not 3-connected, as g6 is: the stars at the two glued vertices are
    # not forced, so the depth-first search runs on the cocircuits read
    # before reading stopped at the weight the missing stars can carry.
    # With an excluded minor on one side a forced cocircuit can lie past
    # that cut, and then no star family exists.
    rng = Random(0x57A28)
    pieces = [wheel(3), wheel(4), wheel(5), prism(3), prism(4), complete_graph(4)]
    sums = [two_sum(seeded(rng, rng.choice(pieces)), seeded(rng, rng.choice(pieces)))
            for _ in range(12)]
    planted = [
        two_sum(planted_host(rng, get_named(name), rng.randint(0, 2)),
                seeded(rng, rng.choice(pieces)))
        for name in GRAPHICNESS_EXCLUDED for _ in range(3)
    ]
    outcomes = assert_stars_match_the_reference(
        sums + [m.dual() for m in sums] + planted, monkeypatch)
    assert outcomes["dfs"] and outcomes["cut"] and outcomes["none"] and outcomes["past"]


def test_cubic_graphs_use_the_whole_weight_budget(monkeypatch):
    # Every vertex of a cubic graph has degree 3, so 2|E| = 3(r + 1) and no
    # star may be heavier than 3: the search still finds the stars.  One
    # element short of that, the same rank cannot carry r + 1 stars of
    # weight 3 and no cocircuit is read.  (Deleting an edge makes a series
    # pair, which ``_stars`` is never given; the budget alone rejects it.)
    rng = Random(0x57A29)
    reads = counting_reads(monkeypatch)
    graphs = [complete_graph(4), complete_bipartite_graph(3, 3)] + [prism(n) for n in range(3, 6)]
    for g in graphs:
        for _ in range(3):
            h = shuffled(rng, g)
            m = cycle_matroid(h)
            cycles, ground, rank = m.fundamental_cycles(), (1 << m.size) - 1, m.full_rank
            assert 2 * m.size == 3 * (rank + 1)
            position = {lab: i for i, lab in enumerate(m.elements())}
            stars = [0] * h.n_vertices
            for u, v, lab in h.edges:
                stars[u] |= 1 << position[lab]
                stars[v] |= 1 << position[lab]
            assert sorted(realize._stars(cycles, ground, rank)) == sorted(stars)
            e = 1 << rng.randrange(m.size)
            shorter, lost = delete_cycles(cycles, e)
            assert not lost
            started = len(reads)
            assert realize._stars(shorter, ground & ~e, rank) is None
            assert len(reads) == started
    # F7* and M*(K5) are cosimple, connected and half an element short.
    for name in ("F7*", "M*(K5)"):
        started = len(reads)
        assert realization(get_named(name)) is None
        assert len(reads) == started


def star_deletions(m: BinaryMatroid, monkeypatch) -> int:
    """Cocircuits that ``graphic_certificate(m)`` deletes from the cycle
    basis, told from unions of cocircuits by their rank drop of 1; m must
    be graphic."""
    reads = counting_reads(monkeypatch)
    assert verify_graph(m, graphic_certificate(m))
    return len(reads)


@pytest.mark.parametrize(
    "name, read", [pytest.param("g18", 11, id="g18"), pytest.param("M(K5)", 5, id="M(K5)")])
def test_forced_star_test_stops_at_a_complete_family(name, read, monkeypatch):
    # The forced-star test deletes each cocircuit it reads from the cycle
    # basis; once rank + 1 forced stars are found no more are read.  On g18
    # the 10 stars are the first 11 of its 146 cocircuits by weight.
    m = get_named(name)
    assert star_deletions(m, monkeypatch) == read <= m.full_rank + 2


@pytest.mark.parametrize("name, read", [("g6", 46), ("g1", 42)])
def test_forced_star_test_stops_at_the_weight_budget(name, read, monkeypatch):
    # g6's forced stars fall short (8 of 10), so the search cannot stop at a
    # complete family; it stops at the first cocycle heavier than the
    # missing two stars can be, after 46 of its 147 cocircuits.  On g1 the
    # cut comes after 42 of 78 only because each forced star heavier than 3
    # lowers the weight left for the others.  The unions of cocircuits met
    # on the way are deleted too, and skipped by their rank drop.
    assert star_deletions(get_named(name), monkeypatch) == read


def test_the_cut_can_change_which_star_family_comes_first():
    # Cycles of a 15-element graphic matroid of rank 8 with two star
    # families.  The depth-first search branches on the open element with
    # the fewest candidates; the reference also counts the cocircuits past
    # the cut, which no family can use, so it branches elsewhere and finds
    # the other family first.  Both are star families: every element twice,
    # every star a cocycle, rank 8.
    cycles, ground, rank = [469, 725, 1194, 2218, 4108, 8410, 16448], (1 << 15) - 1, 8
    found = realize._stars(cycles, ground, rank)
    reference = stars_reference(cycles, ground, rank)
    assert sorted(found) != sorted(reference)
    for stars in (found, reference):
        assert len(stars) == rank + 1
        assert len(reduced_echelon_reference(stars)) == rank
        assert all(sum(y >> p & 1 for y in stars) == 2 for p in range(15))
        assert all((y & c).bit_count() % 2 == 0 for y in stars for c in cycles)


# -- the span step -------------------------------------------------------------------


def test_extend_fold_matches_the_reduced_echelon_reference():
    # Folding extend_echelon over a list gives the reference's basis, vectors and
    # order alike, so cycle_matroid's forest cannot drift; None comes
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
            grown = extend_echelon(basis, v)
            assert basis == before
            expected = reduced_echelon_reference(vectors[:i + 1])
            assert (grown is None) == (len(expected) == len(before))
            outcomes[grown is None] += 1
            basis = grown or basis
            assert basis == expected
    assert outcomes[True] and outcomes[False]


def test_cocycle_rows_span_the_cocycle_space():
    # The rows are read off fundamental circuits, each with a bit that no
    # other has.  On those of random matroids, of their deletions and
    # contractions, and of each of these with its series extras cleared as
    # ``_star_families`` clears them, the rows are cocycles (each meets
    # every cycle evenly) of rank |ground| - corank, so they span the
    # cocycle space; and over them equal columns are the parallel classes
    # (loops as one), as over the whole cocycle space.  On m's own circuits
    # they are the rows of [I | A].
    for name in catalog_names():
        for m in (get_named(name), get_named(name).dual()):
            rows = cocycle_rows(m.fundamental_cycles(), (1 << m.size) - 1)
            assert rows == [1 << i | row << m.full_rank for i, row in enumerate(m.a.rows)]
    rng = Random(0xC0C1C)
    seen = Counter()
    for _ in range(50):
        m = random_matroid(rng, 10)
        full = (1 << m.size) - 1
        cycles = m.fundamental_cycles()
        mask = full & rng.getrandbits(m.size)
        cases = [
            (cycles, full),
            (delete_cycles(cycles, mask)[0], full & ~mask),
            (contract_cycles(cycles, mask), full & ~mask),
        ]
        for vectors, ground in list(cases):
            extras = sum(cls & (cls - 1) for cls in equal_columns(vectors, ground))
            cases.append(([v & ~extras for v in vectors], ground & ~extras))
            seen["series"] += any(v & extras for v in vectors)
        for vectors, ground in cases:
            rows = cocycle_rows(vectors, ground)
            assert all(not row & ~ground for row in rows)
            assert all((row & c).bit_count() % 2 == 0 for row in rows for c in vectors)
            assert len(reduced_echelon_reference(rows)) == ground.bit_count() - len(vectors)
            expected = [
                sum(1 << p for p in cls)
                for cls in equal_columns_reference(cocycles_reference(vectors, ground), ground)
                if len(cls) > 1
            ]
            assert sorted(equal_columns(rows, ground)) == sorted(expected)
            seen["parallel"] += bool(expected)
            seen["simple"] += not expected and len(vectors) > 1
    assert seen["parallel"] and seen["simple"] and seen["series"]


def test_minor_steps_keep_a_private_bit_in_every_circuit():
    # cocycle_rows takes each circuit's cobasis element from a bit that no
    # other circuit has.  Deletion, contraction, the two chained, and the
    # tidy step after each keep such a bit in every vector they return, so
    # every caller's circuits meet that contract.  The masks hold about a
    # quarter of the elements each.
    def private(vectors):
        return all(
            any(sum(w >> p & 1 for w in vectors) == 1 for p in mask_positions(v))
            for v in vectors
        )

    rng = Random(0x9B1D)
    seen = Counter()
    for _ in range(60):
        m = random_matroid(rng, 12, 8)
        full = (1 << m.size) - 1
        cycles = m.fundamental_cycles()
        x, y = (full & rng.getrandbits(m.size) & rng.getrandbits(m.size) for _ in "xy")
        deleted = delete_cycles(cycles, x)[0]
        contracted = contract_cycles(cycles, x)
        cases = [
            (cycles, full),
            (deleted, full & ~x),
            (contracted, full & ~x),
            (contract_cycles(deleted, y & ~x), full & ~x & ~y),
            (delete_cycles(contracted, y & ~x)[0], full & ~x & ~y),
        ]
        for vectors, ground in cases:
            assert private(vectors), (vectors, ground)
            tidied, alive, _ = minors._tidy(vectors, ground)
            assert private(tidied), (vectors, ground)
            seen["tidied"] += alive != ground
            seen["shared"] += support(vectors).bit_count() < sum(map(int.bit_count, vectors))
    assert seen["tidied"] > 250 and seen["shared"] > 100


def test_rank_drop_of_a_cocycle_is_one_exactly_for_a_cocircuit():
    # Deleting a mask from a cycle basis counts r(M) - r(M \ mask), the
    # nullity of the mask in M*: on random masks it matches ranks of the
    # columns of the reference's cocycle rows, and over the cocycles it is
    # 1 exactly on the cocircuits, which ``_stars`` picks out by it alone.
    # Fundamental circuits of random matroids, with loops and coloops, and
    # of their deletions and contractions.
    rng = Random(0xD50F)
    seen = Counter()
    for _ in range(60):
        m = random_matroid(rng, 10)
        full = (1 << m.size) - 1
        cycles = m.fundamental_cycles()
        mask = full & rng.getrandbits(m.size)
        cases = [
            (cycles, full),
            (delete_cycles(cycles, mask)[0], full & ~mask),
            (contract_cycles(cycles, mask), full & ~mask),
        ]
        for vectors, ground in cases:
            rows, cocircuits = cocircuits_reference(vectors, ground)
            cocycles = span_vectors(cocycle_rows(vectors, ground))
            drops = {y: delete_cycles(vectors, y)[1] for y in cocycles}
            assert {y for y, drop in drops.items() if drop == 1} == set(cocircuits)
            seen.update(drops.values())
            columns = {
                p: sum(1 << i for i, row in enumerate(rows) if row >> p & 1)
                for p in mask_positions(ground)
            }

            def rank(x: int) -> int:
                return rank_of_vectors(columns[p] for p in mask_positions(x))

            assert rank(ground) == len(rows)
            for _ in range(4):
                x = ground & rng.getrandbits(m.size)
                assert delete_cycles(vectors, x)[1] == rank(ground) - rank(ground & ~x)
            seen["loop"] += any(v.bit_count() == 1 for v in vectors)
            seen["coloop"] += bool(ground & ~support(vectors))
    assert seen[1] and seen[2] and seen[3] and seen["loop"] and seen["coloop"]


def stream_faults(cases) -> Counter:
    """Read ``cocircuit_deletions`` over the weight-sorted span of the
    cocycle rows of each (fundamental circuits, ground) case, and count
    where it departs from the references: "order" when the cocircuits
    yielded are not ``cocircuits_reference``'s, as a list in its order, and
    "basis" for a basis that does not span the cycle space of M \\ Y that
    ``delete_cycles_reference`` leaves, or whose vectors are not
    fundamental circuits (each with a bit of its own)."""
    faults = Counter()
    for cycles, ground in cases:
        cocycles = sorted(span_vectors(cocycle_rows(cycles, ground)), key=int.bit_count)
        pairs = list(cocircuit_deletions(cycles, cocycles))
        faults["order"] += [y for y, _ in pairs] != cocircuits_reference(cycles, ground)[1]
        for y, left in pairs:
            span = reduced_echelon_reference(delete_cycles_reference(cycles, y)[0])
            own = [v & ~support(left[:i] + left[i + 1:]) for i, v in enumerate(left)]
            faults["basis"] += (
                sorted(reduced_echelon_reference(left)) != sorted(span)
                or len(left) != len(span) or not all(own)
            )
    return faults


def test_cocircuit_stream_matches_the_references(monkeypatch):
    # Random matroids with loops, coloops and more than one component, then
    # the 29 paper matroids N, the duals of the g and r catalog entries.
    rng = Random(0x5743A)
    cases, seen = [], Counter()
    for _ in range(150):
        m = random_matroid(rng, 10)
        cycles, ground = m.fundamental_cycles(), (1 << m.size) - 1
        cases.append((cycles, ground))
        seen["loop"] += bool(m.loops())
        seen["coloop"] += bool(m.coloops())
        seen["split"] += len(realize._components(cycles, ground)) > 1
    assert seen["loop"] and seen["coloop"] and seen["split"]
    for name in catalog_names():
        if name[0] in "gr":
            m = get_named(name).dual()
            cases.append((m.fundamental_cycles(), (1 << m.size) - 1))
    assert len(cases) == 150 + 29
    assert stream_faults(cases) == {"order": 0, "basis": 0}
    # A mutant that also takes a rank drop of 2, a union of two disjoint
    # cocircuits, is caught.
    kernel = realize.delete_cycles

    def lenient(vectors, mask):
        left, drop = kernel(vectors, mask)
        return left, 1 if drop == 2 else drop

    monkeypatch.setattr(realize, "delete_cycles", lenient)
    assert stream_faults(cases)["order"] > 0


# -- the star search's bounded cocycle read -----------------------------------------


def test_sums_of_at_most_are_the_span_cut_by_how_many_rows_they_add():
    # Rows that each own a bit, as cocycle rows do: a sum of k rows holds k
    # owned bits, so it weighs at least k, and the cut keeps every vector
    # of weight at most ``most``, in the order of ``span_vectors``.
    rng = Random(0x5ACE)
    for _ in range(200):
        rank = rng.randint(0, 8)
        owned = rng.sample(range(16), rank)
        rows = [1 << p | rng.getrandbits(16) << 16 for p in owned]
        span = span_vectors(rows)
        for most in range(rank + 2):
            got = sums_of_at_most(rows, most)
            assert got == [v for v in span if (v & 0xFFFF).bit_count() <= most]
            assert {v for v in span if v.bit_count() <= most} <= set(got)


def star_feeds(run, bounded: bool) -> tuple[list[list[int]], object, int]:
    """The cocycles each ``_stars`` call of ``run()`` draws into
    ``cocircuit_deletions``, in order, what ``run()`` returns, and how many
    calls the row bound cut short.  Unless ``bounded``, ``_stars`` reads the
    whole span of its cocycle rows in place of the bounded sums."""
    feeds: list[list[int]] = []
    cut = 0
    stream, sums = realize.cocircuit_deletions, realize.sums_of_at_most

    def drawn(cycles, cocycles):
        feed: list[int] = []
        feeds.append(feed)

        def tee():
            for y in cocycles:
                feed.append(y)
                yield y

        return stream(cycles, tee())

    def counted(rows, most):
        nonlocal cut
        cut += most < len(rows)
        return sums(rows, most) if bounded else span_vectors(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(realize, "cocircuit_deletions", drawn)
        mp.setattr(realize, "sums_of_at_most", counted)
        return feeds, run(), cut


def test_bounded_cocycle_read_draws_what_the_whole_span_would():
    # The budget is read per draw and only falls, so ``_stars`` must draw
    # the same cocycles from the bounded sums as from the whole sorted span,
    # and answer the same.  The catalog and its duals, 3-connected and
    # random graphs, and every cocircuit deletion of the 29 paper matroids N.
    rng = Random(0xB0DE)
    graphs = [wheel(n) for n in range(3, 9)] + [prism(n) for n in range(3, 9)]
    graphs += [complete_graph(n) for n in range(3, 7)] + [complete_bipartite_graph(3, 3)]
    graphs += [random_simple_graph(rng, 7, 6, 14) for _ in range(20)]
    graphs += [random_graph(rng, 7, 12) for _ in range(20)]
    named = [get_named(name) for name in catalog_names()]
    matroids = named + [m.dual() for m in named] + [seeded(rng, g) for g in graphs]
    papers = [get_named(name).dual() for name in catalog_names() if name[0] in "gr"]

    def run():
        return ([realization(m) for m in matroids],
                [check_graphic_cocircuits(n) for n in papers])

    bounded, answers, cut = star_feeds(run, bounded=True)
    whole, whole_answers, _ = star_feeds(run, bounded=False)
    assert bounded == whole and answers == whole_answers
    assert len(bounded) > 1000 and cut > 100


def test_prisms_past_the_size_guard_realize():
    # Cubic: no star weighs more than 3, so the star search reads the sums
    # of at most 3 cocycle rows, not the 2^23 or 2^39 of the whole span.
    # In list order the spanning forest is two paths and a rung, so every
    # star is a sum of at most 2 rows; shuffled, some take 3.
    rng = Random(0x9A15)
    for m in [cycle_matroid(prism(n)) for n in (12, 20)] + [seeded(rng, prism(12))]:
        found = realization(m)
        assert found is not None
        elems = m.elements()
        g = Graph(found[0], tuple((u, v, elems[p]) for p, u, v in found[1]))
        assert verify_graph(m, g)


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
