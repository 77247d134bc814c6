"""Labeled binary matroids: construction, rank, duality, minors, circuits."""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from random import Random

import pytest

from gf2minor.catalog import get_named
from gf2minor.errors import CapacityError, InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    ROUTE_CONTRACT_LOOP,
    ROUTE_CONTRACT_PIVOT,
    ROUTE_CONTRACT_ROW,
    BinaryMatroid,
    Graph,
    MinorOp,
    complete_bipartite_graph,
    complete_graph,
    contract,
    cycle_matroid,
    delete,
    has_weight_histogram,
    mask_to_labels,
    minimal_supports,
    weight_histogram,
)

from gen import random_graph, random_matroid, relabeled_copy
from oracles import (
    circuits_by_enumeration,
    dense_columns,
    graph_circuits,
    subset_rank,
)


def circuit_size_counter(circuits) -> Counter:
    return Counter(len(c) for c in circuits)


# -- construction -------------------------------------------------------------


def test_from_standard_form_g1():
    m = get_named("g1")
    assert m.size == 18
    assert m.full_rank == 7
    assert m.rank(m.ground_set) == 7


def test_empty_matroid():
    m = BinaryMatroid((), (), Gf2Matrix(0, 0, ()))
    assert m.size == 0
    assert m.full_rank == 0
    assert m.circuits() == frozenset()


def test_zero_column_gives_loop_and_coloop():
    m = BinaryMatroid(("r1",), ("s1",), Gf2Matrix(1, 1, (0,)))
    assert m.loops() == {"s1"}
    assert m.coloops() == {"r1"}


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        BinaryMatroid(("e",), ("e",), Gf2Matrix(1, 1, (0,)))


def test_label_count_mismatch_rejected():
    with pytest.raises(InputError):
        BinaryMatroid(("r1",), ("s1",), Gf2Matrix(2, 1, (0, 0)))


# -- rank oracle ----------------------------------------------------------------


def test_rank_empty_subset():
    assert get_named("g1").rank([]) == 0


def test_rank_g1_independent_triple():
    # {r1, s1, s3} has rank 3 (s1 + s3 = r7, not r1); oracle-confirmed.
    m = get_named("g1")
    cols = dense_columns(m)
    assert subset_rank(cols, ["r1", "s1", "s3"]) == 3
    assert m.rank({"r1", "s1", "s3"}) == 3


def test_rank_g24_dependent_triple():
    # s1 + s9 = r1 in g24, so the triple has rank 2; oracle-confirmed.
    m = get_named("g24")
    cols = dense_columns(m)
    assert subset_rank(cols, ["r1", "s1", "s9"]) == 2
    assert m.rank({"r1", "s1", "s9"}) == 2


def test_rank_unknown_label():
    with pytest.raises(InputError):
        get_named("g1").rank({"nope"})


def test_rank_matches_dense_oracle_on_random_subsets():
    rng = Random(41)
    for _ in range(50):
        m = random_matroid(rng, 10)
        cols = dense_columns(m)
        elems = sorted(m.ground_set)
        subset = rng.sample(elems, rng.randint(0, len(elems)))
        assert m.rank(subset) == subset_rank(cols, subset)


# -- circuits -----------------------------------------------------------------------


def test_is_circuit_examples():
    assert get_named("g24").is_circuit({"r1", "s1", "s9"})
    assert not get_named("g1").is_circuit({"r1", "s1", "s3"})


def test_loop_is_a_one_element_circuit():
    m = BinaryMatroid(("r1",), ("s1",), Gf2Matrix(1, 1, (0,)))
    assert m.is_circuit({"s1"})
    assert not m.is_circuit({"r1"})


def test_is_circuit_rejects_empty_and_unknown():
    m = get_named("g1")
    with pytest.raises(InputError):
        m.is_circuit(set())
    with pytest.raises(InputError):
        m.is_circuit({"zz"})


def test_triangle_has_single_circuit():
    tri = Graph(3, ((0, 1, "a"), (1, 2, "b"), (0, 2, "c")))
    assert cycle_matroid(tri).circuits() == {frozenset("abc")}


def test_k5_circuits_against_both_oracles():
    m = get_named("M(K5)")
    circ = m.circuits()
    assert circ == circuits_by_enumeration(m)
    assert circ == graph_circuits(5, complete_graph(5).edges)
    assert circuit_size_counter(circ) == {3: 10, 4: 15, 5: 12}
    assert len(circ) == 37


def test_k33_circuits_against_both_oracles():
    m = get_named("M(K33)")
    circ = m.circuits()
    assert circ == circuits_by_enumeration(m)
    assert circ == graph_circuits(6, complete_bipartite_graph(3, 3).edges)
    assert circuit_size_counter(circ) == {4: 9, 6: 6}


def test_f7_circuits_against_oracle():
    m = get_named("F7")
    circ = m.circuits()
    assert circ == circuits_by_enumeration(m)
    assert circuit_size_counter(circ) == {3: 7, 4: 7}


def test_circuits_agree_with_enumeration_on_random_matroids():
    rng = Random(20240)
    for _ in range(60):
        m = random_matroid(rng, 10)
        assert m.circuits() == circuits_by_enumeration(m)


def test_circuit_axioms_on_random_matroids():
    rng = Random(77)
    for _ in range(30):
        m = random_matroid(rng, 10, min_elements=4)
        circ = list(m.circuits())
        for c1, c2 in combinations(circ, 2):
            assert not c1 < c2 and not c2 < c1
        rng.shuffle(circ)
        for c1, c2 in combinations(circ[:6], 2):
            for e in c1 & c2:
                rest = (c1 | c2) - {e}
                assert any(c <= rest for c in circ), "circuit elimination failed"


def test_circuits_capacity_guard():
    m = BinaryMatroid(
        tuple(f"r{i}" for i in range(5)),
        tuple(f"s{j}" for j in range(20)),
        Gf2Matrix(5, 20, (0,) * 5),
    )
    with pytest.raises(CapacityError):
        m.circuits()


# -- cycle space ------------------------------------------------------------------


def test_masked_fundamental_cycles_span_the_contraction():
    # For independent C, clearing C's bits in the host's fundamental cycles
    # gives a basis of the cycle space of host / C.
    rng = Random(2718)
    done = 0
    while done < 40:
        m = random_matroid(rng, 11, min_elements=2)
        elems = m.elements()
        c = rng.sample(elems, rng.randint(0, m.full_rank))
        if m.rank(c) < len(c):
            continue
        cmask = sum(1 << elems.index(e) for e in c)
        masked = [v & ~cmask for v in m.fundamental_cycles()]
        contracted = m.apply_ops(contract(e) for e in c)
        got = {mask_to_labels(s, elems) for s in minimal_supports(masked)}
        assert got == contracted.circuits()
        assert len(masked) == contracted.corank
        done += 1


def test_weight_histogram_is_a_representation_invariant():
    rng = Random(1618)
    for _ in range(40):
        m = random_matroid(rng, 11, min_elements=1)
        hist = weight_histogram(m.fundamental_cycles())
        assert sum(hist) == (1 << m.corank) - 1
        assert weight_histogram(m.dual().dual().fundamental_cycles()) == hist
        assert weight_histogram(relabeled_copy(rng, m).fundamental_cycles()) == hist
        spots = [
            (bl, cl)
            for i, bl in enumerate(m.basis_labels)
            for j, cl in enumerate(m.cobasis_labels)
            if m.a.entry(i, j)
        ]
        if spots:
            piv = m.exchange(*rng.choice(spots))
            assert weight_histogram(piv.fundamental_cycles()) == hist


def test_weight_histogram_counts_cycles_by_size():
    # K4's cycle space: 4 triangles, 3 four-cycles, nothing else nonzero.
    hist = weight_histogram(cycle_matroid(complete_graph(4)).fundamental_cycles())
    assert hist == (0, 0, 0, 4, 3, 0, 0)


def test_early_exit_histogram_check_agrees_with_the_full_histogram():
    rng = Random(1414)
    hists = [
        weight_histogram(random_matroid(rng, 9).fundamental_cycles())
        for _ in range(30)
    ]
    for _ in range(60):
        basis = random_matroid(rng, 9).fundamental_cycles()
        own = weight_histogram(basis)
        assert has_weight_histogram(basis, own)
        for other in hists:
            assert has_weight_histogram(basis, other) == (own == other)


# -- duality --------------------------------------------------------------------


def test_dual_involution_g7():
    m = get_named("g7")
    assert m.dual().dual() == m


def test_dual_rank_complement_g1():
    m = get_named("g1")
    d = m.dual()
    assert d.full_rank == 11
    assert d.rank(d.ground_set) == 11


def test_cocircuits_are_dual_circuits_k5():
    m = get_named("M(K5)")
    assert m.cocircuits() == m.dual().circuits()
    assert m.cocircuits() == circuits_by_enumeration(m.dual())
    assert len(m.cocircuits()) == 15


def test_dual_properties_random():
    rng = Random(5150)
    for _ in range(60):
        m = random_matroid(rng, 12)
        d = m.dual()
        assert d.dual() == m
        assert m.full_rank + d.full_rank == m.size


def test_minor_dual_exchange_random():
    # dual(m / e) and dual(m) \ e are the same matroid (equal circuit sets).
    rng = Random(31337)
    for _ in range(40):
        m = random_matroid(rng, 10, min_elements=1)
        e = rng.choice(sorted(m.ground_set))
        left = m.apply_ops([contract(e)]).dual()
        right = m.dual().apply_ops([delete(e)])
        assert left.ground_set == right.ground_set
        assert left.circuits() == right.circuits()


def test_exchange_preserves_all_subset_ranks():
    rng = Random(4242)
    for _ in range(25):
        m = random_matroid(rng, 10, min_elements=2)
        spots = [
            (bl, cl)
            for i, bl in enumerate(m.basis_labels)
            for j, cl in enumerate(m.cobasis_labels)
            if m.a.entry(i, j)
        ]
        if not spots:
            continue
        piv = m.exchange(*rng.choice(spots))
        assert piv.ground_set == m.ground_set
        elems = sorted(m.ground_set)
        for size in range(len(elems) + 1):
            for sub in combinations(elems, size):
                assert m.rank(sub) == piv.rank(sub)


# -- minor operations ------------------------------------------------------------


def test_contract_independent_triple_g1():
    m = get_named("g1").apply_ops([contract("r1"), contract("s1"), contract("s3")])
    assert m.size == 15
    assert m.full_rank == 4


def test_contract_dependent_triple_g24_takes_loop_route():
    trace = []
    m = get_named("g24").apply_ops(
        [contract("r1"), contract("s1"), contract("s9")], trace=trace
    )
    assert m.size == 15
    assert m.full_rank == 4
    assert [t.route for t in trace] == [
        ROUTE_CONTRACT_ROW,
        ROUTE_CONTRACT_PIVOT,
        ROUTE_CONTRACT_LOOP,
    ]
    assert trace[2].op.element == "s9"


def test_disjoint_ops_commute_on_g2():
    m = get_named("g2")
    ab = m.apply_ops([contract("r4"), delete("s2")])
    ba = m.apply_ops([delete("s2"), contract("r4")])
    assert ab.ground_set == ba.ground_set
    assert ab.circuits() == ba.circuits()


def test_contraction_order_independence_random():
    rng = Random(11)
    for _ in range(25):
        m = random_matroid(rng, 10, min_elements=3)
        elems = sorted(m.ground_set)
        subset = rng.sample(elems, rng.randint(1, min(4, len(elems))))
        one = m.apply_ops([contract(e) for e in subset])
        other = m.apply_ops([contract(e) for e in reversed(subset)])
        assert one.ground_set == other.ground_set
        assert one.circuits() == other.circuits()
        assert one.full_rank == m.full_rank - m.rank(subset)


def test_apply_ops_unknown_label_and_empty():
    m = get_named("g1")
    with pytest.raises(InputError):
        m.apply_ops([delete("zz")])
    empty = BinaryMatroid((), (), Gf2Matrix(0, 0, ()))
    with pytest.raises(InputError):
        empty.apply_ops([delete("a")])


def test_deletion_matches_oracle_circuits():
    rng = Random(909)
    for _ in range(25):
        m = random_matroid(rng, 9, min_elements=2)
        e = rng.choice(sorted(m.ground_set))
        got = m.apply_ops([delete(e)])
        expected = {
            c for c in circuits_by_enumeration(m) if e not in c
        }
        assert got.ground_set == m.ground_set - {e}
        assert got.circuits() == expected


def test_minor_op_validation():
    with pytest.raises(InputError):
        MinorOp("frobnicate", "e1")
    with pytest.raises(InputError):
        MinorOp("delete", "")


# -- cycle matroids -----------------------------------------------------------------


def test_cycle_matroid_k5_shape():
    m = cycle_matroid(complete_graph(5))
    assert m.size == 10
    assert m.full_rank == 4


def test_cycle_matroid_k33_shape():
    m = cycle_matroid(complete_bipartite_graph(3, 3))
    assert m.size == 9
    assert m.full_rank == 5
    assert len(m.circuits()) == 15


def test_cycle_matroid_single_loop_edge():
    m = cycle_matroid(Graph(1, ((0, 0, "l"),)))
    assert m.size == 1
    assert m.loops() == {"l"}


def test_cycle_matroid_matches_graph_cycles_random():
    rng = Random(6001)
    for _ in range(40):
        g = random_graph(rng, 5, 8)
        m = cycle_matroid(g)
        assert m.circuits() == graph_circuits(g.n_vertices, g.edges)


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(2, ((0, 2, "a"),))
    with pytest.raises(InputError):
        Graph(2, ((0, 1, "a"), (1, 0, "a")))
    with pytest.raises(InputError):
        Graph(-1, ())
