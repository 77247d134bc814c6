"""Labeled binary matroids: construction, rank, duality, minors, circuits."""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from random import Random

import pytest

from gf2minor.audit import verify_graph
from gf2minor.catalog import get_named
from gf2minor.errors import CapacityError, InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    ROUTE_CONTRACT_LOOP,
    ROUTE_CONTRACT_PIVOT,
    ROUTE_CONTRACT_ROW,
    ROUTE_DELETE_COLOOP,
    ROUTE_DELETE_COLUMN,
    ROUTE_DELETE_PIVOT,
    BinaryMatroid,
    Graph,
    MinorOp,
    complete_bipartite_graph,
    complete_graph,
    contract,
    contract_cycles,
    cycle_matroid,
    delete,
    delete_cycles,
    equal_columns,
    mask_to_labels,
    minimal_supports,
    support,
    weight_histogram,
)
from gf2minor.minors import cocircuit_masks
from gf2minor.realize import _component, _components

from gen import exchanged, random_graph, random_matroid, relabeled_copy
from oracles import (
    apply_ops_reference,
    circuits_by_enumeration,
    components_by_merging_reference,
    components_reference,
    cycle_matroid_reference,
    delete_cycles_reference,
    dense_columns,
    equal_columns_reference,
    graph_circuits,
    is_circuit_reference,
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


def with_loops_and_coloops(rng: Random, m: BinaryMatroid) -> BinaryMatroid:
    """``m`` with about a quarter of its rows and columns of A cleared."""
    keep = sum(1 << j for j in range(m.a.n_cols) if rng.random() > 0.25)
    rows = tuple(r & keep if rng.random() > 0.25 else 0 for r in m.a.rows)
    return BinaryMatroid(m.basis_labels, m.cobasis_labels,
                         Gf2Matrix(m.a.n_rows, m.a.n_cols, rows))


def test_is_circuit_matches_the_rank_definition_on_every_subset():
    rng = Random(2601)
    seen = Counter()
    for _ in range(60):
        m = with_loops_and_coloops(rng, random_matroid(rng, 8, min_elements=1))
        elems = m.elements()
        for size in range(1, len(elems) + 1):
            for subset in combinations(elems, size):
                got = m.is_circuit(subset)
                assert got == is_circuit_reference(m, subset), (m, subset)
                seen[got, size == 1] += 1
    # circuits and non-circuits, loops and non-loops among the singletons
    assert len(seen) == 4, seen


def test_loop_is_a_one_element_circuit():
    m = BinaryMatroid(("r1",), ("s1",), Gf2Matrix(1, 1, (0,)))
    assert m.is_circuit({"s1"})
    assert not m.is_circuit({"r1"})


def test_is_circuit_rejects_empty_and_unknown():
    m = get_named("g1")
    for bad in (set(), {"zz"}, {"r1", "zz"}):
        with pytest.raises(InputError) as got:
            m.is_circuit(bad)
        with pytest.raises(InputError) as want:
            is_circuit_reference(m, bad)
        assert str(got.value) == str(want.value)


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
            piv = exchanged(m, *rng.choice(spots))
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
        assert minimal_supports(basis, own) == minimal_supports(basis)
        for other in hists:
            assert (minimal_supports(basis, other) is not None) == (own == other)


def test_equal_columns_matches_the_grouping_reference():
    # Over a cycle basis the classes are series classes, over cocycle rows
    # parallel classes; either way they are the groups of two or more
    # positions with equal columns, whatever the ground's gaps.
    rng = Random(0xC1A55)
    cases = [([], 0), ([0b101], 0), ([0b101], 0b100), ([], 0b1011)]
    for _ in range(60):
        m = random_matroid(rng, 12)
        full = (1 << m.size) - 1
        for vectors in (m.fundamental_cycles(), m.dual().fundamental_cycles()):
            outside = full  # in no vector: the coloops (over cocycle rows, loops)
            for v in vectors:
                outside &= ~v
            cases += [
                (vectors, full),
                (vectors, full & rng.getrandbits(m.size)),
                (vectors, outside),
                (vectors, full & 1 << rng.randrange(m.size + 1)),
            ]
    for vectors, ground in cases:
        expected = [
            sum(1 << p for p in cls)
            for cls in equal_columns_reference(vectors, ground) if len(cls) > 1
        ]
        assert sorted(equal_columns(vectors, ground)) == sorted(expected)


def test_delete_cycles_matches_deletion():
    # For random masks and for every cocircuit, the vectors left must be
    # fundamental circuits of m \ mask: the same circuits, one private bit
    # each, and the same components; the count is the rank lost.
    rng = Random(0xDE1C7)
    seen = Counter()
    for _ in range(60):
        m = random_matroid(rng, 10)
        elems = m.elements()
        full = (1 << m.size) - 1
        masks = [full & rng.getrandbits(m.size) for _ in range(4)]
        masks += [sum(1 << elems.index(e) for e in y) for y in m.dual().circuits()]
        for mask in masks:
            vectors, lost = delete_cycles(m.fundamental_cycles(), mask)
            rest = m.delete_all(mask_to_labels(mask, elems))
            circuits = {mask_to_labels(s, elems) for s in minimal_supports(vectors)}
            assert circuits == rest.circuits()
            assert lost == m.full_rank - m.rank(rest.elements())
            for i, v in enumerate(vectors):
                others = 0
                for w in vectors[:i] + vectors[i + 1:]:
                    others |= w
                assert v & ~others
            comps = {mask_to_labels(c, elems) for c in _components(vectors, full & ~mask)}
            assert comps == components_reference(rest.elements(), rest.circuits())
            seen["coloop deleted"] += lost > 0
            seen["several components"] += len(comps) > 1
        seen["loops"] += bool(m.loops())
        seen["coloops"] += bool(m.coloops())
    assert all(seen[k] for k in ("coloop deleted", "several components", "loops", "coloops"))


def test_delete_cycles_matches_the_per_bit_reference():
    # The one-pass elimination gives the per-bit one's vectors, in the same
    # order, and the same count: on fundamental circuits, on lists with
    # dependent and zero vectors, and with mask bits that no vector has.
    rng = Random(0xDE1C8)
    seen = Counter()
    for _ in range(400):
        m = random_matroid(rng, 12)
        vectors = m.fundamental_cycles()
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                v = 0
                if vectors and rng.random() < 0.7:
                    for w in rng.sample(vectors, rng.randint(1, len(vectors))):
                        v ^= w
                vectors.insert(rng.randint(0, len(vectors)), v)
                seen["zero" if not v else "dependent"] += 1
        mask = rng.getrandbits(m.size + 3)
        seen["absent bit"] += bool(mask & ~support(vectors))
        found = delete_cycles(vectors, mask)
        assert found == delete_cycles_reference(vectors, mask), (vectors, mask)
        seen["lost"] += found[1] > 0
    assert all(seen[k] for k in ("zero", "dependent", "absent bit", "lost"))


def test_components_peel_as_the_merging_reference():
    # Components peeled lowest element first by _component are the merged
    # ones, in the same order: with an empty ground, with coloops, in one
    # component, and after deletions.
    rng = Random(0xC0A9)
    seen = Counter()
    cases = [([], 0), ([], 0b101), ([0b111], 0b111)]
    for _ in range(200):
        m = random_matroid(rng, 12)
        full = (1 << m.size) - 1
        mask = full & rng.getrandbits(m.size)
        cases += [(m.fundamental_cycles(), full),
                  (delete_cycles(m.fundamental_cycles(), mask)[0], full & ~mask)]
    for circuits, ground in cases:
        comps = _components(circuits, ground)
        assert comps == components_by_merging_reference(circuits, ground)
        assert _component(circuits, ground) == (comps[0] if comps else 0)
        seen["empty"] += not ground
        seen["coloop"] += bool(ground & ~support(circuits))
        seen["one"] += len(comps) == 1 and bool(ground & (ground - 1))
        seen["several"] += len(comps) > 1
    assert all(seen[k] for k in ("empty", "coloop", "one", "several"))


def test_contract_cycles_matches_contraction():
    # Contracting one element, then a random mask, from the fundamental
    # circuits must leave fundamental circuits of m / mask: the circuits of
    # apply_ops, one private bit per vector, and the same components.
    rng = Random(0xC0C7)
    seen = Counter()
    for _ in range(80):
        m = random_matroid(rng, 10, min_elements=1)
        elems = m.elements()
        full = (1 << m.size) - 1
        masks = [1 << p for p in range(m.size)]
        masks += [full & rng.getrandbits(m.size) for _ in range(3)]
        for mask in masks:
            labels = sorted(mask_to_labels(mask, elems))
            rest = m.apply_ops([contract(e) for e in labels])
            vectors = contract_cycles(m.fundamental_cycles(), mask)
            circuits = {mask_to_labels(s, elems) for s in minimal_supports(vectors)}
            assert circuits == rest.circuits()
            assert len(vectors) == rest.corank
            for i, v in enumerate(vectors):
                others = 0
                for w in vectors[:i] + vectors[i + 1:]:
                    others |= w
                assert v & ~others
            comps = {mask_to_labels(c, elems) for c in _components(vectors, full & ~mask)}
            assert comps == components_reference(rest.elements(), rest.circuits())
            if len(labels) == 1:
                (e,) = labels
                seen["loop"] += e in m.loops()
                seen["coloop"] += e in m.coloops()
                seen["cobasis pivot"] += e in m.cobasis_labels and e not in m.loops()
    assert all(seen[k] for k in ("loop", "coloop", "cobasis pivot"))


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
    # The cocircuits that the rank-drop stream lists are the circuits of the
    # dual, by the circuit route and by rank enumeration.
    m = get_named("M(K5)")
    stream = {mask_to_labels(y, m.elements()) for y, _ in cocircuit_masks(m)}
    assert stream == m.dual().circuits()
    assert stream == circuits_by_enumeration(m.dual())
    assert len(stream) == 15


def test_dual_properties_random():
    rng = Random(5150)
    for _ in range(60):
        m = random_matroid(rng, 12)
        d = m.dual()
        assert d.dual() == m
        assert m.full_rank + d.full_rank == m.size


# The route contract(e) takes in m, and the one delete(e) takes in m.dual().
MIRRORED_ROUTES = {
    ROUTE_CONTRACT_ROW: ROUTE_DELETE_COLUMN,
    ROUTE_CONTRACT_LOOP: ROUTE_DELETE_COLOOP,
    ROUTE_CONTRACT_PIVOT: ROUTE_DELETE_PIVOT,
}


def test_minor_dual_exchange_random():
    # m / e is (m* \ e)* as a value, labels and rows alike, for every e:
    # deletion and contraction are one rule with rows and columns swapped.
    rng = Random(31337)
    routes = set()
    for _ in range(40):
        m = random_matroid(rng, 10, min_elements=1)
        for e in m.elements():
            contracted, deleted = [], []
            left = m.apply_ops([contract(e)], contracted)
            right = m.dual().apply_ops([delete(e)], deleted).dual()
            assert left == right
            route = contracted[0].route
            assert MIRRORED_ROUTES[route] == deleted[0].route
            routes.add(route)
    assert routes == set(MIRRORED_ROUTES)


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
        piv = exchanged(m, *rng.choice(spots))
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


def _outcome(apply, m, ops):
    trace = []
    try:
        return apply(m, ops, trace), trace
    except InputError as exc:
        return str(exc), trace


def test_apply_ops_matches_the_one_op_chain():
    rng = Random(2602)
    routes = Counter()
    errors = set()
    for _ in range(400):
        m = with_loops_and_coloops(rng, random_matroid(rng, 12))
        labels = list(m.elements())
        rng.shuffle(labels)
        labels = labels[:rng.randint(0, len(labels))]
        if rng.random() < 0.2:  # a removed or unknown label, or one op too many
            labels.insert(rng.randint(0, len(labels)), rng.choice(m.elements() + ("zz",)))
        ops = [MinorOp(rng.choice(("contract", "delete")), lab) for lab in labels]
        got, got_trace = _outcome(BinaryMatroid.apply_ops, m, ops)
        want, want_trace = _outcome(apply_ops_reference, m, ops)
        assert got == want, (m, ops)
        assert got_trace == want_trace
        routes.update(t.route for t in got_trace)
        if isinstance(got, str):
            errors.add(got.split(" ")[0])
    assert len(routes) == 6, routes
    assert errors == {"unknown", "cannot"}, errors


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


def test_cycle_matroid_matches_the_forest_reference():
    # Echelon-reduced vertex stars give the union-find construction's value,
    # and verify_graph accepts it, on the empty graph and a seeded bank of
    # multigraphs that has loops, parallel edges, isolated vertices and more
    # than one component with edges.
    rng = Random(0xC7C1E)
    graphs = [Graph(0, ())] + [random_graph(rng, 8, 14) for _ in range(2000)]
    seen = Counter()
    for g in graphs:
        m = cycle_matroid(g)
        assert m == cycle_matroid_reference(g), g
        assert verify_graph(m, g)
        ends = [frozenset((u, v)) for u, v, _ in g.edges]
        touched = set().union(*ends)
        seen["loop"] += any(len(e) == 1 for e in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["isolated"] += len(touched) < g.n_vertices
        # Components with an edge: touched vertices less the forest's edges.
        seen["components"] += len(touched) - m.full_rank > 1
    assert min(seen.values()) >= 100, seen


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(2, ((0, 2, "a"),))
    with pytest.raises(InputError):
        Graph(2, ((0, 1, "a"), (1, 0, "a")))
    with pytest.raises(InputError):
        Graph(-1, ())
