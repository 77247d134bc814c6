"""Minor search, witness audit, graphicness, and covering cocircuits."""

from __future__ import annotations

from itertools import combinations
from random import Random

import pytest

from gf2minor import minors
from gf2minor.catalog import get_named
from gf2minor.errors import CapacityError, InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    BinaryMatroid,
    Graph,
    complete_graph,
    contract,
    cycle_matroid,
    delete,
)
from gf2minor.minors import (
    MinorWitness,
    check_graphic_cocircuits,
    find_minor_witness,
    has_minor,
    is_graphic,
    covering_cocircuit_witness,
    verify_witness,
    _coloops,
    _contract_sets,
    _eliminate,
    _has_small_cocircuit,
)

from gen import planted_host, random_matroid, random_simple_graph
from oracles import has_minor_brute_force


def g7_host() -> BinaryMatroid:
    return get_named("g7").apply_ops(
        [contract("r1"), contract("r2"), contract("s5")]
    )


# -- find_minor_witness --------------------------------------------------------


def test_g7_contraction_contains_k5():
    w = find_minor_witness(g7_host(), get_named("M(K5)"))
    assert w is not None
    assert len(w.mapping) == 10
    assert verify_witness(g7_host(), get_named("M(K5)"), w)


def test_identity_minor_of_k33():
    m = get_named("M(K33)")
    w = find_minor_witness(m, m)
    assert w is not None
    assert w.contract_set == frozenset() and w.delete_set == frozenset()
    assert verify_witness(m, m, w)


def test_minors_never_gain_elements():
    assert find_minor_witness(get_named("F7"), get_named("M(K5)")) is None


def test_search_capacity_guards():
    big = BinaryMatroid.from_standard_form(
        Gf2Matrix.zeros(0, 21), [], [f"s{j}" for j in range(21)]
    )
    with pytest.raises(CapacityError):
        find_minor_witness(big, get_named("F7"))
    host = get_named("F7")
    wide = BinaryMatroid.from_standard_form(
        Gf2Matrix.zeros(0, 13), [], [f"s{j}" for j in range(13)]
    )
    with pytest.raises(CapacityError):
        find_minor_witness(host, wide)


def test_search_is_deterministic():
    host = g7_host()
    k5 = get_named("M(K5)")
    assert find_minor_witness(host, k5) == find_minor_witness(host, k5)


def test_witness_identical_across_hash_seeds():
    # Witnesses must not depend on set iteration order.
    import os
    import subprocess
    import sys

    script = (
        "from gf2minor.catalog import get_named\n"
        "from gf2minor.matroid import contract\n"
        "from gf2minor.minors import find_minor_witness\n"
        "host = get_named('g7').apply_ops("
        "[contract(e) for e in ('r1', 'r2', 's5')])\n"
        "w = find_minor_witness(host, get_named('M(K5)'))\n"
        "print(sorted(w.contract_set), sorted(w.delete_set), w.mapping)\n"
    )
    outputs = set()
    for seed in ("0", "1", "31337"):
        res = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.add(res.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("base", ["g7", "g24", "g25"])
def test_monotone_along_case_chain(base):
    # These case hosts contain M(K5), so the uncontracted bases must too.
    assert has_minor(get_named(base), get_named("M(K5)"))


def test_duality_transport_on_r_cases():
    for name in ("r15", "r16"):
        base = get_named(name)
        ops = {"r15": ["r6", "r7", "s8"], "r16": ["r8", "s1", "s3", "s8"]}[name]
        host = base.apply_ops(delete(e) for e in ops)
        direct = has_minor(host, get_named("M*(K33)"))
        dualized = has_minor(host.dual(), get_named("M(K33)"))
        assert direct and dualized


def test_duality_transport_on_all_case_hosts():
    # host has the target iff dual(host) has dual(target), for every case
    # host and both its candidate targets.
    from gf2minor.certify import builtin_cases

    for case in builtin_cases():
        host = case.resolve_base().apply_ops(case.ops)
        for target_name in case.targets:
            target = get_named(target_name)
            assert has_minor(host, target) == has_minor(
                host.dual(), target.dual()
            ), f"{case.name} / {target_name}"


def test_verdicts_match_brute_force_oracle():
    rng = Random(0xBEEF)
    agree = 0
    for _ in range(60):
        host = random_matroid(rng, 8)
        target = random_matroid(rng, 6)
        got = find_minor_witness(host, target)
        expected = has_minor_brute_force(host, target)
        assert (got is not None) == expected
        if got is not None:
            assert verify_witness(host, target, got)
            agree += 1
    assert agree > 5  # the sample must include genuine positives


def test_simple_target_verdicts_match_brute_force_oracle():
    # Targets without loops or parallel pairs take the survivor search's
    # parallel-class pool; half are planted in their host, half are not.
    rng = Random(0x5EED)
    found = missed = 0
    for i in range(40):
        target = cycle_matroid(random_simple_graph(rng, 5, min_edges=4, max_edges=6))
        assert all(len(c) >= 3 for c in target.circuits())
        if i % 2 == 0:
            host = planted_host(rng, target, 8 - target.size)
        else:
            host = random_matroid(rng, 8, min_elements=target.size)
        got = find_minor_witness(host, target)
        expected = has_minor_brute_force(host, target)
        assert (got is not None) == expected
        if i % 2 == 0:
            assert got is not None
        if got is not None:
            assert verify_witness(host, target, got)
            found += 1
        else:
            missed += 1
    assert found > 20 and missed > 3  # both answers must occur


def test_witnesses_from_search_always_verify():
    rng = Random(0xCAFE)
    for _ in range(40):
        host = random_matroid(rng, 9)
        target = random_matroid(rng, 5)
        w = find_minor_witness(host, target)
        if w is not None:
            assert verify_witness(host, target, w)


def closure(host: BinaryMatroid, subset) -> frozenset[str]:
    """cl(subset) by brute force: the elements that do not raise its rank."""
    subset = list(subset)
    r = host.rank(subset)
    return frozenset(e for e in host.elements() if host.rank(subset + [e]) == r)


def test_contract_set_walk_finds_parallel_classes_of_the_contraction():
    # The walk yields, in combinations order, exactly the first independent
    # combination of each rank-c_size flat (host / C depends only on cl(C)),
    # and its reduced columns are equal exactly for parallel elements of
    # host / C and zero exactly for its loops and for C itself.
    rng = Random(0xC0DE)
    for _ in range(20):
        host = random_matroid(rng, 9, min_elements=2)
        elems = host.elements()
        c_size = rng.randint(0, host.full_rank)
        walked = list(_contract_sets([host.full_column(e) for e in elems], c_size))
        first_of_flat: dict[frozenset[str], tuple[int, ...]] = {}
        for combo in combinations(range(host.size), c_size):
            chosen = [elems[i] for i in combo]
            if host.rank(chosen) == c_size:
                first_of_flat.setdefault(closure(host, chosen), combo)
        assert [combo for combo, _ in walked] == list(first_of_flat.values())
        for combo, reduced in walked:
            minor = host.apply_ops(contract(elems[i]) for i in combo)
            rest = [i for i in range(host.size) if i not in combo]
            assert all(reduced[i] == 0 for i in combo)
            for i in rest:
                assert (reduced[i] == 0) == (minor.rank([elems[i]]) == 0)
            for i, j in combinations(rest, 2):
                if reduced[i] and reduced[j]:
                    parallel = minor.rank([elems[i], elems[j]]) == 1
                    assert (reduced[i] == reduced[j]) == parallel


def test_small_cocircuit_check_matches_the_dual_circuits():
    # M|alive has a coloop or a series pair exactly when its dual has a
    # circuit of size at most 2; the cycle space of the restriction is the
    # host's with the deleted elements eliminated, as in the survivor walk.
    rng = Random(0x5E41E5)
    answers = set()
    for _ in range(80):
        m = random_matroid(rng, 9, min_elements=1)
        elems = m.elements()
        alive, vectors = 0, m.fundamental_cycles()
        for idx in range(m.size):
            if rng.random() < 0.7:
                alive |= 1 << idx
            else:  # deleting a coloop (None) leaves the cycle space as it is
                reduced = _eliminate(vectors, 1 << idx)
                vectors = vectors if reduced is None else reduced
        restricted = m.delete_all(e for i, e in enumerate(elems) if not alive >> i & 1)
        expected = any(len(c) <= 2 for c in restricted.dual().circuits())
        assert _coloops(vectors, alive) == len(restricted.coloops())
        assert _has_small_cocircuit(vectors, alive) == expected
        full = (1 << restricted.size) - 1
        assert _has_small_cocircuit(restricted.fundamental_cycles(), full) == expected
        answers.add(expected)
    assert answers == {True, False}


WHEEL4 = Graph(5, tuple(
    (u, v, f"e{i + 1}") for i, (u, v) in enumerate(
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]
    )
))


def add_coloop(m: BinaryMatroid) -> BinaryMatroid:
    """m plus a fresh coloop: one more basis row, zero in every column."""
    return BinaryMatroid(
        m.basis_labels + ("zc",), m.cobasis_labels,
        Gf2Matrix(m.a.n_rows + 1, m.a.n_cols, m.a.rows + (0,)),
    )


@pytest.mark.parametrize("name, max_host", [("M(K4)", 8), ("W4", 9)])
def test_small_cosimple_targets_match_brute_force_oracle(name, max_host):
    # The series-pair prune is on for cosimple targets; half the hosts are
    # planted, half random.  Host sizes keep the oracle to about a second.
    target = {
        "M(K4)": cycle_matroid(complete_graph(4)), "W4": cycle_matroid(WHEEL4),
    }[name]
    assert not any(len(c) <= 2 for c in target.dual().circuits())
    assert minors._target_data(target).cosimple
    rng = Random(0xC051 + target.size)
    found = missed = 0
    for i in range(16):
        if i % 2 == 0:
            host = planted_host(rng, target, rng.randint(0, max_host - target.size))
        else:
            host = random_matroid(rng, max_host, min_elements=target.size)
        got = find_minor_witness(host, target)
        assert (got is not None) == has_minor_brute_force(host, target)
        if got is not None:
            assert verify_witness(host, target, got)
            found += 1
        else:
            missed += 1
    assert found >= 8 and missed > 0


@pytest.mark.parametrize("name", ["M(K5)", "M(K33)"])
def test_large_cosimple_targets_on_planted_and_random_hosts(name):
    # Too large for the brute-force oracle.  Planted hosts must answer yes
    # with a verified witness.  On random hosts the verdict must equal that
    # of the same search with a coloop added to host and target: the
    # coloop-sum target is not cosimple, so no series prune runs there, and
    # N + coloop is a minor of M + coloop exactly when N is a minor of M.
    target = get_named(name)
    assert minors._target_data(target).cosimple
    assert not minors._target_data(add_coloop(target)).cosimple
    rng = Random(0xB16 + target.size)
    for i in range(12):
        if i % 2 == 0:
            host = planted_host(rng, target, rng.randint(0, 13 - target.size))
            got = find_minor_witness(host, target)
            assert got is not None and verify_witness(host, target, got)
        else:
            host = random_matroid(rng, 13, min_elements=target.size)
            got = find_minor_witness(host, target)
            unpruned = find_minor_witness(add_coloop(host), add_coloop(target))
            assert (got is not None) == (unpruned is not None)
            if got is not None:
                assert verify_witness(host, target, got)


def test_contract_sets_of_witnesses_are_greedy_bases():
    # Every witness's contract set is the lexicographically first basis of
    # its closure, the one the greedy algorithm picks in host order.
    rng = Random(0x6EED)
    hits = 0
    for i in range(60):
        if i % 2 == 0:
            target = random_matroid(rng, 6, min_elements=2)
            host = planted_host(rng, target, rng.randint(0, 5))
        else:
            host = random_matroid(rng, 10)
            target = random_matroid(rng, 6)
        w = find_minor_witness(host, target)
        if w is None:
            continue
        greedy: list[str] = []
        for e in host.elements():
            if e in closure(host, w.contract_set) and host.rank(greedy + [e]) > len(greedy):
                greedy.append(e)
        assert w.contract_set == frozenset(greedy)
        hits += 1
    assert hits > 30


# -- verify_witness -------------------------------------------------------------


def test_identity_witness_on_k5():
    m = get_named("M(K5)")
    w = MinorWitness(
        contract_set=frozenset(),
        delete_set=frozenset(),
        mapping=tuple((e, e) for e in sorted(m.ground_set)),
    )
    assert verify_witness(m, m, w)


def test_tampered_witness_is_rejected():
    host = g7_host()
    k5 = get_named("M(K5)")
    w = find_minor_witness(host, k5)
    assert w is not None and verify_witness(host, k5, w)

    pairs = list(w.mapping)
    (t0, h0), (t1, h1) = pairs[0], pairs[1]
    swapped = tuple([(t0, h1), (t1, h0)] + pairs[2:])
    tampered = MinorWitness(w.contract_set, w.delete_set, swapped)
    assert verify_witness(host, k5, tampered) is False


def test_malformed_witnesses_raise_input_error():
    host = g7_host()
    k5 = get_named("M(K5)")
    w = find_minor_witness(host, k5)
    surv = sorted(w.survivors())

    overlapping = MinorWitness(
        w.contract_set | {surv[0]}, w.delete_set, w.mapping
    )
    with pytest.raises(InputError):
        verify_witness(host, k5, overlapping)

    not_injective = MinorWitness(
        w.contract_set,
        w.delete_set,
        tuple((t, surv[0]) for t, _ in w.mapping),
    )
    with pytest.raises(InputError):
        verify_witness(host, k5, not_injective)

    unaccounted = MinorWitness(w.contract_set, frozenset(), w.mapping)
    with pytest.raises(InputError):
        verify_witness(host, k5, unaccounted)

    alien = MinorWitness(
        w.contract_set | {"nope"}, w.delete_set - {sorted(w.delete_set)[0]},
        w.mapping,
    )
    with pytest.raises(InputError):
        verify_witness(host, k5, alien)


# -- graphicness -----------------------------------------------------------------


@pytest.mark.parametrize("graph_n", [4, 5])
def test_complete_graph_cycle_matroids_are_graphic(graph_n):
    assert is_graphic(cycle_matroid(complete_graph(graph_n)))


def test_k33_cycle_matroid_is_graphic():
    assert is_graphic(get_named("M(K33)"))


@pytest.mark.parametrize("name", ["F7", "F7*", "M*(K5)", "M*(K33)"])
def test_excluded_minors_are_not_graphic(name):
    assert not is_graphic(get_named(name))


def test_is_graphic_builds_the_excluded_minor_data_once(monkeypatch):
    built = []
    real = minors._target_data
    monkeypatch.setattr(minors, "_target_data", lambda t: built.append(t) or real(t))
    minors._excluded_minor_data.cache_clear()
    # A graphic input is answered by a graph and needs no search data.
    assert is_graphic(get_named("M(K5)"))
    assert built == []
    assert not is_graphic(get_named("F7"))
    assert len(built) == 4
    assert not is_graphic(get_named("F7*"))
    assert len(built) == 4


def test_graphicness_capacity_guard():
    big = BinaryMatroid.from_standard_form(
        Gf2Matrix.zeros(0, 21), [], [f"s{j}" for j in range(21)]
    )
    with pytest.raises(CapacityError):
        is_graphic(big)


def test_all_cocircuits_of_k4_are_graphic():
    report = check_graphic_cocircuits(cycle_matroid(complete_graph(4)))
    assert report.all_graphic
    assert len(report.checks) == 7  # 4 vertex stars + 3 balanced cuts


def test_empty_matroid_has_vacuously_graphic_cocircuits():
    empty = BinaryMatroid.from_standard_form(Gf2Matrix.zeros(0, 0), [], [])
    report = check_graphic_cocircuits(empty)
    assert report.all_graphic and report.checks == ()


def test_dual_g18_has_a_nongraphic_cocircuit():
    report = check_graphic_cocircuits(get_named("g18").dual())
    assert not report.all_graphic


# -- covering_cocircuit_witness ---------------------------------------------------------------


def test_covering_cocircuit_trivial_case():
    m = cycle_matroid(complete_graph(4))
    c = sorted(m.cocircuits(), key=lambda s: (len(s), sorted(s)))[0]
    assert covering_cocircuit_witness(m, [], c) == c


def test_covering_cocircuit_after_one_deletion():
    m = cycle_matroid(complete_graph(4))
    ops = [delete("e12")]
    n = m.apply_ops(ops)
    for c in sorted(n.cocircuits(), key=lambda s: (len(s), sorted(s))):
        cm = covering_cocircuit_witness(m, ops, c)
        assert cm is not None
        assert c <= cm
        assert cm & n.ground_set == c


def test_covering_cocircuit_rejects_non_cocircuit():
    m = cycle_matroid(complete_graph(4))
    with pytest.raises(InputError):
        covering_cocircuit_witness(m, [], {"e12"})


def test_covering_cocircuit_random_instances():
    rng = Random(0xFEED)
    done = 0
    while done < 25:
        m = random_matroid(rng, 10, min_elements=3)
        n_ops = rng.randint(1, 3)
        mm = m
        ops = []
        for _ in range(n_ops):
            if mm.size <= 1:
                break
            e = rng.choice(sorted(mm.ground_set))
            op = contract(e) if rng.random() < 0.5 else delete(e)
            ops.append(op)
            mm = mm.apply_ops([op])
        if not ops:
            continue
        n = m.apply_ops(ops)
        cocs = sorted(n.cocircuits(), key=lambda s: (len(s), sorted(s)))
        if not cocs:
            continue
        c = rng.choice(cocs)
        cm = covering_cocircuit_witness(m, ops, c)
        assert cm is not None, f"no covering cocircuit for {sorted(c)}"
        assert c <= cm and cm & n.ground_set == c
        done += 1
