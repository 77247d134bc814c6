"""Minor search, witness audit, graphicness, and covering cocircuits."""

from __future__ import annotations

import gc
from collections import Counter
from itertools import combinations, product
from random import Random

import pytest

from gf2minor import minors
from gf2minor.audit import MinorWitness, verify_graph, verify_witness
from gf2minor.catalog import catalog_names, get_named
from gf2minor.certify import builtin_cases, replay_all
from gf2minor.errors import CapacityError, InputError, MatroidError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    CONTRACT,
    DELETE,
    BinaryMatroid,
    Graph,
    complete_graph,
    contract,
    cycle_matroid,
    delete,
    delete_cycles,
    equal_columns,
)
from gf2minor.minors import (
    check_graphic_cocircuits,
    find_minor_witness,
    graphic_certificate,
    is_graphic,
    covering_cocircuit_witness,
    _certificate,
    _coloops,
    _contract_sets,
    _reduce,
)
from gf2minor.realize import _components

from gen import (
    coloop_host_of_22_elements,
    covering_instances,
    planted_host,
    planted_minor,
    random_graph,
    random_matroid,
    random_simple_graph,
    relabeled_copy,
)
from oracles import covering_cocircuit_reference, has_minor_brute_force


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


def standard_form(rng: Random, size: int, rank: int) -> BinaryMatroid:
    """A random matroid of the given size and rank, labels x1.. and y1.."""
    c = size - rank
    return BinaryMatroid(
        tuple(f"x{i + 1}" for i in range(rank)), tuple(f"y{j + 1}" for j in range(c)),
        Gf2Matrix(rank, c, tuple(rng.getrandbits(c) for _ in range(rank))),
    )


def test_search_capacity_guards():
    # The host guard holds when rank and corank leave the question open
    # (F7 has rank 3 and corank 4); a target has no size limit of its own.
    host = standard_form(Random(21), 21, 5)
    with pytest.raises(CapacityError) as err:
        find_minor_witness(host, get_named("F7"))
    assert str(err.value) == "minor search hosts limited to 20 elements, got 21"
    wide = BinaryMatroid(
        (), tuple(f"s{j}" for j in range(13)), Gf2Matrix(0, 13, ())
    )
    assert find_minor_witness(get_named("F7"), wide) is None


@pytest.mark.parametrize("size, rank, seed", [(13, 8, 21), (20, 12, 32)])
def test_targets_past_twelve_elements_are_searched(size, rank, seed):
    rng = Random(seed)
    target = standard_form(rng, size, rank)
    host = planted_host(rng, target, 20 - size)
    assert host.size == 20
    w = find_minor_witness(host, target)
    assert w is not None and verify_witness(host, target, w)


def test_rank_and_corank_answer_before_any_guard():
    f7 = get_named("F7")
    coloops = BinaryMatroid(
        tuple(f"b{i}" for i in range(30)), (), Gf2Matrix(30, 0, (0,) * 30)
    )
    loops = BinaryMatroid((), tuple(f"s{j}" for j in range(21)), Gf2Matrix(0, 21, ()))
    before = minors._target_data.cache_info()
    assert find_minor_witness(f7, coloops) is None  # higher rank, 30 elements
    assert find_minor_witness(f7, loops) is None  # higher corank
    assert find_minor_witness(loops, f7) is None  # a 21-element host of rank 0
    assert minors._target_data.cache_info() == before


def test_search_is_deterministic():
    host = g7_host()
    k5 = get_named("M(K5)")
    assert find_minor_witness(host, k5) == find_minor_witness(host, k5)


def test_witness_identical_across_hash_seeds():
    # Witnesses must not depend on set iteration order.
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from gf2minor.catalog import get_named\n"
        "from gf2minor.matroid import contract\n"
        "from gf2minor.minors import find_minor_witness\n"
        "host = get_named('g7').apply_ops("
        "[contract(e) for e in ('r1', 'r2', 's5')])\n"
        "w = find_minor_witness(host, get_named('M(K5)'))\n"
        "print(sorted(w.contract_set), sorted(w.delete_set), w.mapping)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in ("0", "1", "31337"):
        res = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.add(res.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("base", ["g7", "g24", "g25"])
def test_monotone_along_case_chain(base):
    # These case hosts contain M(K5), so the uncontracted bases must too.
    assert find_minor_witness(get_named(base), get_named("M(K5)")) is not None


def test_duality_transport_on_r_cases():
    for name in ("r15", "r16"):
        base = get_named(name)
        ops = {"r15": ["r6", "r7", "s8"], "r16": ["r8", "s1", "s3", "s8"]}[name]
        host = base.apply_ops(delete(e) for e in ops)
        direct = find_minor_witness(host, get_named("M*(K33)"))
        dualized = find_minor_witness(host.dual(), get_named("M(K33)"))
        assert direct is not None and dualized is not None


def test_duality_transport_on_all_case_hosts():
    # host has the target iff dual(host) has dual(target), for every case
    # host and both its candidate targets.
    from gf2minor.certify import builtin_cases

    for case in builtin_cases():
        host = case.resolve_base().apply_ops(case.ops)
        for target_name in case.targets:
            target = get_named(target_name)
            direct = find_minor_witness(host, target) is not None
            dualized = find_minor_witness(host.dual(), target.dual()) is not None
            assert direct == dualized, f"{case.name} / {target_name}"


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
    # Targets without loops or parallel pairs walk at most the first member
    # of each parallel class of host / C and no loops; half are planted in
    # their host, half are not.
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


def with_columns(m: BinaryMatroid, extra: list[int]) -> BinaryMatroid:
    """m plus one cobasis element per column of ``extra`` (bit i = row i).

    A zero column is a loop; a copy of an element's column is parallel to it.
    """
    k, c = m.a.n_rows, m.a.n_cols
    rows = tuple(
        r | sum((v >> i & 1) << (c + j) for j, v in enumerate(extra))
        for i, r in enumerate(m.a.rows)
    )
    labels = tuple(f"p{j + 1}" for j in range(len(extra)))
    return BinaryMatroid(
        m.basis_labels, m.cobasis_labels + labels, Gf2Matrix(k, c + len(extra), rows)
    )


def non_simple_target(rng: Random) -> BinaryMatroid:
    """A random matroid plus up to two loops and up to two parallel copies
    of one of its non-loop elements, at least one of them; 6 elements at most."""
    base = random_matroid(rng, 4, min_elements=1)
    extra = [0] * rng.randint(0, 2)
    nonloops = [v for v in map(base.full_column, base.elements()) if v]
    if nonloops:
        extra += [rng.choice(nonloops)] * rng.randint(0 if extra else 1, 2)
    extra = (extra or [0])[: 6 - base.size]
    return relabeled_copy(rng, with_columns(base, extra))


def non_simple_pairs():
    """(host, target, planted): half the hosts are planted, half random."""
    rng = Random(0x9A7A)
    for i in range(40):
        target = non_simple_target(rng)
        if i % 2 == 0:
            host = planted_host(rng, target, rng.randint(0, 8 - target.size))
            yield host, target, True
        else:
            yield random_matroid(rng, 8, min_elements=target.size), target, False


def mix_pairs():
    """Pairs shaped like the benchmark's minor_mix bank, on smaller hosts.

    An even pair's target is its host after a random contract/delete
    sequence, so it often has loops and parallel classes.
    """
    rng = Random(0x313)
    for i in range(60):
        host = random_matroid(rng, 13, min_elements=10)
        if i % 2 == 0:
            removed = rng.sample(host.elements(), host.size - rng.randint(5, 8))
            ops = [rng.choice((contract, delete))(e) for e in removed]
            yield host, relabeled_copy(rng, host.apply_ops(ops)), True
        else:
            yield host, random_matroid(rng, 7, min_elements=4), False


def test_non_simple_target_verdicts_match_brute_force_oracle():
    found = missed = 0
    for host, target, planted in non_simple_pairs():
        counts = Counter(map(target.full_column, target.elements()))
        assert counts[0] or max(counts.values()) >= 2
        got = find_minor_witness(host, target)
        assert (got is not None) == has_minor_brute_force(host, target)
        if planted:
            assert got is not None
        if got is not None:
            assert verify_witness(host, target, got)
            found += 1
        else:
            missed += 1
    assert found > 20 and missed > 3  # both answers must occur


def test_witness_survivors_are_class_prefixes_of_the_contraction():
    # Within each parallel class of host / C, and among its loops, the
    # survivors are the earliest members in host order: swapping parallel
    # elements (or loops) is an automorphism, and the first hit in the
    # survivor walk's lexicographic order is the canonical one.
    hits = 0
    for host, target, _ in [*non_simple_pairs(), *mix_pairs()]:
        w = find_minor_witness(host, target)
        if w is None:
            continue
        minor = host.apply_ops(contract(e) for e in sorted(w.contract_set))
        classes: dict[int, list[str]] = {}
        for e in host.elements():
            if e not in w.contract_set:
                classes.setdefault(minor.full_column(e), []).append(e)
        for members in classes.values():
            kept = [e for e in members if e in w.survivors()]
            assert kept == members[: len(kept)]
        hits += 1
    assert hits > 50


def test_survivor_walk_tests_one_set_per_class_count_vector(monkeypatch):
    # The host has rank 3: six copies of e1, two each of e2 and e3, one
    # e1+e2+e3 and three loops.  The target (a parallel pair on e1, e2,
    # e1+e2, a coloop e3 and a loop) needs a triangle that no restriction of
    # the host has, so the one contract set (C is empty) is searched to the
    # end.  Walking class prefixes tests at most one survivor set per count
    # vector (how many from each class, within the target's caps); walking
    # every subset would test hundreds.
    free = BinaryMatroid(("x1", "x2", "x3"), (), Gf2Matrix(3, 0, (0, 0, 0)))
    host = with_columns(free, [1] * 5 + [2, 4, 7, 0, 0, 0])
    target = with_columns(free, [1, 3, 0])
    calls = []
    real = minors.minimal_supports
    monkeypatch.setattr(
        minors, "minimal_supports", lambda *a: calls.append(a) or real(*a)
    )
    assert find_minor_witness(host, target) is None
    classes = Counter(map(host.full_column, host.elements()))
    caps = [min(n, 2 if col else 1) for col, n in classes.items()]
    vectors = sum(
        sum(ks) == target.size for ks in product(*(range(c + 1) for c in caps))
    )
    assert 0 < len(calls) <= vectors


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
    # The walk yields, in combinations order, the mask of exactly the first
    # independent combination of each rank-c_size flat (host / C depends
    # only on cl(C)), and its reduced columns are equal exactly for parallel elements of
    # host / C and zero exactly for its loops and for C itself.
    rng = Random(0xC0DE)
    cut = kept = 0
    for _ in range(40):
        host = random_matroid(rng, 9, min_elements=2)
        elems = host.elements()
        c_size = rng.randint(0, host.full_rank)
        columns = [host.full_column(e) for e in elems]
        walked = list(_contract_sets(columns, c_size))
        first_of_flat: dict[frozenset[str], int] = {}
        for combo in combinations(range(host.size), c_size):
            chosen = [elems[i] for i in combo]
            if host.rank(chosen) == c_size:
                first_of_flat.setdefault(closure(host, chosen), sum(1 << i for i in combo))
        assert [cmask for cmask, _ in walked] == list(first_of_flat.values())
        for cmask, reduced in walked:
            combo = [i for i in range(host.size) if cmask >> i & 1]
            minor = host.apply_ops(contract(elems[i]) for i in combo)
            rest = [i for i in range(host.size) if i not in combo]
            assert all(reduced[i] == 0 for i in combo)
            for i in rest:
                assert (reduced[i] == 0) == (minor.rank([elems[i]]) == 0)
            for i, j in combinations(rest, 2):
                if reduced[i] and reduced[j]:
                    parallel = minor.rank([elems[i], elems[j]]) == 1
                    assert (reduced[i] == reduced[j]) == parallel
        # With a class count k the walk yields exactly the leaves of the
        # uncut walk with at least k parallel classes of non-loops, in order.
        k = rng.randint(0, host.size + 1)
        expected = [(cmask, reduced) for cmask, reduced in walked
                    if len(set(reduced) - {0}) >= k]
        assert list(_contract_sets(columns, c_size, k)) == expected
        cut += len(expected) < len(walked)
        kept += 0 < len(expected)
    assert cut >= 10 and kept >= 10


def has_small_cocircuit(vectors: list[int], alive: int) -> bool:
    """The survivor walk's test for a coloop or a series pair of M|alive."""
    return bool(_coloops(vectors, alive) or equal_columns(vectors, alive))


def test_small_cocircuit_check_matches_the_dual_circuits():
    # M|alive has a coloop or a series pair exactly when its dual has a
    # circuit of size at most 2; the cycle space of the restriction is the
    # host's with the deleted elements eliminated, as in the survivor walk.
    rng = Random(0x5E41E5)
    answers = set()
    for _ in range(80):
        m = random_matroid(rng, 9, min_elements=1)
        elems = m.elements()
        alive = sum(1 << idx for idx in range(m.size) if rng.random() < 0.7)
        vectors, _ = delete_cycles(m.fundamental_cycles(), (1 << m.size) - 1 & ~alive)
        restricted = m.delete_all(e for i, e in enumerate(elems) if not alive >> i & 1)
        expected = any(len(c) <= 2 for c in restricted.dual().circuits())
        assert _coloops(vectors, alive) == len(restricted.coloops())
        assert has_small_cocircuit(vectors, alive) == expected
        full = (1 << restricted.size) - 1
        assert has_small_cocircuit(restricted.fundamental_cycles(), full) == expected
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


def count_contract_sets(monkeypatch, cut: bool = True) -> list[int]:
    """Make the search count the contract sets it walks into the returned
    list's one item; with ``cut`` False it walks them with no class cut."""
    count = [0]

    def counted(columns, c_size, n_classes=0):
        for leaf in _contract_sets(columns, c_size, n_classes if cut else 0):
            count[0] += 1
            yield leaf

    monkeypatch.setattr(minors, "_contract_sets", counted)
    return count


def test_replays_walk_only_contract_sets_with_enough_classes(monkeypatch):
    # Most contract sets of the 29 replays leave host / C with fewer
    # parallel classes than the target has; the cut drops them inside the
    # walk (634 contract sets without it, 147 of them r16's M*(K33) search
    # and 53 to 58 each the M(K5) searches that fail on g4, g5, g14, g23).
    count = count_contract_sets(monkeypatch)
    walked = {}
    for case in builtin_cases():
        host = case.resolve_base().apply_ops(case.ops)
        for name in case.targets:
            before = count[0]
            found = find_minor_witness(host, get_named(name))
            walked[case.name, name] = count[0] - before
            if found is not None:
                break
    assert sum(walked.values()) <= 63
    assert walked["r16", "M*(K33)"] <= 1
    for case in ("g4", "g5", "g14", "g23"):
        assert walked[case, "M(K5)"] == 0


def test_replays_match_only_survivor_sets_that_hit(monkeypatch):
    # The survivor walk checks every deletion of its tail for a coloop or a
    # series pair before it matches, so over the 29 replays each circuit
    # match is a hit: 28 cases have a witness, and g8 matches nothing.
    real = minors._match
    results = []
    monkeypatch.setattr(
        minors, "_match", lambda *a: results.append(real(*a)) or results[-1]
    )
    reports, _ = replay_all(jobs=1)
    assert sum(r.witness is not None for r in reports) == 28
    assert len(results) == 28
    assert all(mapping is not None for mapping in results)


def replay_hosts_with_non_simple_targets():
    """The 29 replay hosts, each with M(K5) and M(K33) plus a loop, a
    parallel copy of an element, or both."""
    hosts = [case.resolve_base().apply_ops(case.ops) for case in builtin_cases()]
    for name in ("M(K5)", "M(K33)"):
        base = get_named(name)
        col = base.full_column(base.elements()[0])
        for extra in ([0], [col], [0, col]):
            target = with_columns(base, extra)
            for host in hosts:
                yield host, target, False


def test_the_class_cut_changes_no_witness(monkeypatch):
    # Differential against the same search with the cut off, on pairs whose
    # targets have loops and parallel classes: every witness is the same.
    pairs = [*mix_pairs(), *non_simple_pairs(), *replay_hosts_with_non_simple_targets()]
    with_cut = count_contract_sets(monkeypatch)
    expected = [find_minor_witness(host, target) for host, target, _ in pairs]
    without_cut = count_contract_sets(monkeypatch, cut=False)
    assert [find_minor_witness(host, target) for host, target, _ in pairs] == expected
    assert sum(w is not None for w in expected) > 100
    assert with_cut[0] * 2 < without_cut[0]


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


def test_is_graphic_builds_the_excluded_minor_data_once():
    minors._target_data.cache_clear()
    # A graphic input is answered by a graph and needs no search data.
    assert is_graphic(get_named("M(K5)"))
    assert minors._target_data.cache_info().misses == 0
    assert not is_graphic(get_named("F7"))
    assert minors._target_data.cache_info().misses == 4
    assert not is_graphic(get_named("F7*"))
    assert minors._target_data.cache_info().misses == 4


def test_searches_leave_no_cyclic_garbage():
    # The search and realization walks are module-level functions, not
    # closures that refer to themselves, so once the caches are warm a
    # replay of the 29 certificates and the graphicness of 16 catalog
    # entries free everything by reference counting alone.
    entries = [get_named(name) for name in (
        "g7", "g10", "g12", "g18", "g21", "g24", "g9", "g6", "r15", "r16",
        "M(K5)", "M(K33)", "M*(K5)", "M*(K33)", "F7", "F7*",
    )]

    def run():
        replay_all(jobs=1)
        for m in entries:
            is_graphic(m)

    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_target_data_are_cached_by_value_for_every_caller():
    minors._target_data.cache_clear()
    replay_all(jobs=1)  # M(K5), M(K33), M*(K5), M*(K33)
    assert minors._target_data.cache_info().misses == 4
    graphic_certificate(get_named("F7"))  # adds F7 and F7*
    assert minors._target_data.cache_info().misses == 6


@pytest.mark.parametrize("entry", [is_graphic, graphic_certificate], ids=lambda f: f.__name__)
def test_graphicness_capacity_guard(entry):
    big = BinaryMatroid(
        (), tuple(f"s{j}" for j in range(21)), Gf2Matrix(0, 21, ())
    )
    with pytest.raises(CapacityError) as err:
        entry(big)
    assert str(err.value) == "graphicness test limited to 20 elements, got 21"


def test_all_cocircuits_of_k4_are_graphic():
    report = check_graphic_cocircuits(cycle_matroid(complete_graph(4)))
    assert report.all_graphic
    assert len(report.checks) == 7  # 4 vertex stars + 3 balanced cuts


def test_empty_matroid_has_vacuously_graphic_cocircuits():
    empty = BinaryMatroid((), (), Gf2Matrix(0, 0, ()))
    report = check_graphic_cocircuits(empty)
    assert report.all_graphic and report.checks == ()


def test_dual_g18_has_a_nongraphic_cocircuit():
    report = check_graphic_cocircuits(get_named("g18").dual())
    assert not report.all_graphic


def deletion_cycles(m: BinaryMatroid, y) -> tuple[list[int], int, int]:
    """Y eliminated from m's fundamental circuits, as the check deletes it.

    Returns the vectors, the mask of the elements left, and how many
    elements of Y were coloops of what was left when their turn came (no
    vector had their bit).
    """
    ymask = sum(1 << p for p, e in enumerate(m.elements()) if e in y)
    vectors, coloops = delete_cycles(m.fundamental_cycles(), ymask)
    return vectors, (1 << m.size) - 1 & ~ymask, coloops


def assert_cocircuit_checks_match_deletion(m: BinaryMatroid) -> Counter:
    """Compare ``check_graphic_cocircuits`` with is_graphic(m.delete_all(Y)).

    ``_certificate`` on m's fundamental circuits with Y eliminated, the
    check's own path, must give every graphic m \\ Y a graph, labelled from
    m, that ``verify_graph`` accepts for m.delete_all(Y), and every other Y
    an excluded minor of m \\ Y: a witness in m that ``verify_witness``
    accepts and that deletes all of Y.
    Returns counts of the cases met: singleton cocircuits, deletions that
    leave more than one component of two or more elements, and deletions
    that are not graphic.
    """
    ys = sorted(m.cocircuits(), key=lambda s: (len(s), sorted(s)))
    report = check_graphic_cocircuits(m)
    assert [c.cocircuit for c in report.checks] == ys
    expected = [is_graphic(m.delete_all(y)) for y in ys]
    assert [c.graphic for c in report.checks] == expected
    assert report.all_graphic == all(expected)
    seen = Counter()
    elems = m.elements()
    for y, graphic in zip(ys, expected):
        vectors, rest, coloops = deletion_cycles(m, y)
        # E - Y is a hyperplane, so exactly one deletion lowers the rank.
        assert coloops == 1
        seen["singleton"] += len(y) == 1
        blocks = [c for c in _components(vectors, rest) if c & (c - 1)]
        seen["blocks"] += len(blocks) > 1
        seen["not graphic"] += not graphic
        cert = _certificate(vectors, rest, elems)
        assert isinstance(cert, Graph) == graphic
        if graphic:
            assert verify_graph(m.delete_all(y), cert)
        else:
            name, w = cert
            assert verify_witness(m, get_named(name), w)
            assert y <= w.delete_set
    return seen


def test_reduce_raises_on_a_graphic_matroid():
    # A graph and no excluded minor would contradict Tutte's theorem; the
    # reduction says so rather than answer None.
    m = cycle_matroid(complete_graph(4))
    with pytest.raises(MatroidError, match="Tutte"):
        _reduce(m.fundamental_cycles(), (1 << m.size) - 1, m.elements())


@pytest.mark.parametrize("name", ["g29", "r15", "r16", "g18*"])
def test_cocircuit_checks_match_deletion_on_catalog_entries(name):
    m = get_named(name.rstrip("*"))
    assert_cocircuit_checks_match_deletion(m.dual() if name.endswith("*") else m)


def test_cocircuit_checks_match_deletion_on_random_matroids():
    rng = Random(0xDE1E7E)
    seen = Counter()
    for _ in range(15):
        m = random_matroid(rng, 16, min_elements=12)
        seen += assert_cocircuit_checks_match_deletion(m)
    assert seen["not graphic"] and seen["singleton"] and seen["blocks"]


def test_cocircuit_checks_match_deletion_on_duals_of_multigraphs():
    # Two random multigraphs glued at a cut vertex, plus a loop (a coloop
    # of the dual, so a cocircuit of its own) and a pendant bridge (a loop
    # of the dual).  Parallel edges are series pairs of the dual, whose
    # second element is a coloop once the first is eliminated.  Deleting a
    # cocircuit of the dual contracts a cycle of the graph, which can leave
    # several blocks.
    rng = Random(0xB10C5)
    seen = Counter()
    for _ in range(20):
        g1, g2 = random_graph(rng, 4, 7), random_graph(rng, 4, 7)
        shift = g1.n_vertices - 1
        edges = list(g1.edges) + [
            (u + shift, v + shift, f"f{i}") for i, (u, v, _) in enumerate(g2.edges)
        ]
        n = shift + g2.n_vertices
        edges += [(0, 0, "loop"), (n - 1, n, "bridge")]
        m = cycle_matroid(Graph(n + 1, tuple(edges))).dual()
        seen += assert_cocircuit_checks_match_deletion(m)
    assert seen["singleton"] and seen["blocks"]


def test_cocircuit_check_capacity_guard():
    m = coloop_host_of_22_elements()  # deleting Y = {x3} leaves 21
    with pytest.raises(CapacityError) as err:
        check_graphic_cocircuits(m)
    assert str(err.value) == "graphicness test limited to 20 elements, got 21"


def test_cocircuit_check_enumeration_guard():
    # Past 24 elements the check refuses to enumerate the cocircuits, with
    # the error that m.cocircuits() raises.  At 24 it enumerates them, and
    # the graphicness test refuses the first deletion, of the coloop x1.
    def host(size: int) -> BinaryMatroid:
        ys = tuple(f"y{i}" for i in range(size - 2))
        return BinaryMatroid(("x0", "x1"), ys, Gf2Matrix(2, len(ys), ((1 << len(ys)) - 1, 0)))

    message = "circuit enumeration limited to 24 elements, got 25"
    for check in (check_graphic_cocircuits, BinaryMatroid.cocircuits):
        with pytest.raises(CapacityError) as err:
            check(host(25))
        assert str(err.value) == message
    with pytest.raises(CapacityError) as err:
        check_graphic_cocircuits(host(24))
    assert str(err.value) == "graphicness test limited to 20 elements, got 23"


# -- covering_cocircuit_witness ---------------------------------------------------------------


def assert_lemma_1(m: BinaryMatroid, ops, c_n, y) -> None:
    """Y is a cocircuit of m that avoids the contracted set C and meets E(N)
    in c_n, and N \\ c_n is m \\ Y / C \\ (D - Y) under the identity mapping,
    for N = m after ``ops`` = m / C \\ D."""
    n = m.apply_ops(ops)
    contracted = frozenset(op.element for op in ops if op.kind == CONTRACT)
    deleted = frozenset(op.element for op in ops if op.kind == DELETE)
    assert m.dual().is_circuit(y), f"{sorted(y)} is not a cocircuit"
    assert not y & contracted and y & n.ground_set == c_n
    rest = n.delete_all(c_n)
    identity = tuple((e, e) for e in sorted(rest.ground_set))
    w = MinorWitness(contracted, deleted - y, identity)
    assert verify_witness(m.delete_all(y), rest, w)


def planted_covering_bank():
    """Three hosts of 20 to 30 elements around the dual N of each of the 29
    g/r catalog entries, keeping N's labels, each with a random cocircuit
    of N."""
    rng = Random(0xC0C1)
    for name in catalog_names():
        if name[0] not in "gr":
            continue
        n = get_named(name).dual()
        cocircuits = sorted(n.cocircuits(), key=lambda s: (len(s), sorted(s)))
        for _ in range(3):
            size = rng.randint(max(20, n.size + 1), 30)
            m, ops = planted_minor(rng, n, size - n.size)
            assert m.apply_ops(ops) == n
            yield m, ops, rng.choice(cocircuits)


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
    # Not a cocircuit, empty, and holding the deleted e14: none is one of N.
    m = cycle_matroid(complete_graph(4))
    for c_n in ({"e12"}, set(), {"e12", "e13", "e14"}):
        with pytest.raises(InputError) as err:
            covering_cocircuit_witness(m, [delete("e14")], c_n)
        assert str(err.value) == f"{sorted(c_n)} is not a cocircuit of the minor"


def test_covering_cocircuit_random_instances():
    # Random small instances, then planted hosts around the 29 paper duals.
    # Most of those are past the minor search's limits (20-element hosts,
    # 12-element targets), which elimination does not have.
    planted = list(planted_covering_bank())
    assert len(planted) == 87
    instances = list(covering_instances(Random(0xFEED), 25, min_elements=3))
    for m, ops, c in instances + planted:
        cm = covering_cocircuit_witness(m, ops, c)
        assert_lemma_1(m, ops, c, cm)


def test_covering_cocircuit_runs_no_search_and_no_enumeration(monkeypatch):
    m = cycle_matroid(complete_graph(4))
    ops = [delete("e14"), delete("e24"), delete("e34")]
    host, host_ops = planted_minor(Random(0x61), get_named("g1").dual(), 8)
    c = min(get_named("g1").circuits(), key=lambda s: (len(s), sorted(s)))

    def forbidden(*args):
        raise AssertionError("covering ran a search or an enumeration")

    monkeypatch.setattr(minors, "find_minor_witness", forbidden)
    monkeypatch.setattr(BinaryMatroid, "cocircuits", forbidden)
    monkeypatch.setattr(BinaryMatroid, "circuits", forbidden)
    found = covering_cocircuit_witness(m, ops, {"e12", "e13"})
    assert found == {"e12", "e13", "e24", "e34"}
    lifted = covering_cocircuit_witness(host, host_ops, c)
    monkeypatch.undo()
    assert_lemma_1(m, ops, frozenset({"e12", "e13"}), found)
    assert_lemma_1(host, host_ops, c, lifted)


def test_covering_cocircuit_and_the_search_reference_fit_the_lemma():
    # Both answers fit the lemma on the acceptance bank; where several
    # cocircuits fit, the two may pick different ones.
    def has_minor(host, target):
        return find_minor_witness(host, target) is not None

    for m, ops, c_n in covering_instances(Random(0x1EAF), 100, min_elements=2):
        n = m.apply_ops(ops)
        found = covering_cocircuit_witness(m, ops, c_n)
        reference = covering_cocircuit_reference(m, ops, c_n, has_minor)
        for y in (found, reference):
            assert c_n <= y and y & n.ground_set == c_n
            assert m.dual().is_circuit(y)
