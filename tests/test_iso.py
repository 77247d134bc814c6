"""Isomorphism testing against the all-bijections oracle."""

from __future__ import annotations

import time
from collections import Counter
from random import Random

import pytest

from gf2minor import minors
from gf2minor.catalog import catalog_names, get_named
from gf2minor.certify import replay_all
from gf2minor.errors import CapacityError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.iso import (
    element_profiles,
    find_isomorphism,
    match_circuits,
    pair_rows,
    prepare_side,
)
from gf2minor.matroid import (
    CIRCUIT_ENUM_LIMIT,
    BinaryMatroid,
    complete_bipartite_graph,
    complete_graph,
    contract,
    cycle_matroid,
    delete,
    mask_positions,
    mask_to_labels,
    minimal_supports,
)

from gen import (
    exchanged,
    planted_host,
    random_matroid,
    random_standard_form,
    relabeled_copy,
)
from oracles import (
    bijection_maps_circuits,
    circuits_by_enumeration,
    isomorphic_all_bijections,
    match_circuits_reference,
    pair_keys_reference,
    span_circuits_reference,
)


def profile_multiset(m: BinaryMatroid) -> list:
    return sorted(element_profiles(range(m.size), m.circuit_masks()).values())


def test_signature_k5():
    k5 = get_named("M(K5)")
    masks = k5.circuit_masks()
    assert Counter(c.bit_count() for c in masks) == {3: 10, 4: 15, 5: 12}
    # K5 is edge-transitive: every element shows the same profile.
    assert len(set(profile_multiset(k5))) == 1


def test_signature_empty():
    m = BinaryMatroid((), (), Gf2Matrix(0, 0, ()))
    assert find_isomorphism(m, m) == {}


def test_signature_is_label_free():
    rng = Random(8)
    for _ in range(20):
        m = random_matroid(rng, 10)
        assert profile_multiset(m) == profile_multiset(relabeled_copy(rng, m))
        # Re-pivoting moves elements to other positions; the multiset stays.
        ones = [
            (i, j) for i in range(m.a.n_rows) for j in range(m.a.n_cols)
            if m.a.entry(i, j)
        ]
        if ones:
            i, j = rng.choice(ones)
            moved = exchanged(m, m.basis_labels[i], m.cobasis_labels[j])
            assert profile_multiset(moved) == profile_multiset(m)


def test_circuit_signature_of_masked_cycles_matches_the_built_minor():
    # The minor search's view of (host / C) \ D: the host's fundamental
    # cycles with C's bits cleared, keeping the circuit masks inside the
    # survivors S.  They must be the circuits of the minor apply_ops builds.
    rng = Random(9091)
    done = 0
    while done < 60:
        host = random_matroid(rng, 10, min_elements=1)
        elems = host.elements()
        c = rng.sample(elems, rng.randint(0, host.full_rank))
        if host.rank(c) < len(c):
            continue
        rest = [e for e in elems if e not in c]
        s = set(rng.sample(rest, rng.randint(0, len(rest))))
        cmask = sum(1 << elems.index(e) for e in c)
        smask = sum(1 << elems.index(e) for e in s)
        masked = [v & ~cmask for v in host.fundamental_cycles()]
        circuits = [m for m in minimal_supports(masked) if not m & ~smask]
        minor = host.apply_ops(
            [contract(e) for e in c] + [delete(e) for e in rest if e not in s]
        )
        assert {mask_to_labels(m, elems) for m in circuits} == minor.circuits()
        minor_elems = minor.elements()
        mapping = match_circuits(
            prepare_side(
                sorted(mask_positions(smask), key=elems.__getitem__), circuits
            ),
            sorted(range(minor.size), key=minor_elems.__getitem__),
            minor.circuit_masks(),
        )
        assert mapping is not None
        # Loops and coloops read off the circuit masks agree with the matrix.
        profiles = element_profiles(mask_positions(smask), circuits)
        assert (
            len(profiles),
            sum(m.bit_count() == 1 for m in circuits),
            sum(not p for p in profiles.values()),
        ) == (minor.size, len(minor.loops()), len(minor.coloops()))
        done += 1


def test_signature_capacity_guard():
    m = BinaryMatroid(
        (), tuple(f"s{j}" for j in range(25)), Gf2Matrix(0, 25, ())
    )
    with pytest.raises(CapacityError):
        find_isomorphism(m, m)


def test_ranks_and_coranks_answer_past_the_enumeration_limit():
    big, small = random_matroid(Random(25), 25, 25), random_matroid(Random(8), 8, 8)
    assert (big.size, small.size) == (25, 8)
    assert find_isomorphism(big, small) is None
    assert find_isomorphism(small, big) is None


def test_reflexivity_with_identity_on_catalog():
    for name in catalog_names():
        m = get_named(name)
        mapping = find_isomorphism(m, m)
        assert mapping is not None
        assert all(k == v for k, v in mapping.items())


def test_k33_isomorphic_to_catalog_target():
    mine = cycle_matroid(complete_bipartite_graph(3, 3))
    assert find_isomorphism(mine, get_named("M(K33)")) is not None


def test_f7_not_isomorphic_to_its_dual():
    assert find_isomorphism(get_named("F7"), get_named("F7*")) is None


def test_shuffled_k5_isomorphic_with_sound_bijection():
    rng = Random(1234)
    k5 = cycle_matroid(complete_graph(5))
    shuffled = relabeled_copy(rng, k5)
    mapping = find_isomorphism(shuffled, get_named("M(K5)"))
    assert mapping is not None
    assert bijection_maps_circuits(mapping, shuffled.circuits(),
                                   get_named("M(K5)").circuits())
    # The bijection doubles as an identity-minor witness the independent
    # audit accepts (target element -> shuffled host element).
    from gf2minor.audit import MinorWitness, verify_witness

    w = MinorWitness(
        contract_set=frozenset(),
        delete_set=frozenset(),
        mapping=tuple(sorted((t, h) for h, t in mapping.items())),
    )
    assert verify_witness(shuffled, get_named("M(K5)"), w)


def test_label_permutation_never_changes_verdict():
    rng = Random(55)
    for _ in range(20):
        m1 = random_matroid(rng, 7)
        m2 = random_matroid(rng, 7)
        verdict = find_isomorphism(m1, m2) is not None
        assert (find_isomorphism(relabeled_copy(rng, m1), m2) is not None) == verdict
        assert (find_isomorphism(m1, relabeled_copy(rng, m2)) is not None) == verdict


def test_returned_bijections_always_map_circuits():
    rng = Random(66)
    for _ in range(40):
        m1 = random_matroid(rng, 8)
        m2 = relabeled_copy(rng, m1) if rng.random() < 0.7 else random_matroid(rng, 8)
        mapping = find_isomorphism(m1, m2)
        if mapping is not None:
            assert bijection_maps_circuits(mapping, m1.circuits(), m2.circuits())


def test_match_at_the_circuit_enumeration_limit():
    # The matcher recurses once per placed element, so a 24-element match
    # (CIRCUIT_ENUM_LIMIT) is the deepest recursion it can reach.
    rng = Random(8)
    m1 = random_matroid(rng, CIRCUIT_ENUM_LIMIT, CIRCUIT_ENUM_LIMIT)
    m2 = relabeled_copy(rng, m1)
    assert m1.size == CIRCUIT_ENUM_LIMIT
    mapping = find_isomorphism(m1, m2)
    assert mapping is not None
    assert sorted(mapping) == sorted(m1.elements())
    assert sorted(mapping.values()) == sorted(m2.elements())
    assert bijection_maps_circuits(mapping, m1.circuits(), m2.circuits())


def test_agreement_with_all_bijections_oracle():
    rng = Random(424242)
    for _ in range(150):
        m1 = random_matroid(rng, 7)
        m2 = relabeled_copy(rng, m1) if rng.random() < 0.5 else random_matroid(rng, 7)
        expected = isomorphic_all_bijections(
            m1.ground_set, circuits_by_enumeration(m1),
            m2.ground_set, circuits_by_enumeration(m2),
        )
        assert (find_isomorphism(m1, m2) is not None) == expected


def test_isomorphism_of_a_low_rank_pair_is_matched_on_the_duals():
    # Rank 2 and corank 22: the cycle space has 2^22 vectors, the cocycle
    # space 2^2, and a bijection is an isomorphism exactly when it is one of
    # the duals.
    m1 = random_matroid(Random(2), 24, 24)
    m2 = relabeled_copy(Random(3), m1)
    assert (m1.full_rank, m1.corank) == (2, 22)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        mapping = find_isomorphism(m1, m2)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05
    assert mapping is not None and sorted(mapping.values()) == sorted(m2.elements())
    assert bijection_maps_circuits(mapping, m1.dual().circuits(), m2.dual().circuits())


def test_low_rank_pairs_get_the_primal_verdict():
    # Pairs with rank < corank, relabeled copies and unrelated matroids of
    # the same size and rank: the answer is None exactly when matching the
    # primal circuits finds nothing, and every bijection maps circuits onto
    # circuits by the brute-force enumeration.
    rng = Random(0x150)
    found = missed = done = 0
    while done < 30:
        m1 = random_matroid(rng, 12, 8)
        if m1.full_rank >= m1.corank:
            continue
        m2 = random_matroid(rng, m1.size, m1.size) if done % 2 else relabeled_copy(rng, m1)
        while m2.full_rank != m1.full_rank:
            m2 = random_matroid(rng, m1.size, m1.size)
        e1, e2 = m1.elements(), m2.elements()
        primal = match_circuits(
            prepare_side(sorted(range(m1.size), key=e1.__getitem__), m1.circuit_masks()),
            sorted(range(m2.size), key=e2.__getitem__), m2.circuit_masks(),
        )
        mapping = find_isomorphism(m1, m2)
        assert (mapping is None) == (primal is None)
        if mapping is not None:
            assert bijection_maps_circuits(
                mapping, circuits_by_enumeration(m1), circuits_by_enumeration(m2)
            )
            found += 1
        else:
            missed += 1
        done += 1
    assert found >= 15 and missed >= 10


def test_match_circuits_on_raw_families():
    tri1 = [0b111]
    tri2 = [0b111000]
    mapping = match_circuits(prepare_side([0, 1, 2], tri1), [3, 4, 5], tri2)
    assert mapping is not None and sorted(mapping) == [0, 1, 2]
    assert sorted(mapping.values()) == [3, 4, 5]
    assert match_circuits(prepare_side([0, 1, 2], tri1), [3, 4, 5], [0b11000]) is None
    # Same circuit sizes, different profiles (2 is on both triangles and 5
    # is a coloop): only the profile comparison or the search can say no.
    two = [0b000111, 0b111000]
    bowtie = [0b000111, 0b011100]
    assert match_circuits(prepare_side(range(6), two), range(6), bowtie) is None


def _switched(rng: Random, family: set[int]) -> set[int]:
    """``family`` with one element swapped between two sets of equal size.

    Every element keeps its profile, so the profile multiset is unchanged;
    the result may or may not be isomorphic to ``family``.
    """
    sets = sorted(family)
    pairs = [
        (a, b) for a in sets for b in sets
        if a < b and a.bit_count() == b.bit_count()
    ]
    if not pairs:
        return set(family)
    a, b = rng.choice(pairs)
    x = rng.choice(list(mask_positions(a & ~b)))
    y = rng.choice(list(mask_positions(b & ~a)))
    out = set(family) - {a, b}
    out |= {a ^ (1 << x) ^ (1 << y), b ^ (1 << x) ^ (1 << y)}
    return out


def as_sets(family: set[int]) -> set[frozenset[int]]:
    return {frozenset(mask_positions(c)) for c in family}


def test_match_circuits_agrees_with_all_bijections_oracle():
    rng = Random(707)
    verdicts = Counter()
    equal_profiles_rejected = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        fam1 = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 8))}
        roll = rng.random()
        if roll < 0.3:
            perm = list(range(n))
            rng.shuffle(perm)
            fam2 = {
                sum(1 << perm[p] for p in mask_positions(c)) for c in fam1
            }
        elif roll < 0.8:
            fam2 = _switched(rng, fam1)
        else:
            fam2 = {rng.randrange(1, 1 << n) for _ in range(len(fam1))}
        order2 = list(range(n))
        rng.shuffle(order2)
        mapping = match_circuits(prepare_side(range(n), fam1), order2, fam2)
        expected = isomorphic_all_bijections(
            range(n), as_sets(fam1), range(n), as_sets(fam2)
        )
        assert (mapping is not None) == expected
        verdicts[expected] += 1
        if mapping is not None:
            assert sorted(mapping) == sorted(mapping.values()) == list(range(n))
            assert bijection_maps_circuits(mapping, as_sets(fam1), as_sets(fam2))
        elif len(fam1) == len(fam2) and (
            sorted(element_profiles(range(n), fam1).values())
            == sorted(element_profiles(range(n), fam2).values())
        ):
            equal_profiles_rejected += 1
    assert verdicts[True] and verdicts[False]
    # The search itself, not only the profile comparison, must say no.
    assert equal_profiles_rejected


def test_repeated_circuits_count_once_on_either_side():
    once, twice = [0b11], [0b11, 0b11]
    assert match_circuits(prepare_side([0, 1], twice), [0, 1], once) == {0: 0, 1: 1}
    assert match_circuits(prepare_side([0, 1], once), [0, 1], twice) == {0: 0, 1: 1}


def _random_positions(rng: Random, n: int) -> list[int]:
    """``n`` distinct positions in shuffled order, many of them >= 32."""
    return rng.sample(range(80), n)


def _moved(family, src: list[int], dst: list[int]) -> set[int]:
    """``family`` with position src[i] renamed dst[i]."""
    to = dict(zip(src, dst))
    return {sum(1 << to[p] for p in mask_positions(c)) for c in family}


def test_match_circuits_returns_the_reference_bijection_on_raw_families():
    rng = Random(1212)
    verdicts = Counter()
    for _ in range(400):
        n = rng.randint(1, 9)
        pos1 = _random_positions(rng, n)
        if rng.random() < 0.5:
            m = random_matroid(rng, n, min_elements=n)
            fam1 = _moved(m.circuit_masks(), list(range(n)), pos1)
        else:
            fam1 = _moved(
                {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 10))},
                list(range(n)), pos1,
            )
        pos2 = _random_positions(rng, n)
        shuffled = pos2[:]
        rng.shuffle(shuffled)
        roll = rng.random()
        if roll < 0.4:
            fam2 = _moved(fam1, pos1, shuffled)
        elif roll < 0.8:
            fam2 = _moved(_switched(rng, fam1), pos1, shuffled)
        else:
            fam2 = _moved(
                {rng.randrange(1, 1 << n) for _ in range(len(fam1))},
                list(range(n)), pos2,
            )
        got = match_circuits(prepare_side(pos1, fam1), pos2, fam2)
        assert got == match_circuits_reference(pos1, fam1, pos2, fam2)
        verdicts[got is not None] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_find_isomorphism_returns_the_reference_bijection():
    rng = Random(3131)
    found = 0
    for i in range(120):
        m1 = random_matroid(rng, 9)
        m2 = relabeled_copy(rng, m1) if i % 3 else random_matroid(rng, 9)
        e1, e2 = m1.elements(), m2.elements()
        expected = match_circuits_reference(
            sorted(range(m1.size), key=e1.__getitem__), m1.circuit_masks(),
            sorted(range(m2.size), key=e2.__getitem__), m2.circuit_masks(),
        )
        if expected is not None:
            expected = {e1[p]: e2[q] for p, q in expected.items()}
            found += 1
        assert find_isomorphism(m1, m2) == expected
    assert found >= 80  # every relabeled copy


def spy_on_survivor_matches(monkeypatch, targets) -> list[tuple[str, bool]]:
    """Check every ``minors._match`` call for one of ``targets`` against the
    circuit-side reference, and log (target name, hit) per call.

    Both families come from ``oracles``, whichever side the search matches
    on: the target's circuits by subset enumeration, and the survivor set's
    as the minimal supports of the cycle space its vectors span.  Survivor
    positions are in label order, as the search gives them.
    """
    raw = {}
    for name, target in targets.items():
        elems = target.elements()
        index = {e: p for p, e in enumerate(elems)}
        raw[minors._target_data(target)] = name, (
            sorted(range(target.size), key=elems.__getitem__),
            [sum(1 << index[e] for e in c) for c in circuits_by_enumeration(target)],
        )
    calls = []
    real = minors._match

    def checked(tgt, vectors, smask, elems):
        got = real(tgt, vectors, smask, elems)
        name, (positions1, circuits1) = raw[tgt]
        positions2 = sorted(mask_positions(smask), key=elems.__getitem__)
        assert got == match_circuits_reference(
            positions1, circuits1, positions2, span_circuits_reference(vectors)
        )
        calls.append((name, got is not None))
        return got

    monkeypatch.setattr(minors, "_match", checked)
    return calls


def test_replay_survivor_sets_get_the_reference_bijection(monkeypatch):
    names = ("M(K5)", "M(K33)", "M*(K5)", "M*(K33)")
    calls = spy_on_survivor_matches(monkeypatch, {n: get_named(n) for n in names})
    replay_all(jobs=1)
    hits = [hit for _, hit in calls]
    assert len(hits) >= 28 and sum(hits) >= 28


def test_each_named_target_is_matched_on_its_smaller_family():
    # Rank below corank: the cocircuits, 2^rank cocycles, are matched.
    # M(K5) has 37 circuits and 15 cocircuits; M(K33) keeps its 15 circuits.
    expected = {"M(K5)": (True, 15), "M(K33)": (False, 15), "M*(K5)": (False, 15),
                "M*(K33)": (True, 15), "F7": (True, 7), "F7*": (False, 7)}
    for name, (dual, n_family) in expected.items():
        tgt = minors._target_data(get_named(name))
        assert (tgt.dual, tgt.side.n_circuits) == (dual, n_family), name


def test_dual_target_survivor_sets_get_the_reference_bijection(monkeypatch):
    # A dual target is matched on cocircuits, but in the search order of
    # its circuits, so the first bijection is the circuit-side reference's.
    # Seeded targets of rank 4 or 5 below their corank, often with
    # automorphisms whose first image depends on the order, each in two
    # planted hosts and a random one; then the excluded minors that _reduce
    # names on the non-graphic catalog entries.
    rng = Random(0xC0C1)
    targets, pairs = {}, []
    while len(targets) < 40:
        rank = rng.randint(4, 5)
        target = random_standard_form(rng, rank, rng.randint(rank + 1, 6))
        if target in targets.values():
            continue
        targets[f"t{len(targets)}"] = target
        pairs += [(planted_host(rng, target, rng.randint(1, 3)), target) for _ in "ab"]
        pairs.append((random_matroid(rng, target.size + 2, target.size + 2), target))
    excluded = {n: get_named(n) for n in minors.GRAPHICNESS_EXCLUDED}
    calls = spy_on_survivor_matches(monkeypatch, {**targets, **excluded})
    for host, target in pairs:
        minors.find_minor_witness(host, target)
    for name in ("r15", "r16", "M*(K5)", "M*(K33)", "F7", "F7*"):
        minors.graphic_certificate(get_named(name))
    assert all(minors._target_data(t).dual for t in targets.values())
    assert {n for n, hit in calls if hit} >= {*targets, "F7", "M*(K33)"}
    assert sum(not hit for _, hit in calls) > 100


def _pair_counts(positions, circuits) -> dict[tuple[int, int], Counter]:
    """Circuits containing both positions of each pair, counted per size."""
    counts = {(x, y): Counter() for x in positions for y in positions}
    for c in circuits:
        for x in mask_positions(c):
            for y in mask_positions(c):
                counts[x, y][c.bit_count()] += 1
    return counts


def _decoded(key: int, width: int) -> Counter:
    field = (1 << width) - 1
    return Counter({
        k: key >> width * k & field
        for k in range(key.bit_length() // width + 1)
        if key >> width * k & field
    })


def _packed(positions, circuits) -> tuple[list[int], int, int]:
    """``pair_rows`` of a family, with the width and slot ``prepare_side``
    would give it."""
    width = len(circuits).bit_length()
    slot = width * (max(c.bit_count() for c in circuits) + 1)
    return pair_rows(list(positions), circuits, width, slot), width, slot


def _slot(rows: list[int], a: int, b: int, slot: int) -> int:
    return rows[a] >> slot * b & (1 << slot) - 1


def test_pair_keys_hold_every_count_in_its_own_field():
    # Pair {0, 1} lies in every circuit of a size: its count equals the
    # number of circuits, the largest a field has to hold.
    through_pair = [0b11 | 1 << j for j in range(2, 10)]  # 8 triangles
    mixed = through_pair[:4] + [0b11 | 0b11 << j for j in (2, 4, 6, 8)]
    rng = Random(4545)
    randoms = [
        {rng.randrange(1, 1 << 9) for _ in range(rng.randint(1, 40))}
        for _ in range(40)
    ]
    for family in [through_pair, mixed] + randoms:
        rows, width, slot = _packed(range(10), family)
        counts = _pair_counts(range(10), family)
        for x in range(10):
            for y in range(10):
                assert _decoded(_slot(rows, x, y, slot), width) == counts[x, y]
    rows, width, slot = _packed(range(10), through_pair)
    assert (width, slot) == (4, 16)
    assert _slot(rows, 0, 1, slot) == 8 << 4 * 3


def test_families_differing_only_in_one_pair_count_are_told_apart():
    # Four circuits each, so 3-bit fields.  Pair {0, 1} lies in all four
    # triangles of ``many`` (count 4 at size 3) and in one 4-circuit of
    # ``one``; with 2-bit fields the count 4 would carry into the size-4
    # field and the two keys would be equal.
    many = [0b000111, 0b001011, 0b010011, 0b100011]
    one = [0b001111, 0b010100, 0b101000, 0b110000]
    rows, width, slot = _packed(range(6), many)
    assert (width, slot) == (3, 12) and _slot(rows, 0, 1, slot) == 4 << 9
    rows, width, slot = _packed(range(6), one)
    assert (width, slot) == (3, 15) and _slot(rows, 0, 1, slot) == 1 << 12
    assert 4 << 2 * 3 == 1 << 2 * 4
    # Equal profile multisets, but pair {0, 1} lies in two triangles of
    # ``a`` and no pair of ``b`` does: no bijection.
    a = [0b000111, 0b001011, 0b110100]
    b = [0b000111, 0b011001, 0b101010]
    assert sorted(element_profiles(range(6), a).values()) == sorted(
        element_profiles(range(6), b).values()
    )
    for fam1, fam2 in ((a, b), (b, a), (many, one)):
        assert match_circuits(prepare_side(range(6), fam1), range(6), fam2) is None
        assert match_circuits_reference(range(6), fam1, range(6), fam2) is None


def _assert_rows_hold_the_reference_keys(positions, family) -> list[int]:
    rows, width, slot = _packed(positions, family)
    keys = pair_keys_reference(positions, family, width)
    n = len(positions)
    for a in range(n):
        assert rows[a] >> slot * n == 0  # nothing past the last slot
        for b in range(n):
            assert _slot(rows, a, b, slot) == keys[a][b]
    return rows


def test_pair_rows_hold_the_reference_keys_slot_by_slot():
    rng = Random(3030)
    for _ in range(200):
        n = rng.randint(1, 12)
        positions = _random_positions(rng, n)
        family = {
            sum(1 << positions[a] for a in rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 30))
        }
        _assert_rows_hold_the_reference_keys(positions, family)
    # 12 positions with circuits of every size up to 12, the whole set
    # included.
    positions = _random_positions(rng, 12)
    family = {
        sum(1 << positions[a] for a in rng.sample(range(12), size))
        for size in range(1, 13) for _ in range(3)
    }
    assert max(c.bit_count() for c in family) == 12
    _assert_rows_hold_the_reference_keys(positions, family)
    # Pair {0, 1} in all 7 circuits, each of the largest size 4: 3-bit
    # fields, the count 7 fills the top field of its 15-bit slot, and the
    # slots beside it (0's profile, and pair {0, 2} in one circuit) keep
    # their own values.
    family = [0b11 | 0b11 << j for j in range(2, 9)]
    rows = _assert_rows_hold_the_reference_keys(list(range(10)), family)
    assert _slot(rows, 0, 1, 15) == 7 << 12 == (1 << 15) - (1 << 12)
    assert _slot(rows, 0, 0, 15) == 7 << 12
    assert _slot(rows, 0, 2, 15) == 1 << 12


def test_edge_families_get_the_reference_answer():
    # Side 2 with a circuit longer than any of side 1, which would spill
    # out of its slot, or with circuit bits outside positions2, which have
    # no slot: the matcher answers as the reference does.
    rng = Random(6060)
    cases = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        pos1, pos2 = _random_positions(rng, n), _random_positions(rng, n)
        m = random_matroid(rng, n, min_elements=n)
        fam1 = _moved(m.circuit_masks(), list(range(n)), pos1)
        if not fam1:
            continue
        shuffled = pos2[:]
        rng.shuffle(shuffled)
        fam2 = sorted(_moved(fam1, pos1, shuffled))
        k = rng.randrange(len(fam2))
        if rng.random() < 0.5:
            longest = max(c.bit_count() for c in fam1)
            if longest == n:
                continue
            outside_k = [p for p in pos2 if not fam2[k] >> p & 1]
            while fam2[k].bit_count() <= longest:
                fam2[k] |= 1 << outside_k.pop()
        else:
            fam2[k] |= 1 << rng.choice([p for p in range(100) if p not in pos2])
        if len(set(fam2)) != len(fam2):
            continue
        got = match_circuits(prepare_side(pos1, fam1), pos2, fam2)
        assert got is None
        assert got == match_circuits_reference(pos1, fam1, pos2, fam2)
        cases += 1
    assert cases > 100
    # A side-1 triangle against a side-2 circuit with its third bit outside.
    assert match_circuits(prepare_side([0, 1, 2], [0b111]), [0, 1, 2], [0b1011]) is None
    assert match_circuits_reference([0, 1, 2], [0b111], [0, 1, 2], [0b1011]) is None


def test_match_circuits_on_positions_beyond_a_fixed_shift():
    fam1 = [1 << 33 | 1 << 40 | 1 << 70, 1 << 40 | 1 << 71]
    fam2 = [1 << 5 | 1 << 64, 1 << 5 | 1 << 32 | 1 << 99]
    pos1, pos2 = [33, 40, 70, 71], [99, 32, 5, 64]
    got = match_circuits(prepare_side(pos1, fam1), pos2, fam2)
    assert got == match_circuits_reference(pos1, fam1, pos2, fam2)
    assert got is not None and got[40] == 5 and got[71] == 64
    assert {got[33], got[70]} == {32, 99}
