"""Isomorphism testing against the all-bijections oracle."""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from gf2minor.catalog import catalog_names, get_named
from gf2minor.errors import CapacityError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.iso import (
    element_profiles,
    find_isomorphism,
    match_circuits,
)
from gf2minor.matroid import (
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

from gen import random_matroid, relabeled_copy
from oracles import (
    bijection_maps_circuits,
    circuits_by_enumeration,
    isomorphic_all_bijections,
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
            moved = m.exchange(m.basis_labels[i], m.cobasis_labels[j])
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
            sorted(mask_positions(smask), key=elems.__getitem__), circuits,
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


def test_match_circuits_on_raw_families():
    tri1 = [0b111]
    tri2 = [0b111000]
    mapping = match_circuits([0, 1, 2], tri1, [3, 4, 5], tri2)
    assert mapping is not None and sorted(mapping) == [0, 1, 2]
    assert sorted(mapping.values()) == [3, 4, 5]
    assert match_circuits([0, 1, 2], tri1, [3, 4, 5], [0b11000]) is None
    # Same circuit sizes, different profiles (2 is on both triangles and 5
    # is a coloop): only the profile comparison or the search can say no.
    two = [0b000111, 0b111000]
    bowtie = [0b000111, 0b011100]
    assert match_circuits(range(6), two, range(6), bowtie) is None


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
        mapping = match_circuits(range(n), fam1, order2, fam2)
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
