"""Isomorphism testing against the all-bijections oracle."""

from __future__ import annotations

from random import Random

import pytest

from gf2minor.catalog import entries, get_named
from gf2minor.errors import CapacityError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.iso import (
    circuit_signature,
    find_isomorphism,
    is_isomorphic,
    match_circuits,
    signature,
)
from gf2minor.matroid import (
    BinaryMatroid,
    complete_bipartite_graph,
    complete_graph,
    contract,
    cycle_matroid,
    delete,
    mask_to_labels,
    minimal_supports,
)

from gen import random_matroid, relabeled_copy
from oracles import (
    bijection_maps_circuits,
    circuits_by_enumeration,
    isomorphic_all_bijections,
)


def test_signature_k5():
    sig = signature(get_named("M(K5)"))
    assert sig.n_elements == 10
    assert sig.rank == 4
    assert sig.n_loops == 0 and sig.n_coloops == 0
    assert sig.circuit_sizes == ((3, 10), (4, 15), (5, 12))
    # K5 is edge-transitive: every element shows the same profile.
    assert len(set(sig.element_profiles)) == 1


def test_signature_empty():
    m = BinaryMatroid.from_standard_form(Gf2Matrix.zeros(0, 0), [], [])
    sig = signature(m)
    assert (sig.n_elements, sig.rank, sig.n_loops, sig.n_coloops) == (0, 0, 0, 0)
    assert sig.circuit_sizes == ()
    assert sig.element_profiles == ()


def test_signature_is_label_free():
    rng = Random(8)
    for _ in range(20):
        m = random_matroid(rng, 10)
        assert signature(m) == signature(relabeled_copy(rng, m))


def test_circuit_signature_of_masked_cycles_matches_the_built_minor():
    # The minor search's view of (host / C) \ D: the host's fundamental
    # cycles with C's bits cleared, keeping the circuits inside the
    # survivors S.  Its signature must be that of the minor apply_ops builds.
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
        circuits = [
            mask_to_labels(m, elems)
            for m in minimal_supports(masked) if not m & ~smask
        ]
        minor = host.apply_ops(
            [contract(e) for e in c] + [delete(e) for e in rest if e not in s]
        )
        rank = host.rank(s | set(c)) - len(c)
        sig = circuit_signature(s, rank, circuits)
        assert sig == signature(minor)
        # Loops and coloops read off the circuits agree with the matrix.
        assert (sig.n_elements, sig.rank, sig.n_loops, sig.n_coloops) == (
            minor.size, minor.full_rank, len(minor.loops()), len(minor.coloops())
        )
        done += 1


def test_signature_capacity_guard():
    m = BinaryMatroid.from_standard_form(
        Gf2Matrix.zeros(0, 25), [], [f"s{j}" for j in range(25)]
    )
    with pytest.raises(CapacityError):
        signature(m)


def test_reflexivity_with_identity_on_catalog():
    for entry in entries():
        mapping = find_isomorphism(entry.matroid, entry.matroid)
        assert mapping is not None
        assert all(k == v for k, v in mapping.items())


def test_k33_isomorphic_to_catalog_target():
    mine = cycle_matroid(complete_bipartite_graph(3, 3))
    assert is_isomorphic(mine, get_named("M(K33)"))


def test_f7_not_isomorphic_to_its_dual():
    assert not is_isomorphic(get_named("F7"), get_named("F7*"))


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
        verdict = is_isomorphic(m1, m2)
        assert is_isomorphic(relabeled_copy(rng, m1), m2) == verdict
        assert is_isomorphic(m1, relabeled_copy(rng, m2)) == verdict


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
        assert is_isomorphic(m1, m2) == expected


def test_match_circuits_on_raw_families():
    tri1 = [frozenset("abc")]
    tri2 = [frozenset("xyz")]
    mapping = match_circuits("abc", tri1, "xyz", tri2)
    assert mapping is not None and sorted(mapping) == ["a", "b", "c"]
    assert match_circuits("abc", tri1, "xyz", [frozenset("xy")]) is None
    # Same circuit sizes, different profiles (w is on both triangles and z
    # is a coloop): only the profile-restricted search can say no.
    two = [frozenset("abc"), frozenset("def")]
    bowtie = [frozenset("uvw"), frozenset("wxy")]
    assert match_circuits("abcdef", two, "uvwxyz", bowtie) is None
