"""The minor order among the 29 stored bases, and the catalog up to isomorphism.

The paper's proof starts from "M has a minor in its list", which these
tests audit as data: which stored M(G_i) is a minor of another.  Exactly
three pairs are comparable, M(G12) <= M(G15), M(G20) <= M(G26) and
M(G24) <= M(G25), so for the proof's first step M*(G15), M*(G26) and
M*(G25) are implied by M*(G12), M*(G20) and M*(G24).  The hits carry
witnesses that ``audit`` checks.  The "no" answers are the search's word
only: both sides of every pair are graphic, so no class-separation
certificate applies to them.
"""

from __future__ import annotations

from itertools import combinations, permutations

from gf2minor import minors
from gf2minor.audit import MinorWitness, verify_witness
from gf2minor.catalog import catalog_names, get_named
from gf2minor.certify import builtin_cases
from gf2minor.iso import find_isomorphism
from gf2minor.minors import find_minor_witness

BASES = tuple(case.base for case in builtin_cases())
# (minor, host) for every ordered pair of stored bases with a minor.
HITS = {("g12", "g15"), ("g20", "g26"), ("g24", "g25")}


def decided_by_counts(host, target) -> bool:
    return target.full_rank > host.full_rank or target.corank > host.corank


def test_counts_decide_588_pairs_with_no_search():
    pairs = [
        (get_named(h), get_named(t))
        for t, h in permutations(BASES, 2)
        if decided_by_counts(get_named(h), get_named(t))
    ]
    assert len(pairs) == 588
    before = minors._target_data.cache_info()
    assert all(find_minor_witness(host, target) is None for host, target in pairs)
    assert minors._target_data.cache_info() == before


def test_exactly_three_pairs_of_stored_bases_are_minors():
    searched, hits = 0, set()
    for t, h in permutations(BASES, 2):
        host, target = get_named(h), get_named(t)
        if decided_by_counts(host, target):
            continue
        searched += 1
        w = find_minor_witness(host, target)
        if w is None:  # uncertified: both sides are graphic
            continue
        hits.add((t, h))
        assert verify_witness(host, target, w)
        # A minor of H is one of H*'s with the two sets swapped.
        dual = MinorWitness(w.delete_set, w.contract_set, w.mapping)
        assert verify_witness(host.dual(), target.dual(), dual)
    assert searched == 224
    assert hits == HITS


def test_catalog_entries_are_pairwise_non_isomorphic():
    entries = [get_named(name) for name in catalog_names()]
    assert len(entries) == 35
    assert all(find_isomorphism(a, b) is None for a, b in combinations(entries, 2))
