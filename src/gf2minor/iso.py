"""Isomorphism of small binary matroids via circuit-set bijection search.

Two matroids are isomorphic iff some bijection of their ground sets maps the
circuit set of one exactly onto the other's (circuits determine a matroid).
A cheap invariant signature filters first; the backtracking search then
assigns elements rarest-profile-class first and prunes as soon as a fully
mapped circuit lands outside the target circuit set.

``circuit_signature`` is the one place the label-free invariants (element
count, rank, loop and coloop counts, circuit-size and element-profile
multisets) are computed: ``signature``, ``find_isomorphism`` and the minor
search's target data and survivor filter all call it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable

from .matroid import BinaryMatroid

Profile = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class IsoSignature:
    """Label-free invariants; equal for isomorphic matroids."""

    n_elements: int
    rank: int
    n_loops: int
    n_coloops: int
    circuit_sizes: tuple[tuple[int, int], ...]
    element_profiles: tuple[Profile, ...]


def element_profiles(
    elements: Iterable[str], circuits: Iterable[frozenset[str]]
) -> dict[str, Profile]:
    """Per-element multiset of (circuit size, how many such circuits hit it)."""
    per: dict[str, Counter] = {e: Counter() for e in elements}
    for c in circuits:
        for e in c:
            per[e][len(c)] += 1
    return {e: tuple(sorted(cnt.items())) for e, cnt in per.items()}


def circuit_signature(
    elements: Iterable[str], rank: int, circuits: Collection[frozenset[str]]
) -> IsoSignature:
    """Invariants of the matroid of the given rank with these circuits.

    Loops are the 1-element circuits and coloops the elements in no circuit,
    so only the rank has to come from outside.
    """
    profiles = element_profiles(elements, circuits)
    return IsoSignature(
        n_elements=len(profiles),
        rank=rank,
        n_loops=sum(len(c) == 1 for c in circuits),
        n_coloops=sum(not p for p in profiles.values()),
        circuit_sizes=tuple(sorted(Counter(len(c) for c in circuits).items())),
        element_profiles=tuple(sorted(profiles.values())),
    )


def signature(m: BinaryMatroid) -> IsoSignature:
    """Invariants of ``m``; m.circuits() enforces the enumeration limit."""
    return circuit_signature(m.elements(), m.full_rank, m.circuits())


def match_circuits(
    elements1: Iterable[str],
    circuits1: Iterable[frozenset[str]],
    elements2: Iterable[str],
    circuits2: Iterable[frozenset[str]],
) -> dict[str, str] | None:
    """Bijection elements1 -> elements2 mapping circuits1 onto circuits2.

    Works on raw circuit families, so minor-search candidates can be tested
    without building matroid objects.  Returns the first bijection in the
    deterministic search order, or None.  The answer is exact for any
    families: callers compare ``circuit_signature`` first only to skip
    hopeless pairs, and the search maps each element to one of equal profile.
    """
    elems1 = sorted(elements1)
    elems2 = sorted(elements2)
    circ1 = list(circuits1)
    circ2set = frozenset(circuits2)
    if len(elems1) != len(elems2) or len(circ1) != len(circ2set):
        return None

    prof1 = element_profiles(elems1, circ1)
    prof2 = element_profiles(elems2, circ2set)
    class_size = Counter(prof1.values())
    order = sorted(elems1, key=lambda e: (class_size[prof1[e]], prof1[e], e))
    pos = {e: i for i, e in enumerate(order)}
    candidates = {
        e: [f for f in elems2 if prof2[f] == prof1[e]] for e in elems1
    }
    # Circuits become checkable once their latest-ordered element is placed.
    check_at: list[list[frozenset[str]]] = [[] for _ in order]
    for c in circ1:
        check_at[max(pos[e] for e in c)].append(c)

    assign: dict[str, str] = {}
    used: set[str] = set()

    def dfs(i: int) -> bool:
        if i == len(order):
            return True
        e = order[i]
        for f in candidates[e]:
            if f in used:
                continue
            assign[e] = f
            used.add(f)
            if all(
                frozenset(assign[x] for x in c) in circ2set
                for c in check_at[i]
            ) and dfs(i + 1):
                return True
            used.discard(f)
            del assign[e]
        return False

    if dfs(0):
        return dict(assign)
    return None


def find_isomorphism(m1: BinaryMatroid, m2: BinaryMatroid) -> dict[str, str] | None:
    """Witnessing bijection E(m1) -> E(m2), or None."""
    c1, c2 = m1.circuits(), m2.circuits()
    sig1 = circuit_signature(m1.elements(), m1.full_rank, c1)
    if sig1 != circuit_signature(m2.elements(), m2.full_rank, c2):
        return None
    return match_circuits(m1.elements(), c1, m2.elements(), c2)


def is_isomorphic(m1: BinaryMatroid, m2: BinaryMatroid) -> bool:
    return find_isomorphism(m1, m2) is not None
