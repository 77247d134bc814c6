"""Isomorphism of small binary matroids by matching circuit bitmasks.

Two matroids are isomorphic iff some bijection of their ground sets maps the
circuit set of one exactly onto the other's (circuits determine a matroid).
``match_circuits`` is the one kernel: it works on circuits as bitmasks over
element positions, so ``find_isomorphism`` and the minor search's survivor
sets share it without building label sets.  It profiles each side once,
rejects a different circuit count or element-profile multiset, and then
backtracks, assigning positions rarest-profile-class first and pruning as
soon as a fully mapped circuit lands outside the other circuit set.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .matroid import BinaryMatroid, mask_positions

Profile = tuple[tuple[int, int], ...]


def element_profiles(
    positions: Iterable[int], circuits: Iterable[int]
) -> dict[int, Profile]:
    """Per-position multiset of (circuit size, how many such circuits hit it)."""
    per: dict[int, Counter] = {p: Counter() for p in positions}
    for c in circuits:
        size = c.bit_count()
        for p in mask_positions(c):
            per[p][size] += 1
    return {p: tuple(sorted(cnt.items())) for p, cnt in per.items()}


def match_circuits(
    positions1: Iterable[int],
    circuits1: Iterable[int],
    positions2: Iterable[int],
    circuits2: Iterable[int],
) -> dict[int, int] | None:
    """Bijection positions1 -> positions2 mapping circuits1 onto circuits2.

    Circuits are bitmasks over the positions.  The answer is exact for any
    families.  Equal profile multisets are necessary: a coloop has the empty
    profile, and summing count_k over the positions gives k times the number
    of k-element circuits, loops included.  Positions of side 1 are assigned
    rarest profile class first, ties in the order given; each is tried
    against the positions of side 2 with its profile, in the order given.
    Returns the first bijection in that order, or None.
    """
    pos1, pos2 = list(positions1), list(positions2)
    circ1, circ2 = list(circuits1), frozenset(circuits2)
    if len(pos1) != len(pos2) or len(circ1) != len(circ2):
        return None
    prof1 = element_profiles(pos1, circ1)
    prof2 = element_profiles(pos2, circ2)
    if sorted(prof1.values()) != sorted(prof2.values()):
        return None

    class_size = Counter(prof1.values())
    order = sorted(pos1, key=lambda p: (class_size[prof1[p]], prof1[p]))
    step = {p: i for i, p in enumerate(order)}
    candidates = [[q for q in pos2 if prof2[q] == prof1[p]] for p in order]
    # Circuits become checkable once their latest-ordered position is placed.
    check_at: list[list[tuple[int, ...]]] = [[] for _ in order]
    for c in circ1:
        members = tuple(mask_positions(c))
        check_at[max(step[p] for p in members)].append(members)

    image: dict[int, int] = {}  # side-1 position -> bit of its image

    def dfs(i: int, used: int) -> bool:
        if i == len(order):
            return True
        p = order[i]
        for q in candidates[i]:
            bit = 1 << q
            if used & bit:
                continue
            image[p] = bit
            # Images are distinct bits, so their sum is the image mask.
            if all(
                sum(image[x] for x in c) in circ2 for c in check_at[i]
            ) and dfs(i + 1, used | bit):
                return True
        return False

    if dfs(0, 0):
        return {p: image[p].bit_length() - 1 for p in order}
    return None


def find_isomorphism(m1: BinaryMatroid, m2: BinaryMatroid) -> dict[str, str] | None:
    """Witnessing bijection E(m1) -> E(m2), or None.

    Elements are tried in label order; ``circuit_masks`` enforces the
    enumeration limit.
    """
    e1, e2 = m1.elements(), m2.elements()
    mapping = match_circuits(
        sorted(range(m1.size), key=e1.__getitem__), m1.circuit_masks(),
        sorted(range(m2.size), key=e2.__getitem__), m2.circuit_masks(),
    )
    if mapping is None:
        return None
    return {e1[p]: e2[q] for p, q in mapping.items()}
