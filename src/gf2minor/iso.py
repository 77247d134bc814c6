"""Isomorphism of small binary matroids by matching circuit bitmasks.

Two matroids are isomorphic iff some bijection of their ground sets maps the
circuit set of one exactly onto the other's (circuits determine a matroid).
``match_circuits`` is the one kernel: it works on circuits as bitmasks over
element positions, so ``find_isomorphism`` and the minor search's survivor
sets share it without building label sets.  Its first side comes prepared by
``prepare_side``, so the minor search prepares each target once and matches
it against many survivor sets.

The prepared side fixes the search order (positions rarest profile class
first), the step at which each circuit is fully placed, and a key for every
pair of positions: for each circuit size, how many circuits of that size
contain both.  The second side's pair keys come from one pass over its
circuits; their diagonal is the element profile, which must have the same
multiset on both sides.  The backtracking search then drops a candidate as
soon as its key to an already placed position differs from the first
side's, or a fully placed circuit lands outside the other circuit set.  Any
bijection mapping one circuit set onto the other preserves every pair key,
so the pair test cuts only prefixes that cannot be completed: the first
bijection found is the one the search finds without it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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


def pair_keys(
    positions: list[int], circuits: Iterable[int], width: int
) -> list[list[int]]:
    """keys[a][b]: the circuits containing positions[a] and positions[b].

    The circuits are counted per size: the count for size k sits in the
    ``width`` bits from bit width * k, so the keys of two pairs are equal
    exactly when their counts are, provided every count is below
    2 ** width; ``len(circuits).bit_length()`` bits suffice.  keys[a][a] is
    the element profile of positions[a] in the same encoding.
    """
    keys = [[0] * len(positions) for _ in positions]
    bits = [(a, 1 << p) for a, p in enumerate(positions)]
    for c in circuits:
        field = 1 << width * c.bit_count()
        members = [a for a, bit in bits if c & bit]
        for a in members:
            row = keys[a]
            for b in members:
                row[b] += field
    return keys


@dataclass(frozen=True)
class CircuitSide:
    """The first side of ``match_circuits``, prepared by ``prepare_side``."""

    order: tuple[int, ...]  # positions, in search order
    n_circuits: int
    width: int  # bits per circuit size in a pair key
    # keys[i][j] = key(order[i], order[j]) for j < i; diagonal[i] for j = i.
    keys: tuple[tuple[int, ...], ...]
    diagonal: tuple[int, ...]
    # checks[i]: the circuits, as steps, whose last position is order[i].
    checks: tuple[tuple[tuple[int, ...], ...], ...]


def prepare_side(positions: Iterable[int], circuits: Iterable[int]) -> CircuitSide:
    """Search order, check schedule and pair keys of one circuit family.

    Repeated circuits count once.  Positions are ordered rarest profile
    class first, ties in the order given.
    """
    pos = list(positions)
    circ = list(dict.fromkeys(circuits))
    prof = element_profiles(pos, circ)
    class_size = Counter(prof.values())
    order = sorted(pos, key=lambda p: (class_size[prof[p]], prof[p]))
    step = {p: i for i, p in enumerate(order)}
    checks: list[list[tuple[int, ...]]] = [[] for _ in order]
    for c in circ:
        members = tuple(step[p] for p in mask_positions(c))
        checks[max(members)].append(members)
    width = len(circ).bit_length()
    keys = pair_keys(order, circ, width)
    diagonal = tuple(keys[i][i] for i in range(len(order)))
    return CircuitSide(
        order=tuple(order),
        n_circuits=len(circ),
        width=width,
        keys=tuple(tuple(row[:i]) for i, row in enumerate(keys)),
        diagonal=diagonal,
        checks=tuple(map(tuple, checks)),
    )


def match_circuits(
    side1: CircuitSide, positions2: Iterable[int], circuits2: Iterable[int]
) -> dict[int, int] | None:
    """Bijection side1 -> positions2 mapping side1's circuits onto circuits2.

    Circuits are bitmasks over the positions; repeated circuits count once.
    The answer is exact for any families.  Equal profile multisets are
    necessary: a coloop has the empty profile, and summing count_k over the
    positions gives k times the number of k-element circuits, loops
    included.  Positions of side 1 are assigned in ``side1.order``; each is
    tried against the positions of side 2 with its profile, in the order
    given, and dropped when a pair key to an earlier position disagrees.
    Returns the first bijection in that order, or None.
    """
    pos2, circ2 = list(positions2), frozenset(circuits2)
    order = side1.order
    if len(pos2) != len(order) or len(circ2) != side1.n_circuits:
        return None
    keys2 = pair_keys(pos2, circ2, side1.width)
    diagonal2 = [row[b] for b, row in enumerate(keys2)]
    if sorted(diagonal2) != sorted(side1.diagonal):
        return None

    by_profile: dict[int, list[int]] = {}
    for b, d in enumerate(diagonal2):
        by_profile.setdefault(d, []).append(b)
    candidates = [by_profile[d] for d in side1.diagonal]
    images = _extend(side1, candidates, keys2, pos2, circ2, [], [], 0)
    if images is None:
        return None
    return {p: pos2[b] for p, b in zip(order, images)}


def _extend(
    side1: CircuitSide, candidates: list[list[int]], keys2: list[list[int]],
    pos2: list[int], circ2: frozenset[int], images: list[int], bits: list[int],
    used: int,
) -> list[int] | None:
    """The search of ``match_circuits`` below the images placed so far.

    ``images`` holds the indices into ``pos2`` of the images of
    ``side1.order[:i]``, ``bits`` their bits and ``used`` the union of those.
    Depth-first: each candidate for order[i] that passes the pair-key test
    and completes only circuits of ``circ2`` is placed, and the rest of the
    order is searched below it before the next candidate is tried.  Returns
    the completed ``images``, or None.  A module-level function rather than
    a closure, so that a search leaves no reference cycle behind.
    """
    i = len(images)
    if i == len(side1.order):
        return images
    key, checks = side1.keys[i], side1.checks[i]
    for b in candidates[i]:
        bit = 1 << pos2[b]
        # tuple() of a list, not of an iterator: that would allocate ten
        # slots and shrink, moving tuples between CPython's per-size free
        # lists, which then grow (up to 2,000 tuples a size) with use.
        if used & bit or tuple([keys2[b][j] for j in images]) != key:
            continue
        images.append(b)
        bits.append(bit)
        # Images are distinct bits, so their sum is the image mask.
        if all(sum(bits[j] for j in c) in circ2 for c in checks):
            found = _extend(side1, candidates, keys2, pos2, circ2, images, bits, used | bit)
            if found is not None:
                return found
        images.pop()
        bits.pop()
    return None


def find_isomorphism(m1: BinaryMatroid, m2: BinaryMatroid) -> dict[str, str] | None:
    """Witnessing bijection E(m1) -> E(m2), or None.

    Matched on the duals when m1's rank is below its corank: they keep the
    labels, have 2^rank cycle vectors, and share every isomorphism.
    Elements are tried in label order; ``circuit_masks`` enforces the
    enumeration limit.
    """
    if m1.full_rank < m1.corank:
        return find_isomorphism(m1.dual(), m2.dual())
    e1, e2 = m1.elements(), m2.elements()
    mapping = match_circuits(
        prepare_side(sorted(range(m1.size), key=e1.__getitem__), m1.circuit_masks()),
        sorted(range(m2.size), key=e2.__getitem__), m2.circuit_masks(),
    )
    if mapping is None:
        return None
    return {e1[p]: e2[q] for p, q in mapping.items()}
