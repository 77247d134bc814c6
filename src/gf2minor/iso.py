"""Isomorphism of small binary matroids by matching circuit bitmasks.

Two matroids are isomorphic iff some bijection of their ground sets maps the
circuit set of one exactly onto the other's (circuits determine a matroid).
``match_circuits`` is the one kernel: it works on circuits as bitmasks over
element positions, so ``find_isomorphism`` and the minor search's survivor
sets share it without building label sets.  Its first side comes prepared by
``prepare_side``, so the minor search prepares each target once and matches
it against many survivor sets.  Both match on the smaller space (the minor
search from rank 1 on), and the minor search orders by circuits either way.

The prepared side fixes the search order (positions rarest profile class
first), the step at which each circuit is fully placed, and a key for every
pair of positions: for each circuit size, how many circuits of that size
contain both.  Each side packs its keys into one integer per position,
``pair_rows``, whose slot b holds the key to position b; the diagonal slot
is the element profile, which must have the same multiset on both sides.
The backtracking search carries, for every later step, the slot mask of the
images already placed and the pattern the first side's keys ask for there,
so a candidate whose masked row differs is dropped with one compare, as is
one that completes a circuit landing outside the other circuit set.  Any
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


def pair_rows(
    positions: list[int], circuits: Iterable[int], width: int, slot: int
) -> list[int]:
    """rows[a]: every pair key of positions[a], packed one per slot.

    Slot b of rows[a], the ``slot`` bits from bit slot * b, holds key(a, b):
    the circuits containing positions[a] and positions[b], counted per
    size.  The count for size k sits in the ``width`` bits from bit
    width * k, so two keys are equal exactly when their counts are, provided
    every count is below 2 ** width (``len(circuits).bit_length()`` bits
    suffice) and ``slot`` is at least width * (largest circuit size + 1),
    so that no key spills into the next slot.  Slot a of rows[a] is the
    element profile of positions[a] in the same encoding.  Each circuit is
    added once to each of its members' rows.
    """
    # Keyed by a position's bit: its row and its slot's lowest bit.
    place = {1 << p: (a, 1 << slot * a) for a, p in enumerate(positions)}
    rows = [0] * len(positions)
    for c in circuits:
        members, add = [], 0
        while c:
            low = c & -c
            a, unit = place[low]
            members.append(a)
            add += unit
            c ^= low
        add <<= width * len(members)
        for a in members:
            rows[a] += add
    return rows


@dataclass(frozen=True)
class CircuitSide:
    """The first side of ``match_circuits``, prepared by ``prepare_side``."""

    order: tuple[int, ...]  # positions, in search order
    n_circuits: int
    longest: int  # the size of the largest circuit
    width: int  # bits per circuit size in a pair key
    slot: int  # bits per pair key in a packed row
    diagonal: tuple[int, ...]  # diagonal[i]: key(order[i], order[i])
    # ahead[i]: key(order[i + 1 + t], order[i]) in the slot-wide field from
    # bit t * slot * len(order), for every later step i + 1 + t.
    ahead: tuple[int, ...]
    # checks[i]: the circuits, as steps, whose last position is order[i].
    checks: tuple[tuple[tuple[int, ...], ...], ...]


def prepare_side(positions: Iterable[int], circuits: Iterable[int],
                 ordered_by: Iterable[int] | None = None) -> CircuitSide:
    """Search order, check schedule and pair keys of one circuit family.

    Repeated circuits count once.  Positions are ordered rarest profile
    class first, ties in the order given, by the profiles of ``ordered_by``
    (another family of the same matroid) if given, else of ``circuits``.
    """
    pos = list(positions)
    circ = list(dict.fromkeys(circuits))
    prof = element_profiles(pos, circ if ordered_by is None else ordered_by)
    class_size = Counter(prof.values())
    order = sorted(pos, key=lambda p: (class_size[prof[p]], prof[p]))
    step = {p: i for i, p in enumerate(order)}
    checks: list[list[tuple[int, ...]]] = [[] for _ in order]
    for c in circ:
        members = tuple(step[p] for p in mask_positions(c))
        checks[max(members)].append(members)
    width = len(circ).bit_length()
    longest = max(map(int.bit_count, circ), default=0)
    slot = width * (longest + 1)
    rows = pair_rows(order, circ, width, slot)
    n, full = len(order), (1 << slot) - 1
    return CircuitSide(
        order=tuple(order),
        n_circuits=len(circ),
        longest=longest,
        width=width,
        slot=slot,
        diagonal=tuple(row >> slot * i & full for i, row in enumerate(rows)),
        ahead=tuple(
            sum(
                (row >> slot * j & full) << slot * n * (j - i - 1)
                for j in range(i + 1, n)
            )
            for i, row in enumerate(rows)
        ),
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
    included.  So is every circuit of circuits2 lying within positions2,
    and none being longer than side1's longest, which keeps each pair key
    of circuits2 within its slot.  Positions of side 1 are assigned in
    ``side1.order``; each is tried against the positions of side 2 with its
    profile, in the order given, and dropped when a pair key to an earlier
    position disagrees: one masked compare of its packed row.  Returns the
    first bijection in that order, or None.
    """
    pos2, circ2 = list(positions2), frozenset(circuits2)
    order = side1.order
    if (len(pos2) != len(order) or len(circ2) != side1.n_circuits
            or max(map(int.bit_count, circ2), default=0) > side1.longest):
        return None
    try:
        rows2 = pair_rows(pos2, circ2, side1.width, side1.slot)
    except KeyError:  # a circuit with a bit outside positions2
        return None
    slot, full = side1.slot, (1 << side1.slot) - 1
    diagonal2 = [row >> slot * b & full for b, row in enumerate(rows2)]
    if sorted(diagonal2) != sorted(side1.diagonal):
        return None

    by_profile: dict[int, list[int]] = {}
    for b, d in enumerate(diagonal2):
        by_profile.setdefault(d, []).append(b)
    candidates = [by_profile[d] for d in side1.diagonal]
    images = _extend(side1, candidates, rows2, pos2, circ2, [], [], 0, 0, 0)
    if images is None:
        return None
    return {p: pos2[b] for p, b in zip(order, images)}


def _extend(
    side1: CircuitSide, candidates: list[list[int]], rows2: list[int],
    pos2: list[int], circ2: frozenset[int], images: list[int], bits: list[int],
    used: int, mask: int, expect: int,
) -> list[int] | None:
    """The search of ``match_circuits`` below the images placed so far.

    ``images`` holds the indices into ``pos2`` of the images of
    ``side1.order[:i]``, ``bits`` their bits and ``used`` the union of those.
    ``mask`` covers their slots in a side-2 row, and ``expect`` holds, one
    block of slot * n bits per step from i on, the pattern each later
    step's image must show there: key(order[i'], order[j]) in slot
    images[j].  Depth-first: each candidate for order[i] whose masked row
    equals the first block and that completes only circuits of ``circ2``
    is placed, and the rest of the order is searched below it before the
    next candidate is tried.  Returns the completed ``images``, or None.  A
    module-level function rather than a closure, so that a search leaves no
    reference cycle behind.
    """
    i, n = len(images), len(side1.order)
    if i == n:
        return images
    slot = side1.slot
    block = slot * n
    want = expect & (1 << block) - 1
    checks = side1.checks[i]
    for b in candidates[i]:
        bit = 1 << pos2[b]
        if used & bit or rows2[b] & mask != want:
            continue
        images.append(b)
        bits.append(bit)
        # Images are distinct bits, so their sum is the image mask.
        if all(sum(bits[j] for j in c) in circ2 for c in checks):
            shift = slot * b
            found = _extend(
                side1, candidates, rows2, pos2, circ2, images, bits, used | bit,
                mask | ((1 << slot) - 1) << shift,
                (expect >> block) + (side1.ahead[i] << shift),
            )
            if found is not None:
                return found
        images.pop()
        bits.pop()
    return None


def find_isomorphism(m1: BinaryMatroid, m2: BinaryMatroid) -> dict[str, str] | None:
    """Witnessing bijection E(m1) -> E(m2), or None, at once when the ranks
    or the coranks differ.  Matched on the duals when m1's rank is below its
    corank: they keep the labels, have 2^rank cycle vectors, and share every
    isomorphism.  Elements are tried in label order; ``circuit_masks``
    enforces the enumeration limit.
    """
    if (m1.full_rank, m1.corank) != (m2.full_rank, m2.corank):
        return None
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
