"""Minor containment search, witnesses, graphicness, and cocircuit checks.

``find_minor_witness`` decides whether a host matroid has a minor isomorphic
to a small target and, if so, returns an explicit certificate: which elements
to contract, which to delete, and a bijection from the target onto the
survivors.  ``verify_witness`` re-checks such a certificate using nothing but
the host's rank oracle, so the audit does not share code with the search.

Search shape: contract sets C are the independent sets of size
rank(host) - rank(target) (every minor arises that way with the deletions
coindependent).  They are walked in lexicographic order of host positions,
eliminating one host column per level, which also yields the parallel classes
of host / C.  Nothing is rebuilt per contract set: the cycle space of host / C
is the host's fundamental cycle bitmasks with C's bits cleared, and deleting a
survivor candidate is one elimination step on that basis.  Survivor sets are
walked depth-first in lexicographic order, pruned as soon as what is left
stops spanning host / C or has more coloops than the target.  Each survivor
set must then have the target's cycle-space weight histogram (a label-free
invariant, checked with an early exit) before its circuits are extracted.
Its ``iso.circuit_signature`` (loop and coloop counts, circuit-size and
profile multisets) must then equal the target's, which is computed by the
same function once per search, before the full isomorphism test runs.
All enumeration guards raise CapacityError rather than degrade silently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from . import catalog
from .errors import CapacityError, InputError
# element_profiles is bound here for bench/tracer.py, which wraps it in this
# module; the search itself reaches it through circuit_signature.
from .iso import (  # noqa: F401
    IsoSignature,
    circuit_signature,
    element_profiles,
    match_circuits,
)
from .matroid import (
    BinaryMatroid,
    MinorOp,
    has_weight_histogram,
    mask_positions,
    mask_to_labels,
    minimal_supports,
    weight_histogram,
)

logger = logging.getLogger(__name__)

HOST_LIMIT = 20
TARGET_LIMIT = 12

# Tutte's excluded minors for graphicness of a binary matroid.
GRAPHICNESS_EXCLUDED = ("F7", "F7*", "M*(K5)", "M*(K33)")


@dataclass(frozen=True)
class MinorWitness:
    """Certificate that a host contains a minor isomorphic to a target.

    ``mapping`` pairs each target element with the surviving host element it
    corresponds to; contracting ``contract_set`` and deleting ``delete_set``
    leaves exactly the survivors.
    """

    contract_set: frozenset[str]
    delete_set: frozenset[str]
    mapping: tuple[tuple[str, str], ...]

    def survivors(self) -> frozenset[str]:
        return frozenset(h for _, h in self.mapping)

    def as_dict(self) -> dict:
        return {
            "contract": sorted(self.contract_set),
            "delete": sorted(self.delete_set),
            "map": {t: h for t, h in self.mapping},
        }


@dataclass(frozen=True)
class _TargetData:
    elements: tuple[str, ...]
    circuits: frozenset[frozenset[str]]
    sig: IsoSignature
    histogram: tuple[int, ...]


def _target_data(target: BinaryMatroid) -> _TargetData:
    elements, circuits = target.elements(), target.circuits()
    return _TargetData(
        elements=elements,
        circuits=circuits,
        sig=circuit_signature(elements, target.full_rank, circuits),
        histogram=weight_histogram(target.fundamental_cycles()),
    )


def _eliminate(vectors: list[int], bit: int) -> list[int] | None:
    """Basis of the vectors in span(vectors) that avoid ``bit``.

    None when no vector has the bit: the element is then a coloop of the
    current restriction, and deleting it would lower the rank.
    """
    pivot = 0
    out = []
    for v in vectors:
        if v & bit:
            if pivot:
                out.append(v ^ pivot)
            else:
                pivot = v
        else:
            out.append(v)
    return out if pivot else None


def _contract_sets(columns: list[int], c_size: int):
    """Independent sets of ``c_size`` host positions, lexicographic order.

    Yields (positions, reduced columns).  The walk eliminates one chosen
    column from all host columns per level, so a prefix's eliminations are
    shared by every set that extends it, and a column that has already
    reduced to 0 depends on the chosen ones and is never chosen.  At a leaf
    each host column is reduced modulo the span of C's columns with C's
    pivots cleared everywhere: two elements reduce to the same int exactly
    when they are parallel in host / C, and to 0 exactly when they are
    loops there (C's own elements included).
    """
    n = len(columns)

    def extend(start: int, chosen: tuple[int, ...], cols: list[int]):
        if len(chosen) == c_size:
            yield chosen, cols
            return
        for idx in range(start, n - c_size + len(chosen) + 1):
            piv = cols[idx]
            if not piv:
                continue
            low = piv & -piv
            yield from extend(
                idx + 1, chosen + (idx,),
                [x ^ piv if x & low else x for x in cols],
            )

    return extend(0, (), list(columns))


def _survivor_search(
    cycles: list[int], pool: list[int], tgt: _TargetData, elems: tuple[str, ...]
) -> dict[str, str] | None:
    """Bijection from tgt onto survivors S within ``pool``, or None.

    ``cycles`` is a basis of the cycle space of host / C, as bitmasks over
    host positions.  The circuits of (host / C) \\ D are the minimal supports
    of the cycle vectors avoiding D, so deleting an element is one
    elimination step on the basis.  Survivor sets are visited in
    lexicographic order of their pool positions by a depth-first walk that
    includes before it deletes, sharing each prefix's eliminations.  S must
    span host / C (its rank is the target's rank), so a branch stops as soon
    as it would delete a coloop of what is left.  Elements of host / C
    outside the pool are deleted up front.
    """
    alive = 0
    for idx in pool:
        alive |= 1 << idx
    support = 0
    for v in cycles:
        support |= v
    for idx in mask_positions(support & ~alive):
        cycles = _eliminate(cycles, 1 << idx)
        if cycles is None:
            return None
    t = tgt.sig.n_elements
    n_pool = len(pool)
    max_coloops = tgt.sig.n_coloops

    def coloops(vectors: list[int], alive: int) -> int:
        support = 0
        for v in vectors:
            support |= v
        return (alive & ~support).bit_count()

    def test(vectors: list[int], smask: int):
        if not has_weight_histogram(vectors, tgt.histogram):
            return None
        return _match_candidate(vectors, smask, tgt, elems)

    def walk(i: int, need: int, vectors: list[int], smask: int, alive: int):
        if need == n_pool - i:  # every remaining element survives
            for idx in pool[i:]:
                smask |= 1 << idx
            return test(vectors, smask)
        if need == 0:  # every remaining element is deleted
            for idx in pool[i:]:
                vectors = _eliminate(vectors, 1 << idx)
                if vectors is None:
                    return None
            return test(vectors, smask)
        bit = 1 << pool[i]
        found = walk(i + 1, need - 1, vectors, smask | bit, alive)
        if found is not None:
            return found
        vectors = _eliminate(vectors, bit)
        if vectors is None:
            return None
        alive ^= bit
        if coloops(vectors, alive) > max_coloops:
            return None
        return walk(i + 1, need, vectors, smask, alive)

    if t > n_pool or coloops(cycles, alive) > max_coloops:
        return None
    return walk(0, t, cycles, 0, alive)


def _match_candidate(
    vectors: list[int], smask: int, tgt: _TargetData, elems: tuple[str, ...]
) -> dict[str, str] | None:
    """Invariant filters, then the circuit bijection, for one survivor set."""
    labels = mask_to_labels(smask, elems)
    cand_circuits = [
        mask_to_labels(cm, elems)
        for cm in (minimal_supports(vectors) if vectors else [])
    ]
    # S spans host / C, so its rank is the target's.
    if circuit_signature(labels, tgt.sig.rank, cand_circuits) != tgt.sig:
        return None
    return match_circuits(tgt.elements, tgt.circuits, labels, cand_circuits)


def find_minor_witness(
    host: BinaryMatroid, target: BinaryMatroid
) -> MinorWitness | None:
    """Search for a minor of ``host`` isomorphic to ``target``.

    Deterministic: the returned witness is the first hit in canonical
    enumeration order.  Contract sets C are the independent sets of size
    rank(host) - rank(target), taken as combinations of host.elements()
    positions in lexicographic order.  Within each C, survivor sets are
    taken in lexicographic order of host positions from the pool: every
    element outside C, or for a simple loop-free target the first element
    of each parallel class of host / C.
    """
    if host.size > HOST_LIMIT:
        raise CapacityError(
            f"minor search hosts limited to {HOST_LIMIT} elements, got {host.size}"
        )
    if target.size > TARGET_LIMIT:
        raise CapacityError(
            f"minor search targets limited to {TARGET_LIMIT} elements, "
            f"got {target.size}"
        )
    tgt = _target_data(target)
    c_size = host.full_rank - tgt.sig.rank
    d_size = host.size - c_size - tgt.sig.n_elements
    if c_size < 0 or d_size < 0 or target.corank > host.corank:
        return None
    simple_loopfree = all(size >= 3 for size, _ in tgt.sig.circuit_sizes)

    elems = host.elements()
    columns = [host.full_column(e) for e in elems]
    fundamental = host.fundamental_cycles()
    everything = range(host.size)
    for combo, reduced in _contract_sets(columns, c_size):
        cmask = 0
        for idx in combo:
            cmask |= 1 << idx
        # C is independent, so clearing its bits maps the host's cycle
        # space one-to-one onto that of host / C: still a basis.
        cycles = [v & ~cmask for v in fundamental]
        if simple_loopfree:
            # The target has no loops and no parallel pairs, so a valid
            # survivor set takes at most one element per parallel class of
            # host / C and no loops; parallel elements are interchangeable
            # by an automorphism, so the first of each class suffices.
            first: dict[int, int] = {}
            for idx, col in enumerate(reduced):
                if col:
                    first.setdefault(col, idx)
            pool = sorted(first.values())
        else:
            pool = [idx for idx in everything if not cmask >> idx & 1]
        mapping = _survivor_search(cycles, pool, tgt, elems)
        if mapping is None:
            continue
        contract_set = frozenset(elems[i] for i in combo)
        return MinorWitness(
            contract_set=contract_set,
            delete_set=host.ground_set - contract_set - set(mapping.values()),
            mapping=tuple(sorted(mapping.items())),
        )
    return None


def has_minor(host: BinaryMatroid, target: BinaryMatroid) -> bool:
    return find_minor_witness(host, target) is not None


# -- independent witness audit ---------------------------------------------------


def _circuits_from_rank(elements: list[str], rank_fn) -> set[frozenset[str]]:
    """Minimal dependent sets of a rank function, by subset enumeration."""
    circuits: set[frozenset[str]] = set()
    for size in range(1, len(elements) + 1):
        for combo in combinations(elements, size):
            s = frozenset(combo)
            if any(c <= s for c in circuits):
                continue
            if rank_fn(s) < size:
                circuits.add(s)
    return circuits


def verify_witness(
    host: BinaryMatroid, target: BinaryMatroid, w: MinorWitness
) -> bool:
    """Recompute the minor named by ``w`` straight from the rank oracle.

    Structural defects (overlapping sets, non-bijections, labels outside the
    ground sets, elements left unaccounted for) raise InputError; a
    well-formed witness that names a different minor returns False.
    """
    mapping = dict(w.mapping)
    if len(mapping) != len(w.mapping):
        raise InputError("witness mapping repeats a target element")
    survivors = list(mapping.values())
    if len(set(survivors)) != len(survivors):
        raise InputError("witness mapping is not injective")
    if set(mapping) != set(target.ground_set):
        raise InputError("witness mapping must cover the target ground set")
    for lab in w.contract_set | w.delete_set | set(survivors):
        if lab not in host.ground_set:
            raise InputError(f"witness references unknown host element {lab!r}")
    if w.contract_set & w.delete_set:
        raise InputError("witness contract and delete sets overlap")
    surv_set = frozenset(survivors)
    if (w.contract_set | w.delete_set) & surv_set:
        raise InputError("witness survivors overlap contract/delete sets")
    if w.contract_set | w.delete_set | surv_set != host.ground_set:
        raise InputError("witness does not account for every host element")

    base = host.rank(w.contract_set)

    def minor_rank(subset) -> int:
        return host.rank(set(subset) | w.contract_set) - base

    got = _circuits_from_rank(sorted(surv_set), minor_rank)
    expected = {
        frozenset(mapping[e] for e in c) for c in target.circuits()
    }
    return got == expected


# -- graphicness -------------------------------------------------------------------


def is_graphic(m: BinaryMatroid) -> bool:
    """Tutte's criterion: graphic iff no F7, F7*, M*(K5) or M*(K33) minor."""
    if m.size > HOST_LIMIT:
        raise CapacityError(
            f"graphicness test limited to {HOST_LIMIT} elements, got {m.size}"
        )
    return all(
        find_minor_witness(m, catalog.get_named(name)) is None
        for name in GRAPHICNESS_EXCLUDED
    )


@dataclass(frozen=True)
class CocircuitCheck:
    cocircuit: frozenset[str]
    graphic: bool


@dataclass(frozen=True)
class CocircuitReport:
    checks: tuple[CocircuitCheck, ...]
    all_graphic: bool


def _canonical_sets(sets: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def check_graphic_cocircuits(m: BinaryMatroid) -> CocircuitReport:
    """For every cocircuit Y, report whether m \\ Y is graphic."""
    checks = []
    for y in _canonical_sets(m.cocircuits()):
        checks.append(CocircuitCheck(y, is_graphic(m.delete_all(y))))
    return CocircuitReport(
        checks=tuple(checks),
        all_graphic=all(c.graphic for c in checks),
    )


# -- covering cocircuits -------------------------------------------------------------


def covering_cocircuit_witness(
    m: BinaryMatroid,
    minor_ops: Iterable[MinorOp],
    c_n: Iterable[str],
) -> frozenset[str] | None:
    """Find a cocircuit of ``m`` covering a cocircuit of a minor.

    Given N = m after ``minor_ops`` and a cocircuit ``c_n`` of N, search the
    cocircuits C of m with c_n contained in C and E(N) & C == c_n such that
    N minus c_n is a minor of m minus C.  Exhaustive failure would contradict
    standard minor/cocircuit theory, so it is logged loudly before returning
    None.
    """
    n_minor = m.apply_ops(minor_ops)
    c_n = frozenset(c_n)
    if c_n not in n_minor.cocircuits():
        raise InputError(f"{sorted(c_n)} is not a cocircuit of the minor")
    reduced = n_minor.delete_all(c_n)
    n_ground = n_minor.ground_set
    for c_m in _canonical_sets(m.cocircuits()):
        if not c_n <= c_m:
            continue
        if c_m & n_ground != c_n:
            continue
        if find_minor_witness(m.delete_all(c_m), reduced) is not None:
            return c_m
    logger.error(
        "no covering cocircuit found for %s; this should be impossible",
        sorted(c_n),
    )
    return None
