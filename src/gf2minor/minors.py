"""Minor containment search, graphicness, and cocircuit checks.

``find_minor_witness`` decides whether a host matroid has a minor isomorphic
to a small target and, if so, returns an explicit certificate: which elements
to contract, which to delete, and a bijection from the target onto the
survivors.  ``audit.verify_witness`` checks such a certificate against the
target's standard form, sharing no code with the search.

``graphic_certificate`` decides graphicness with a certificate either way: a
``Graph`` from ``realize.realize``, or, when no graph exists, the first of
Tutte's excluded minors found by running the four searches round-robin.
``audit.verify_graph`` checks the graph; ``is_graphic`` is the bare verdict.

Search shape: every minor arises as host / C \\ D with C independent of size
rank(host) - rank(target) and D coindependent.  Since host / C depends only
on the flat cl(C), only one C per flat is tried: the greedy basis, the
lexicographically first basis of cl(C) in host order.  If some C hits, so
does the greedy basis C' of cl(C) (the same minor up to swapping loops), and
C' comes first, so the first hit is unchanged.  Contract sets are walked in
lexicographic order of host positions, eliminating one host column per
level, which also yields the parallel classes of host / C; a branch is cut
as soon as a position it passed over falls into the span.  Nothing is
rebuilt per contract set: the cycle space of host / C is the host's
fundamental cycle bitmasks with C's bits cleared, and deleting a survivor
candidate is one elimination step on that basis.  Survivor sets are walked
depth-first in lexicographic order, one per count vector over the parallel
classes and loops of host / C (an automorphism swaps two in a class): the
earliest members of each, at most the target's largest class or loop count,
which come first, so the first hit is unchanged.  The walk is pruned as soon
as what is left stops spanning host / C or has more coloops than the target.
For a cosimple target (no cocircuit of size at most 2) a branch is also
pruned when what is left has a series pair: restricting never removes a
series pair, so every spanning survivor set would keep a cocircuit of size
at most 2.  Each survivor set must then have the target's cycle-space weight
histogram (a label-free invariant, checked with an early exit) before its
circuits are extracted as bitmasks and handed to ``iso.match_circuits``,
which rejects a different element-profile multiset before it searches for
the bijection.  All enumeration guards raise CapacityError rather than
degrade silently.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from . import catalog
# verify_witness is bound here only for bench/, which reads it at this module.
from .audit import MinorWitness, verify_witness  # noqa: F401
from .errors import CapacityError, InputError, MatroidError
# element_profiles is bound here for bench/tracer.py, which wraps it in this
# module; the search itself reaches it through match_circuits.
from .iso import element_profiles, match_circuits  # noqa: F401
from .matroid import (
    BinaryMatroid,
    Graph,
    MinorOp,
    has_weight_histogram,
    mask_positions,
    minimal_supports,
    weight_histogram,
)
from .realize import realize

logger = logging.getLogger(__name__)

HOST_LIMIT = 20
TARGET_LIMIT = 12

# Tutte's excluded minors for graphicness of a binary matroid.
GRAPHICNESS_EXCLUDED = ("F7", "F7*", "M*(K5)", "M*(K33)")


@dataclass(frozen=True)
class _TargetData:
    elements: tuple[str, ...]
    rank: int
    n_coloops: int
    n_loops: int
    max_parallel: int  # size of the largest parallel class of non-loops
    positions: tuple[int, ...]  # of elements, in label order
    circuits: tuple[int, ...]  # bitmasks over positions
    histogram: tuple[int, ...]
    cosimple: bool  # no cocircuit of size at most 2


@lru_cache
def _target_data(target: BinaryMatroid) -> _TargetData:
    elements, circuits = target.elements(), tuple(target.circuit_masks())
    cycles = target.fundamental_cycles()
    everything = (1 << target.size) - 1
    classes = Counter(filter(None, map(target.full_column, elements)))
    return _TargetData(
        elements=elements,
        rank=target.full_rank,
        n_coloops=_coloops(cycles, everything),
        n_loops=len(target.loops()),
        max_parallel=max(classes.values(), default=0),
        positions=tuple(_by_label(elements, everything)),
        circuits=circuits,
        histogram=weight_histogram(cycles),
        cosimple=not _has_small_cocircuit(cycles, everything),
    )


def _by_label(elems: tuple[str, ...], mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, in label order."""
    return sorted(mask_positions(mask), key=elems.__getitem__)


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
    """Greedy bases of ``c_size`` host positions, in lexicographic order.

    Yields (positions, reduced columns) for each independent C that is the
    greedy (lexicographically first) basis of cl(C): host / C depends only
    on cl(C), so the other bases of that flat would repeat its minors.  The
    walk eliminates one chosen column from all host columns per level, so a
    prefix's eliminations are shared by every set that extends it, and a
    column that has already reduced to 0 depends on the chosen ones and is
    never chosen.  A position passed over while its column was non-zero
    must stay outside cl(C), so a pivot equal to that column (which would
    clear it) cuts the branch.  At a leaf each host column is reduced modulo
    the span of C's columns with C's pivots cleared everywhere: two elements
    reduce to the same int exactly when they are parallel in host / C, and
    to 0 exactly when they are loops there (C's own elements included).
    """
    n = len(columns)

    def extend(
        start: int, chosen: tuple[int, ...], cols: list[int],
        skipped: tuple[int, ...],
    ):
        if len(chosen) == c_size:
            yield chosen, cols
            return
        passed = {cols[j] for j in skipped}
        for idx in range(start, n - c_size + len(chosen) + 1):
            piv = cols[idx]
            if not piv or piv in passed:
                continue
            low = piv & -piv
            yield from extend(
                idx + 1, chosen + (idx,),
                [x ^ piv if x & low else x for x in cols],
                skipped,
            )
            passed.add(piv)
            skipped += (idx,)

    return extend(0, (), list(columns), ())


def _coloops(vectors: list[int], alive: int) -> int:
    """Coloops of M|alive, where ``vectors`` span its cycle space."""
    support = 0
    for v in vectors:
        support |= v
    return (alive & ~support).bit_count()


def _has_small_cocircuit(vectors: list[int], alive: int) -> bool:
    """Whether M|alive has a coloop or a series pair, a cocircuit of size <= 2.

    ``vectors`` span the cycle space of M|alive.  An element's column is the
    set of vectors that contain it: it is 0 exactly for a coloop, and two
    other elements are in series exactly when their columns are equal, since
    then every cycle meets both or neither.  Classes of equal columns are
    found by splitting ``alive`` on each vector in turn; a class of one
    element can split no further and is dropped, so the scan stops as soon
    as every class is a singleton.
    """
    if _coloops(vectors, alive):
        return True
    classes = [alive] if alive else []
    for v in vectors:
        classes = [p for c in classes for p in (c & v, c & ~v) if p & (p - 1)]
        if not classes:
            return False
    return bool(classes)


def _survivor_search(
    cycles: list[int], pool: list[int], prev: list[int], tgt: _TargetData,
    elems: tuple[str, ...],
) -> dict[int, int] | None:
    """Bijection from tgt's positions onto survivors S within ``pool``, or None.

    ``cycles`` is a basis of the cycle space of host / C, as bitmasks over
    host positions.  The circuits of (host / C) \\ D are the minimal
    supports of the cycle vectors avoiding D, so deleting an element is one
    elimination step on the basis.  Survivor sets are visited in
    lexicographic order of their pool positions by a depth-first walk that
    includes before it deletes, sharing each prefix's eliminations; pool[i]
    survives only with prev[i], the pool members before it in its class.  S
    must span host / C (its rank is the target's rank), so a branch stops as
    soon as it would delete a coloop of what is left; the walk therefore
    keeps rank(alive) = r(host / C).  A branch also stops when what is left
    has more coloops than the target, or, for a cosimple target, any coloop
    or series pair {e, f}: every spanning S within what is left then meets
    {e, f}, so S & {e, f} holds a cocircuit of M|S of size at most 2.
    Elements of host / C outside the pool are deleted up front.
    """
    t = len(tgt.elements)
    n_pool = len(pool)
    if t > n_pool:
        return None
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

    def dead(vectors: list[int], alive: int) -> bool:
        if tgt.cosimple:
            return _has_small_cocircuit(vectors, alive)
        return _coloops(vectors, alive) > tgt.n_coloops

    def test(vectors: list[int], smask: int):
        if not has_weight_histogram(vectors, tgt.histogram):
            return None
        return match_circuits(
            tgt.positions, tgt.circuits,
            _by_label(elems, smask), minimal_supports(vectors),
        )

    def walk(i: int, need: int, vectors: list[int], smask: int, alive: int):
        if need == n_pool - i:  # every remaining element survives
            for j in range(i, n_pool):
                if smask & prev[j] != prev[j]:
                    return None
                smask |= 1 << pool[j]
            return test(vectors, smask)
        if need == 0:  # every remaining element is deleted
            for idx in pool[i:]:
                vectors = _eliminate(vectors, 1 << idx)
                if vectors is None:
                    return None
            return test(vectors, smask)
        bit = 1 << pool[i]
        if smask & prev[i] == prev[i]:
            found = walk(i + 1, need - 1, vectors, smask | bit, alive)
            if found is not None:
                return found
        vectors = _eliminate(vectors, bit)
        if vectors is None:
            return None
        alive ^= bit
        if dead(vectors, alive):
            return None
        return walk(i + 1, need, vectors, smask, alive)

    if dead(cycles, alive):
        return None
    return walk(0, t, cycles, 0, alive)


def find_minor_witness(
    host: BinaryMatroid, target: BinaryMatroid
) -> MinorWitness | None:
    """Search for a minor of ``host`` isomorphic to ``target``.

    Deterministic: the returned witness is the first hit in canonical
    enumeration order.  Contract sets C are taken as combinations of
    host.elements() positions in lexicographic order, each of size
    rank(host) - rank(target) and each the greedy (lexicographically first)
    basis of its closure: host / C depends only on cl(C), and if C hits, so
    does the greedy basis C' of cl(C), which comes first.  Within each C,
    survivor sets are taken in lexicographic order of host positions, with
    only the earliest members in host order of each parallel class of
    host / C and of its loops: those come first, and an automorphism swaps
    them for any others.  For a cosimple target a branch whose remaining
    elements have a coloop or a series pair is cut, because restricting
    never removes a series pair.

    The target's search data are cached by value (``BinaryMatroid`` is a
    frozen, hashable value), so repeated searches for one target build them
    once.
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
    steps = _minor_steps(host, _target_data(target))
    return next((w for w in steps if w is not None), None)


def _minor_steps(
    host: BinaryMatroid, tgt: _TargetData
) -> Iterator[MinorWitness | None]:
    """``find_minor_witness``'s walk, one step per contract set.

    Yields None for each contract set whose survivor search misses, and the
    witness for one that hits, in the order ``find_minor_witness`` tries
    them; callers stop at the first witness.
    """
    c_size = host.full_rank - tgt.rank
    # d_size is corank(host) - corank(target).
    d_size = host.size - c_size - len(tgt.elements)
    if c_size < 0 or d_size < 0:
        return

    elems = host.elements()
    columns = [host.full_column(e) for e in elems]
    fundamental = host.fundamental_cycles()
    max_parallel, n_loops = tgt.max_parallel, tgt.n_loops
    for combo, reduced in _contract_sets(columns, c_size):
        cmask = 0
        for idx in combo:
            cmask |= 1 << idx
        # C is independent, so clearing its bits maps the host's cycle
        # space one-to-one onto that of host / C: still a basis.
        cycles = [v & ~cmask for v in fundamental]
        # Pool the first max_parallel members of each parallel class of
        # host / C and its first n_loops loops (C itself also reduces to 0).
        pool, prev, members = [], [], {}
        for idx, col in enumerate(reduced):
            before = members.get(col, 0)
            cap = max_parallel if col else 0 if cmask >> idx & 1 else n_loops
            if before.bit_count() < cap:
                pool.append(idx)
                prev.append(before)
                members[col] = before | 1 << idx
        mapping = _survivor_search(cycles, pool, prev, tgt, elems)
        if mapping is None:
            yield None
            continue
        contract_set = frozenset(elems[i] for i in combo)
        pairs = sorted((tgt.elements[p], elems[q]) for p, q in mapping.items())
        yield MinorWitness(
            contract_set=contract_set,
            delete_set=host.ground_set - contract_set - {h for _, h in pairs},
            mapping=tuple(pairs),
        )


# -- graphicness -------------------------------------------------------------------


_EXHAUSTED = object()


def graphic_certificate(m: BinaryMatroid) -> Graph | tuple[str, MinorWitness]:
    """A graph realizing ``m``, or the name and witness of an excluded minor.

    The graph's edge labels are the elements of ``m``; ``audit.verify_graph``
    checks it.  When no graph exists, Tutte's theorem guarantees one of
    ``GRAPHICNESS_EXCLUDED`` as a minor: the four searches run round-robin,
    one contract set each per turn in ``GRAPHICNESS_EXCLUDED`` order, and
    the first hit is returned with its ``MinorWitness``, which
    ``audit.verify_witness`` checks against ``catalog.get_named(name)``.
    """
    if m.size > HOST_LIMIT:
        raise CapacityError(
            f"graphicness test limited to {HOST_LIMIT} elements, got {m.size}"
        )
    graph = realize(m)
    if graph is not None:
        return graph
    searches = {
        name: _minor_steps(m, _target_data(catalog.get_named(name)))
        for name in GRAPHICNESS_EXCLUDED
    }
    while searches:
        for name, steps in list(searches.items()):
            w = next(steps, _EXHAUSTED)
            if w is _EXHAUSTED:
                del searches[name]
            elif w is not None:
                return name, w
    raise MatroidError(
        "no graph and no excluded minor found; this contradicts Tutte's theorem"
    )


def is_graphic(m: BinaryMatroid) -> bool:
    """Whether ``m`` is the cycle matroid of a graph.

    Decided by ``graphic_certificate``: a graph for "yes", an excluded minor
    (F7, F7*, M*(K5) or M*(K33), by Tutte's theorem) for "no".
    """
    return isinstance(graphic_certificate(m), Graph)


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
