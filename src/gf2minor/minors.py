"""Minor containment search, graphicness, and cocircuit checks.

``find_minor_witness`` decides whether a host matroid has a minor isomorphic
to a target and, if so, returns an explicit certificate: which elements to
contract, which to delete, and a bijection from the target onto the
survivors.  Rank and corank answer before any guard: a target of higher
rank or corank than the host is no minor of it.  ``audit.verify_witness``
checks a certificate by comparing the minor's cocycle space with the
target's, sharing no code with the search.

``graphic_certificate`` decides graphicness with a certificate either way: a
``Graph`` from ``realize.realize_cycles``, or, when no graph exists, one of
Tutte's excluded minors.  Graphicness is minor-closed, so a greedy walk over
the elements contracts, else deletes, each one while ``realize.realizable``
still fails, after removing every coloop, loop, series extra and parallel
extra for free (``_tidy``, with no cocycle fold); it ends at a
minor-minimal non-graphic minor, which one ``match_circuits`` call
names.  ``audit.verify_graph`` checks the graph and
``audit.verify_witness`` the minor; ``is_graphic`` is the bare verdict.
Every graphicness answer, of m or of m \\ Y, comes from one routine,
``_certificate``, on fundamental circuits: ``check_graphic_cocircuits``
reads each Y with its deletion from ``realize.cocircuit_deletions``, and
never builds m \\ Y.  ``covering_cocircuit_witness`` is the paper's Lemma 1,
solved by elimination on m's cocycle rows: no search and no size limit.

Search shape: every minor arises as host / C \\ D with C independent of size
rank(host) - rank(target) and D coindependent.  Since host / C depends only
on the flat cl(C), only one C per flat is tried: the greedy basis, the
lexicographically first basis of cl(C) in host order.  If some C hits, so
does the greedy basis C' of cl(C) (the same minor up to swapping loops), and
C' comes first, so the first hit is unchanged.  Contract sets are walked in
lexicographic order of host positions, eliminating one host column per
level, which also yields the parallel classes of host / C; a branch is cut
as soon as a position it passed over falls into the span, or as soon as
host / C can no longer have as many parallel classes of non-loops as the
target.  That count is exact: with prefix C0 the distinct non-zero reduced
columns are the classes of host / C0, each further contraction removes at
least one (its own class becomes loops, others may merge, none splits), and
a restriction keeps parallelism, so a cut leaf's pool cannot hold the
target and the first hit is unchanged.  Nothing is rebuilt per contract set:
the cycle space of host / C is the host's fundamental cycle bitmasks with C's
bits cleared, and survivor candidates are deleted from that basis by
``matroid.delete_cycles``, as is the rest of host / C.  Survivor sets are
walked depth-first in lexicographic order, one per count vector over the
parallel classes and loops of host / C (an automorphism swaps two in a
class): the earliest members of each, at most the target's largest class or
loop count, which come first, so the first hit is unchanged.  The walk is
pruned as soon as what is left stops spanning host / C.  For a cosimple
target (no cocircuit of size at most 2) a branch is also pruned when what is
left has a coloop or a series pair (``_small_cocircuit``): restricting to a
spanning set never removes one, so every spanning survivor set would keep a
cocircuit of size at most 2.  Survivor sets with more coloops than the target
fail the histogram test.  One walk over each survivor set's cycle space
checks it, stopping as soon as some weight occurs more often than in the
target's (a label-free invariant).  A set that passes is matched by
``iso.match_circuits`` on the smaller space, as in ``find_isomorphism``:
on its cocircuits, the minimal supports of its 2^rank cocycles, when the
target's rank is below its corank and not 0, else on its circuits.  The
target's side is prepared once with the rest of its search data
(``iso.prepare_side``: search order, from its circuits either way, check
schedule and pair keys), so each survivor set pays only for its own pair
keys: one packed row per element, each circuit added once to its members'
rows.  The kernel rejects a different element-profile multiset, then
searches for the bijection, dropping a candidate whose row, masked to the
slots of the elements already placed, differs from the pattern the target's
keys ask for there; that drops only prefixes no bijection completes.  A
bijection maps circuits onto circuits exactly when it maps cocircuits onto
cocircuits, so the first bijection, and with it the witness, is unchanged.
All enumeration guards raise CapacityError rather than degrade silently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable

from . import catalog
# verify_witness is bound here only for bench/, which reads it at this module.
from .audit import MinorWitness, verify_witness  # noqa: F401
from .errors import CapacityError, InputError, MatroidError
from .iso import CircuitSide, match_circuits, prepare_side
# element_profiles is bound here for bench/tracer.py, which wraps it in this
# module; the search reaches it only through iso.prepare_side.
from .iso import element_profiles  # noqa: F401
from .matroid import (
    BinaryMatroid,
    Graph,
    MinorOp,
    contract_cycles,
    delete,
    delete_cycles,
    enumeration_guard,
    equal_columns,
    extend_echelon,
    mask_positions,
    mask_to_labels,
    minimal_supports,
    span_vectors,
    support,
    weight_histogram,
)
from .realize import cocircuit_deletions, cocycle_rows, realizable, realize_cycles

HOST_LIMIT = 20
# Read by nothing in src; kept for bench/test_bench.py until ROADMAP item 3.
TARGET_LIMIT = 12

# Tutte's excluded minors for graphicness of a binary matroid.
GRAPHICNESS_EXCLUDED = ("F7", "F7*", "M*(K5)", "M*(K33)")


@dataclass(frozen=True)
class _TargetData:
    elements: tuple[str, ...]
    n_loops: int
    max_parallel: int  # size of the largest parallel class of non-loops
    n_classes: int  # number of parallel classes of non-loops
    side: CircuitSide  # circuits, or cocircuits if dual; positions in label order
    dual: bool  # 0 < rank < corank: survivor sets are matched on cocircuits
    histogram: tuple[int, ...]
    cosimple: bool  # no cocircuit of size at most 2


@lru_cache
def _target_data(target: BinaryMatroid) -> _TargetData:
    elements = target.elements()
    cycles = target.fundamental_cycles()
    everything = (1 << target.size) - 1
    classes = Counter(filter(None, map(target.full_column, elements)))
    circuits = target.circuit_masks()
    # Rank 0 (all loops) keeps its circuits for now; see ROADMAP item 6.
    dual = 0 < target.full_rank < target.corank
    keys = minimal_supports(cocycle_rows(cycles, everything)) if dual else circuits
    return _TargetData(
        elements=elements,
        n_loops=len(target.loops()),
        max_parallel=max(classes.values(), default=0),
        n_classes=len(classes),
        side=prepare_side(_by_label(elements, everything), keys, ordered_by=circuits),
        dual=dual,
        histogram=weight_histogram(cycles),
        cosimple=not _small_cocircuit(cycles, everything),
    )


def _by_label(elems: tuple[str, ...], mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, in label order."""
    return sorted(mask_positions(mask), key=elems.__getitem__)


def _contract_sets(columns: list[int], c_size: int, n_classes: int = 0):
    """Greedy bases of ``c_size`` host positions, in lexicographic order.

    Yields (mask of C, reduced columns) for each independent C that is the
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

    Only leaves where host / C has at least ``n_classes`` parallel classes
    of non-loops are yielded, and a branch is cut as soon as it cannot reach
    one.  At a node with prefix C0 the distinct non-zero reduced columns are
    the classes of host / C0; contracting one more non-loop turns its class
    into loops and may merge others but never splits one, so each further
    contraction removes at least one class.  The cut drops only leaves whose
    pool cannot hold a target with ``n_classes`` classes (restriction keeps
    parallelism), so it never drops a hit.
    """
    return _greedy_bases(0, 0, list(columns), (), c_size, n_classes)


def _greedy_bases(
    start: int, cmask: int, cols: list[int], skipped: tuple[int, ...],
    left: int, n_classes: int,
):
    """The walk of ``_contract_sets`` below the prefix ``cmask``, with
    ``left`` more positions to choose.

    A module-level generator rather than a closure, so that a walk leaves
    no reference cycle behind.
    """
    classes = set(cols)
    classes.discard(0)
    if len(classes) - left < n_classes:
        return
    if not left:
        yield cmask, cols
        return
    passed = {cols[j] for j in skipped}
    for idx in range(start, len(cols) - left + 1):
        piv = cols[idx]
        if not piv or piv in passed:
            continue
        low = piv & -piv
        yield from _greedy_bases(
            idx + 1, cmask | 1 << idx, [x ^ piv if x & low else x for x in cols],
            skipped, left - 1, n_classes,
        )
        passed.add(piv)
        skipped += (idx,)


def _small_cocircuit(vectors: list[int], alive: int) -> bool:
    """Whether M|alive, whose cycle space ``vectors`` span, has a coloop (in
    no vector) or a series pair (equal columns): a cocircuit of size <= 2."""
    return bool(alive & ~support(vectors) or equal_columns(vectors, alive))


def _match(
    tgt: _TargetData, vectors: list[int], smask: int, elems: tuple[str, ...]
) -> dict[int, int] | None:
    """Bijection from tgt's positions onto ``smask`` mapping tgt's circuits
    onto those of the cycle space ``vectors`` span, or None.

    Nothing is extracted unless the cycle space has the target's weight
    histogram.  A dual target's cocircuits are matched instead, read off
    ``vectors`` folded into echelon form: a contract set may clear private bits.
    """
    histogram = tgt.histogram
    if tgt.dual:
        if span_vectors(vectors, histogram) is None:
            return None
        vectors, histogram = cocycle_rows(reduce(extend_echelon, vectors, []), smask), None
    family = minimal_supports(vectors, histogram)
    if family is None:
        return None
    return match_circuits(tgt.side, _by_label(elems, smask), family)


def _walk(
    tgt: _TargetData, elems: tuple[str, ...], pool: list[int], prev: list[int],
    i: int, need: int, vectors: list[int], smask: int, alive: int,
) -> dict[int, int] | None:
    """Bijection from tgt's positions onto survivors S within ``pool``, or None.

    The survivor walk from pool position i on.  ``vectors`` span the cycle
    space of M|alive, a restriction of host / C, as bitmasks over host
    positions: the circuits of (host / C) \\ D are the minimal supports of
    the cycle vectors avoiding D, so deleting an element is one call of
    ``delete_cycles``.  ``need`` more survivors are chosen from pool[i:],
    and ``smask`` holds those chosen; the elements of host / C outside the
    pool are deleted before the walk is entered.  One step rule: pool[i] is
    first kept (one recursive call) if a survivor is still needed and
    prev[i], the pool members before it in its class, are kept; then,
    unless every remaining member must survive, it is deleted (the next
    turn of the loop).  At the end of the pool ``need`` is 0 and the
    survivors are matched.  So survivor sets are visited in lexicographic
    order of pool positions, and each prefix's eliminations are shared.  S
    must span host / C (its rank is the target's rank), so a deletion stops
    the branch when it would delete a coloop of what is left; the walk thus
    keeps rank(alive) = r(host / C).  For a cosimple target it also stops
    when ``_small_cocircuit`` holds for what is left: any coloop or series
    pair {e, f}, since every spanning S within what is left then meets
    {e, f}, so S & {e, f} holds a cocircuit of M|S of size at most 2.  A
    module-level function rather than a closure, so that a search leaves
    no reference cycle behind.
    """
    while True:
        if i == len(pool):  # need is 0 here
            return _match(tgt, vectors, smask, elems)
        bit = 1 << pool[i]
        if need and smask & prev[i] == prev[i]:
            found = _walk(tgt, elems, pool, prev, i + 1, need - 1, vectors, smask | bit, alive)
            if found is not None:
                return found
        if need == len(pool) - i:  # every remaining member must survive
            return None
        vectors, lost = delete_cycles(vectors, bit)
        alive ^= bit
        if lost or tgt.cosimple and _small_cocircuit(vectors, alive):
            return None
        i += 1


def find_minor_witness(
    host: BinaryMatroid, target: BinaryMatroid
) -> MinorWitness | None:
    """Search for a minor of ``host`` isomorphic to ``target``.

    None at once, at any size, for a target of higher rank or corank than
    the host.  Otherwise CapacityError past ``HOST_LIMIT`` host elements,
    which bounds the target too.  Deterministic: the returned witness is the
    first hit in the canonical order the module docstring sets out (greedy
    contract sets, then class-prefix survivor sets, both lexicographic in
    host positions).  The target's search data are cached by value, so
    repeated searches for one target build them once.
    """
    c_size = host.full_rank - target.full_rank
    if c_size < 0 or host.corank < target.corank:
        return None
    if host.size > HOST_LIMIT:
        raise CapacityError(
            f"minor search hosts limited to {HOST_LIMIT} elements, got {host.size}"
        )
    tgt = _target_data(target)
    t = target.size

    elems = host.elements()
    fundamental = host.fundamental_cycles()
    r = host.full_rank
    columns = [1 << i for i in range(r)]
    columns += [v ^ 1 << (r + j) for j, v in enumerate(fundamental)]
    max_parallel, n_loops = tgt.max_parallel, tgt.n_loops
    for cmask, reduced in _contract_sets(columns, c_size, tgt.n_classes):
        # C is independent, so clearing its bits maps the host's cycle
        # space one-to-one onto that of host / C: still a basis.
        cycles = [v & ~cmask for v in fundamental]
        # Pool the first max_parallel members of each parallel class of
        # host / C and its first n_loops loops (C itself also reduces to 0).
        pool, prev, members, alive = [], [], {}, 0
        for idx, col in enumerate(reduced):
            before = members.get(col, 0)
            cap = max_parallel if col else 0 if cmask >> idx & 1 else n_loops
            if before.bit_count() < cap:
                pool.append(idx)
                prev.append(before)
                members[col] = before | 1 << idx
                alive |= 1 << idx
        if len(pool) < t:
            continue
        # Delete the rest of host / C; the survivors must span it.
        cycles, lost = delete_cycles(cycles, support(cycles) & ~alive)
        if lost or tgt.cosimple and _small_cocircuit(cycles, alive):
            continue
        mapping = _walk(tgt, elems, pool, prev, 0, t, cycles, 0, alive)
        if mapping is not None:
            return _witness(elems, cmask, tgt, mapping)
    return None


def _witness(
    elems: tuple[str, ...], cmask: int, tgt: _TargetData, mapping: dict[int, int]
) -> MinorWitness:
    """The witness contracting ``cmask`` that maps tgt's positions as given;
    every other host element is deleted."""
    contract_set = frozenset(elems[i] for i in mask_positions(cmask))
    pairs = sorted((tgt.elements[p], elems[q]) for p, q in mapping.items())
    return MinorWitness(
        contract_set=contract_set,
        delete_set=frozenset(elems) - contract_set - {h for _, h in pairs},
        mapping=tuple(pairs),
    )


# -- graphicness -------------------------------------------------------------------


def graphic_certificate(m: BinaryMatroid) -> Graph | tuple[str, MinorWitness]:
    """A graph realizing ``m``, or the name and witness of an excluded minor.

    The graph's edge labels are the elements of ``m``; ``audit.verify_graph``
    checks it.  When no graph exists, ``_reduce`` walks m's fundamental
    circuits down to a minor-minimal non-graphic minor, which Tutte's
    theorem makes one of ``GRAPHICNESS_EXCLUDED``; its ``MinorWitness`` is
    checked by ``audit.verify_witness`` against ``catalog.get_named(name)``.
    """
    return _certificate(m.fundamental_cycles(), (1 << m.size) - 1, m.elements())


def _certificate(
    cycles: list[int], alive: int, elems: tuple[str, ...]
) -> Graph | tuple[str, MinorWitness]:
    """A graph realizing M|alive, labelled from ``elems``, or an excluded
    minor by ``_reduce``, whose arguments these are.  CapacityError past
    ``HOST_LIMIT`` elements of M|alive."""
    size = alive.bit_count()
    if size > HOST_LIMIT:
        raise CapacityError(f"graphicness test limited to {HOST_LIMIT} elements, got {size}")
    found = realize_cycles(cycles, alive)
    if found is None:
        return _reduce(cycles, alive, elems)
    n, edges = found
    return Graph(n, tuple([(u, v, elems[p]) for p, u, v in edges]))


def _tidy(cycles: list[int], alive: int) -> tuple[list[int], int, int]:
    """Remove the coloops, loops, series extras and parallel extras of M|alive.

    ``cycles`` are fundamental circuits of M|alive.  Coloops, loops and all
    but the first element of each series class are contracted (contracting
    a loop deletes it), and all but the first of each parallel class
    deleted, until none is left; none of these steps changes whether the
    matroid is graphic.  Returns the cycles and elements left and the mask
    of the contracted elements, which leaves the loops out.

    Parallel classes are read off the circuits with no fold.  With no loop,
    coloop or series pair left, a basis element held by one vector only
    would be in series with its cobasis element, so the bits ``twice`` in
    two or more vectors are the basis, over which a cobasis element's
    column is ``v & twice`` and a basis element's its own bit.
    """
    contracted = 0
    while True:
        once = twice = 0  # the elements in some vector, in two or more
        for v in cycles:
            twice |= once & v
            once |= v
        coloops = alive & ~once
        loops = sum(v for v in cycles if not v & (v - 1))
        series = sum(c & (c - 1) for c in equal_columns(cycles, alive & once))
        if coloops or loops or series:
            contracted |= coloops | series
            alive &= ~(coloops | loops | series)
            cycles = contract_cycles(cycles, loops | series)
            continue
        classes: dict[int, int] = {}  # column -> the elements with it
        for v in cycles:
            col = v & twice
            classes[col] = classes.get(col, 0 if col & (col - 1) else col) | v & ~twice
        parallel = sum(c & (c - 1) for c in classes.values())
        if not parallel:
            return cycles, alive, contracted
        alive &= ~parallel
        cycles, _ = delete_cycles(cycles, parallel)


def _reduce(
    cycles: list[int], alive: int, elems: tuple[str, ...]
) -> tuple[str, MinorWitness]:
    """An excluded minor of the non-graphic M|alive, by a greedy reduction.

    ``cycles`` are fundamental circuits of M|alive, as bitmasks over the
    positions of ``elems``, the ground set of M; the witness is a minor of
    M, deleting every element outside ``alive``.  The elements are walked
    once in host order.  Whenever the minor changes it is tidied
    (``_tidy``); if its size and rank are then those of one of
    ``GRAPHICNESS_EXCLUDED`` (no two of the four share both), one
    ``match_circuits`` call tries that one.  Otherwise the next unwalked
    element e is contracted if the minor / e is still not ``realizable``,
    else deleted if the minor \\ e is not, else kept; a kept e leaves the
    minor as it was, so the walk goes straight on to the next element.  A
    kept e stays necessary in every later minor N: N / e and N \\ e are
    minors of the graphic ones tested at its turn.  So the walk ends at a
    minor-minimal non-graphic minor, one of the four by Tutte's theorem,
    and makes at most two realizations per element, each a verdict only,
    with no edges laid out.  MatroidError if nothing matches, which would
    contradict that theorem.
    """
    targets = {}
    for name in GRAPHICNESS_EXCLUDED:
        m = catalog.get_named(name)
        targets[m.size, m.full_rank] = name, _target_data(m)
    contracted = walked = 0
    while True:
        cycles, alive, freed = _tidy(cycles, alive)
        contracted |= freed
        size = alive.bit_count()
        name, tgt = targets.get((size, size - len(cycles)), (None, None))
        mapping = None if tgt is None else _match(tgt, cycles, alive, elems)
        if mapping is not None:
            return name, _witness(elems, contracted, tgt, mapping)
        for p in mask_positions(alive & ~walked):
            bit = 1 << p
            shrunk = contract_cycles(cycles, bit)
            if not realizable(shrunk, alive ^ bit):
                cycles, alive, contracted = shrunk, alive ^ bit, contracted | bit
                break
            shrunk, _ = delete_cycles(cycles, bit)
            if not realizable(shrunk, alive ^ bit):
                cycles, alive = shrunk, alive ^ bit
                break
            walked |= bit
        else:
            raise MatroidError(
                "no graph and no excluded minor found; "
                "this contradicts Tutte's theorem"
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
    certificate: Graph | tuple[str, MinorWitness]

    @property
    def graphic(self) -> bool:
        return isinstance(self.certificate, Graph)


@dataclass(frozen=True)
class CocircuitReport:
    checks: tuple[CocircuitCheck, ...]
    all_graphic: bool


def cocircuit_masks(m: BinaryMatroid) -> list[tuple[int, list[int]]]:
    """The cocircuits Y of ``m``, masks over ``m.elements()`` positions, with
    the fundamental circuits of m \\ Y, from ``cocircuit_deletions`` over
    the span of m's cocycle rows, in the one canonical order: by size, then
    by sorted labels.  CapacityError as ``circuit_masks``."""
    enumeration_guard(m.size)
    elems = m.elements()
    cycles = m.fundamental_cycles()
    cocycles = span_vectors(cocycle_rows(cycles, (1 << m.size) - 1))
    pairs = list(cocircuit_deletions(cycles, cocycles))
    pairs.sort(key=lambda pair: (pair[0].bit_count(), sorted(mask_to_labels(pair[0], elems))))
    return pairs


def check_graphic_cocircuits(m: BinaryMatroid) -> CocircuitReport:
    """For every cocircuit Y, report whether m \\ Y is graphic.

    The cocircuits come in the order of ``cocircuit_masks``, each with the
    circuits its deletion left, and ``_certificate`` answers on those, a
    graph or an excluded minor, kept as each check's certificate; m \\ Y is
    never built.
    """
    elems = m.elements()
    full = (1 << m.size) - 1
    checks = []
    for y, vectors in cocircuit_masks(m):
        cert = _certificate(vectors, full & ~y, elems)
        checks.append(CocircuitCheck(mask_to_labels(y, elems), cert))
    return CocircuitReport(
        checks=tuple(checks),
        all_graphic=all(c.graphic for c in checks),
    )


# -- covering cocircuits -------------------------------------------------------------


def covering_cocircuit_witness(
    m: BinaryMatroid,
    minor_ops: Iterable[MinorOp],
    c_n: Iterable[str],
) -> frozenset[str]:
    """A cocircuit Y of ``m`` with N \\ c_n a minor of m \\ Y (Lemma 1).

    N = m after ``minor_ops`` = m / C \\ D, and ``c_n`` is a cocircuit of N.
    N's cocycles are the traces on E(N) of m's cocycles avoiding C, and a
    nonzero one inside c_n is c_n.  Y starts as D | c_n; each d in D, lowest
    position first, is dropped while some cocycle of m inside Y - d meets
    c_n.  Every d left lies in every such cocycle, so Y is the only one, a
    cocircuit, and m \\ Y / C \\ (D - Y) is N \\ c_n itself: the identity
    mapping is a witness.  Linear algebra only: no search, no size limit.
    """
    ops = list(minor_ops)
    n_minor = m.apply_ops(ops)
    c_n = frozenset(c_n)
    if not c_n or not c_n <= n_minor.ground_set or not n_minor.dual().is_circuit(c_n):
        raise InputError(f"{sorted(c_n)} is not a cocircuit of the minor")
    elems = m.elements()
    full = (1 << m.size) - 1
    rows = cocycle_rows(m.fundamental_cycles(), full)
    target = sum(1 << p for p, e in enumerate(elems) if e in c_n)
    y = target | sum(1 << p for p, e in enumerate(elems) if delete(e) in ops)
    for p in mask_positions(y & ~target):
        vectors, _ = delete_cycles(rows, full & ~(y ^ (1 << p)))
        if any(v & target for v in vectors):
            y ^= 1 << p
    return mask_to_labels(y, elems)
