"""Graph realization of binary matroids: a graph whose cycle matroid is M.

``realize_cycles`` realizes M|ground from fundamental circuits given as
bitmasks over positions, per connected component, with edges named by
position; ``minors._certificate`` labels them with the matroid's elements.
It has two stages.  ``_star_families`` contracts each class of elements
in series (equal columns over the cycle basis, ``matroid.equal_columns``) to
one edge; the cosimple rest of rank r >= 2 is graphic exactly when r + 1 of
its cocircuits, the vertex stars, cover every element twice and have rank
r.  Cocycles, sums of the rows of [I | A] that ``cocycle_rows`` reads off
the fundamental circuits with no elimination, are read lightest first and
each deleted from the cycle basis: ``cocircuit_deletions`` keeps a
cocircuit Y, forced when the component ``_component`` grows in M \\ Y is
all of it.  Reading stops at r + 1 forced stars or past the weight that
the stars still missing can carry, so only the sums of at most that many
rows are formed (``matroid.sums_of_at_most``), not the 2^r of the span.
``_lay_out`` joins the stars by edges and subdivides each series edge
back; ``realizable`` is the verdict of the first stage alone.  None means
not graphic, and ``minors._certificate`` then finds an excluded minor.
Only bitmask elimination (``matroid.delete_cycles``, once per cocycle
read) is used here, never the rank routine of ``audit``, so that
``audit.verify_graph`` shares no code with the realization it checks.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Iterable, Iterator

from .matroid import (
    delete_cycles, equal_columns, extend_echelon, mask_positions, sums_of_at_most,
)


def cocycle_rows(cycles: list[int], ground: int) -> list[int]:
    """Rows of [I | A] spanning the cocycle space of M|ground, read off its
    fundamental circuits ``cycles`` as the rows of their transpose.  Each
    circuit has a bit that no other has; its highest such bit is its cobasis
    element f, as in ``fundamental_cycles``.  Every other element e gets its
    fundamental cocircuit, e and the f of each circuit holding e (none for a
    coloop)."""
    once = twice = 0
    for v in cycles:
        twice |= once & v
        once |= v
    own = [(1 << (v & ~twice).bit_length()) >> 1 for v in cycles]
    rows = []
    for e in mask_positions(ground & ~sum(own)):
        row = bit = 1 << e
        for v, f in zip(cycles, own):
            if v & bit:
                row |= f
        rows.append(row)
    return rows


def cocircuit_deletions(cycles: list[int],
                        cocycles: Iterable[int]) -> Iterator[tuple[int, list[int]]]:
    """Each cocircuit Y among ``cocycles``, in order, with the fundamental
    circuits of M \\ Y left by deleting Y from ``cycles``, those of M.  The
    rank drops by Y's nullity in M*: 1 for a cocircuit, at least k for a
    union of k disjoint ones, which is skipped."""
    for y in cocycles:
        left, drop = delete_cycles(cycles, y)
        if drop == 1:
            yield y, left


def _component(circuits: list[int], ground: int) -> int:
    """The connected component of M|ground holding the lowest element of
    ``ground`` (0 if it is empty), grown by each circuit that meets it.

    ``circuits`` are circuits of M|ground that span its cycle space, such as
    fundamental circuits.  (An arbitrary basis would not do, since a sum of
    cycles from two components would merge them.)  A coloop stays alone.
    """
    comp, size = ground & -ground, -1
    while size != len(circuits):
        size, rest = len(circuits), []
        for c in circuits:
            if c & comp:
                comp |= c
            else:
                rest.append(c)
        circuits = rest
    return comp


def _components(circuits: list[int], ground: int) -> list[int]:
    """Connected components of M|ground, peeled off lowest element first."""
    comps = []
    while ground:
        comp = _component(circuits, ground)
        comps.append(comp)
        ground &= ~comp
        circuits = [c for c in circuits if not c & comp]
    return comps


def _stars(cycles: list[int], ground: int, rank: int) -> list[int] | None:
    """Vertex stars of a graph realizing M|ground, or None if none does.

    M|ground is connected, of rank at least 2, and has no cocircuit of size
    at most 2; ``cycles`` are fundamental circuits of it.  By Whitney a
    realization G can be taken 2-connected, and its rank + 1 vertex stars
    are then cocircuits that cover every element twice and have rank
    ``rank``.  Conversely such a family is the star family of a graph whose
    cut space, hence whose cycle matroid, is M's.

    The cocycles, sums of the rows of ``cocycle_rows``, are read lightest
    first through ``cocircuit_deletions``.  A cocircuit Y with M \\ Y
    connected (read off its deletion: a bond whose sides do not both have
    an edge) is a star of every such G.  These forced stars F are taken
    first.  A star family holds F, and its ``rank`` + 1 members weigh at
    least 3 each and 2|ground| in all, so no other member weighs more than
    3 + spare, where spare is 2|ground| - 3(``rank`` + 1) less the sum of
    |f| - 3 over F.
    The reading stops at the first heavier cocycle, before the first if
    spare < 0, or once F has ``rank`` + 1 members, which can then only be
    the family.  Each row owns a bit, so a sum of k rows weighs at least k,
    and spare only falls: the sums of at most 3 + spare rows, sorted by
    weight, hold every cocycle the reading can reach, in the order of the
    whole sorted span, and no more than C(rank, <= 3 + spare) are formed.
    The verdict is that of a full read: a forced cocircuit left unread is a
    star of every realization, so of any family found among those read,
    which it is not.

    When the forced stars fall short, the rest are found among those read
    by an exact depth-first search that branches on the open element with
    the fewest candidates.  A candidate fits the remaining demand, meets
    each chosen star in nothing or in one whole parallel class (the edges
    joining two vertices), and is independent of the chosen stars unless
    it is the last: any ``rank`` of the stars of a connected graph are
    independent.  With fewer candidates than a full read it can branch
    elsewhere and find another of several star families first.
    """
    need = rank + 1
    spare = 2 * ground.bit_count() - 3 * need
    if spare < 0:
        return None
    rows = cocycle_rows(cycles, ground)
    chosen: list[int] = []
    span: list[int] = []
    once = twice = 0
    read: list[int] = []  # the cocircuits read that are not forced
    # Heavier cocycles fit no family holding the forced stars; spare is read
    # per draw and only falls, and a sum of k rows weighs at least k.
    lightest = sorted(sums_of_at_most(rows, 3 + spare), key=int.bit_count)
    fitting = takewhile(lambda y: y.bit_count() - 3 <= spare, lightest)
    for y, left in cocircuit_deletions(cycles, fitting):
        rest = ground & ~y
        if _component(left, rest) != rest:
            read.append(y)
            continue
        if y & twice:
            return None
        if len(chosen) < rank:
            grown = extend_echelon(span, y)
            if grown is None:
                return None
            span = grown
        chosen.append(y)
        spare -= y.bit_count() - 3
        twice |= once & y
        once |= y
        if len(chosen) == need:
            # The only possible star family; if it is one, every later
            # forced cocircuit would be one of its stars.
            return chosen if twice == ground else None
    # Each element's parallel class by its bit; a missing one is alone.
    parallel = {1 << p: c for c in equal_columns(rows, ground) for p in mask_positions(c)}
    candidates = [
        y for y in read
        if not y & twice and all(_meets_in_a_class(parallel, y, star) for star in chosen)
    ]
    return _star_search(need, ground, parallel, chosen, span, once, twice, candidates)


def _meets_in_a_class(parallel: dict[int, int], y: int, star: int) -> bool:
    """Whether y meets ``star`` in nothing or in one whole parallel class;
    ``parallel`` maps an element's bit to its class (a missing one is alone)."""
    common = y & star
    low = common & -common
    return common == parallel.get(low, low)


def _star_search(
    need: int, ground: int, parallel: dict[int, int], chosen: list[int],
    span: list[int], once: int, twice: int, candidates: list[int],
) -> list[int] | None:
    """The depth-first search of ``_stars`` for ``need`` stars extending
    ``chosen``; ``span`` is their echelon basis, ``once`` and ``twice`` the
    elements they cover once and twice."""
    if len(chosen) == need:
        return chosen if twice == ground else None
    # Some element is still open: the chosen stars are independent, so
    # they cannot cover every element twice yet (their sum would be 0).
    best = None
    for p in mask_positions(ground & ~twice):
        hits = [y for y in candidates if y >> p & 1]
        if not hits:
            return None
        if best is None or len(hits) < len(best):
            best = hits
    last = len(chosen) == need - 1
    for i, y in enumerate(best):
        grown = span if last else extend_echelon(span, y)
        if grown is None:
            continue
        covered = twice | once & y
        # Families with an earlier sibling have been searched already.
        tried = best[: i + 1]
        found = _star_search(
            need, ground, parallel, chosen + [y], grown, once | y, covered,
            [z for z in candidates if not z & covered
             and z not in tried and _meets_in_a_class(parallel, z, y)],
        )
        if found is not None:
            return found
    return None


def _star_families(cycles: list[int], ground: int) -> list[tuple[dict, int, list[int]]] | None:
    """Series classes, cosimple rest and vertex stars of each component of
    M|ground, whose fundamental circuits are ``cycles``, lowest element
    first; None at the first that is not graphic.  All of a series class but
    its first element are contracted by clearing their bits, which leaves
    each vector a private bit.  A rest of rank 0 is a loop, at a vertex in
    no star; of rank 1, a bundle of parallel edges joining two.
    """
    families = []
    for comp in _components(cycles, ground):
        vectors = [v for v in cycles if v & comp]
        # Series classes by their lowest bit; a missing key is a class of one.
        series = {cls & -cls: cls for cls in equal_columns(vectors, comp)}
        contracted = sum(cls & (cls - 1) for cls in series.values())  # classes are disjoint
        rest = comp & ~contracted
        vectors = [v & ~contracted for v in vectors]
        rank = rest.bit_count() - len(vectors)
        if rank < 2:
            stars = [rest, rest] if rank else [0]
        else:
            stars = _stars(vectors, rest, rank)
            if stars is None:
                return None
        families.append((series, rest, stars))
    return families


def _lay_out(families: list[tuple[dict, int, list[int]]]) -> tuple[int, list[tuple]]:
    """Vertex count and sorted (position, u, v) edges of ``_star_families``:
    per component, its sorted stars, each read once for the ends of its
    edges (a loop sits at the first), then the inner vertices of each series
    class's path, into which the edge of its first element is subdivided."""
    n, edges = 0, []
    for series, ground, stars in families:
        ends: dict[int, list[int]] = {}
        for i, star in enumerate(sorted(stars), n):
            for p in mask_positions(star):
                ends.setdefault(p, []).append(i)
        loop = (n, n)
        n += len(stars)
        for first in mask_positions(ground):
            u, v = ends.get(first, loop)  # stars are numbered in order: u <= v
            cls = series.get(1 << first)
            if cls is None:
                edges.append((first, u, v))
                continue
            path = [u, *range(n, n + cls.bit_count() - 1), v]
            n += len(path) - 2
            edges += [(p, *sorted(path[i:i + 2])) for i, p in enumerate(mask_positions(cls))]
    return n, sorted(edges)


def realizable(cycles: list[int], ground: int) -> bool:
    """Whether M|ground is graphic: ``realize_cycles`` without the edges."""
    return _star_families(cycles, ground) is not None


def realize_cycles(
    cycles: list[int], ground: int
) -> tuple[int, list[tuple[int, int, int]]] | None:
    """Graph of M|ground as a vertex count and sorted (position, u, v) edges.

    ``cycles`` are fundamental circuits of M|ground with respect to some
    basis, as ``_components`` requires; None if M|ground is not graphic.
    The graph is the disjoint union of its components' graphs.
    """
    families = _star_families(cycles, ground)
    return None if families is None else _lay_out(families)
