"""Graph realization of binary matroids: a graph whose cycle matroid is M.

``realize`` works per connected component, on bitmasks over the positions of
``elements()``.  Elements in series are contracted to one edge and
subdivided back afterwards; the cosimple rest of rank r >= 2 is graphic
exactly when r + 1 of its cocircuits, the vertex stars, cover every element
twice and have rank r.  It answers None for a matroid that is not graphic;
``minors.graphic_certificate`` then finds an excluded minor instead.  Only
bitmask elimination is used here, never the rank routine of ``audit``, so
that ``audit.verify_graph`` shares no code with the realization it checks.
"""

from __future__ import annotations

from .matroid import BinaryMatroid, Graph, mask_positions, minimal_supports


def _reduced_echelon(vectors: list[int]) -> list[int]:
    """Reduced echelon basis of span(vectors).

    Each basis vector owns its lowest set bit, its pivot, which no other
    basis vector contains.  For a cycle space the vectors are therefore the
    fundamental circuits of the pivot elements with respect to the basis
    formed by the other elements.
    """
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v & (b & -b):
                v ^= b
        if v:
            low = v & -v
            basis = [b ^ v if b & low else b for b in basis]
            basis.append(v)
    return basis


def _equal_columns(vectors: list[int], ground: int) -> list[list[int]]:
    """The positions of ``ground`` grouped by their column over ``vectors``.

    A position's column is the set of vectors that contain it.  Groups come
    in order of their first position, and each lists its positions in order.
    """
    groups: dict[int, list[int]] = {}
    for p in mask_positions(ground):
        col = sum(1 << j for j, v in enumerate(vectors) if v >> p & 1)
        groups.setdefault(col, []).append(p)
    return list(groups.values())


def _components(circuits: list[int], ground: int) -> list[int]:
    """Connected components of M|ground, as bitmasks, lowest element first.

    ``circuits`` are circuits of M|ground that span its cycle space, such as
    fundamental circuits: two elements lie in one component exactly when a
    chain of these circuits joins them.  (An arbitrary basis would not do,
    since a sum of cycles from two components would merge them.)  An element
    in no circuit is a coloop, a component of its own.
    """
    comps: list[int] = []
    for c in circuits:
        merged, rest = c, []
        for comp in comps:
            if comp & c:
                merged |= comp
            else:
                rest.append(comp)
        comps = rest + [merged]
        ground &= ~merged
    comps += [1 << p for p in mask_positions(ground)]
    return sorted(comps, key=lambda comp: comp & -comp)


def _insert(span: dict[int, int], v: int) -> dict[int, int] | None:
    """``span`` (leading bit -> vector) extended by v; None if v is in it."""
    while v:
        lead = v.bit_length() - 1
        if lead not in span:
            return {**span, lead: v}
        v ^= span[lead]
    return None


def _stars(cycles: list[int], ground: int, rank: int) -> list[int] | None:
    """Vertex stars of a graph realizing M|ground, or None if none does.

    M|ground is connected, of rank at least 2, and has no cocircuit of size
    at most 2; ``cycles`` is a basis of its cycle space.  By Whitney a
    realization G can be taken 2-connected, and its rank + 1 vertex stars
    are then cocircuits that cover every element twice and have rank
    ``rank``.  Conversely such a family is the star family of a graph whose
    cut space, hence whose cycle matroid, is M's.

    A cocircuit Y with M \\ Y connected is a star of every such G: a bond
    whose two sides both have an edge leaves two components.  These forced
    stars are taken first, and the rest are found by an exact depth-first
    search that branches on the open element with the fewest candidates.
    A candidate fits the remaining demand, meets each chosen star in nothing
    or in one whole parallel class (the edges joining two vertices), and is
    independent of the chosen stars unless it is the last: any ``rank`` of
    the stars of a connected graph are independent.
    """
    size = ground.bit_count()
    if 2 * size < 3 * (rank + 1):
        return None  # every vertex of G would need degree 3 or more
    basis = _reduced_echelon(cycles)
    pivots = 0
    for b in basis:
        pivots |= b & -b
    # The rows of [I | A] over the non-pivot elements span the cocycles.
    rows = [
        1 << f | sum(b & -b for b in basis if b >> f & 1)
        for f in mask_positions(ground & ~pivots)
    ]
    parallel = {}
    for cls in _equal_columns(rows, ground):
        mask = sum(1 << p for p in cls)
        parallel.update(dict.fromkeys(cls, mask))

    def meets_in_a_class(y: int, star: int) -> bool:
        common = y & star
        return not common or common == parallel[(common & -common).bit_length() - 1]

    cocircuits = minimal_supports(rows)
    need = rank + 1
    chosen: list[int] = []
    span: dict[int, int] = {}
    once = twice = 0
    for y in cocircuits:
        # Deleting Y projects the cocycle space onto the rest; its reduced
        # echelon basis is fundamental cocircuits, as good as circuits here.
        rest = _reduced_echelon([row & ~y for row in rows])
        if len(_components(rest, ground & ~y)) > 1:
            continue
        if len(chosen) == need or y & twice:
            return None
        if len(chosen) < rank:
            grown = _insert(span, y)
            if grown is None:
                return None
            span = grown
        chosen.append(y)
        twice |= once & y
        once |= y

    def extend(chosen, span, once, twice, candidates):
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
        last = len(chosen) == rank
        for i, y in enumerate(best):
            grown = span if last else _insert(span, y)
            if grown is None:
                continue
            covered = twice | once & y
            # Families with an earlier sibling have been searched already.
            tried = best[: i + 1]
            found = extend(
                chosen + [y], grown, once | y, covered,
                [z for z in candidates if not z & covered
                 and z not in tried and meets_in_a_class(z, y)],
            )
            if found is not None:
                return found
        return None

    candidates = [
        y for y in cocircuits
        if not y & twice and y not in chosen
        and all(meets_in_a_class(y, star) for star in chosen)
    ]
    return extend(chosen, span, once, twice, candidates)


def _realize_component(
    cycles: list[int], comp: int
) -> tuple[int, list[tuple[int, int, int]]] | None:
    """Graph of the connected M|comp: vertex count, (position, u, v) edges.

    ``cycles`` is a basis of the cycle space of M|comp.  Elements with equal
    columns over it are in series.  All of such a class but its first
    element are contracted by clearing their bits, which keeps the basis
    independent; the cosimple rest is realized, and the first element's
    edge is then subdivided into the class's path, in host order.  A loop
    is a one-vertex loop, a polygon is one class around such a loop, and a
    rank-1 rest is a bundle of parallel edges (a coloop is a bundle of one).
    """
    series = _equal_columns(cycles, comp)
    contracted = 0
    for cls in series:
        for p in cls[1:]:
            contracted |= 1 << p
    ground = comp & ~contracted
    cycles = [v & ~contracted for v in cycles]
    rank = ground.bit_count() - len(cycles)
    if rank == 0:
        n, ends = 1, {ground.bit_length() - 1: (0, 0)}
    elif rank == 1:
        n, ends = 2, {p: (0, 1) for p in mask_positions(ground)}
    else:
        stars = _stars(cycles, ground, rank)
        if stars is None:
            return None
        stars.sort()
        n, ends = len(stars), {
            p: tuple(i for i, s in enumerate(stars) if s >> p & 1)
            for p in mask_positions(ground)
        }
    edges = []
    for cls in series:
        u, v = ends[cls[0]]
        path = [u, *range(n, n + len(cls) - 1), v]
        n += len(cls) - 1
        edges += [(p, *sorted(path[i:i + 2])) for i, p in enumerate(cls)]
    return n, edges


def realize(m: BinaryMatroid) -> Graph | None:
    """A graph whose cycle matroid is ``m``, or None if ``m`` is not graphic.

    Each connected component gets vertices of its own, so the graph is the
    disjoint union of its components' graphs; edges follow elements().
    """
    cycles = m.fundamental_cycles()
    edges: list[tuple[int, int, int]] = []
    n = 0
    for comp in _components(cycles, (1 << m.size) - 1):
        part = _realize_component([v for v in cycles if v & comp], comp)
        if part is None:
            return None
        n_comp, comp_edges = part
        edges += [(p, u + n, v + n) for p, u, v in comp_edges]
        n += n_comp
    elems = m.elements()
    return Graph(n, tuple((u, v, elems[p]) for p, u, v in sorted(edges)))
