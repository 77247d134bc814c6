"""Independent brute-force oracles used to check the library.

Everything here is deliberately naive: dense list-of-lists elimination, full
subset enumeration, all-bijections isomorphism, and a minor oracle that tries
every (contract, delete) partition.  None of it shares code with the package
paths it audits; matroids are read back only through public entry accessors
and built only through the value constructors.
"""

from __future__ import annotations

from itertools import combinations, permutations

from gf2minor.errors import InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    CONTRACT,
    DELETE,
    ROUTE_CONTRACT_LOOP,
    ROUTE_CONTRACT_PIVOT,
    ROUTE_CONTRACT_ROW,
    ROUTE_DELETE_COLOOP,
    ROUTE_DELETE_COLUMN,
    ROUTE_DELETE_PIVOT,
    BinaryMatroid,
    OpTrace,
    contract_cycles,
    delete_cycles,
    equal_columns,
    support,
)

from gen import exchanged


def dense_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination over GF(2) on dense 0/1 rows."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    n = len(work[0])
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                work[r] = [(x + y) % 2 for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def dense_columns(m) -> dict[str, list[int]]:
    """Full [I | A] columns of a BinaryMatroid as dense vectors, by label."""
    k = m.a.n_rows
    cols = {}
    for i, lab in enumerate(m.basis_labels):
        cols[lab] = [1 if t == i else 0 for t in range(k)]
    for j, lab in enumerate(m.cobasis_labels):
        cols[lab] = [m.a.entry(i, j) for i in range(k)]
    return cols


def subset_rank(cols: dict[str, list[int]], subset) -> int:
    return dense_rank([cols[lab] for lab in subset])


def circuits_by_enumeration(m) -> set[frozenset]:
    """All minimal dependent sets, by checking every subset with dense rank."""
    cols = dense_columns(m)
    return circuits_from_rank(sorted(cols), lambda s: subset_rank(cols, s))


def is_circuit_reference(m, subset) -> bool:
    """A circuit by its rank definition: rank |S| - 1, and so is every S - e.

    Ranks are dense; unknown labels and the empty set raise the
    ``InputError`` that ``BinaryMatroid.is_circuit`` raises.
    """
    subset = set(subset)
    if not subset:
        raise InputError("is_circuit needs a nonempty subset")
    cols = dense_columns(m)
    for lab in subset:
        if lab not in cols:
            raise InputError(f"unknown element label {lab!r}")
    if subset_rank(cols, subset) != len(subset) - 1:
        return False
    return all(
        subset_rank(cols, subset - {lab}) == len(subset) - 1 for lab in subset
    )


_ROUTES_REFERENCE = {
    DELETE: (ROUTE_DELETE_COLUMN, ROUTE_DELETE_COLOOP, ROUTE_DELETE_PIVOT),
    CONTRACT: (ROUTE_CONTRACT_ROW, ROUTE_CONTRACT_LOOP, ROUTE_CONTRACT_PIVOT),
}


def drop_row(a: Gf2Matrix, i: int) -> Gf2Matrix:
    """``a`` without row ``i``; InputError if there is no such row."""
    a.row_bits(i)
    return Gf2Matrix(a.n_rows - 1, a.n_cols, a.rows[:i] + a.rows[i + 1:])


def drop_col(a: Gf2Matrix, j: int) -> Gf2Matrix:
    """``a`` without column ``j``; InputError if there is no such column."""
    a.col_bits(j)
    low = (1 << j) - 1
    rows = tuple((r & low) | ((r >> (j + 1)) << j) for r in a.rows)
    return Gf2Matrix(a.n_rows, a.n_cols - 1, rows)


def apply_ops_reference(m, ops, trace=None) -> BinaryMatroid:
    """``BinaryMatroid.apply_ops`` as a chain of one-op minors.

    Each op builds its own matroid: an element off the side it leaves from
    is moved across by ``gen.exchanged`` at the lowest 1 of its line, then its
    line is dropped.  ``apply_ops`` must give the same labels, matrix,
    routes and ``InputError`` texts.
    """
    for op in ops:
        if m.size == 0:
            raise InputError(f"cannot apply {op.kind} to an empty matroid")
        m, route = _remove_reference(m, op)
        if trace is not None:
            trace.append(OpTrace(op, route))
    return m


def _remove_reference(m, op):
    plain, zero, pivot = _ROUTES_REFERENCE[op.kind]
    if op.element in m.basis_labels:
        in_basis, idx = True, m.basis_labels.index(op.element)
    elif op.element in m.cobasis_labels:
        in_basis, idx = False, m.cobasis_labels.index(op.element)
    else:
        raise InputError(f"unknown element label {op.element!r}")
    route = plain
    if in_basis != (op.kind == CONTRACT):
        line = m.a.row_bits(idx) if in_basis else m.a.col_bits(idx)
        route = zero
        if line:
            k = (line & -line).bit_length() - 1
            if in_basis:
                m = exchanged(m, op.element, m.cobasis_labels[k])
            else:
                m = exchanged(m, m.basis_labels[k], op.element)
            in_basis, idx, route = not in_basis, k, pivot
    basis, cobasis = m.basis_labels, m.cobasis_labels
    if in_basis:
        return BinaryMatroid(basis[:idx] + basis[idx + 1:], cobasis,
                             drop_row(m.a, idx)), route
    return BinaryMatroid(basis, cobasis[:idx] + cobasis[idx + 1:],
                         drop_col(m.a, idx)), route


def cycle_matroid_reference(g) -> BinaryMatroid:
    """The cycle matroid of a ``Graph``, built from a spanning forest.

    Edges are scanned in list order and union-find keeps those that join two
    trees: the forest, which is the basis.  A search from each vertex gives
    the forest edges on its path to the root of its tree, and a non-forest
    edge's fundamental cycle is the sum of its two ends' paths: its column
    of A.  ``matroid.cycle_matroid`` must return exactly this value.
    """
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tree, nontree = [], []
    for u, v, lab in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v, lab))
        else:
            nontree.append((u, v, lab))
    adj = {x: [] for x in range(g.n_vertices)}
    for i, (u, v, _) in enumerate(tree):
        adj[u].append((v, i))
        adj[v].append((u, i))
    path = [None] * g.n_vertices
    for root in range(g.n_vertices):
        if path[root] is None:
            path[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                for y, i in adj[x]:
                    if path[y] is None:
                        path[y] = path[x] ^ (1 << i)
                        stack.append(y)
    cols = [path[u] ^ path[v] for u, v, _ in nontree]
    rows = tuple(
        sum(1 << j for j, col in enumerate(cols) if col >> i & 1)
        for i in range(len(tree))
    )
    return BinaryMatroid(
        tuple(lab for _, _, lab in tree), tuple(lab for _, _, lab in nontree),
        Gf2Matrix(len(tree), len(nontree), rows),
    )


def verify_witness_reference(host, target, w) -> bool:
    """The basis-exchange rule for a well-formed ``MinorWitness``.

    A binary matroid is fixed by a basis B and its fundamental circuits.
    With C contracted, S the survivors, r'(X) = r(X u C) - r(C) and primes
    for images under the mapping, the minor is the target exactly when
    r'(B') = r'(S) = r(target) and, for all b in B and s outside it,
    B' - b' + s' is a basis of the minor exactly when the target's block
    has a 1 at (b, s).  Ranks are dense; ``audit.verify_witness`` must give
    the same verdict.
    """
    cols = dense_columns(host)
    contract = sorted(w.contract_set)
    base = subset_rank(cols, contract)
    r = target.a.n_rows
    mapping = dict(w.mapping)

    def spans(labels):
        return subset_rank(cols, list(labels) + contract) - base == r

    basis = [mapping[b] for b in target.basis_labels]
    return spans(basis) and spans(w.survivors()) and all(
        spans(basis[:i] + basis[i + 1:] + [mapping[s]]) == bool(target.a.entry(i, j))
        for j, s in enumerate(target.cobasis_labels)
        for i in range(r)
    )


def circuits_from_rank(elements, rank_fn) -> set[frozenset]:
    """Minimal dependent sets of an arbitrary rank function on ``elements``."""
    circuits: set[frozenset] = set()
    for size in range(1, len(elements) + 1):
        for combo in combinations(elements, size):
            s = frozenset(combo)
            if any(c <= s for c in circuits):
                continue
            if rank_fn(combo) < size:
                circuits.add(s)
    return circuits


def minor_circuits(m, contract_set, survivors) -> set[frozenset]:
    """Circuits of (m / contract_set) restricted to ``survivors``.

    Uses the definitional contraction rank formula r'(X) = r(X u C) - r(C)
    with dense elimination.
    """
    cols = dense_columns(m)
    contract = sorted(contract_set)
    base = subset_rank(cols, contract)

    def rank_fn(subset):
        return subset_rank(cols, list(subset) + contract) - base

    return circuits_from_rank(sorted(survivors), rank_fn)


def graph_circuits(n_vertices: int, edges) -> set[frozenset]:
    """Edge sets of simple cycles (incl. single loops, parallel pairs).

    A subset is a cycle iff every touched vertex has degree exactly 2
    (loops count twice) and the subset is connected.
    """
    cycles: set[frozenset] = set()
    idx = list(edges)
    for size in range(1, len(idx) + 1):
        for combo in combinations(idx, size):
            deg: dict[int, int] = {}
            for u, v, _ in combo:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            verts = set(deg)
            reach = {next(iter(verts))}
            frontier = list(reach)
            while frontier:
                x = frontier.pop()
                for u, v, _ in combo:
                    for a, b in ((u, v), (v, u)):
                        if a == x and b not in reach:
                            reach.add(b)
                            frontier.append(b)
            if reach == verts:
                cycles.add(frozenset(lab for _, _, lab in combo))
    return cycles


def bijection_maps_circuits(mapping: dict, circuits1, circuits2) -> bool:
    imaged = {frozenset(mapping[e] for e in c) for c in circuits1}
    return imaged == set(circuits2)


def isomorphic_all_bijections(elems1, circuits1, elems2, circuits2) -> bool:
    """Try every bijection; true iff some one maps circuits onto circuits."""
    elems1, elems2 = sorted(elems1), sorted(elems2)
    if len(elems1) != len(elems2):
        return False
    c2 = set(circuits2)
    if len(circuits1) != len(c2):
        return False
    for perm in permutations(elems2):
        mapping = dict(zip(elems1, perm))
        if bijection_maps_circuits(mapping, circuits1, c2):
            return True
    return False


def has_minor_brute_force(host, target) -> bool:
    """Unpruned minor test: every survivor set and every (C, D) split.

    Contract sets are *not* restricted to independent sets; the minor's
    circuits come from the definitional rank formula and isomorphism is
    decided by trying all bijections.
    """
    host_elems = sorted(host.ground_set)
    t_elems = sorted(target.ground_set)
    t_circuits = circuits_by_enumeration(target)
    if len(t_elems) > len(host_elems):
        return False
    for survivors in combinations(host_elems, len(t_elems)):
        rest = [e for e in host_elems if e not in survivors]
        for bits in range(1 << len(rest)):
            contract = {e for i, e in enumerate(rest) if (bits >> i) & 1}
            m_circuits = minor_circuits(host, contract, survivors)
            if isomorphic_all_bijections(survivors, m_circuits,
                                         t_elems, t_circuits):
                return True
    return False


def match_circuits_reference(positions1, circuits1, positions2, circuits2):
    """The circuit-bijection search without pair-key pruning.

    Circuits are bitmasks over the positions, and repeated circuits count
    once on either side.  Side-1 positions are assigned rarest
    (circuit size, count) profile class first, ties in the order given;
    each is tried against the side-2 positions with its profile, in the
    order given, and a circuit is checked once all its positions are placed.
    Returns the first bijection in that order, or None; ``iso.match_circuits``
    must return exactly this one.  A circuit of ``circuits2`` with a bit
    outside ``positions2`` is the image of no side-1 circuit.
    """

    def members(c):
        return [p for p in range(c.bit_length()) if c >> p & 1]

    def profiles(positions, circuits):
        per = {p: {} for p in positions}
        for c in circuits:
            size = len(members(c))
            for p in members(c):
                if p in per:  # a bit outside the positions has no profile
                    per[p][size] = per[p].get(size, 0) + 1
        return {p: tuple(sorted(cnt.items())) for p, cnt in per.items()}

    pos1, pos2 = list(positions1), list(positions2)
    circ1, circ2 = list(dict.fromkeys(circuits1)), frozenset(circuits2)
    if len(pos1) != len(pos2) or len(circ1) != len(circ2):
        return None
    prof1, prof2 = profiles(pos1, circ1), profiles(pos2, circ2)
    if sorted(prof1.values()) != sorted(prof2.values()):
        return None
    class_size = {}
    for prof in prof1.values():
        class_size[prof] = class_size.get(prof, 0) + 1
    order = sorted(pos1, key=lambda p: (class_size[prof1[p]], prof1[p]))
    step = {p: i for i, p in enumerate(order)}
    candidates = [[q for q in pos2 if prof2[q] == prof1[p]] for p in order]
    check_at = [[] for _ in order]
    for c in circ1:
        check_at[max(step[p] for p in members(c))].append(members(c))
    image = {}

    def dfs(i, used):
        if i == len(order):
            return True
        for q in candidates[i]:
            if q in used:
                continue
            image[order[i]] = q
            if all(
                sum(1 << image[x] for x in c) in circ2 for c in check_at[i]
            ) and dfs(i + 1, used | {q}):
                return True
        return False

    if dfs(0, frozenset()):
        return {p: image[p] for p in order}
    return None


def pair_keys_reference(positions, circuits, width):
    """keys[a][b]: the circuits containing positions[a] and positions[b].

    The circuits are counted per size: the count for size k sits in the
    ``width`` bits from bit width * k.  keys[a][a] is the element profile of
    positions[a] in the same encoding.  One nested loop over each circuit's
    members; ``iso.pair_rows`` must hold keys[a][b] in slot b of row a.
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


def equal_columns_reference(vectors, ground):
    """The positions of ``ground`` grouped by their column over ``vectors``.

    A position's column is the set of vectors that contain it.  Groups come
    in order of their first position, and each lists its positions in order.
    """
    groups = {}
    for p in range(ground.bit_length()):
        if ground >> p & 1:
            col = sum(1 << j for j, v in enumerate(vectors) if v >> p & 1)
            groups.setdefault(col, []).append(p)
    return list(groups.values())


def reduced_echelon_reference(vectors):
    """Reduced echelon basis of span(vectors), built vector by vector.

    Each basis vector owns its lowest set bit, its pivot, which no other
    basis vector contains.  A vector is reduced by the basis so far; if
    anything is left, it clears its pivot from the others and is appended.
    """
    basis = []
    for v in vectors:
        for b in basis:
            if v & (b & -b):
                v ^= b
        if v:
            low = v & -v
            basis = [b ^ v if b & low else b for b in basis]
            basis.append(v)
    return basis


def cocycles_reference(cycles, ground):
    """The cocycle space of M|ground, 0 included, by enumeration: every
    subset of ``ground`` that meets each of ``cycles`` in an even number of
    elements, where ``cycles`` span the cycle space of M|ground."""
    positions = [p for p in range(ground.bit_length()) if ground >> p & 1]
    cocycles = []
    for k in range(1 << len(positions)):
        v = sum(1 << p for i, p in enumerate(positions) if k >> i & 1)
        if all(bin(v & c).count("1") % 2 == 0 for c in cycles):
            cocycles.append(v)
    return cocycles


def components_reference(elements, circuits):
    """Connected components of a matroid, from all its circuits, by union-find.

    Two elements lie in one component when some circuit contains both; an
    element in no circuit is a component of its own.  A set of frozensets.
    """
    parent = {e: e for e in elements}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in circuits:
        first, *rest = c
        for e in rest:
            parent[find(e)] = find(first)
    groups = {}
    for e in elements:
        groups.setdefault(find(e), set()).add(e)
    return {frozenset(g) for g in groups.values()}


def components_by_merging_reference(circuits, ground):
    """Connected components of M|ground as bitmasks, lowest element first,
    by merging: each circuit merges every component it meets.

    ``circuits`` span the cycle space of M|ground and are circuits of it,
    such as fundamental circuits; an element in no circuit is a coloop, a
    component of its own.  This is the merging loop that the package's
    peeling replaced, kept to check it.
    """
    comps = []
    for c in circuits:
        merged, rest = c, []
        for comp in comps:
            if comp & c:
                merged |= comp
            else:
                rest.append(comp)
        comps = rest + [merged]
        ground &= ~merged
    comps += [1 << p for p in range(ground.bit_length()) if ground >> p & 1]
    return sorted(comps, key=lambda comp: comp & -comp)


def delete_cycles_reference(vectors, mask):
    """``matroid.delete_cycles`` one bit at a time: the bits of ``mask`` are
    eliminated lowest first.  The pivot of a bit is the first vector that
    has it; it is dropped and added to every later vector with the bit.  A
    bit that no vector has is counted as a coloop and changes nothing.
    """
    lost = 0
    for p in range(mask.bit_length()):
        if not mask >> p & 1:
            continue
        holders = [i for i, v in enumerate(vectors) if v >> p & 1]
        if not holders:
            lost += 1
            continue
        pivot = vectors[holders[0]]
        vectors = [v ^ pivot if v >> p & 1 else v
                   for i, v in enumerate(vectors) if i != holders[0]]
    return vectors, lost


def echelon_cocycle_rows_reference(cycles, ground):
    """Rows of [I | A] spanning the cocycle space of M|ground, whose cycle
    space ``cycles`` span, by a fold: in their reduced echelon basis the
    pivots are a cobasis, and each other element f of ``ground`` gets f and
    the pivots of the basis vectors holding f.  Any spanning set will do.
    """
    basis = reduced_echelon_reference(cycles)
    pivots = [b & -b for b in basis]
    return [
        1 << f | sum(pivot for b, pivot in zip(basis, pivots) if b >> f & 1)
        for f in range(ground.bit_length())
        if ground >> f & 1 and 1 << f not in pivots
    ]


def tidy_reference(cycles, alive):
    """``minors._tidy`` with its parallel classes read as equal columns over
    the cocycle rows of a reduced echelon fold
    (``echelon_cocycle_rows_reference``), one per call.  This is the loop
    that the direct read off the fundamental circuits replaced, kept to
    check it; same arguments and result.  Its other steps call the same
    kernels as ``_tidy``, which their own references check.
    """
    contracted = 0
    while True:
        once = support(cycles)
        coloops = alive & ~once
        loops = sum(v for v in cycles if not v & (v - 1))
        series = sum(c & (c - 1) for c in equal_columns(cycles, alive & once))
        if coloops or loops or series:
            contracted |= coloops | series
            alive &= ~(coloops | loops | series)
            cycles = contract_cycles(cycles, loops | series)
            continue
        rows = echelon_cocycle_rows_reference(cycles, alive)
        parallel = sum(c & (c - 1) for c in equal_columns(rows, alive))
        if not parallel:
            return cycles, alive, contracted
        alive &= ~parallel
        cycles, _ = delete_cycles(cycles, parallel)


def cocircuits_reference(cycles, ground):
    """The cocircuits of M|ground, lightest first, from fundamental circuits.

    ``cycles`` are fundamental circuits of M|ground: each has a position
    that no other has, and its highest such position is its cobasis
    element.  Every other position f of ``ground`` gets a row of [I | A],
    f and the cobasis elements of the circuits that hold f; together the
    rows span the cocycles.  The g-th nonzero combination of the rows,
    g = 1, 2, ..., takes the rows set in the Gray code g ^ (g >> 1).  The
    combinations are sorted by weight, ties kept in that order, and the
    inclusion-minimal ones are kept.
    """
    holders = {p: [c for c in cycles if c >> p & 1] for p in range(ground.bit_length())}
    own = [max(p for p in range(c.bit_length()) if holders[p] == [c]) for c in cycles]
    rows = [
        1 << f | sum(1 << p for c, p in zip(cycles, own) if c >> f & 1)
        for f in range(ground.bit_length())
        if ground >> f & 1 and f not in own
    ]
    combos = []
    for g in range(1, 1 << len(rows)):
        gray = g ^ (g >> 1)
        v = 0
        for i, row in enumerate(rows):
            if gray >> i & 1:
                v ^= row
        combos.append(v)
    combos.sort(key=lambda v: bin(v).count("1"))
    minimal = []
    for v in combos:
        if not any(m & v == m for m in minimal):
            minimal.append(v)
    return rows, minimal


def span_circuits_reference(cycles):
    """The circuits of the matroid whose cycle space ``cycles`` span: the
    inclusion-minimal nonzero combinations, from every subset of them."""
    cycle_space = {0}
    for c in cycles:
        cycle_space |= {v ^ c for v in cycle_space}
    circuits = []
    for v in sorted(cycle_space, key=lambda v: bin(v).count("1")):
        if v and not any(c & v == c for c in circuits):
            circuits.append(v)
    return circuits


def connected_after_deleting_reference(cycles, ground, y):
    """Whether M|ground \\ y is connected, from its circuits.

    The circuits of M \\ y are the inclusion-minimal nonzero cycles of M
    that avoid y; the cycles are all combinations of ``cycles``.
    """
    cycle_space = {0}
    for c in cycles:
        cycle_space |= {v ^ c for v in cycle_space}
    avoiding = sorted((v for v in cycle_space if v and not v & y),
                      key=lambda v: bin(v).count("1"))
    circuits = []
    for v in avoiding:
        if not any(c & v == c for c in circuits):
            circuits.append(v)
    rest = ground & ~y
    elements = [p for p in range(rest.bit_length()) if rest >> p & 1]
    members = [[p for p in elements if c >> p & 1] for c in circuits]
    return len(components_reference(elements, members)) == 1


def stars_reference(cycles, ground, rank):
    """The vertex-star search of ``realize._stars``, with no early stop.

    Same inputs and answer: the stars of a graph realizing the connected,
    cosimple M|ground of rank ``rank`` >= 2, or None.  Every cocircuit is
    listed (``cocircuits_reference``), every one is tested for being
    forced, a star of every realization because deleting it leaves M
    connected, and the forced ones are taken in order: a second family
    member, an element covered three times or a dependent star among the
    first ``rank`` answers None.  An exact depth-first search then adds the
    rest.  It branches on the open element with the fewest candidates, in
    the order of the list; a candidate avoids the elements covered twice,
    meets each chosen star in nothing or in one whole parallel class, is
    independent of the chosen stars unless it is the last, and is not a
    candidate tried before it at an earlier branch.
    """
    if 2 * bin(ground).count("1") < 3 * (rank + 1):
        return None
    rows, cocircuits = cocircuits_reference(cycles, ground)
    classes = [sum(1 << p for p in group)
               for group in equal_columns_reference(rows, ground)]
    need = rank + 1

    def meets_in_a_class(y, star):
        return not y & star or (y & star) in classes

    def independent(stars):
        return len(reduced_echelon_reference(stars)) == len(stars)

    chosen = []
    once = twice = 0
    for y in cocircuits:
        if not connected_after_deleting_reference(cycles, ground, y):
            continue
        if len(chosen) == need or y & twice:
            return None
        if len(chosen) < rank and not independent(chosen + [y]):
            return None
        chosen.append(y)
        twice |= once & y
        once |= y

    def extend(chosen, once, twice, candidates):
        if len(chosen) == need:
            return chosen if twice == ground else None
        best = None
        for p in range(ground.bit_length()):
            if not ground >> p & 1 or twice >> p & 1:
                continue
            hits = [y for y in candidates if y >> p & 1]
            if not hits:
                return None
            if best is None or len(hits) < len(best):
                best = hits
        for i, y in enumerate(best):
            if len(chosen) < rank and not independent(chosen + [y]):
                continue
            covered = twice | once & y
            found = extend(
                chosen + [y], once | y, covered,
                [z for z in candidates if not z & covered
                 and z not in best[:i + 1] and meets_in_a_class(z, y)],
            )
            if found is not None:
                return found
        return None

    candidates = [
        y for y in cocircuits
        if not y & twice and y not in chosen
        and all(meets_in_a_class(y, star) for star in chosen)
    ]
    return extend(chosen, once, twice, candidates)


def covering_cocircuit_reference(m, minor_ops, c_n, has_minor):
    """The first cocircuit Y of m, by size and then labels, that contains
    c_n, meets E(N) in exactly c_n and has N \\ c_n as a minor of m \\ Y,
    where N is m after ``minor_ops``; None if there is none.

    Every cocircuit is tried by ``has_minor(host, target)``, a full minor
    test, so this is the search that elimination replaces, kept to check it.
    """
    n = m.apply_ops(minor_ops)
    reduced = n.delete_all(c_n)
    cocircuits = circuits_by_enumeration(m.dual())
    for y in sorted(cocircuits, key=lambda s: (len(s), sorted(s))):
        if c_n <= y and y & n.ground_set == c_n and has_minor(m.delete_all(y), reduced):
            return y
    return None
