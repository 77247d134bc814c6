"""Labeled binary matroids in standard form [I | A].

A matroid is stored as the compact block ``A`` plus two label lists: one per
row (the basis elements) and one per column (the cobasis elements).  All
element references are by label, never by position, so minors and pivots can
reshuffle the representation without renumbering ambiguity.  Values are
immutable; minor operations return new matroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import CapacityError, InputError
from .gf2 import Gf2Matrix, rank_of_vectors

# Ground sets above this size would make exact circuit enumeration explode;
# the guard raises instead of silently degrading.
CIRCUIT_ENUM_LIMIT = 24

CONTRACT = "contract"
DELETE = "delete"

# Routes an operation can take through apply_ops, recorded in traces.
ROUTE_DELETE_COLUMN = "delete-cobasis-column"
ROUTE_DELETE_COLOOP = "delete-coloop-row"
ROUTE_DELETE_PIVOT = "delete-basis-pivot"
ROUTE_CONTRACT_ROW = "contract-basis-row"
ROUTE_CONTRACT_LOOP = "contract-loop-column"
ROUTE_CONTRACT_PIVOT = "contract-cobasis-pivot"
# Per kind: the element on the side it leaves from, a zero line, a pivot.
_ROUTES = {
    DELETE: (ROUTE_DELETE_COLUMN, ROUTE_DELETE_COLOOP, ROUTE_DELETE_PIVOT),
    CONTRACT: (ROUTE_CONTRACT_ROW, ROUTE_CONTRACT_LOOP, ROUTE_CONTRACT_PIVOT),
}


@dataclass(frozen=True)
class MinorOp:
    """A single deletion or contraction, referencing an element label."""

    kind: str
    element: str

    def __post_init__(self) -> None:
        if self.kind not in (CONTRACT, DELETE):
            raise InputError(f"unknown op kind {self.kind!r}")
        if not self.element:
            raise InputError("op element label must be nonempty")


def contract(element: str) -> MinorOp:
    return MinorOp(CONTRACT, element)


def delete(element: str) -> MinorOp:
    return MinorOp(DELETE, element)


@dataclass(frozen=True)
class OpTrace:
    """Which route one op took (loop/coloop conventions vs pivot vs plain)."""

    op: MinorOp
    route: str


@dataclass(frozen=True)
class Graph:
    """Multigraph with labeled edges; loops and parallel edges allowed."""

    n_vertices: int
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 0:
            raise InputError(f"negative vertex count {self.n_vertices}")
        labels = set()
        for u, v, lab in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise InputError(f"edge {lab!r} endpoint out of range")
            if not lab or lab in labels:
                raise InputError(f"duplicate or empty edge label {lab!r}")
            labels.add(lab)


@dataclass(frozen=True)
class BinaryMatroid:
    """Binary matroid represented by [I | A] with labeled rows and columns."""

    basis_labels: tuple[str, ...]
    cobasis_labels: tuple[str, ...]
    a: Gf2Matrix

    def __post_init__(self) -> None:
        if len(self.basis_labels) != self.a.n_rows:
            raise InputError(
                f"{len(self.basis_labels)} basis labels for {self.a.n_rows} rows"
            )
        if len(self.cobasis_labels) != self.a.n_cols:
            raise InputError(
                f"{len(self.cobasis_labels)} cobasis labels for {self.a.n_cols} columns"
            )
        all_labels = self.basis_labels + self.cobasis_labels
        if any(not lab for lab in all_labels):
            raise InputError("element labels must be nonempty")
        if len(set(all_labels)) != len(all_labels):
            dupes = sorted({l for l in all_labels if all_labels.count(l) > 1})
            raise InputError(f"duplicate element labels: {dupes}")

    # -- basic queries ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self.a.n_rows + self.a.n_cols

    @property
    def full_rank(self) -> int:
        """Rank of the whole matroid (= number of basis rows)."""
        return self.a.n_rows

    @property
    def corank(self) -> int:
        return self.a.n_cols

    def elements(self) -> tuple[str, ...]:
        """Ground set in stored order: basis labels, then cobasis labels."""
        return self.basis_labels + self.cobasis_labels

    @cached_property
    def ground_set(self) -> frozenset[str]:
        return frozenset(self.elements())

    @cached_property
    def _positions(self) -> dict[str, tuple[bool, int]]:
        pos: dict[str, tuple[bool, int]] = {}
        for i, lab in enumerate(self.basis_labels):
            pos[lab] = (True, i)
        for j, lab in enumerate(self.cobasis_labels):
            pos[lab] = (False, j)
        return pos

    def _position(self, label: str) -> tuple[bool, int]:
        try:
            return self._positions[label]
        except KeyError:
            raise InputError(f"unknown element label {label!r}") from None

    def full_column(self, label: str) -> int:
        """Column of [I | A] for this element, packed with bit i = row i."""
        in_basis, idx = self._position(label)
        return 1 << idx if in_basis else self.a.col_bits(idx)

    def rank(self, subset: Iterable[str]) -> int:
        """GF(2) rank of the columns of [I | A] selected by ``subset``."""
        return rank_of_vectors(self.full_column(lab) for lab in set(subset))

    def is_circuit(self, subset: Iterable[str]) -> bool:
        """True iff ``subset`` is a minimal dependent set.

        One elimination over the subset's columns, each tagged with a bit of
        its own: the subset is a circuit exactly when one column reduces to
        zero and its tag, the elements whose columns sum to zero, covers the
        whole subset.  A column that reduces to zero before the last cannot
        cover the rest, so the first one decides.
        """
        columns = [self.full_column(lab) for lab in set(subset)]
        if not columns:
            raise InputError("is_circuit needs a nonempty subset")
        n = len(columns)
        pivots: dict[int, int] = {}
        for k, col in enumerate(columns):
            v = col << n | 1 << k
            while v >> n:
                lead = v.bit_length() - 1
                if lead not in pivots:
                    pivots[lead] = v
                    break
                v ^= pivots[lead]
            else:
                return v == (1 << n) - 1
        return False

    def loops(self) -> frozenset[str]:
        """Elements whose [I | A] column is zero (cobasis columns only)."""
        return frozenset(
            lab for lab, col in zip(self.cobasis_labels, self.a.columns()) if not col
        )

    def coloops(self) -> frozenset[str]:
        """Basis elements whose A-row is zero (they lie in every basis)."""
        return frozenset(
            lab
            for i, lab in enumerate(self.basis_labels)
            if self.a.row_bits(i) == 0
        )

    # -- duality ------------------------------------------------------------------

    def dual(self) -> BinaryMatroid:
        """Dual matroid: compact matrix transposed, label lists swapped."""
        return BinaryMatroid(self.cobasis_labels, self.basis_labels,
                             self.a.transpose())

    # -- minors -------------------------------------------------------------------

    def apply_ops(
        self,
        ops: Iterable[MinorOp],
        trace: list[OpTrace] | None = None,
    ) -> BinaryMatroid:
        """Apply deletions/contractions left to right.

        Contracting e is deleting e from the dual and dualizing back, so one
        rule serves both with rows and columns swapped.  An element on the
        side it leaves from (a cobasis column for a deletion, a basis row
        for a contraction) loses that line.  Otherwise its line is pivoted
        across at its first 1, the lowest stored position, and then dropped;
        a zero line (a coloop's row, a loop's column) is dropped as it is,
        so contracting a loop deletes it and deleting a coloop contracts it.
        The ops are folded onto the label lists and the rows of the matrix,
        as bitmasks, and one matrix and one matroid are built at the end.
        Pass a list as ``trace`` to record which route each op took.
        """
        basis, cobasis = list(self.basis_labels), list(self.cobasis_labels)
        rows = list(self.a.rows)
        for op in ops:
            if not basis and not cobasis:
                raise InputError(f"cannot apply {op.kind} to an empty matroid")
            in_basis = op.element in basis
            if not in_basis and op.element not in cobasis:
                raise InputError(f"unknown element label {op.element!r}")
            idx = (basis if in_basis else cobasis).index(op.element)
            route, zero, pivot = _ROUTES[op.kind]
            if in_basis != (op.kind == CONTRACT):
                line = rows[idx] if in_basis else sum(
                    (r >> idx & 1) << k for k, r in enumerate(rows)
                )
                route = zero
                if line:
                    k = (line & -line).bit_length() - 1
                    i, j = (idx, k) if in_basis else (k, idx)
                    add = rows[i] & ~(1 << j)  # column j stays as it is
                    rows = [r ^ add if h != i and r >> j & 1 else r
                            for h, r in enumerate(rows)]
                    basis[i], cobasis[j] = cobasis[j], basis[i]
                    in_basis, idx, route = not in_basis, k, pivot
            if in_basis:
                del basis[idx]
                del rows[idx]
            else:
                del cobasis[idx]
                low = (1 << idx) - 1
                rows = [(r & low) | ((r >> (idx + 1)) << idx) for r in rows]
            if trace is not None:
                trace.append(OpTrace(op, route))
        return BinaryMatroid(
            tuple(basis), tuple(cobasis), Gf2Matrix(len(basis), len(cobasis), tuple(rows))
        )

    def delete_all(self, labels: Iterable[str]) -> BinaryMatroid:
        return self.apply_ops(delete(lab) for lab in sorted(set(labels)))

    # -- circuits -------------------------------------------------------------------

    def fundamental_cycles(self) -> list[int]:
        """Cycle-space basis: one vector per cobasis element.

        Bit layout follows elements() order (basis rows first).  The vector
        for cobasis column j covers element r+j plus the basis rows where
        column j has a 1; it is the fundamental circuit of that element,
        except that a zero column yields the singleton vector of a loop.
        """
        r = self.a.n_rows
        return [col | 1 << (r + j) for j, col in enumerate(self.a.columns())]

    def circuit_masks(self) -> list[int]:
        """All minimal dependent sets, as bitmasks over elements() positions.

        Enumerates the full cycle space (supports of null-space vectors of
        [I | A]) by Gray-code XOR over the fundamental vectors and keeps the
        inclusion-minimal supports.  Guarded by CIRCUIT_ENUM_LIMIT.
        """
        enumeration_guard(self.size)
        return minimal_supports(self.fundamental_cycles())

    def circuits(self) -> frozenset[frozenset[str]]:
        """All minimal dependent sets, by label; see ``circuit_masks``."""
        elems = self.elements()
        return frozenset(mask_to_labels(m, elems) for m in self.circuit_masks())

    def cocircuits(self) -> frozenset[frozenset[str]]:
        """Circuits of the dual."""
        return self.dual().circuits()

    def __str__(self) -> str:
        head = (
            f"BinaryMatroid(rank {self.full_rank}, {self.size} elements; "
            f"basis {list(self.basis_labels)}, cobasis {list(self.cobasis_labels)})"
        )
        return head + ("\n" + str(self.a) if self.a.n_rows else "")


def enumeration_guard(size: int) -> None:
    """CapacityError past the size up to which (co)circuits are enumerated."""
    if size > CIRCUIT_ENUM_LIMIT:
        raise CapacityError(
            f"circuit enumeration limited to {CIRCUIT_ENUM_LIMIT} elements, got {size}"
        )


def mask_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_labels(mask: int, elems: tuple[str, ...]) -> frozenset[str]:
    return frozenset(elems[i] for i in mask_positions(mask))


def minimal_supports(basis: list[int],
                     histogram: tuple[int, ...] | None = None) -> list[int] | None:
    """Inclusion-minimal supports among all nonzero XOR combinations of basis.

    The basis vectors must be linearly independent (true for fundamental
    cycle vectors, which each own a private bit).  With ``histogram`` the
    answer is None unless it is ``weight_histogram(basis)``; the walk stops
    at the first weight that occurs too often, usually after a few XORs.
    Lightest first: the span sorted by weight, stably, less each vector
    that holds one kept before it.
    """
    vectors = span_vectors(basis, histogram)
    if vectors is None:
        return None
    vectors.sort(key=int.bit_count)
    minimal: list[int] = []
    for s in vectors:
        if not any(m & s == m for m in minimal):
            minimal.append(s)
    return minimal


def span_vectors(basis: list[int],
                 histogram: tuple[int, ...] | None = None) -> list[int] | None:
    """Every nonzero XOR combination of ``basis``, in Gray-code order.

    With ``histogram`` the answer is None unless it counts the combinations
    per weight (see ``minimal_supports``).
    """
    k = len(basis)
    if histogram is not None:
        if support(basis).bit_count() + 1 != len(histogram) or 1 << k != sum(histogram) + 1:
            return None
        left = list(histogram)
    vectors = []
    acc = 0
    for g in range(1, 1 << k):
        acc ^= basis[(g & -g).bit_length() - 1]
        vectors.append(acc)
        if histogram is not None:
            w = acc.bit_count()
            left[w] -= 1
            if left[w] < 0:
                return None
    return vectors


def weight_histogram(basis: list[int]) -> tuple[int, ...]:
    """Number of nonzero XOR combinations of ``basis`` per popcount.

    Entry w counts the cycle vectors of weight w, up to the weight of the
    basis's combined support.  For a basis of a cycle space this is a
    label-free isomorphism invariant: it does not depend on the basis chosen
    or on where the elements sit in the bitmask.
    """
    counts = [0] * (support(basis).bit_count() + 1)
    for v in span_vectors(basis):
        counts[v.bit_count()] += 1
    return tuple(counts)


def support(vectors: Iterable[int]) -> int:
    """The positions that some vector of ``vectors`` has, as a mask."""
    mask = 0
    for v in vectors:
        mask |= v
    return mask


def equal_columns(vectors: list[int], ground: int) -> list[int]:
    """Classes of two or more positions of ``ground`` with equal columns.

    A column is the set of ``vectors`` containing the position: over a cycle
    basis the classes are series classes, over cocycle rows parallel ones.
    ``ground`` is split on each vector, a class of one position is dropped
    at once, and the scan stops when none is left.  Masks, in no order.
    """
    classes = [ground] if ground & (ground - 1) else []
    for v in vectors:
        classes = [p for c in classes for p in (c & v, c & ~v) if p & (p - 1)]
        if not classes:
            break
    return classes


def extend_echelon(basis: list[int], v: int) -> list[int] | None:
    """Reduced echelon ``basis`` extended by v; None if v is in its span.

    Each basis vector owns its lowest set bit, its pivot, which no other
    basis vector has: over a cycle space it is the fundamental circuit of
    its pivot for the non-pivot basis, over a cocycle space the fundamental
    cocircuit.  ``basis`` itself is left as it was.
    """
    for b in basis:
        if v & (b & -b):
            v ^= b
    if not v:
        return None
    low = v & -v
    return [b ^ v if b & low else b for b in basis] + [v]


def eliminate(vectors: list[int], bit: int) -> list[int] | None:
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


def delete_cycles(vectors: list[int], mask: int) -> tuple[list[int], int]:
    """A basis of the cycle space of M \\ mask, and its coloops among mask.

    ``vectors`` span the cycle space of M.  In one pass each vector is
    reduced at its lowest bit of ``mask`` by that bit's pivot until it has
    none left and is kept, or becomes the pivot of a bit that has none yet:
    elimination of ``mask`` lowest bit first, with the same pivots and
    result.  A bit with no pivot is a coloop of what is left and is counted,
    so the count is r(M) - r(M \\ mask).  Fundamental circuits stay
    fundamental circuits: the pivot's cobasis bit joins the basis, and each
    vector it is added to keeps its own.
    """
    pivots: dict[int, int] = {}
    kept = []
    for v in vectors:
        low = v & mask
        while low:
            low &= -low
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = v
                break
            v ^= pivot
            low = v & mask
        else:
            kept.append(v)
    return kept, mask.bit_count() - len(pivots)


def contract_cycles(vectors: list[int], mask: int) -> list[int]:
    """A basis of the cycle space of M / mask, still fundamental circuits.

    ``vectors`` are fundamental circuits of M; the bits of ``mask`` are
    contracted lowest first.  An element that only one vector has is that
    vector's private bit, a cobasis element: it is pivoted into the basis
    through the lowest other bit of its vector, which is added to every
    other vector with that bit and becomes the vector's private bit.  Then
    the element's bit is cleared everywhere.  A loop's vector is dropped
    (contracting a loop deletes it); a coloop is in no vector.
    """
    for p in mask_positions(mask):
        bit = 1 << p
        holders = [v for v in vectors if v & bit]
        if len(holders) == 1:
            (own,) = holders
            rest = own ^ bit
            if not rest:
                vectors = [v for v in vectors if v != own]
                continue
            low = rest & -rest
            vectors = [v ^ own if v & low and v != own else v for v in vectors]
        vectors = [v & ~bit for v in vectors]
    return vectors


def cycle_matroid(g: Graph) -> BinaryMatroid:
    """Cycle matroid of a graph: independent sets are the acyclic edge sets.

    The vertex stars (a loop's two ends cancel), with edges as bits in list
    order, span the cut space of g, the cocycle space of M(g).  In their
    reduced echelon basis (``extend_echelon``) the pivots are the spanning
    forest found greedily in list order, which becomes the basis, and each
    basis vector is its pivot's fundamental cocircuit: read on the other
    edges, that edge's row of A.  So the result is reproducible for a fixed
    edge list.  Graph loops lie in no star and become matroid loops.
    """
    stars = [0] * g.n_vertices
    for i, (u, v, _) in enumerate(g.edges):
        stars[u] ^= 1 << i
        stars[v] ^= 1 << i
    basis: list[int] = []
    for star in stars:
        basis = extend_echelon(basis, star) or basis
    basis.sort(key=lambda b: b & -b)
    pivots = sum(b & -b for b in basis)
    others = list(mask_positions((1 << len(g.edges)) - 1 & ~pivots))
    labels = [lab for _, _, lab in g.edges]
    return BinaryMatroid(
        tuple(labels[p] for p in mask_positions(pivots)),
        tuple(labels[f] for f in others),
        Gf2Matrix(len(basis), len(others), tuple(
            sum(1 << j for j, f in enumerate(others) if b >> f & 1) for b in basis
        )),
    )


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1, edges in lexicographic order, labels 'e<i><j>'."""
    edges = tuple(
        (u, v, f"e{u + 1}{v + 1}") for u, v in combinations(range(n), 2)
    )
    return Graph(n, edges)


def complete_bipartite_graph(n_left: int, n_right: int) -> Graph:
    """K_{m,n}; left side first, edges in lexicographic order."""
    edges = tuple(
        (u, n_left + v, f"e{u + 1}{n_left + v + 1}")
        for u in range(n_left)
        for v in range(n_right)
    )
    return Graph(n_left + n_right, edges)
