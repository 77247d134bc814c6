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
        """True iff ``subset`` is a minimal dependent set."""
        subset = set(subset)
        if not subset:
            raise InputError("is_circuit needs a nonempty subset")
        for lab in subset:
            self._position(lab)
        if self.rank(subset) != len(subset) - 1:
            return False
        return all(
            self.rank(subset - {lab}) == len(subset) - 1 for lab in subset
        )

    def loops(self) -> frozenset[str]:
        """Elements whose [I | A] column is zero (cobasis columns only)."""
        return frozenset(
            lab
            for j, lab in enumerate(self.cobasis_labels)
            if self.a.col_bits(j) == 0
        )

    def coloops(self) -> frozenset[str]:
        """Basis elements whose A-row is zero (they lie in every basis)."""
        return frozenset(
            lab
            for i, lab in enumerate(self.basis_labels)
            if self.a.row_bits(i) == 0
        )

    # -- duality and representation changes ---------------------------------------

    def dual(self) -> BinaryMatroid:
        """Dual matroid: compact matrix transposed, label lists swapped."""
        return BinaryMatroid(self.cobasis_labels, self.basis_labels,
                             self.a.transpose())

    def exchange(self, basis_label: str, cobasis_label: str) -> BinaryMatroid:
        """Re-pivot the representation, swapping one basis/cobasis pair.

        The result represents the same matroid (every subset keeps its rank);
        only the standard form changes.
        """
        in_basis, i = self._position(basis_label)
        if not in_basis:
            raise InputError(f"{basis_label!r} is not a basis element")
        in_basis2, j = self._position(cobasis_label)
        if in_basis2:
            raise InputError(f"{cobasis_label!r} is not a cobasis element")
        new_a = self.a.pivot(i, j)
        new_basis = list(self.basis_labels)
        new_cobasis = list(self.cobasis_labels)
        new_basis[i], new_cobasis[j] = new_cobasis[j], new_basis[i]
        return BinaryMatroid(tuple(new_basis), tuple(new_cobasis), new_a)

    # -- minors -------------------------------------------------------------------

    def _delete_one(self, label: str) -> tuple[BinaryMatroid, str]:
        in_basis, idx = self._position(label)
        if not in_basis:
            m = BinaryMatroid(
                self.basis_labels,
                self.cobasis_labels[:idx] + self.cobasis_labels[idx + 1:],
                self.a.drop_col(idx),
            )
            return m, ROUTE_DELETE_COLUMN
        if self.a.row_bits(idx) == 0:
            # Coloop: deleting equals contracting; just drop the row.
            m = BinaryMatroid(
                self.basis_labels[:idx] + self.basis_labels[idx + 1:],
                self.cobasis_labels,
                self.a.drop_row(idx),
            )
            return m, ROUTE_DELETE_COLOOP
        # Swap the element into the cobasis at the first 1 of its row, then
        # drop its column.  First = lowest stored cobasis position.
        row = self.a.row_bits(idx)
        j = (row & -row).bit_length() - 1
        piv = self.exchange(label, self.cobasis_labels[j])
        m = BinaryMatroid(
            piv.basis_labels,
            piv.cobasis_labels[:j] + piv.cobasis_labels[j + 1:],
            piv.a.drop_col(j),
        )
        return m, ROUTE_DELETE_PIVOT

    def _contract_one(self, label: str) -> tuple[BinaryMatroid, str]:
        in_basis, idx = self._position(label)
        if in_basis:
            m = BinaryMatroid(
                self.basis_labels[:idx] + self.basis_labels[idx + 1:],
                self.cobasis_labels,
                self.a.drop_row(idx),
            )
            return m, ROUTE_CONTRACT_ROW
        col = self.a.col_bits(idx)
        if col == 0:
            # Loop: contracting equals deleting; just drop the column.
            m = BinaryMatroid(
                self.basis_labels,
                self.cobasis_labels[:idx] + self.cobasis_labels[idx + 1:],
                self.a.drop_col(idx),
            )
            return m, ROUTE_CONTRACT_LOOP
        # Swap the element into the basis at the first 1 of its column, then
        # drop its row.  First = lowest stored basis position.
        i = (col & -col).bit_length() - 1
        piv = self.exchange(self.basis_labels[i], label)
        m = BinaryMatroid(
            piv.basis_labels[:i] + piv.basis_labels[i + 1:],
            piv.cobasis_labels,
            piv.a.drop_row(i),
        )
        return m, ROUTE_CONTRACT_PIVOT

    def apply_ops(
        self,
        ops: Iterable[MinorOp],
        trace: list[OpTrace] | None = None,
    ) -> BinaryMatroid:
        """Apply deletions/contractions left to right.

        Loop contraction and coloop deletion follow the standard conventions
        (contract a loop = delete it, delete a coloop = contract it).  Pass a
        list as ``trace`` to record which route each op took.
        """
        m = self
        for op in ops:
            if m.size == 0:
                raise InputError(f"cannot apply {op.kind} to an empty matroid")
            if op.kind == DELETE:
                m, route = m._delete_one(op.element)
            else:
                m, route = m._contract_one(op.element)
            if trace is not None:
                trace.append(OpTrace(op, route))
        return m

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
        return [
            self.a.col_bits(j) | (1 << (r + j)) for j in range(self.a.n_cols)
        ]

    def circuit_masks(self) -> list[int]:
        """All minimal dependent sets, as bitmasks over elements() positions.

        Enumerates the full cycle space (supports of null-space vectors of
        [I | A]) by Gray-code XOR over the fundamental vectors and keeps the
        inclusion-minimal supports.  Guarded by CIRCUIT_ENUM_LIMIT.
        """
        if self.size > CIRCUIT_ENUM_LIMIT:
            raise CapacityError(
                f"circuit enumeration limited to {CIRCUIT_ENUM_LIMIT} elements, "
                f"got {self.size}"
            )
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


def mask_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_labels(mask: int, elems: tuple[str, ...]) -> frozenset[str]:
    return frozenset(elems[i] for i in mask_positions(mask))


def minimal_supports(basis: list[int]) -> list[int]:
    """Inclusion-minimal supports among all nonzero XOR combinations of basis.

    The basis vectors must be linearly independent (true for fundamental
    cycle vectors, which each own a private bit).
    """
    k = len(basis)
    supports = []
    acc = 0
    for g in range(1, 1 << k):
        acc ^= basis[(g & -g).bit_length() - 1]
        supports.append(acc)
    supports.sort(key=lambda s: s.bit_count())
    minimal: list[int] = []
    for s in supports:
        if not any(m & s == m for m in minimal):
            minimal.append(s)
    return minimal


def weight_histogram(basis: list[int]) -> tuple[int, ...]:
    """Number of nonzero XOR combinations of ``basis`` per popcount.

    Entry w counts the cycle vectors of weight w, up to the weight of the
    basis's combined support.  For a basis of a cycle space this is a
    label-free isomorphism invariant: it does not depend on the basis chosen
    or on where the elements sit in the bitmask.
    """
    support = 0
    for v in basis:
        support |= v
    counts = [0] * (support.bit_count() + 1)
    acc = 0
    for g in range(1, 1 << len(basis)):
        acc ^= basis[(g & -g).bit_length() - 1]
        counts[acc.bit_count()] += 1
    return tuple(counts)


def has_weight_histogram(basis: list[int], histogram: tuple[int, ...]) -> bool:
    """``weight_histogram(basis) == histogram``, stopping at the first excess.

    The span is walked in the same Gray-code order, and the walk stops as
    soon as some weight occurs more often than ``histogram`` allows; a basis
    whose histogram differs is usually rejected after a few XORs.
    """
    support = 0
    for v in basis:
        support |= v
    if support.bit_count() + 1 != len(histogram):
        return False
    if 1 << len(basis) != sum(histogram) + 1:
        return False
    counts = [0] * len(histogram)
    acc = 0
    for g in range(1, 1 << len(basis)):
        acc ^= basis[(g & -g).bit_length() - 1]
        w = acc.bit_count()
        counts[w] += 1
        if counts[w] > histogram[w]:
            return False
    return True


def cycle_matroid(g: Graph) -> BinaryMatroid:
    """Cycle matroid of a graph: independent sets are the acyclic edge sets.

    The standard form is built from the spanning forest found by scanning
    edges in list order (forest edges become the basis), so the result is
    reproducible for a fixed edge list.  Graph loops become matroid loops.
    """
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: list[tuple[int, int, str]] = []
    nontree: list[tuple[int, int, str]] = []
    for u, v, lab in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v, lab))
        else:
            nontree.append((u, v, lab))

    # Path-to-root edge masks per vertex, one BFS per forest component.
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n_vertices)}
    for idx, (u, v, _) in enumerate(tree):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    path_mask = [0] * g.n_vertices
    seen = [False] * g.n_vertices
    for root in range(g.n_vertices):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y, idx in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    path_mask[y] = path_mask[x] ^ (1 << idx)
                    stack.append(y)

    # Column of a non-tree edge = its fundamental cycle within the forest.
    cols = tuple(path_mask[u] ^ path_mask[v] for u, v, _ in nontree)
    a = Gf2Matrix(len(nontree), len(tree), cols).transpose()
    return BinaryMatroid(
        tuple(lab for _, _, lab in tree),
        tuple(lab for _, _, lab in nontree),
        a,
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
