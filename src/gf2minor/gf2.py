"""Bit-packed GF(2) matrix arithmetic: storage, rank, and the representation pivot.

Rows are stored as Python ints (bit ``j`` of ``rows[i]`` is entry ``(i, j)``),
so row operations are single word-parallel XORs.  Rank is computed by
elimination on column vectors packed the same way (bit ``i`` = row ``i``);
``columns`` reads all of them in one pass over the rows.
Matrices are immutable; every operation returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, PivotError


def rank_of_vectors(vectors: Iterable[int]) -> int:
    """GF(2) rank of a collection of bitmask vectors.

    Standard elimination: keep one pivot vector per leading bit and reduce
    each incoming vector against them until it is zero or contributes a new
    leading bit.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                v ^= pivots[lead]
            else:
                pivots[lead] = v
                break
    return len(pivots)


@dataclass(frozen=True)
class Gf2Matrix:
    """An immutable 0/1 matrix over GF(2) with bit-packed rows."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise InputError(f"negative dimension: {self.n_rows}x{self.n_cols}")
        if len(self.rows) != self.n_rows:
            raise InputError(
                f"expected {self.n_rows} packed rows, got {len(self.rows)}"
            )
        limit = 1 << self.n_cols
        for i, r in enumerate(self.rows):
            if not 0 <= r < limit:
                raise InputError(f"row {i} has bits outside {self.n_cols} columns")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], n_cols: int | None = None) -> Gf2Matrix:
        """Build from a list of 0/1 entry lists.

        ``n_cols`` is only needed for matrices with zero rows.
        """
        if n_cols is None:
            n_cols = len(next(iter(entries), ()))  # the first row's, if any
        packed = []
        for i, row in enumerate(entries):
            if len(row) != n_cols:
                raise InputError(f"row {i} has {len(row)} entries, expected {n_cols}")
            bits = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise InputError(f"entry ({i},{j}) is {e!r}, not 0/1")
                bits |= e << j
            packed.append(bits)
        return cls(len(entries), n_cols, tuple(packed))

    # -- access ---------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        self._check_row(i)
        self._check_col(j)
        return (self.rows[i] >> j) & 1

    def row_bits(self, i: int) -> int:
        self._check_row(i)
        return self.rows[i]

    def col_bits(self, j: int) -> int:
        """Column ``j`` packed as an int with bit ``i`` = entry ``(i, j)``."""
        self._check_col(j)
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def columns(self) -> list[int]:
        """Every column, as ``col_bits`` packs it, in one pass over the rows."""
        cols = [0] * self.n_cols
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return cols

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.n_rows:
            raise InputError(f"row index {i} out of range [0,{self.n_rows})")

    def _check_col(self, j: int) -> None:
        if not 0 <= j < self.n_cols:
            raise InputError(f"column index {j} out of range [0,{self.n_cols})")

    # -- operations -----------------------------------------------------------

    def pivot(self, i: int, j: int) -> Gf2Matrix:
        """Basis-exchange pivot at a nonzero entry ``(i, j)``.

        Row ``i`` and column ``j`` stay as they are; every other entry becomes
        ``a[k][l] ^ (a[k][j] & a[i][l])``.  Over GF(2) this is an involution.
        Label bookkeeping (swapping the row-i/column-j names) is the caller's
        job.
        """
        self._check_row(i)
        self._check_col(j)
        if not (self.rows[i] >> j) & 1:
            raise PivotError(f"pivot entry ({i},{j}) is zero")
        add = self.rows[i] & ~(1 << j)  # keep column j fixed
        new_rows = tuple(
            r ^ add if k != i and (r >> j) & 1 else r
            for k, r in enumerate(self.rows)
        )
        return Gf2Matrix(self.n_rows, self.n_cols, new_rows)

    def transpose(self) -> Gf2Matrix:
        return Gf2Matrix(self.n_cols, self.n_rows, tuple(self.columns()))

    def __str__(self) -> str:
        if self.n_rows == 0 or self.n_cols == 0:
            return f"<empty {self.n_rows}x{self.n_cols}>"
        return "\n".join(
            " ".join(str((r >> j) & 1) for j in range(self.n_cols))
            for r in self.rows
        )
