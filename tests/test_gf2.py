"""Bit-packed GF(2) matrix core, checked against dense elimination."""

from __future__ import annotations

from itertools import combinations
from random import Random

import pytest

from gf2minor.catalog import get_named
from gf2minor.errors import InputError, PivotError
from gf2minor.gf2 import Gf2Matrix, rank_of_vectors

from oracles import dense_rank


def test_from_rows_and_entry_access():
    m = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert (m.n_rows, m.n_cols) == (2, 3)
    assert [[m.entry(i, j) for j in range(3)] for i in range(2)] == [[1, 0, 1], [0, 1, 1]]
    assert m.rows == (0b101, 0b110)  # bit j of rows[i] is entry (i, j)


def test_from_rows_rejects_non_binary_entries():
    with pytest.raises(InputError):
        Gf2Matrix.from_rows([[0, 2]])


def test_entry_bounds_checked():
    m = Gf2Matrix(2, 2, (0b01, 0b10))
    with pytest.raises(InputError):
        m.entry(2, 0)
    with pytest.raises(InputError):
        m.entry(0, -1)


IDENTITY3 = Gf2Matrix(3, 3, tuple(1 << i for i in range(3)))


def column_rank(m: Gf2Matrix, cols) -> int:
    return rank_of_vectors(m.col_bits(j) for j in cols)


def test_rank_of_columns_empty_set_is_zero():
    m = get_named("g1").a
    assert column_rank(m, []) == 0


def test_rank_of_columns_identity():
    assert column_rank(IDENTITY3, [0, 1, 2]) == 3


def test_rank_of_columns_g1_triple():
    # Columns s1, s2, s3 of the g1 block: (1111111), (1100000), (1111110).
    # Frozen value 3 confirmed by the dense elimination oracle below.
    a = get_named("g1").a
    cols = [[a.entry(i, j) for i in range(7)] for j in (0, 1, 2)]
    assert dense_rank(cols) == 3
    assert column_rank(a, [0, 1, 2]) == 3


def test_rank_of_columns_rejects_bad_index():
    with pytest.raises(InputError):
        column_rank(IDENTITY3, [0, 3])
    with pytest.raises(InputError):
        IDENTITY3.col_bits(-1)


def test_rank_agrees_with_dense_oracle_on_random_matrices():
    rng = Random(0xD1CE)
    for _ in range(200):
        k = rng.randint(0, 8)
        n = rng.randint(0, 12)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(k)]
        m = Gf2Matrix.from_rows(rows, n_cols=n)
        assert rank_of_vectors(m.rows) == dense_rank(rows)
        cols = rng.sample(range(n), rng.randint(0, n)) if n else []
        expected = dense_rank([[r[j] for j in cols] for r in rows])
        assert column_rank(m, cols) == expected


def test_rank_monotone_and_submodular_small():
    rng = Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        k = rng.randint(1, 5)
        m = Gf2Matrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        cols = list(range(n))
        subsets = [
            set(c) for size in range(n + 1) for c in combinations(cols, size)
        ]
        r = {frozenset(s): column_rank(m, s) for s in subsets}
        for s1 in subsets:
            for s2 in subsets:
                a, b = frozenset(s1), frozenset(s2)
                if a <= b:
                    assert r[a] <= r[b]
                assert r[a | b] + r[a & b] <= r[a] + r[b]


def test_columns_reads_every_column():
    rng = Random(2603)
    shapes = [(0, 0), (0, 5), (5, 0)]
    shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(100)]
    for k, n in shapes:
        m = Gf2Matrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        assert m.columns() == [m.col_bits(j) for j in range(n)]


def test_pivot_formula_example():
    m = Gf2Matrix.from_rows([[1, 1], [1, 0]])
    assert m.pivot(0, 0) == Gf2Matrix.from_rows([[1, 1], [1, 1]])


def test_pivot_single_entry():
    m = Gf2Matrix.from_rows([[1]])
    assert m.pivot(0, 0) == m


def test_pivot_requires_nonzero_entry():
    m = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(PivotError):
        m.pivot(0, 0)
    with pytest.raises(InputError):
        m.pivot(9, 0)


def test_pivot_is_an_involution():
    rng = Random(99)
    for _ in range(100):
        k = rng.randint(1, 7)
        n = rng.randint(1, 7)
        m = Gf2Matrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        ones = [(i, j) for i in range(k) for j in range(n) if m.entry(i, j)]
        if not ones:
            continue
        i, j = rng.choice(ones)
        assert m.pivot(i, j).pivot(i, j) == m


def test_transpose_round_trip():
    rng = Random(3)
    for _ in range(50):
        k, n = rng.randint(0, 6), rng.randint(0, 6)
        m = Gf2Matrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        t = m.transpose()
        assert (t.n_rows, t.n_cols) == (n, k)
        assert t.transpose() == m


def test_drop_row_and_col():
    m = Gf2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.drop_row(0) == Gf2Matrix.from_rows([[0, 1, 1]])
    assert m.drop_col(1) == Gf2Matrix.from_rows([[1, 1], [0, 1]])


def test_rank_of_vectors_basic():
    assert rank_of_vectors([]) == 0
    assert rank_of_vectors([0b11, 0b01, 0b10]) == 2
