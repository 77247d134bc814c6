"""Catalog entries, transcription audits, and the matrix file format."""

from __future__ import annotations

import pytest

from gf2minor.catalog import (
    canonical_name,
    catalog_names,
    data_file_text,
    get_named,
    parse_matrix_file,
    write_matrix_file,
)
from gf2minor.errors import InputError, ParseError

# (rows, cols) of each built-in compact matrix.
EXPECTED_DIMS = {
    "g1": (7, 11), "g2": (8, 9), "g3": (8, 10), "g4": (9, 9), "g5": (9, 8),
    "g6": (9, 7), "g7": (6, 11), "g8": (7, 10), "g9": (8, 8), "g10": (7, 9),
    "g11": (8, 8), "g12": (8, 7), "g13": (8, 9), "g14": (9, 8), "g15": (9, 8),
    "g16": (9, 9), "g18": (9, 6), "g20": (8, 8), "g21": (7, 9), "g22": (8, 8),
    "g23": (9, 7), "g24": (6, 12), "g25": (7, 13), "g26": (8, 11),
    "g27": (8, 10), "g28": (9, 9), "g29": (10, 8), "r15": (7, 8), "r16": (8, 8),
}


@pytest.mark.parametrize("name,dims", sorted(EXPECTED_DIMS.items()))
def test_dimensions_and_standard_form(name, dims):
    m = get_named(name)
    assert (m.a.n_rows, m.a.n_cols) == dims
    assert m.basis_labels == tuple(f"r{i + 1}" for i in range(dims[0]))
    assert m.cobasis_labels == tuple(f"s{j + 1}" for j in range(dims[1]))
    assert m.rank(m.ground_set) == m.full_rank  # full row rank


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_transcription_audit_sums(name):
    # Each data file records independently computed row/column sums as
    # comments; they must match what the parser reads back.
    text = data_file_text(name)
    audits = {}
    for line in text.splitlines():
        if line.startswith("# audit"):
            _, _, kind, *vals = line.split()
            audits[kind] = [int(v) for v in vals]
    m = get_named(name)
    lists = [
        [m.a.entry(i, j) for j in range(m.a.n_cols)] for i in range(m.a.n_rows)
    ]
    assert audits["rowsums"] == [sum(r) for r in lists]
    assert audits["colsums"] == [sum(col) for col in zip(*lists)]


def test_target_shapes():
    assert (get_named("M(K5)").full_rank, get_named("M(K5)").size) == (4, 10)
    assert (get_named("M(K33)").full_rank, get_named("M(K33)").size) == (5, 9)
    assert (get_named("M*(K5)").full_rank, get_named("M*(K5)").size) == (6, 10)
    assert (get_named("M*(K33)").full_rank, get_named("M*(K33)").size) == (4, 9)
    assert (get_named("F7").full_rank, get_named("F7").size) == (3, 7)
    assert (get_named("F7*").full_rank, get_named("F7*").size) == (4, 7)


def test_f7_block_is_the_weight2plus_columns():
    a = get_named("F7").a
    cols = {tuple(a.entry(i, j) for i in range(3)) for j in range(4)}
    assert cols == {(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)}


def test_name_aliases():
    assert canonical_name("m_k5") == "M(K5)"
    assert canonical_name("M(K33)") == "M(K33)"
    assert canonical_name("MK33*") == "M*(K33)"
    assert canonical_name("G7") == "g7"
    assert get_named("M_K5") is get_named("M(K5)")


def test_unknown_name_rejected():
    with pytest.raises(InputError):
        get_named("g17")
    with pytest.raises(InputError):
        get_named("mystery")


def test_catalog_entries_complete():
    names = catalog_names()
    assert len(names) == 35  # 29 case matrices + 6 targets
    assert len(set(names)) == 35
    for name in names:
        assert canonical_name(name) == name
        assert get_named(name).size > 0


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS) + ["M(K5)", "F7*"])
def test_write_parse_round_trip(name):
    m = get_named(name)
    again = parse_matrix_file(write_matrix_file(m, name="x"))
    assert again == m


def test_empty_matroid_round_trip():
    from gf2minor.gf2 import Gf2Matrix
    from gf2minor.matroid import BinaryMatroid

    empty = BinaryMatroid((), (), Gf2Matrix(0, 0, ()))
    # Two coloops: rows but no columns, so the file has no entry lines.
    coloops = BinaryMatroid(("a", "b"), (), Gf2Matrix(2, 0, (0, 0)))
    for m in (empty, coloops):
        assert parse_matrix_file(write_matrix_file(m, name="empty")) == m


def test_parse_reports_bad_entry_line():
    text = "\n".join([
        "name t",
        "rows 1",
        "cols 2",
        "rowlabels a",
        "collabels b c",
        "0 2",
    ])
    with pytest.raises(ParseError, match="line 6"):
        parse_matrix_file(text)


def test_parse_reports_label_count_mismatch():
    text = "\n".join([
        "name t",
        "rows 1",
        "cols 2",
        "rowlabels a",
        "collabels b",
        "0 1",
    ])
    with pytest.raises(ParseError, match="line 5"):
        parse_matrix_file(text)


def test_parse_reports_non_decimal_count():
    # "²".isdigit() is true, but int() rejects it.
    text = "name t\nrows ²\ncols 1\nrowlabels a\ncollabels b\n1\n"
    with pytest.raises(ParseError, match="line 2: 'rows' needs"):
        parse_matrix_file(text)


def test_parse_reports_missing_header():
    with pytest.raises(ParseError):
        parse_matrix_file("rows 1\ncols 1\n")


def test_parse_skips_comments_and_blank_lines():
    text = "\n".join([
        "# leading comment",
        "",
        "name t",
        "rows 1",
        "# interior comment",
        "cols 1",
        "rowlabels a",
        "collabels b",
        "1",
    ])
    m = parse_matrix_file(text)
    assert m.size == 2
    assert (m.a.n_rows, m.a.n_cols, m.a.rows) == (1, 1, (1,))


def test_write_matrix_file_rejects_bad_name():
    with pytest.raises(InputError):
        write_matrix_file(get_named("F7"), name="two words")


def test_write_matrix_file_rejects_label_with_whitespace():
    from gf2minor.gf2 import Gf2Matrix
    from gf2minor.matroid import BinaryMatroid

    m = BinaryMatroid(("a b",), ("c",), Gf2Matrix(1, 1, (1,)))
    with pytest.raises(InputError, match="'a b'"):
        write_matrix_file(m)


def test_g_entries_graphic_r_entries_not():
    # The g blocks represent graphic matroids; r15/r16 are the two
    # non-graphic ones (their duals are not cographic).  Small sample here;
    # test_every_g_matrix_is_graphic covers every g entry.
    from gf2minor.minors import is_graphic

    assert is_graphic(get_named("g12"))
    assert is_graphic(get_named("g18"))
    assert not is_graphic(get_named("r15"))
    assert not is_graphic(get_named("r16"))


def test_every_g_matrix_is_graphic():
    from gf2minor.minors import is_graphic

    for name in sorted(EXPECTED_DIMS):
        if name.startswith("g"):
            assert is_graphic(get_named(name)), name
