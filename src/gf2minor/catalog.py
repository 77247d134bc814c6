"""Built-in matroid catalog plus the line-oriented matrix file format.

The 29 case matrices live as textual blocks under ``data/`` (one ``.mat``
file each, with row/column-sum audit comments) and are parsed on first use;
keeping them in the neutral text format makes eyeballing and diffing the
transcriptions trivial.  Standard targets are constructed: M(K5) and M(K33)
as cycle matroids of canonical edge lists, duals via ``dual()``, F7 from its
own data file.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .errors import InputError, ParseError
from .gf2 import Gf2Matrix
from .matroid import (
    BinaryMatroid,
    complete_bipartite_graph,
    complete_graph,
    cycle_matroid,
)

_FILE_KEYS = tuple(
    f"g{i}" for i in list(range(1, 17)) + [18] + list(range(20, 30))
) + ("r15", "r16")

_TARGET_NAMES = ("M(K5)", "M(K33)", "M*(K5)", "M*(K33)", "F7", "F7*")

_ALIASES = {
    "MK5": "M(K5)",
    "K5": "M(K5)",
    "MK33": "M(K33)",
    "K33": "M(K33)",
    "M*K5": "M*(K5)",
    "MK5*": "M*(K5)",
    "M*K33": "M*(K33)",
    "MK33*": "M*(K33)",
    "F7": "F7",
    "F7*": "F7*",
}


# -- matrix file format ------------------------------------------------------------


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _header(lines: list[tuple[int, str]], pos: int, key: str) -> tuple[int, list[str]]:
    if pos >= len(lines):
        raise ParseError(f"missing '{key}' header (file ends early)")
    lineno, line = lines[pos]
    parts = line.split()
    if parts[0] != key:
        raise ParseError(f"line {lineno}: expected '{key} ...', got {line!r}")
    return lineno, parts[1:]


def parse_matrix_file(text: str) -> BinaryMatroid:
    """Parse the matrix file format (see write_matrix_file for the layout)."""
    lines = _content_lines(text)
    lineno, args = _header(lines, 0, "name")
    if len(args) != 1:
        raise ParseError(f"line {lineno}: 'name' takes exactly one token")

    counts = {}
    for pos, key in ((1, "rows"), (2, "cols")):
        lineno, args = _header(lines, pos, key)
        if len(args) != 1 or not args[0].isdecimal():
            raise ParseError(f"line {lineno}: '{key}' needs one non-negative integer")
        counts[key] = int(args[0])
    k, n = counts["rows"], counts["cols"]

    lineno, rowlabels = _header(lines, 3, "rowlabels")
    if len(rowlabels) != k:
        raise ParseError(f"line {lineno}: expected {k} row labels, got {len(rowlabels)}")
    lineno, collabels = _header(lines, 4, "collabels")
    if len(collabels) != n:
        raise ParseError(f"line {lineno}: expected {n} column labels, got {len(collabels)}")

    data = lines[5:]
    n_lines = k if n else 0  # a block with no columns has no entry lines
    if len(data) != n_lines:
        raise ParseError(f"expected {n_lines} matrix rows, found {len(data)}")
    rows = [] if n else [[]] * k
    for i, (lineno, line) in enumerate(data):
        toks = line.split()
        if len(toks) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, got {len(toks)}")
        row = []
        for tok in toks:
            if tok not in ("0", "1"):
                raise ParseError(f"line {lineno}: entry {tok!r} is not 0 or 1")
            row.append(int(tok))
        rows.append(row)

    try:
        a = Gf2Matrix.from_rows(rows, n_cols=n)
        return BinaryMatroid(tuple(rowlabels), tuple(collabels), a)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def write_matrix_file(m: BinaryMatroid, name: str = "matroid") -> str:
    """Serialize a matroid; ``parse_matrix_file`` round-trips it bit-for-bit."""
    if not name or any(ch.isspace() for ch in name):
        raise InputError(f"bad matroid name token {name!r}")
    for lab in m.elements():
        if any(ch.isspace() for ch in lab):
            raise InputError(f"bad element label token {lab!r}")
    lines = [
        f"name {name}",
        f"rows {m.a.n_rows}",
        f"cols {m.a.n_cols}",
        "rowlabels" + "".join(" " + lab for lab in m.basis_labels),
        "collabels" + "".join(" " + lab for lab in m.cobasis_labels),
    ]
    for i in range(m.a.n_rows):
        lines.append(" ".join(str(m.a.entry(i, j)) for j in range(m.a.n_cols)))
    return "\n".join(lines) + "\n"


# -- built-in entries ---------------------------------------------------------------


def data_file_text(key: str) -> str:
    return resources.files(__package__).joinpath("data", f"{key}.mat").read_text()


def canonical_name(name: str) -> str:
    """Resolve any accepted spelling to the catalog's display name."""
    squashed = name.strip().upper()
    for ch in "()_-. ":
        squashed = squashed.replace(ch, "")
    if squashed in _ALIASES:
        return _ALIASES[squashed]
    low = squashed.lower()
    if low in _FILE_KEYS:
        return low
    raise InputError(f"unknown matroid name {name!r}")


def get_named(name: str) -> BinaryMatroid:
    """Look up a catalog matroid by name (case/punctuation tolerant)."""
    return _entry(canonical_name(name))


@lru_cache
def _entry(canon: str) -> BinaryMatroid:
    """The entry with display name ``canon``, built once."""
    if canon in _FILE_KEYS:
        return parse_matrix_file(data_file_text(canon))
    if canon == "M(K5)":
        return cycle_matroid(complete_graph(5))
    if canon == "M(K33)":
        return cycle_matroid(complete_bipartite_graph(3, 3))
    if canon == "M*(K5)":
        return _entry("M(K5)").dual()
    if canon == "M*(K33)":
        return _entry("M(K33)").dual()
    if canon == "F7":
        return parse_matrix_file(data_file_text("f7"))
    return _entry("F7").dual()  # F7*


def catalog_names() -> tuple[str, ...]:
    return _FILE_KEYS + _TARGET_NAMES

