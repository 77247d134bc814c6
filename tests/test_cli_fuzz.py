"""Seeded fuzzing of the CLI: any input ends in exit code 0, 1 or 2.

Certificate files, matrix files and argv are mutated with a fixed-seed
``random.Random`` and fed to ``cli.execute_command`` in-process, so an
escaping exception fails the test with its traceback.  Every matroid
involved has at most 10 elements, which keeps each command fast.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from gf2minor.catalog import get_named, write_matrix_file
from gf2minor.cli import execute_command

EXIT_CODES = {0, 1, 2}

NON_UTF8 = b"\xff\xfe\x00bad"

JUNK_VALUES = [
    5, -1, 1.5, True, None, "", "K5", "M(K5)", "²", [], {}, [1],
    ["M(K5)", 3], {"op": "delete"}, [{"op": "x", "element": "e12"}],
    [{"op": "contract", "element": 7}], "line\nbreak",
]

JUNK_TOKENS = [
    "", "x", "-1", "0", "2", "²", "٣", "1 1", "0 0 0", "rows",
    "cols 1", "name", "rowlabels a a", "#", "nan",
]

GOOD_CASE = {
    "name": "k5e",
    "base": "M(K5)",
    "ops": [{"op": "delete", "element": "e45"},
            {"op": "contract", "element": "e12"}],
    "targets": ["M(K33)", "M(K5)"],
    "expected": "M(K33)",
}


def _run(capsys, argv: list[str]) -> int:
    code = execute_command(argv)
    err = capsys.readouterr().err
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err, argv
    return code


def _mutate_case(rng: Random, case: dict) -> object:
    case = json.loads(json.dumps(case))
    roll = rng.randrange(6)
    if roll == 0:
        del case[rng.choice(sorted(case))]
    elif roll == 1:
        case[rng.choice(sorted(case))] = rng.choice(JUNK_VALUES)
    elif roll == 2:
        op = rng.choice(case["ops"])
        op[rng.choice(["op", "element"])] = rng.choice(JUNK_VALUES)
    elif roll == 3:
        case["base"] = write_matrix_file(get_named(rng.choice(["F7", "M(K33)"])))
        case["ops"][0]["element"] = rng.choice(["r1", "s1", "e45"])
    elif roll == 4:
        case["claim_kind"] = rng.choice(JUNK_VALUES + ["dual", "direct"])
    else:
        return rng.choice([case, [case, 5], {"cases": case}, {"cases": [case]}])
    return [case]


def _mutate_bytes(rng: Random, text: str) -> bytes:
    data = text.encode()
    roll = rng.randrange(4)
    if roll == 0:
        return data[: rng.randrange(len(data) + 1)]
    if roll == 1:
        i = rng.randrange(len(data) + 1)
        return data[:i] + bytes([rng.randrange(256)]) + data[i:]
    if roll == 2:
        return NON_UTF8 + data
    return data


def test_fuzzed_certificate_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MATROID_JOBS", "1")
    rng = Random(4101)
    cert = tmp_path / "cases.json"
    for _ in range(60):
        text = json.dumps(_mutate_case(rng, GOOD_CASE))
        cert.write_bytes(_mutate_bytes(rng, text))
        _run(capsys, ["verify", "--cert", str(cert), *rng.choice([[], ["--json"]])])


def _mutate_matrix(rng: Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(lines))
        roll = rng.randrange(5)
        if roll == 0:
            del lines[i]
        elif roll == 1:
            lines.insert(i, lines[i])
        elif roll == 2:
            toks = lines[i].split() or [""]
            toks[rng.randrange(len(toks))] = rng.choice(JUNK_TOKENS)
            lines[i] = " ".join(toks)
        elif roll == 3:
            lines[i] += " " + rng.choice(JUNK_TOKENS)
        else:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def test_fuzzed_matrix_files(tmp_path, capsys):
    rng = Random(4102)
    mat = tmp_path / "m.mat"
    for _ in range(60):
        base = write_matrix_file(get_named(rng.choice(["F7", "M(K33)", "M*(K5)"])))
        mat.write_bytes(_mutate_bytes(rng, _mutate_matrix(rng, base)))
        command = rng.choice([
            ["info"], ["graphic"], ["graphic", "--certificate"], ["cocircuits"],
            ["dual"],
            ["minor", "--target", "F7"],
        ])
        _run(capsys, [command[0], "--matroid", str(mat), *command[1:]])


ARGV_SEEDS = [
    ["verify", "--cert", "cases.json", "--json"],
    ["minor", "--matroid", "M(K5)", "--target", "M(K33)",
     "--contract", "e12", "--delete", "e45", "--witness"],
    ["graphic", "--matroid", "F7*", "--certificate"],
    ["cocircuits", "--matroid", "M(K33)", "--check-graphic"],
    ["info", "--matroid", "M*(K5)"],
    ["dual", "--matroid", "F7", "-o", "out.mat"],
]

ARGV_JUNK = [
    "", "-", "--", "-h", "--json", "--jobs", "0", "-1", "x", "--case",
    "g99", "--cert", "missing.json", ".", "--matroid", "--target", "F7",
    "nosuch", "--contract", "e12,,", "--delete", "zz", "-o", "--witness",
    "--check-graphic", "--certificate", "verify", "info", "²",
]


def test_fuzzed_argv(tmp_path, capsys, monkeypatch):
    # Relative paths in mutated argv (say a stray "-o F7") land in tmp_path.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MATROID_JOBS", "1")
    (tmp_path / "cases.json").write_text(json.dumps([GOOD_CASE]))
    rng = Random(4103)
    for _ in range(80):
        argv = list(rng.choice(ARGV_SEEDS))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(argv) + 1)
            roll = rng.randrange(4)
            if roll == 0 and i < len(argv) and argv[i] != "--cert":
                del argv[i]  # keep verify off the full built-in replay
            elif roll == 1:
                argv.insert(i, rng.choice(ARGV_JUNK))
            elif roll == 2 and i < len(argv):
                argv[i] = rng.choice(ARGV_JUNK)
            elif i < len(argv):
                j = rng.randrange(len(argv))
                argv[i], argv[j] = argv[j], argv[i]
        _run(capsys, argv)


@pytest.mark.parametrize(
    "command, flag, data",
    [("verify", "--cert", NON_UTF8), ("info", "--matroid", NON_UTF8),
     ("verify", "--cert", b"[" * 100_000 + b"]" * 100_000)],
    ids=["cert-non-utf8", "matrix-non-utf8", "cert-too-deep"],
)
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, command, flag, data):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(data)
    code = execute_command([command, flag, str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    if data == NON_UTF8:
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")


def test_bad_matroid_jobs_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MATROID_JOBS", "abc")
    assert execute_command(["verify", "--case", "g1"]) == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "'abc'" in err and "Traceback" not in err
    # An explicit --jobs wins over the environment.
    assert execute_command(["verify", "--case", "g1", "--jobs", "1"]) == 0
