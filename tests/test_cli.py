"""CLI subcommands, exit codes, and output formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from gf2minor.catalog import catalog_names, get_named, parse_matrix_file, write_matrix_file
from gf2minor.cli import execute_command, main
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import BinaryMatroid, Graph
from gf2minor.minors import check_graphic_cocircuits

from gen import coloop_host_of_22_elements, random_matroid


def run(capsys, *argv):
    code = execute_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--case", "g7")
    assert code == 0
    row = next(l for l in out.splitlines() if " g7 " in l)
    assert row.startswith("PASS") and "M(K5)" in row and "verified" in row
    assert "1/1 matched" in out


def test_verify_table_has_header(capsys):
    _, out, _ = run(capsys, "verify", "--case", "g7")
    assert out.splitlines()[0].split() == [
        "RESULT", "CASE", "VERDICT", "EXPECTED", "WITNESS", "CIRCUIT", "TIME"
    ]


def test_verify_g8_fails_honestly(capsys):
    code, out, _ = run(capsys, "verify", "--case", "g8")
    assert code == 1
    row = next(l for l in out.splitlines() if " g8 " in l)
    assert row.startswith("FAIL") and "none" in row


def test_verify_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "--case", "g24", "--json")
    assert code == 0
    (line,) = out.strip().splitlines()
    obj = json.loads(line)
    assert obj["case"] == "g24"
    assert obj["verdict"] == "M(K5)"
    assert obj["witness_verified"] is True


def test_verify_json_is_stable_across_all_cases(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 1  # g8 data defect, see README
    lines = out.strip().splitlines()
    assert len(lines) == 29
    keys = {
        "case", "expected", "verdict", "matched_expected", "witness",
        "witness_verified", "opset_is_circuit", "op_trace", "elapsed_s",
        "error",
    }
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == keys
    by_case = {json.loads(l)["case"]: json.loads(l) for l in lines}
    assert by_case["g7"]["verdict"] == "M(K5)"
    assert by_case["g8"]["verdict"] is None


def test_verify_jobs_flag_keeps_verdicts(capsys):
    code1, out1, _ = run(capsys, "verify", "--case", "g2", "--case", "g24",
                         "--json")
    code2, out2, _ = run(capsys, "verify", "--case", "g2", "--case", "g24",
                         "--json", "--jobs", "2")
    assert code1 == code2 == 0
    strip = lambda s: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed_s"}
        for l in s.strip().splitlines()
    ]
    assert strip(out1) == strip(out2)


def test_verify_unknown_case(capsys):
    code, _, err = run(capsys, "verify", "--case", "g99")
    assert code == 2
    assert "g99" in err


def test_verify_cert_file(tmp_path, capsys):
    cert = tmp_path / "cases.json"
    cert.write_text(json.dumps([
        {
            "name": "k5self",
            "base": "M(K5)",
            "ops": [{"op": "delete", "element": "e45"}],
            "targets": ["M(K33)", "M(K5)"],
            "expected": "M(K33)",
        }
    ]))
    code, out, _ = run(capsys, "verify", "--cert", str(cert))
    assert code == 1
    # Columns are whitespace-separated and aligned under the header, so
    # compare fields rather than the exact padding.
    row = next(l for l in out.splitlines() if " k5self " in l)
    assert row.split()[:4] == ["FAIL", "k5self", "none", "M(K33)"]
    summary = out.splitlines()[-1]
    assert summary.startswith("0/1 matched") and "failed: k5self" in summary


def test_minor_size_obstruction(capsys):
    code, out, _ = run(capsys, "minor", "--matroid", "M_K33", "--target", "M_K5")
    assert code == 1
    assert "no minor" in out


@pytest.mark.parametrize("rank, code, text", [
    (0, 1, "no minor: F7 not contained in"),
    (5, 2, "minor search hosts limited to 20 elements, got 21"),
], ids=["counted-out", "open"])
def test_minor_hosts_past_the_limit(tmp_path, capsys, rank, code, text):
    # Rank and corank answer before the 20-element host guard: 21 loops
    # (rank 0) cannot hold F7 (rank 3), while a host of rank 5 and corank
    # 16 leaves the question open and is refused.
    c = 21 - rank
    host = BinaryMatroid(
        tuple(f"b{i}" for i in range(rank)), tuple(f"s{j}" for j in range(c)),
        Gf2Matrix(rank, c, (0,) * rank),
    )
    path = tmp_path / "host.mat"
    path.write_text(write_matrix_file(host))
    got, out, err = run(capsys, "minor", "--matroid", str(path), "--target", "F7")
    assert got == code and text in out + err


def test_minor_with_ops_and_witness(capsys):
    code, out, _ = run(
        capsys, "minor", "--matroid", "g7", "--target", "M(K5)",
        "--contract", "r1,r2,s5", "--witness",
    )
    assert code == 0
    assert "minor found" in out and "witness verified" in out
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("{"))
    w = json.loads("\n".join(lines[start:]))
    assert set(w) == {"contract", "delete", "map"}


def test_graphic_exit_codes(capsys):
    assert run(capsys, "graphic", "--matroid", "M(K5)")[0] == 0
    code, out, _ = run(capsys, "graphic", "--matroid", "F7")
    assert code == 1
    assert "graphic: no" in out


def _graph_lines(out: str) -> tuple[int, list[tuple[int, int, str]]]:
    lines = out.splitlines()
    assert lines[0] == "graphic: yes"
    head, n = lines[1].split()
    assert head == "vertices"
    edges = [(int(u), int(v), lab) for u, v, lab in map(str.split, lines[2:])]
    return int(n), edges


def test_graphic_certificate_prints_a_checked_graph(capsys):
    from gf2minor.matroid import Graph
    from gf2minor.audit import verify_graph

    code, out, err = run(capsys, "graphic", "--certificate", "--matroid", "g6")
    assert code == 0 and err == ""
    n, edges = _graph_lines(out)
    assert edges == sorted(edges)
    assert verify_graph(get_named("g6"), Graph(n, tuple(edges)))


def test_graphic_certificate_prints_a_checked_witness(capsys):
    from gf2minor.audit import MinorWitness, verify_witness

    code, out, err = run(capsys, "graphic", "--certificate", "--matroid", "r16")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "graphic: no"
    head, name = lines[1].split(": ")
    assert head == "excluded minor" and name in ("F7", "F7*", "M*(K5)", "M*(K33)")
    w = json.loads("\n".join(lines[2:]))
    witness = MinorWitness(
        frozenset(w["contract"]), frozenset(w["delete"]),
        tuple(sorted(w["map"].items())),
    )
    assert verify_witness(get_named("r16"), get_named(name), witness)


def test_graphic_certificate_rejected_exits_2(capsys, monkeypatch):
    import gf2minor.cli as cli

    monkeypatch.setattr(cli, "verify_graph", lambda m, g: False)
    code, _, err = run(capsys, "graphic", "--certificate", "--matroid", "M(K5)")
    assert code == 2 and "REJECTED" in err
    monkeypatch.setattr(cli, "verify_witness", lambda h, t, w: False)
    code, _, err = run(capsys, "graphic", "--certificate", "--matroid", "F7")
    assert code == 2 and "REJECTED" in err


@pytest.mark.parametrize("name, code", [("g6", 0), ("r16", 1)], ids=["g6", "r16"])
def test_graphic_certificate_identical_across_hash_seeds(name, code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in ("0", "1"):
        res = subprocess.run(
            [sys.executable, "-m", "gf2minor", "graphic", "--certificate",
             "--matroid", name],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True,
        )
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout.splitlines()[0] == f"graphic: {'no' if code else 'yes'}"
        outputs.add(res.stdout)
    assert len(outputs) == 1


def test_info_f7(capsys):
    code, out, _ = run(capsys, "info", "--matroid", "F7")
    assert code == 0
    assert "rank: 3" in out
    assert "elements: 7" in out
    assert "circuits: 14" in out


def test_cocircuits_listing(tmp_path, capsys):
    code, out, _ = run(capsys, "cocircuits", "--matroid", "M(K5)")
    assert code == 0
    assert len(out.strip().splitlines()) == 15
    # On every catalog entry and its dual as written by ``dual -o``, the
    # listing and the check both give the circuits of the dual that the
    # label route, ``circuits()``, finds, in order of size and then sorted
    # labels.
    for i, name in enumerate(catalog_names()):
        path = tmp_path / f"{i}.mat"
        assert run(capsys, "dual", "--matroid", name, "-o", str(path))[0] == 0
        dual = parse_matrix_file(path.read_text())
        for arg, m in ((name, get_named(name)), (str(path), dual)):
            expected = sorted(m.dual().circuits(), key=lambda s: (len(s), sorted(s)))
            code, out, _ = run(capsys, "cocircuits", "--matroid", arg)
            assert code == 0
            assert out.splitlines() == ["{" + ",".join(sorted(c)) + "}" for c in expected]
            assert [c.cocircuit for c in check_graphic_cocircuits(m).checks] == expected
    path = tmp_path / "big.mat"
    path.write_text(write_matrix_file(random_matroid(Random(25), 25, 25)))
    code, out, err = run(capsys, "cocircuits", "--matroid", str(path))
    assert code == 2 and out == ""
    assert "circuit enumeration limited to 24 elements, got 25" in err


def test_cocircuits_check_graphic(capsys):
    code, out, _ = run(
        capsys, "cocircuits", "--matroid", "M(K5)", "--check-graphic"
    )
    assert code == 0
    assert "all cocircuits graphic: yes" in out


def f7_with_a_coloop() -> BinaryMatroid:
    """F7 and a coloop c: deleting the cocircuit {c} leaves F7, and deleting
    any other cocircuit leaves a graphic matroid."""
    f7 = get_named("F7")
    return BinaryMatroid(
        f7.basis_labels + ("c",), f7.cobasis_labels,
        Gf2Matrix(4, 4, f7.a.rows + (0,)),
    )


def test_cocircuits_check_graphic_audits_every_certificate(tmp_path, capsys, monkeypatch):
    import gf2minor.cli as cli

    m = f7_with_a_coloop()
    path = tmp_path / "f7c.mat"
    path.write_text(write_matrix_file(m))
    calls = []
    for name in ("verify_graph", "verify_witness"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, real=real: calls.append(a) or real(*a)
        )
    code, out, err = run(capsys, "cocircuits", "--matroid", str(path), "--check-graphic")
    assert code == 1 and err == ""
    assert "{c}: deletion NOT graphic" in out
    assert len(calls) == len(check_graphic_cocircuits(m).checks) > 1


def test_cocircuits_check_graphic_rejected_certificate_exits_2(tmp_path, capsys, monkeypatch):
    import gf2minor.cli as cli
    from gf2minor.audit import MinorWitness, verify_graph, verify_witness

    m = f7_with_a_coloop()
    path = tmp_path / "f7c.mat"
    path.write_text(write_matrix_file(m))
    report = check_graphic_cocircuits(m)
    graph_at = next(i for i, c in enumerate(report.checks) if c.graphic)
    minor_at = next(i for i, c in enumerate(report.checks) if not c.graphic)
    g = report.checks[graph_at].certificate
    *rest, (u, v, label) = g.edges
    moved = Graph(g.n_vertices, (*rest, (u, (v + 1) % g.n_vertices, label)))
    name, w = report.checks[minor_at].certificate
    (t1, h1), (t2, h2), *pairs = w.mapping
    swapped = (name, MinorWitness(
        w.contract_set, w.delete_set, ((t1, h2), (t2, h1), *pairs)
    ))
    assert not verify_graph(m.delete_all(report.checks[graph_at].cocircuit), moved)
    assert not verify_witness(m, get_named(name), swapped[1])
    for at, cert in ((graph_at, moved), (minor_at, swapped)):
        checks = list(report.checks)
        checks[at] = replace(checks[at], certificate=cert)
        tampered = replace(report, checks=tuple(checks))
        monkeypatch.setattr(cli, "check_graphic_cocircuits", lambda m: tampered)
        code, _, err = run(capsys, "cocircuits", "--matroid", str(path), "--check-graphic")
        assert code == 2
        assert err == "error: certificate REJECTED by the independent check\n"


def test_cocircuits_check_graphic_capacity_guard_exits_2(tmp_path, capsys):
    path = tmp_path / "big.mat"
    path.write_text(write_matrix_file(coloop_host_of_22_elements()))
    code, _, err = run(
        capsys, "cocircuits", "--matroid", str(path), "--check-graphic"
    )
    assert code == 2
    assert "graphicness test limited to 20 elements, got 21" in err


def test_dual_round_trip(tmp_path, capsys):
    out_file = tmp_path / "f7dual.mat"
    code, _, _ = run(capsys, "dual", "--matroid", "F7", "-o", str(out_file))
    assert code == 0
    assert parse_matrix_file(out_file.read_text()) == get_named("F7*")


def test_dual_of_a_loop_reads_back(tmp_path, capsys):
    # The dual of a loop is a coloop: a file with one row and no columns.
    path = tmp_path / "loop.mat"
    path.write_text("name loop\nrows 0\ncols 1\nrowlabels\ncollabels e\n")
    out_file = tmp_path / "coloop.mat"
    assert run(capsys, "dual", "--matroid", str(path), "-o", str(out_file))[0] == 0
    code, out, _ = run(capsys, "info", "--matroid", str(out_file))
    assert code == 0
    assert "coloops: 1" in out


def test_dual_to_stdout(capsys):
    code, out, _ = run(capsys, "dual", "--matroid", "F7")
    assert code == 0
    assert parse_matrix_file(out) == get_named("F7*")


def test_matroid_file_argument(tmp_path, capsys):
    path = tmp_path / "m.mat"
    path.write_text(write_matrix_file(get_named("M(K5)"), name="k5"))
    code, out, _ = run(capsys, "info", "--matroid", str(path))
    assert code == 0
    assert "rank: 4" in out


def test_file_wins_over_name_with_warning(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g1").write_text(write_matrix_file(get_named("F7"), name="f"))
    code, out, err = run(capsys, "info", "--matroid", "g1")
    assert code == 0
    assert "rank: 3" in out  # F7 from the file, not catalog g1
    assert "both a file and a catalog name" in err


def test_unknown_matroid_names_input(capsys):
    code, _, err = run(capsys, "info", "--matroid", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "minor", "--matroid", "F7")[0] == 2  # missing --target


def test_bad_matrix_file_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("name x\nrows 1\ncols 1\nrowlabels a\ncollabels b\n2\n")
    code, _, err = run(capsys, "info", "--matroid", str(bad))
    assert code == 2
    assert "line 6" in err


_GOOD_CASE = {
    "name": "k5self",
    "base": "M(K5)",
    "ops": [{"op": "delete", "element": "e45"}],
    "targets": ["M(K33)", "M(K5)"],
    "expected": "M(K33)",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("name", 5),
        ("name", ""),
        ("base", 7),
        ("base", ""),
        ("targets", "K5"),
        ("targets", ["M(K5)", 3]),
        ("expected", None),
        ("ops", [{"op": "delete", "element": 45}]),
    ],
    ids=["name-int", "name-empty", "base-int", "base-empty", "targets-str",
         "targets-int-item", "expected-null", "op-element-int"],
)
def test_malformed_certificate_field_is_an_input_error(tmp_path, capsys, field, value):
    cert = tmp_path / "cases.json"
    cert.write_text(json.dumps([dict(_GOOD_CASE, **{field: value})]))
    code, out, err = run(capsys, "verify", "--cert", str(cert))
    assert code == 2
    assert "Traceback" not in err
    assert "case #1" in err
    assert out == ""


def test_python_dash_m_matches_the_cli_entry_point(capsys, monkeypatch):
    # Full replay exits 1 (the g8 data defect), so a dropped exit code shows.
    argv = ["verify", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "gf2minor", *argv],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert "Traceback" not in proc.stderr
    monkeypatch.setattr(sys, "argv", ["gf2minor", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    out = capsys.readouterr().out
    assert proc.returncode == exc.value.code == 1
    strip = lambda s: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed_s"}
        for l in s.strip().splitlines()
    ]
    assert strip(proc.stdout) == strip(out)


def test_undecodable_target_file_is_named(tmp_path, capsys):
    host = tmp_path / "host.mat"
    host.write_text(write_matrix_file(get_named("M(K5)"), name="K5"))
    bad = tmp_path / "target.mat"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, _, err = run(
        capsys, "minor", "--matroid", str(host), "--target", str(bad)
    )
    assert code == 2
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
    assert str(host) not in err and "Traceback" not in err

