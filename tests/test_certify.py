"""Certificate table, replay engine, and certificate file loading."""

from __future__ import annotations

import concurrent.futures
import json

import pytest

from gf2minor.certify import (
    CertificateCase,
    builtin_cases,
    case_sort_key,
    load_cases,
    parse_signed_index_command,
    replay_all,
    replay_case,
)
from gf2minor.audit import verify_graph
from gf2minor.catalog import get_named, write_matrix_file
from gf2minor.errors import InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.matroid import (
    ROUTE_CONTRACT_LOOP,
    BinaryMatroid,
    Graph,
    MinorOp,
    contract,
    delete,
)
from gf2minor.minors import graphic_certificate

EXPECTED_K5 = {"g1", "g3", "g7", "g8", "g10", "g21", "g22", "g24", "g25",
               "g26", "g27", "g28"}
EXPECTED_K33 = {"g2", "g4", "g5", "g6", "g9", "g11", "g12", "g13", "g14",
                "g15", "g16", "g18", "g20", "g23", "g29"}


def case_by_name(name: str) -> CertificateCase:
    return next(c for c in builtin_cases() if c.name == name)


# -- the built-in table -----------------------------------------------------------


def test_builtin_table_shape():
    cases = builtin_cases()
    assert len(cases) == 29
    assert {c.name for c in cases if c.expected == "M(K5)"} == EXPECTED_K5
    assert {c.name for c in cases if c.expected == "M(K33)"} == EXPECTED_K33
    assert {c.name for c in cases if c.expected == "M*(K33)"} == {"r15", "r16"}


def test_builtin_targets_by_claim_kind():
    for c in builtin_cases():
        if c.claim_kind == "direct":
            assert c.targets == ("M(K5)", "M(K33)")
            assert all(op.kind == "contract" for op in c.ops)
        else:
            assert c.targets == ("M*(K5)", "M*(K33)")
            assert all(op.kind == "delete" for op in c.ops)


def test_label_ops_agree_with_signed_index_commands():
    # positive index -> r label, negative -> s label, same order
    for c in builtin_cases():
        assert parse_signed_index_command(c.provenance) == c.ops


def test_op_elements_exist_in_base():
    for c in builtin_cases():
        ground = c.resolve_base().ground_set
        assert all(op.element in ground for op in c.ops)


def test_case_validation():
    with pytest.raises(InputError):
        CertificateCase("x", "g1", (), ("M(K5)",), "M(K5)")
    with pytest.raises(InputError):
        CertificateCase("x", "g1", (contract("r1"),), ("M(K5)",), "M(K33)")


# -- replay -------------------------------------------------------------------------


def test_replay_g2_matches():
    report = replay_case(case_by_name("g2"))
    assert report.verdict == "M(K33)"
    assert report.matched_expected and report.witness_verified
    assert report.ok


def test_replay_r16_matches():
    report = replay_case(case_by_name("r16"))
    assert report.verdict == "M*(K33)"
    assert report.matched_expected and report.witness_verified


def test_replay_g24_routes_s9_through_loop_contraction():
    report = replay_case(case_by_name("g24"))
    assert report.matched_expected
    routes = {(t.op.element, t.route) for t in report.op_trace}
    assert ("s9", ROUTE_CONTRACT_LOOP) in routes
    assert report.opset_is_circuit  # s1 + s9 = r1 in the base


def test_opset_circuit_audit_is_informational():
    # g1's op set is independent, yet the case still matches.
    report = replay_case(case_by_name("g1"))
    assert not report.opset_is_circuit
    assert report.matched_expected


def test_replay_g8_reports_the_data_defect_honestly():
    # The stored g8 block provably has no M(K5)/M(K33) minor (see the note in
    # its data file); the engine must report the mismatch, not mask it.
    case = case_by_name("g8")
    report = replay_case(case)
    assert report.verdict is None
    assert not report.matched_expected
    assert report.error is None
    assert not report.ok
    # Certified: the stored g8 and its dual both have graphs that the audit
    # accepts, so g8 is cographic, and so is each of its minors; neither
    # M(K5) nor M(K33) is cographic, so neither is a minor, whatever the ops.
    g8 = case.resolve_base()
    assert (g8.size, g8.full_rank, g8.dual().full_rank) == (17, 7, 10)
    for m in (g8, g8.dual()):
        g = graphic_certificate(m)
        assert isinstance(g, Graph) and verify_graph(m, g)


def test_negative_control_case():
    case = CertificateCase(
        name="control",
        base="M(K33)",
        ops=(MinorOp("delete", "e14"),),
        targets=("M(K5)",),
        expected="M(K5)",
    )
    report = replay_case(case)
    assert report.verdict is None
    assert not report.matched_expected


def test_replay_case_error_carries_case_name():
    case = CertificateCase(
        name="broken", base="g1", ops=(contract("zz"),),
        targets=("M(K5)",), expected="M(K5)",
    )
    with pytest.raises(InputError, match="broken"):
        replay_case(case)


def test_replay_keeps_the_search_capacity_guards():
    # A host of 21 elements (22 less one deletion) whose rank and corank
    # leave M(K5) open exceeds the minor search's host limit; replay reports
    # the CapacityError as an InputError.
    wide = BinaryMatroid(
        tuple(f"b{i}" for i in range(5)), tuple(f"s{j}" for j in range(17)),
        Gf2Matrix(5, 17, (0,) * 5),
    )
    case = CertificateCase(
        name="wide", base=write_matrix_file(wide, name="wide"),
        ops=(delete("s0"),), targets=("M(K5)",), expected="M(K5)",
    )
    with pytest.raises(InputError, match="wide: minor search hosts limited to 20"):
        replay_case(case)
    # A target of 18 elements has no limit of its own: g1 has rank 7, above
    # the 6 of g25 / r5, so the counts answer "no" with no search.
    big_target = CertificateCase(
        name="big-target", base="g25", ops=(contract("r5"),),
        targets=("g1",), expected="g1",
    )
    report = replay_case(big_target)
    assert report.verdict is None and not report.matched_expected


def test_replay_all_empty_list():
    reports, summary = replay_all([])
    assert reports == []
    assert summary.all_ok and summary.total == 0


def test_replay_all_never_aborts_on_bad_case():
    bad = CertificateCase(
        name="broken", base="g1", ops=(contract("zz"),),
        targets=("M(K5)",), expected="M(K5)",
    )
    reports, summary = replay_all([case_by_name("g2"), bad])
    assert summary.total == 2
    by_name = {r.case_name: r for r in reports}
    assert by_name["g2"].ok
    assert by_name["broken"].error and not by_name["broken"].ok
    assert summary.failed_cases == ("broken",)


def test_tampered_expectation_fails_the_suite():
    good = case_by_name("g2")
    tampered = CertificateCase(
        name=good.name, base=good.base, ops=good.ops,
        targets=good.targets, expected="M(K5)",
    )
    reports, summary = replay_all([tampered])
    assert not summary.all_ok
    assert reports[0].verdict == "M(K33)"


def test_jobs_do_not_change_verdicts():
    sample = [case_by_name(n) for n in ("g2", "g7", "g24", "r15")]
    seq_reports, seq_summary = replay_all(sample, jobs=1)
    par_reports, par_summary = replay_all(sample, jobs=4)
    assert [(r.case_name, r.verdict, r.witness) for r in seq_reports] == [
        (r.case_name, r.verdict, r.witness) for r in par_reports
    ]
    assert seq_summary.failed_cases == par_summary.failed_cases


class _InProcessPool:
    """A ``ProcessPoolExecutor`` stand-in that records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, n_cases, sizes",
    [
        (100_000, 8, None, [8]),   # the CPU count caps the fan-out
        (100_000, 64, 4, [4]),     # so does the number of cases
        (3, 64, 4, [3]),           # and the jobs asked for
        (100_000, None, 4, []),    # unknown CPU count: one, so serial
        (100_000, 64, 1, []),      # one case: serial
    ],
)
def test_replay_fan_out_is_bounded(monkeypatch, jobs, cpus, n_cases, sizes):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    cases = None if n_cases is None else builtin_cases()[:n_cases]
    reports, summary = replay_all(cases, jobs=jobs)
    assert _InProcessPool.sizes == sizes
    assert summary.total == len(reports) == (n_cases or 29)


@pytest.mark.parametrize("jobs, n_cases", [(1, 29), (8, 1), (0, 3)])
def test_serial_replay_does_not_ask_for_the_cpu_count(monkeypatch, jobs, n_cases):
    def cpu_count():
        raise AssertionError("a serial replay asked for the CPU count")

    monkeypatch.setattr("os.cpu_count", cpu_count)
    reports, summary = replay_all(builtin_cases()[:n_cases], jobs=jobs)
    assert summary.total == len(reports) == n_cases


def test_reports_sorted_naturally():
    assert sorted(["g10", "g2", "r15", "g1"], key=case_sort_key) == [
        "g1", "g2", "g10", "r15"
    ]


# -- certificate files -----------------------------------------------------------


def test_load_cases_round_trip():
    text = json.dumps([
        {
            "name": "mycase",
            "base": "g7",
            "ops": [{"op": "contract", "element": "r1"},
                    {"op": "contract", "element": "r2"},
                    {"op": "contract", "element": "s5"}],
            "targets": ["M(K5)", "M(K33)"],
            "expected": "M(K5)",
        }
    ])
    (case,) = load_cases(text)
    assert case.claim_kind == "direct"
    report = replay_case(case)
    assert report.matched_expected and report.witness_verified


def test_load_cases_with_inline_base():
    inline = write_matrix_file(get_named("M(K5)"), name="inlinek5")
    text = json.dumps([
        {
            "name": "inline",
            "base": inline,
            "ops": [{"op": "delete", "element": "e45"}],
            "targets": ["M(K33)"],
            "expected": "M(K33)",
        }
    ])
    (case,) = load_cases(text)
    report = replay_case(case)
    # K5 minus an edge contains no K3,3 (too few edges): honest non-match.
    assert report.verdict is None and not report.matched_expected


def test_load_cases_rejects_malformed_input():
    with pytest.raises(InputError):
        load_cases("{not json")
    with pytest.raises(InputError):
        load_cases(json.dumps({"nope": 1}))
    with pytest.raises(InputError, match="case #1"):
        load_cases(json.dumps([{"name": "x"}]))
    with pytest.raises(InputError, match="bad op entry"):
        load_cases(json.dumps([{
            "name": "x", "base": "g1", "ops": [{"element": "r1"}],
            "targets": ["M(K5)"], "expected": "M(K5)",
        }]))
    with pytest.raises(InputError):
        load_cases(json.dumps([{
            "name": "x", "base": "g1",
            "ops": [{"op": "contract", "element": "r1"}],
            "targets": ["M(K9)"], "expected": "M(K9)",
        }]))


def test_all_case_witnesses_pass_the_dense_oracle_audit():
    # Third route: recompute each witness's minor with the dense list-based
    # oracle (independent of both the search and verify_witness).
    from oracles import circuits_by_enumeration, minor_circuits

    reports, _ = replay_all()
    audited = 0
    for r in reports:
        if r.witness is None:
            continue
        case = case_by_name(r.case_name)
        host = case.resolve_base().apply_ops(case.ops)
        target = get_named(r.verdict)
        w = r.witness
        got = minor_circuits(host, w.contract_set, sorted(w.survivors()))
        mapping = dict(w.mapping)
        expected = {
            frozenset(mapping[e] for e in c)
            for c in circuits_by_enumeration(target)
        }
        assert got == expected, r.case_name
        audited += 1
    assert audited == 28  # every case except g8 (see its data file note)


def test_report_dict_is_json_serializable():
    report = replay_case(case_by_name("g24"))
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["case"] == "g24"
    assert back["witness"]["map"]
    assert any(t["route"] == ROUTE_CONTRACT_LOOP for t in back["op_trace"])
