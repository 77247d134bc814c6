"""Acceptance gate: the release criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``-s`` to see them all).
Tolerances and counts are pinned here, not configurable.

Known red: the full-replay criterion demands 29/29 matched cases, but the
stored g8 block contains no M(K5)- or M(K33)-minor (see the note in
src/gf2minor/data/g8.mat: its last row repeats r6 and its first six rows are
g7's first ten columns), so replay honestly reports 28/29 and the
witness-audit criterion can only cover the 28 witness-bearing cases.  The
negative verdict comes from the exhaustive search and is pinned by
test_certify.py::test_replay_g8_reports_the_data_defect_honestly and
test_cli.py::test_verify_g8_fails_honestly; the unpruned oracle is not run
on g8, since it would try up to 10! bijections per candidate.  Both criteria
stay red until the correct block from the source paper is committed.
"""

from __future__ import annotations

from collections import Counter
from random import Random

from gf2minor.audit import MinorWitness, verify_witness
from gf2minor.catalog import catalog_names, get_named
from gf2minor.certify import builtin_cases, replay_all, replay_case
from gf2minor.errors import InputError
from gf2minor.gf2 import Gf2Matrix
from gf2minor.iso import find_isomorphism
from gf2minor.matroid import (
    ROUTE_CONTRACT_LOOP,
    MinorOp,
    complete_graph,
    contract,
    cycle_matroid,
    delete,
)
from gf2minor.minors import (
    find_minor_witness,
    is_graphic,
    covering_cocircuit_witness,
)

from gen import random_matroid, relabeled_copy
from oracles import (
    circuits_by_enumeration,
    has_minor_brute_force,
    isomorphic_all_bijections,
)

PER_CASE_BUDGET_S = 120.0
SUITE_BUDGET_S = 1200.0

EXPECTED_VERDICTS = {
    **{name: "M(K5)" for name in (
        "g1", "g3", "g7", "g8", "g10", "g21", "g22", "g24", "g25", "g26",
        "g27", "g28")},
    **{name: "M(K33)" for name in (
        "g2", "g4", "g5", "g6", "g9", "g11", "g12", "g13", "g14", "g15",
        "g16", "g18", "g20", "g23", "g29")},
    "r15": "M*(K33)",
    "r16": "M*(K33)",
}


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_full_replay_of_all_29_cases():
    reports, summary = replay_all()
    mism = [r.case_name for r in reports if not r.matched_expected]
    slow = [r.case_name for r in reports if r.elapsed_s > PER_CASE_BUDGET_S]
    ok = (
        summary.total == 29
        and summary.matched == 29
        and not slow
        and summary.elapsed_s <= SUITE_BUDGET_S
        and all(r.verdict == EXPECTED_VERDICTS[r.case_name]
                for r in reports if r.matched_expected)
    )
    _line(
        "full-replay",
        ok,
        f"{summary.matched}/{summary.total} matched in {summary.elapsed_s:.1f}s"
        + (f"; mismatched: {', '.join(mism)}" if mism else ""),
    )
    assert summary.total == 29
    assert not slow, f"cases over the {PER_CASE_BUDGET_S}s budget: {slow}"
    assert summary.elapsed_s <= SUITE_BUDGET_S
    for r in reports:
        assert r.error is None, f"{r.case_name} errored: {r.error}"
        assert r.verdict == EXPECTED_VERDICTS[r.case_name], (
            f"{r.case_name}: verdict {r.verdict}, "
            f"expected {EXPECTED_VERDICTS[r.case_name]}"
        )
    assert summary.matched == 29


def test_witness_audit_and_tamper_detection():
    reports, _ = replay_all()

    # Tampering a real witness must flip acceptance (False or InputError).
    sample = next(r for r in reports if r.case_name == "g7")
    host = builtin_case_host("g7")
    target = get_named(sample.verdict)
    w = sample.witness
    assert verify_witness(host, target, w)

    pairs = list(w.mapping)
    (t0, h0), (t1, h1) = pairs[0], pairs[1]
    tampered_map = MinorWitness(
        w.contract_set, w.delete_set, tuple([(t0, h1), (t1, h0)] + pairs[2:])
    )
    assert verify_witness(host, target, tampered_map) is False

    moved = sorted(w.delete_set)[0]
    tampered_sets = MinorWitness(
        w.contract_set | {moved}, w.delete_set - {moved}, w.mapping
    )
    assert verify_witness(host, target, tampered_sets) is False

    flips = 0
    try:
        verify_witness(
            host, target,
            MinorWitness(w.contract_set, w.delete_set - {moved}, w.mapping),
        )
    except InputError:
        flips += 1
    assert flips == 1, "incomplete witness must be rejected as malformed"

    # Every replayed case must emit an independently accepted witness.
    missing = [r.case_name for r in reports if r.witness is None]
    unverified = [
        r.case_name for r in reports
        if r.witness is not None and not r.witness_verified
    ]
    ok = not missing and not unverified
    _line(
        "witness-audit",
        ok,
        "tampering flips acceptance; "
        + (f"cases without witnesses: {', '.join(missing)}"
           if missing else "all 29 witnesses verified"),
    )
    assert not unverified, f"witnesses failing the audit: {unverified}"
    assert not missing, f"cases that emitted no witness: {missing}"


def builtin_case_host(name: str):
    case = next(c for c in builtin_cases() if c.name == name)
    return case.resolve_base().apply_ops(case.ops)


def test_derived_circuit_counts_against_oracle():
    checks = {
        "M(K5)": (37, {3: 10, 4: 15, 5: 12}),
        "M(K33)": (15, {4: 9, 6: 6}),
        "F7": (14, {3: 7, 4: 7}),
    }
    for name, (total, by_size) in checks.items():
        m = get_named(name)
        oracle = circuits_by_enumeration(m)
        assert len(oracle) == total
        assert Counter(len(c) for c in oracle) == by_size
        assert m.circuits() == oracle

    k5 = get_named("M(K5)")
    cocirc_oracle = circuits_by_enumeration(k5.dual())
    assert len(cocirc_oracle) == 15
    assert k5.dual().circuits() == cocirc_oracle
    _line("derived-counts", True,
          "K5 37 (10/15/12), K33 15 (9/6), F7 14 (7/7), K5 cocircuits 15")


def test_graphicness_sanity():
    graphic = [cycle_matroid(complete_graph(5)), get_named("M(K33)"),
               cycle_matroid(complete_graph(4))]
    non_graphic = [get_named(n) for n in ("F7", "F7*", "M*(K5)", "M*(K33)")]
    ok = all(is_graphic(m) for m in graphic) and not any(
        is_graphic(m) for m in non_graphic
    )
    _line("graphicness", ok,
          "K5/K33/K4 cycle matroids graphic; F7, F7*, M*(K5), M*(K33) not")
    assert ok


def test_property_suites():
    # Duality involution and rank + corank = |E|: catalog plus 200 randoms.
    for name in catalog_names():
        m = get_named(name)
        assert m.dual().dual() == m
        assert m.full_rank + m.dual().full_rank == m.size
    rng = Random(2024_08_10)
    for _ in range(200):
        m = random_matroid(rng, 12)
        assert m.dual().dual() == m
        assert m.full_rank + m.dual().full_rank == m.size

    # Pivot involution on random legal pivots.
    done = 0
    while done < 200:
        k, n = rng.randint(1, 8), rng.randint(1, 8)
        a = Gf2Matrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
        ones = [(i, j) for i in range(k) for j in range(n) if a.entry(i, j)]
        if not ones:
            continue
        i, j = rng.choice(ones)
        assert a.pivot(i, j).pivot(i, j) == a
        done += 1

    # Op-order independence on all 29 case op-sets.
    for case in builtin_cases():
        base = case.resolve_base()
        fwd = base.apply_ops(case.ops)
        rev = base.apply_ops(tuple(reversed(case.ops)))
        shuffled = list(case.ops)
        rng.shuffle(shuffled)
        mix = base.apply_ops(shuffled)
        assert fwd.ground_set == rev.ground_set == mix.ground_set
        assert fwd.circuits() == rev.circuits() == mix.circuits()

    # Minor-search verdicts equal the unpruned brute-force oracle.
    positives = 0
    for _ in range(200):
        host = random_matroid(rng, 8)
        target = random_matroid(rng, 6)
        w = find_minor_witness(host, target)
        assert (w is not None) == has_minor_brute_force(host, target)
        if w is not None:
            assert verify_witness(host, target, w)
            positives += 1
    assert positives >= 20

    # Isomorphism agreement with the all-bijections oracle.
    iso_positives = 0
    for _ in range(500):
        m1 = random_matroid(rng, 7)
        m2 = relabeled_copy(rng, m1) if rng.random() < 0.5 else random_matroid(rng, 7)
        expected = isomorphic_all_bijections(
            m1.ground_set, circuits_by_enumeration(m1),
            m2.ground_set, circuits_by_enumeration(m2),
        )
        assert (find_isomorphism(m1, m2) is not None) == expected
        iso_positives += expected
    assert iso_positives >= 50

    _line("property-suites", True,
          f"duality/pivot/op-order/minor-oracle({positives} hits)/"
          f"iso-oracle({iso_positives} hits) all agree")


def test_covering_cocircuit_property():
    rng = Random(0x1EAF)
    done = 0
    while done < 100:
        m = random_matroid(rng, 10, min_elements=2)
        ops: list[MinorOp] = []
        mm = m
        for _ in range(rng.randint(1, 3)):
            if mm.size <= 1:
                break
            e = rng.choice(sorted(mm.ground_set))
            op = contract(e) if rng.random() < 0.5 else delete(e)
            ops.append(op)
            mm = mm.apply_ops([op])
        if not ops:
            continue
        n = m.apply_ops(ops)
        cocircuits = sorted(n.dual().circuits(), key=lambda s: (len(s), sorted(s)))
        if not cocircuits:
            continue
        c_n = rng.choice(cocircuits)
        c_m = covering_cocircuit_witness(m, ops, c_n)
        assert c_m is not None, (
            f"release blocker: no covering cocircuit for {sorted(c_n)}"
        )
        assert c_n <= c_m and c_m & n.ground_set == c_n
        done += 1
    _line("covering-cocircuit", True, "100/100 random instances covered")


def test_g24_loop_convention_regression():
    case = next(c for c in builtin_cases() if c.name == "g24")
    report = replay_case(case)
    loop_routed = any(
        t.op.element == "s9" and t.route == ROUTE_CONTRACT_LOOP
        for t in report.op_trace
    )
    ok = loop_routed and report.verdict == "M(K5)" and report.witness_verified
    _line("g24-loop-convention", ok,
          "s9 removed via loop-contraction route; M(K5) minor verified")
    assert loop_routed
    assert report.verdict == "M(K5)" and report.witness_verified
