"""Self-tests of the benchmark.  Run: PYTHONPATH=src python -m pytest bench -q"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from gf2minor.minors import HOST_LIMIT, TARGET_LIMIT
from tracer import BINDINGS, Tracer
from worker import Tally, run_query

ROOT = Path(__file__).resolve().parent.parent

# Cheap queries per workload: the digest test needs agreement, not coverage
# of the slow graphic entries.
CHEAP_GRAPHIC = ("M(K5)", "M(K33)", "M*(K5)", "M*(K33)", "F7", "F7*", "r15")


def _queries(wl, seed: int):
    order = wl.queries(seed)
    if isinstance(wl, workloads.Graphic):
        return [q for q in order if q.name in CHEAP_GRAPHIC]
    return order[:40]


def _digest(wl, queries) -> dict:
    tally = Tally(wl)
    for q in queries:
        _, result, completed = run_query(wl, q)
        tally.add(q, result, completed)
    return tally.summary()


def _bound_attributes() -> list:
    out = []
    for module, cls, attr, _, _ in BINDINGS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out.append(owner.__dict__[attr])
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_the_same_verdicts(name):
    wl = workloads.WORKLOADS[name]()
    wl.resolve()
    queries = _queries(wl, seed=7)
    untraced = _digest(wl, queries)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _digest(wl, queries)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert untraced["failed"] == 0
    assert len(tracer.start) > len(queries)


def test_tracer_restores_every_attribute():
    before = _bound_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bound_attributes()
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _bound_attributes()))


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            with tracer.span("outer"):  # recursion: inclusive time counts once
                time.sleep(0.01)
    dur = [tracer.end[i] - tracer.start[i] for i in range(3)]
    assert list(tracer.parent) == [-1, 0, 1]
    per_name, pairs, distinct = tracer.totals()
    calls, incl, own = per_name["outer"]
    assert calls == 2
    assert incl == dur[0]
    assert own == pytest.approx(dur[0] - dur[1] + dur[2])
    assert per_name["inner"] == (1, dur[1], pytest.approx(dur[1] - dur[2]))
    assert pairs["inner", "outer"] == 1 and distinct["outer", "inner"] == 1


def test_minor_mix_bank_is_deterministic_per_seed():
    def shape(bank):
        return [(q.host, q.target, q.planted) for q in bank]

    assert shape(workloads.minor_mix_bank(5)) == shape(workloads.minor_mix_bank(5))
    assert shape(workloads.minor_mix_bank(5)) != shape(workloads.minor_mix_bank(6))
    mix = workloads.MinorMix()
    assert mix.queries(3) == workloads.MinorMix().queries(3)
    assert mix.queries(3) != mix.queries(4)


@pytest.mark.parametrize("seed", [workloads.BANK_SEED, 2, 3])
def test_minor_mix_bank_stays_within_search_limits(seed):
    bank = workloads.minor_mix_bank(seed)
    assert len(bank) == workloads.BANK_SIZE
    assert sum(q.planted for q in bank) == workloads.BANK_SIZE // 2
    for q in bank:
        assert workloads.HOST_SIZES[0] <= q.host.size <= workloads.HOST_SIZES[1]
        sizes = workloads.PLANTED_SIZES if q.planted else workloads.INDEPENDENT_SIZES
        assert sizes[0] <= q.target.size <= sizes[1]
        assert q.host.size <= HOST_LIMIT and q.target.size <= TARGET_LIMIT


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = ["cli.import_s", *Tracer().layer_metrics(),
                   "trace.overhead", "certify.fanout_speedup_jobs2"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer_names)
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
