"""One measuring process of the benchmark; run.py starts it, fresh each time.

    worker.py setup   --workload W
    worker.py measure --workload W --seed S --seconds T
    worker.py trace   --workload W --seed S --seconds T --spans FILE

Each mode prints one JSON object on its last line of output.  ``setup``
times a fresh interpreter importing gf2minor and resolving the catalog
entries the workload uses.  ``measure`` runs the workload untraced in a
closed loop (one query at a time) for whole passes over its queries.
``trace`` runs the same queries with spans around every layer, then again
untraced for the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

from calibration import REFERENCE_S, calibration_s
from tracer import Tracer

# CLI commands run in-process, traced, on every workload, so that every
# layer shows in every traced run.  F7 is not graphic: exit code 1; verify
# exits 1 while a known red case fails.
PROBE_COMMANDS = (["verify", "--json"], ["graphic", "--matroid", "F7"])
FANOUT_REPEATS = 3
CALIBRATE_EVERY_S = 0.2


def run_query(wl, query):
    """Time one query; a query that raises counts as failed, never aborts."""
    t0 = perf_counter()
    try:
        result = wl.run(query)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - t0, None, False
    return perf_counter() - t0, result, True


class Tally:
    """Outcomes of a run: fail_share, unexplained failures, the answers."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.not_ok = 0
        self.failed = 0
        self.answers: dict[str, str] = {}

    def add(self, query, result, completed: bool) -> None:
        outcome = self.wl.check(query, result) if completed else None
        key, answer = (outcome.key, outcome.answer) if outcome else (query.name, "raised")
        ok = outcome is not None and outcome.ok
        self.attempted += 1
        self.not_ok += not ok
        # Answers must also repeat exactly from pass to pass.
        first = self.answers.setdefault(key, answer)
        if (not ok and not self.wl.explained(outcome)) or first != answer:
            self.failed += 1

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "not_ok": self.not_ok,
            "failed": self.failed,
            "answers": self.answers,
            "digest": digest(self.answers),
        }


def digest(answers: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(sorted(answers.items())).encode()).hexdigest()


def measure(wl, seed: int, seconds: float) -> dict:
    """Whole passes in a closed loop; another pass only if it should fit.

    The calibration loop runs before the first query, after every
    CALIBRATE_EVERY_S of query time and after the last query.  Each latency
    is scaled by the mean of the two calibrations around it.  No warm-up:
    resolve() has filled the catalog cache, and there is no other lazy
    set-up.
    """
    order = wl.queries(seed)
    tally = Tally(wl)
    raw: list[float] = []
    marks = [(0, calibration_s())]  # (queries before it, calibration seconds)
    since = 0.0
    passes = 0
    start = perf_counter()
    while True:
        for query in order:
            dt, result, completed = run_query(wl, query)
            raw.append(dt)
            tally.add(query, result, completed)
            since += dt
            if since >= CALIBRATE_EVERY_S:
                marks.append((len(raw), calibration_s()))
                since = 0.0
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    if marks[-1][0] < len(raw):
        marks.append((len(raw), calibration_s()))
    scaled: list[float] = []
    for (a, before), (b, after) in zip(marks, marks[1:]):
        factor = 2 * REFERENCE_S / (before + after)
        scaled.extend(x * factor for x in raw[a:b])
    return {"passes": passes, "latencies": scaled, "raw_latencies": raw,
            "calibration_s": [c for _, c in marks], **tally.summary()}


def trace(wl, seed: int, seconds: float, spans_path: str) -> dict:
    # Local: a module-level import would load gf2minor before main times it.
    from gf2minor import certify, cli
    from workloads import KNOWN_RED

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            wl.resolve()
        # Traced queries for half the run, then the same queries untraced.
        order = wl.queries(seed)
        done, traced_s = [], 0.0
        tally = Tally(wl)
        while traced_s < seconds / 2:
            query = order[len(done) % len(order)]
            with tracer.span("bench.query"):
                dt, result, completed = run_query(wl, query)
            traced_s += dt
            done.append(query)
            with tracer.paused():
                tally.add(query, result, completed)
        # The CLI probe reaches every layer, whatever the workload.
        codes = []
        with tracer.span("bench.cli_probe"), contextlib.redirect_stdout(io.StringIO()):
            for argv in PROBE_COMMANDS:
                codes.append(cli.execute_command(argv))
    finally:
        tracer.uninstall()
    untraced = Tally(wl)
    untraced_s = 0.0
    for query in done:
        dt, result, completed = run_query(wl, query)
        untraced_s += dt
        untraced.add(query, result, completed)

    def wall(jobs: int) -> float:
        t0 = perf_counter()
        certify.replay_all(jobs=jobs)
        return perf_counter() - t0

    serial = statistics.median(wall(1) for _ in range(FANOUT_REPEATS))
    fanned = statistics.median(wall(2) for _ in range(FANOUT_REPEATS))
    tracer.write(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = untraced_s / traced_s
    metrics["certify.fanout_speedup_jobs2"] = serial / fanned
    return {
        "metrics": metrics,
        "queries": len(done),
        "spans": len(tracer.start),
        "probe_ok": codes == [int(bool(KNOWN_RED)), 1],
        "digest_traced": tally.summary()["digest"],
        "digest_untraced": untraced.summary()["digest"],
        "attempted": tally.attempted,
        "failed": tally.failed + untraced.failed,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    t0 = perf_counter()
    import workloads  # imports gf2minor: part of the timed set-up

    wl = workloads.WORKLOADS[args.workload]()
    if args.mode == "trace":
        out = trace(wl, args.seed, args.seconds, args.spans)
    else:
        wl.resolve()
        out = {"setup_s": perf_counter() - t0}
        if args.mode == "measure":
            out.update(measure(wl, args.seed, args.seconds))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
