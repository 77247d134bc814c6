"""gf2minor benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload replay --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; gf2minor is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics from a traced run.  Human-readable
lines come first; the last line of standard output is the JSON result.
Details of every run (environment, sample counts, digests) are written to
``.bench_out/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, calibration_s

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BUDGET_S = 170.0  # every run must end within 180 s

# The measure worker runs in rounds of about seconds/ROUNDS (at least one
# pass each) until the run has measured its seconds, and at least MIN_ROUNDS
# rounds; set-up and CLI samples are taken between rounds, so every figure
# samples the whole run.
ROUNDS = 3
MIN_ROUNDS = 3
PROBES_PER_ROUND = 2
MIN_PROBES = 8
IMPORT_REPEATS = 3
CLI_COLD = ["-c", "from gf2minor.cli import main; main()", "verify", "--json"]
CLI_IMPORT = ["-c", "import time; t = time.perf_counter(); import gf2minor.cli; "
              "print(time.perf_counter() - t)"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_ms.p50": "ms",
    "query_ms.p90": "ms",
    "pass_share": "share",
    "peak_rss_mb": "MB",
    "cli_cold_s": "s",
}


class BenchError(Exception):
    """A run that cannot give a result; reported on stderr, no result line."""


class Runner:
    def __init__(self) -> None:
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def python(self, args: list[str]) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        try:
            return subprocess.run(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(args[:3])}") from exc

    def worker(self, mode: str, *args: str) -> dict:
        proc = self.python([str(BENCH / "worker.py"), mode, *args])
        if proc.returncode != 0:
            raise BenchError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr}")
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def timed(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = self.python(args)
        return time.perf_counter() - t0, proc


def cli_output_ok(proc: subprocess.CompletedProcess, known_red: dict) -> bool:
    """`verify --json`: one line per built-in case, failing only as known."""
    try:
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        unexplained = [
            r["case"] for r in rows
            if not (r["matched_expected"]
                    and (r["verdict"] is None or r["witness_verified"]))
            and not (r["case"] in known_red and r["verdict"] == known_red[r["case"]]
                     and r["witness"] is None)
        ]
        any_fail = any(not r["matched_expected"] for r in rows)
    except (ValueError, KeyError, TypeError):
        return False
    return len(rows) == 29 and not unexplained and proc.returncode == int(any_fail)


def latency_summary(latencies: list[float]) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "samples": len(latencies),
        "queries_per_s": len(latencies) / sum(latencies),
        "p50_ms": 1e3 * statistics.median(latencies),
        "p90_ms": 1e3 * p90,
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int, known_red) -> tuple:
    setups: list[float] = []
    clis: list[float] = []
    cli_ok = True

    def probe(count: int) -> None:
        """Set-up and CLI samples, each scaled by the calibrations around it."""
        nonlocal cli_ok
        before = calibration_s()
        for _ in range(count):
            setup_s = runner.worker("setup", "--workload", workload)["setup_s"]
            between = calibration_s()
            elapsed, proc = runner.timed(CLI_COLD)
            after = calibration_s()
            setups.append(setup_s * 2 * REFERENCE_S / (before + between))
            clis.append(elapsed * 2 * REFERENCE_S / (between + after))
            cli_ok = cli_ok and cli_output_ok(proc, known_red)
            before = after

    runner.worker("setup", "--workload", workload)  # warm-up: compiles bytecode
    rounds: list[dict] = []
    measured = 0.0
    while measured < seconds or len(rounds) < MIN_ROUNDS:
        probe(PROBES_PER_ROUND)
        rounds.append(runner.worker(
            "measure", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds / ROUNDS)))
        measured += sum(rounds[-1]["raw_latencies"])
    probe(MIN_PROBES - len(setups))

    calibrations = [c for r in rounds for c in r["calibration_s"]]
    raw = [x for r in rounds for x in r["raw_latencies"]]
    lat = latency_summary([x for r in rounds for x in r["latencies"]])
    attempted = sum(r["attempted"] for r in rounds)
    not_ok = sum(r["not_ok"] for r in rounds)
    # Every round must give the same answers.
    failed = sum(r["failed"] for r in rounds) + sum(
        r["answers"] != rounds[0]["answers"] for r in rounds)
    fail_share = not_ok / attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": lat["queries_per_s"],
        "query_ms.p50": lat["p50_ms"],
        "query_ms.p90": lat["p90_ms"],
        "pass_share": 1.0 - fail_share,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "cli_cold_s": statistics.median(clis),
    }
    notes = [
        f"rounds: {len(rounds)}, passes: {sum(r['passes'] for r in rounds)}, "
        f"queries: {attempted}",
        f"timings scaled to a {1e3 * REFERENCE_S:g} ms calibration loop; in the "
        f"measuring processes it took {1e3 * statistics.median(calibrations):.4g} ms "
        f"(median of {len(calibrations)}, range {1e3 * min(calibrations):.4g}-"
        f"{1e3 * max(calibrations):.4g} ms); unscaled queries_per_s "
        f"{len(raw) / sum(raw):.6g}",
        f"query_ms percentiles from {lat['samples']} samples, "
        f"{lat['beyond_p90']} beyond p90",
        f"fail_share: {fail_share:.6f} share ({not_ok}/{attempted} queries "
        f"off their certificate or pinned verdict)",
        f"setup_s: median of {len(setups)}; cli_cold_s: median of {len(clis)}; "
        f"each scaled by the calibrations just before and after it",
        f"verdict digest: {rounds[0]['digest']}",
    ]
    correct = failed == 0 and cli_ok
    details = {"rounds": rounds, "setup_samples": setups,
               "cli_cold_samples": clis, "cli_ok": cli_ok}
    return metrics, END_TO_END_UNITS, correct, attempted, failed, notes, details


def per_layer(runner: Runner, workload: str, seed: int, seconds: int, spans: Path) -> tuple:
    imports = [float(runner.python(CLI_IMPORT).stdout) for _ in range(IMPORT_REPEATS)]
    t = runner.worker("trace", "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--spans", str(spans))
    metrics = {"cli.import_s": statistics.median(imports), **t["metrics"]}
    units = {name: layer_unit(name) for name in metrics}
    correct = (t["failed"] == 0 and t["probe_ok"]
               and t["digest_traced"] == t["digest_untraced"])
    notes = [
        f"traced queries: {t['queries']}, spans: {t['spans']} written to {spans}",
        f"verdict digest traced:   {t['digest_traced']}",
        f"verdict digest untraced: {t['digest_untraced']}",
    ]
    return metrics, units, correct, t["attempted"], t["failed"], notes, {"trace": t}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".hits", ".passed")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main() -> int:
    if not (SRC / "gf2minor" / "__init__.py").is_file():
        print(f"error: no gf2minor sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner()
    try:
        if args.trace:
            result = per_layer(runner, args.workload, args.seed, args.seconds,
                               OUT / f"spans-{args.workload}.txt")
        else:
            result = end_to_end(runner, args.workload, args.seed, args.seconds,
                                workloads.KNOWN_RED)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, units, correct, attempted, failed, notes, details = result

    env = environment(args.seed)
    print(f"gf2minor benchmark: workload {args.workload}, trace {args.trace}, "
          f"{args.seconds} s run")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"correct: {correct}, attempted: {attempted}, failed: {failed}")
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"environment": env, "workload": args.workload, "seconds": args.seconds,
         "metrics": metrics, "correct": correct, **details}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
