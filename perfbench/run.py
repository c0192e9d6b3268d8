"""The repository benchmark: one workload per invocation, gated.

Usage (from the repository root)::

    python3 perfbench/run.py --workload advect-multichunk --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics in ``BENCHMARK.json``:
several set-up-only processes, then untraced timed processes until
``--seconds`` of timed work has run (at least one), medians reported.
``--trace 1`` runs one untraced and one traced process and reports the
per-layer metrics, with the tracing overhead as the difference of the
two wall times.  Every process is a fresh single-threaded interpreter
(``worker.py``) and every output is checked against the program's
reference; the last line of standard output is one JSON object.

Exact counts (cycles, batched/scalar split, interpret calls, points,
jobs served) are compared between the processes of a run and with
earlier runs of the same workload, size and seed in this checkout
(``.bench_out/counts``); a difference is flagged on standard error and
in ``counts.mismatches``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run must end within this many seconds, set-up probes included.
RUN_BUDGET_S = 170.0
#: Set-up-only processes per untraced run, besides each timed one.
SETUP_PROBES = 3
#: Work-rate name of each workload in the detail line.
WORK_UNITS = {"advect-multichunk": "sim_cycles_per_s",
              "stencil-suite": "sim_cycles_per_s",
              "tune-grid": "tune_points_per_s",
              "serve-load": "serve_jobs_per_s"}


class BenchError(RuntimeError):
    """The benchmark itself could not measure (not a program failure)."""


def spawn(workload: str, seed: int, size: str, mode: str,
          deadline: float) -> dict:
    """Run one fresh worker process and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--size", size, "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a worker could start")
    started = time.monotonic()
    try:
        proc = subprocess.run(command + ["--started", repr(started)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{mode} worker exceeded the run budget") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


class CountLedger:
    """Exact counts per (workload, size, seed), kept across runs."""

    def __init__(self, workload: str, size: str, seed: int) -> None:
        self.path = (ROOT / ".bench_out" / "counts"
                     / f"{workload}-{size}-seed{seed}.json")
        self.mismatches: list[str] = []

    def compare(self, counts: dict, label: str) -> None:
        known = (json.loads(self.path.read_text())
                 if self.path.exists() else {})
        for key, value in counts.items():
            if key in known and known[key] != value:
                self.mismatches.append(
                    f"{key}: {label} gave {value!r}, earlier {known[key]!r}")
            else:
                known[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(known, indent=1, sort_keys=True))


def metric_names(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def untraced(args: argparse.Namespace, ledger: CountLedger,
             deadline: float) -> tuple[dict, dict, int, int]:
    probes = [spawn(args.workload, args.seed, args.size, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    runs: list[dict] = []
    while not runs or (sum(r["wall_s"] for r in runs) < args.seconds
                       and time.monotonic() + 1.5 * max(
                           r["wall_s"] + r["setup_s"] for r in runs)
                       < deadline):
        runs.append(spawn(args.workload, args.seed, args.size, "timed",
                          deadline))
        if "counts" in runs[-1]:
            ledger.compare(runs[-1]["counts"], f"timed run {len(runs)}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    rates = [r["work"] / r["wall_s"] for r in runs if "work" in r]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in probes + runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "work_per_s": statistics.median(rates) if rates else 0.0,
    }
    detail = {WORK_UNITS[args.workload]: metrics["work_per_s"],
              "processes": len(runs), "setup_samples": len(probes + runs)}
    latency = [r["latency"] for r in runs if "latency" in r]
    if latency:
        detail["serve_p90_ms_modelled"] = latency[0]["tail_ms"]
        detail["serve_p90_quantile"] = latency[0]["tail_quantile"]
        detail["serve_p50_ms_modelled"] = latency[0]["p50_ms"]
        detail["serve_latency_samples"] = latency[0]["samples"]
    return metrics, detail, attempted, failed


def traced(args: argparse.Namespace, ledger: CountLedger,
           deadline: float) -> tuple[dict, dict, int, int]:
    plain = spawn(args.workload, args.seed, args.size, "timed", deadline)
    if "counts" in plain:
        ledger.compare(plain["counts"], "untraced run")
    spans = spawn(args.workload, args.seed, args.size, "traced", deadline)
    if "counts" in spans:
        ledger.compare(spans["counts"], "traced run")
        ledger.compare(spans["trace_counts"], "traced run")
    metrics = dict(spans["layers"])
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.traced_wall_s"] = spans["wall_s"]
    metrics["trace.overhead_s"] = spans["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain[
        "wall_s"]
    return (metrics, {"processes": 2},
            plain["attempted"] + spans["attempted"],
            plain["failed"] + spans["failed"])


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: manifest default seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per untraced run (at least one "
                             "process runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's size")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload not in manifest["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(manifest['workloads'])}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = manifest["seeds"]["default"]

    ledger = CountLedger(args.workload, args.size, args.seed)
    section = "per_layer" if args.trace else "end_to_end"
    try:
        if args.trace:
            values, detail, attempted, failed = traced(args, ledger,
                                                       deadline)
        else:
            values, detail, attempted, failed = untraced(args, ledger,
                                                         deadline)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    values["counts.mismatches"] = len(ledger.mismatches)
    for line in ledger.mismatches:
        print(f"perfbench: COUNT MISMATCH {line}", file=sys.stderr)

    units = metric_names(section)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    detail.update(workload=args.workload, seed=args.seed, size=args.size,
                  attempted=attempted, failed=failed,
                  failed_share=failed / attempted if attempted else 1.0,
                  count_mismatches=ledger.mismatches)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
