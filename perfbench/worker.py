"""One measured process: set up one workload, run it once, gate it.

Started by ``run.py`` as a fresh single-threaded interpreter, so every
run pays imports and lazy set-up and no in-process memo is warm.  Prints
one JSON object as its last line of standard output.

Modes:

* ``setup``  -- set up only, report ``setup_s`` and exit;
* ``timed``  -- set up, run the timed call untraced, gate the output;
* ``traced`` -- as ``timed`` with every layer entry point wrapped in
  spans (``tracing.py``); reports per-layer metrics as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import SpanRecorder, install, layer_metrics

HERE = Path(__file__).resolve().parent


def measure(workload: str, seed: int, size: str, mode: str,
            started: float) -> dict:
    """Set up, (optionally trace,) run and gate one workload."""
    pins = json.loads((HERE / "manifest.json").read_text())["pins"]
    bench = workloads.get(workload, size, pins)
    recorder = None
    if mode == "traced":
        recorder = SpanRecorder()
        install(recorder)
    state = bench.setup(seed)
    setup_s = time.monotonic() - started
    if mode == "setup":
        return {"setup_s": setup_s}

    outcome = workloads.Outcome()
    start = time.perf_counter()
    try:
        run = bench.run if recorder is None else recorder.wrap(
            bench.run, "benchmark")
        outcome.output = run(state)
    except Exception as error:  # noqa: BLE001 - reported as failed operations
        outcome.error = error
        traceback.print_exc(file=sys.stderr)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed = bench.check(state, outcome)
    report = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "attempted": attempted,
              "failed": failed}
    if outcome.error is None:
        report["work"] = bench.work(outcome.output)
        report["counts"] = bench.counts(outcome.output)
        if hasattr(bench, "latency_ms"):
            report["latency"] = bench.latency_ms(outcome.output)
    if recorder is not None:
        layers = dict.fromkeys(workloads.RESULT_LAYER_METRICS, 0)
        layers.update(layer_metrics(recorder, workloads.SUITE_SCENARIOS))
        if outcome.error is None:
            layers.update(bench.layer_metrics(outcome.output))
        report["layers"] = layers
        report["trace_counts"] = {
            name: layers[name] for name in (
                "dataflow.cycles", "dataflow.batched_cycles",
                "dataflow.batched_windows", "dataflow.fallbacks",
                "dataflow.engine_runs", "dataflow.window_calls",
                "dataflow.fingerprint_calls", "shiftbuffer.feed_calls",
                "shiftbuffer.general_feed_calls", "shiftbuffer.port_cycles",
                "kernel.chunks", "analyze.interpret_calls",
                "analyze.interpret_distinct", "serve.quote_calls",
                "serve.exact_jobs")}
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was spawned")
    args = parser.parse_args()
    report = measure(args.workload, args.seed, args.size, args.mode,
                     args.started)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
