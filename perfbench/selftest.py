"""Self-test of the benchmark: contract, every workload tiny, every gate.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` and ``manifest.json`` agree, runs
every workload at its tiny size through ``run.py`` with tracing off and
on, proves each correctness gate fails on a perturbed output and on a
raised error, checks that span self times add up to the root span, and
that the benchmark refuses to run without the program's source.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src")]

import workloads  # noqa: E402
from tracing import SpanRecorder  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def contract() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    check(list(bench) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"],
          "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in bench["workloads"]]
    check(names == list(manifest["workloads"]) == list(workloads.WORKLOADS),
          "workloads agree across BENCHMARK.json, manifest and code")
    check(all(w["why"] == manifest["workloads"][w["name"]]["why"]
              for w in bench["workloads"]),
          "each workload's reason matches the manifest")
    check([m["name"] for m in bench["per_layer"]]
          == list(manifest["per_layer"]),
          "every per-layer metric maps to the end-to-end metric it moves")
    check([m["name"] for m in bench["end_to_end"]]
          == list(manifest["end_to_end"]),
          "every end-to-end metric is described in the manifest")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    check(setup["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s has the largest bound")
    return bench


def end_to_end(bench: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                 "--size", "tiny"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180)
            check(proc.returncode == 0, f"{name} trace {trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(list(result) == ["correct", "attempted", "failed",
                                   "metrics"]
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace {trace} is correct with no failed operation")
            check(list(result["metrics"])
                  == [m["name"] for m in bench[section]],
                  f"{name} trace {trace} reports every {section} metric")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{name} end-to-end metrics are non-zero")
            else:
                check(result["metrics"]["counts.mismatches"]["value"] == 0,
                      f"{name} exact counts repeat between processes")


def gates() -> None:
    pins = json.loads((HERE / "manifest.json").read_text())["pins"]
    for name in workloads.WORKLOADS:
        bench = workloads.get(name, "tiny", pins)
        state = bench.setup(5)
        outcome = workloads.Outcome(output=bench.run(state))
        attempted, failed = bench.check(state, outcome)
        check(attempted >= 1 and failed == 0, f"{name} gate passes as run")
        bench.perturb(outcome.output)
        attempted, failed = bench.check(state, outcome)
        check(1 <= failed <= attempted,
              f"{name} gate counts a perturbed output as failed "
              f"({failed}/{attempted})")
        raised = workloads.Outcome(error=RuntimeError("injected"))
        attempted, failed = bench.check(state, raised)
        check(failed == attempted >= 1,
              f"{name} gate counts a raised error as every operation failed")


def spans() -> None:
    recorder = SpanRecorder()

    def leaf(x: int) -> int:
        return sum(range(x))

    inner = recorder.wrap(leaf, "leaf")
    outer = recorder.wrap(lambda: [inner(20000) for _ in range(5)], "outer")
    recorder.wrap(lambda: (outer(), inner(1000)), "root")()
    reduced = recorder.reduce()
    total = reduced["root"]["total_s"]
    self_sum = sum(stats["self_s"] for stats in reduced.values())
    check(abs(total - self_sum) < 1e-9,
          "span self times add up to the root span")
    check(reduced["leaf"]["calls"] == 6 and reduced["outer"]["calls"] == 1,
          "span call counts are exact")


def refuses_without_source() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "advect-multichunk", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's source the benchmark exits non-zero "
          "and prints no result")


def main() -> int:
    bench = contract()
    spans()
    gates()
    refuses_without_source()
    end_to_end(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
