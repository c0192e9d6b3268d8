"""Perf-regression harness for the engine's batched exact execution.

Runs the full Fig. 2 kernel simulation, the same kernel over four
Y-chunks, and a diffusion pass on the generic stencil machine, two ways
each — the forced-scalar exact loop (the baseline) and batched exact
execution (the default) — verifies both are bit-for-bit identical
(cycle counts, per-stage fires and stalls, output arrays), and records
wall times and the speedups to ``benchmarks/BENCH_dataflow.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py              # 64^3
    PYTHONPATH=src python benchmarks/bench_engine.py --nx 32 --ny 32 \
        --nz 32 --min-batched-speedup 5

Exit status is non-zero if any run disagrees with the scalar baseline
or any leg's batched exact speedup falls below the floor
(``--min-batched-speedup``, default 10x on the 64^3 grid).  ``--smoke``
shrinks the grid to 32^3 and relaxes the gates for CI: the floor is 5x
there, which 32^3 clears with headroom while 16^3 would not (too little
steady state to amortise the one plane per chunk that is ticked scalar
to detect the period).

The multi-chunk leg runs an ``nx x 4ny x nz`` grid at chunk width
``ny`` (64x256x64 with chunk 64 by default, 32x128x32 with chunk 32
under ``--smoke``): every chunk restarts the pipeline, so it measures
the prime and ramp-down each chunk pays.  The chunks of one call share
an orbit memo, so only the first chunk ticks a plane to detect its
steady period: the leg records every chunk's scalar cycles and fails
(``--smoke`` included) when a later chunk ticks more than the first
chunk's scalar cycles minus its detected period, read from the
``batched x`` spans of an untimed traced run.  The diffusion leg streams one
field through ``run_stencil_kernel`` with the scenario suite's
diffusion ``WindowOp``.

A resilient run arms the checkpoint/restart machinery with an empty
fault plan and gates its fault-free overhead against the plain batched
run (``--max-resilience-overhead``, default 3%): recovery must be free
when nothing fails.

An observed run threads a *disabled* tracer and metric registry through
the whole stack and gates their compiled-in-but-off cost the same way
(``--max-observe-overhead``, default 3%): observability must be free
when nobody is watching.  Both overhead gates run in batched mode — the
production configuration — so the budget covers the calendar and
preview bookkeeping too.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

import numpy as np

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.faults import FaultPlan, RetryPolicy
from repro.kernel.config import KernelConfig
from repro.kernel.generic import run_stencil_kernel
from repro.kernel.simulate import simulate_kernel
from repro.observe import MetricRegistry, Tracer
from repro.perf.bench import BenchRecord, BenchSuite, render_table, speedup
from repro.scenarios.kernels import DiffusionKernel

DEFAULT_OUTPUT = "benchmarks/BENCH_dataflow.json"


def run_once(config, fields, **kwargs):
    start = time.perf_counter()
    result = simulate_kernel(config, fields, **kwargs)
    return result, time.perf_counter() - start


def kernel_mismatches(leg, scalar, batched):
    """Where a batched kernel run differs from its scalar reference."""
    errors = []
    agg_scalar = scalar.aggregate_stats()
    agg_batched = batched.aggregate_stats()
    if batched.total_cycles != scalar.total_cycles:
        errors.append(f"{leg}: batched exact cycle count differs: "
                      f"{scalar.total_cycles} vs {batched.total_cycles}")
    if agg_batched.fires != agg_scalar.fires:
        errors.append(f"{leg}: batched exact per-stage fire counts differ")
    if agg_batched.stalls != agg_scalar.stalls:
        errors.append(f"{leg}: batched exact per-stage stall counts differ")
    for name in ("su", "sv", "sw"):
        if not np.array_equal(getattr(scalar.sources, name),
                              getattr(batched.sources, name)):
            errors.append(f"{leg}: {name} not bit-identical under batched "
                          f"exact")
    return errors


def detected_period(config, fields):
    """The longest period chunk 0 of an untimed traced run batched."""
    tracer = Tracer()
    result = simulate_kernel(config, fields, tracer=tracer)
    first = result.chunk_stats[0].cycles
    return max((span.args["period"] for span in tracer.spans_on("engine")
                if span.name.startswith("batched x") and span.end <= first),
               default=0)


def run_diffusion(grid, block, **kwargs):
    out = np.zeros(grid.interior_shape)
    start = time.perf_counter()
    stats = run_stencil_kernel(block, DiffusionKernel().window_op(grid),
                               out, **kwargs)
    return out, stats, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nx", type=int, default=64)
    parser.add_argument("--ny", type=int, default=64)
    parser.add_argument("--nz", type=int, default=64)
    parser.add_argument("--chunk-width", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-batched-speedup", type=float, default=10.0,
                        help="fail below this batched-exact/scalar "
                             "speedup (default: %(default)s)")
    parser.add_argument("--max-resilience-overhead", type=float,
                        default=0.03,
                        help="fail when the fault-free resilient run is "
                             "more than this fraction slower than the "
                             "batched run (default: %(default)s)")
    parser.add_argument("--max-observe-overhead", type=float,
                        default=0.03,
                        help="fail when the run with a disabled tracer + "
                             "metric registry attached is more than this "
                             "fraction slower than the batched run "
                             "(default: %(default)s)")
    parser.add_argument("--overhead-repeats", type=int, default=3,
                        help="interleaved batched/resilient/observed "
                             "timing tuples for the overhead gates "
                             "(default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="32^3 grid + relaxed gates (CI smoke run)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="record file (default: %(default)s)")
    args = parser.parse_args(argv)

    if args.overhead_repeats < 1:
        parser.error("--overhead-repeats must be >= 1")
    if args.smoke:
        args.nx, args.ny, args.nz = 32, 32, 32
        args.min_batched_speedup = min(args.min_batched_speedup, 5.0)
        # Sub-second batched runs amplify timer noise; the 3% gates only
        # mean something on paper-scale runs.
        args.max_resilience_overhead = max(
            args.max_resilience_overhead, 0.5)
        args.max_observe_overhead = max(args.max_observe_overhead, 0.5)

    grid = Grid(nx=args.nx, ny=args.ny, nz=args.nz)
    fields = random_wind(grid, seed=args.seed, magnitude=2.0)
    config = (KernelConfig(grid=grid, chunk_width=args.chunk_width)
              if args.chunk_width else KernelConfig(grid=grid))
    label = f"{args.nx}x{args.ny}x{args.nz}"

    scalar, t_scalar = run_once(config, fields, batched=False)
    batched, t_batched = run_once(config, fields, batched=True)
    multi_grid = Grid(nx=args.nx, ny=4 * args.ny, nz=args.nz)
    multi_fields = random_wind(multi_grid, seed=args.seed, magnitude=2.0)
    multi_config = KernelConfig(grid=multi_grid, chunk_width=args.ny)
    multi_label = (f"{args.nx}x{4 * args.ny}x{args.nz}"
                   f"-chunk{multi_config.chunk_width}")
    multi_scalar, t_multi_scalar = run_once(multi_config, multi_fields,
                                            batched=False)
    multi_batched, t_multi_batched = run_once(multi_config, multi_fields,
                                              batched=True)
    chunk_scalar = [run.cycles - run.batched_cycles
                    for run in multi_batched.chunk_stats]
    multi_period = detected_period(multi_config, multi_fields)
    diff_scalar, diff_s_stats, t_diff_scalar = run_diffusion(
        grid, fields.u, batched=False)
    diff_batched, diff_b_stats, t_diff_batched = run_diffusion(
        grid, fields.u, batched=True)
    # The overhead gates chase few-percent effects buried under
    # comparable wall-time noise, so measure them from interleaved
    # tuples and compare the minimums (systematic machine drift then
    # cancels).  All three legs run batched — the production config.
    resilient, t_resilient = run_once(
        config, fields, fault_plan=FaultPlan([]), retry=RetryPolicy())

    def observed_kwargs():
        # Compiled in, switched off: the gate measures exactly the cost a
        # production run pays for carrying the observability plane.
        return {"tracer": Tracer(enabled=False),
                "metrics": MetricRegistry(enabled=False)}

    observed, t_observed = run_once(config, fields, **observed_kwargs())
    batched_times, resilient_times = [t_batched], [t_resilient]
    observed_times = [t_observed]
    for _ in range(args.overhead_repeats - 1):
        batched_times.append(run_once(config, fields)[1])
        resilient_times.append(run_once(
            config, fields, fault_plan=FaultPlan([]),
            retry=RetryPolicy())[1])
        observed_times.append(run_once(config, fields,
                                       **observed_kwargs())[1])

    # The speedup is only meaningful if both runs are *the same
    # machine*; the scalar per-cycle loop is the reference.
    errors = (kernel_mismatches(label, scalar, batched)
              + kernel_mismatches(multi_label, multi_scalar, multi_batched))
    if [run.cycles for run in multi_batched.chunk_stats] \
            != [run.cycles for run in multi_scalar.chunk_stats]:
        errors.append(f"{multi_label}: per-chunk cycle counts differ")
    agg_batched = batched.aggregate_stats()
    agg_multi = multi_batched.aggregate_stats()
    for name in ("su", "sv", "sw"):
        if not np.array_equal(getattr(scalar.sources, name),
                              getattr(resilient.sources, name)):
            errors.append(f"{name} differs under the resilient path")
        if not np.array_equal(getattr(scalar.sources, name),
                              getattr(observed.sources, name)):
            errors.append(f"{name} differs with disabled observability")
    if resilient.total_cycles != scalar.total_cycles:
        errors.append("resilient path changed the cycle count")
    if resilient.chunk_retries != 0:
        errors.append("resilient path retried on a fault-free run")
    if observed.total_cycles != scalar.total_cycles:
        errors.append("disabled observability changed the cycle count")
    if not np.array_equal(diff_scalar, diff_batched):
        errors.append("diffusion output not bit-identical under batched "
                      "exact")
    if (diff_s_stats.cycles, diff_s_stats.fires, diff_s_stats.stalls) != (
            diff_b_stats.cycles, diff_b_stats.fires, diff_b_stats.stalls):
        errors.append("diffusion cycles, fires or stalls differ under "
                      "batched exact")
    if errors:
        for err in errors:
            print(f"MISMATCH: {err}", file=sys.stderr)
        return 1

    suite = BenchSuite(context={
        "grid": label,
        "chunk_width": config.chunk_width,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    rec_scalar = BenchRecord(
        name=f"kernel-{label}-scalar", wall_seconds=t_scalar,
        cycles=scalar.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"batched": False})
    rec_batched = BenchRecord(
        name=f"kernel-{label}-batched", wall_seconds=t_batched,
        cycles=batched.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"batched": True,
               "batched_windows": agg_batched.batched_windows,
               "batched_cycles": agg_batched.batched_cycles})
    multi_cells = multi_grid.num_cells
    rec_multi_scalar = BenchRecord(
        name=f"kernel-{multi_label}-scalar", wall_seconds=t_multi_scalar,
        cycles=multi_scalar.total_cycles, cells=multi_cells, mode="exact",
        extra={"batched": False})
    rec_multi_batched = BenchRecord(
        name=f"kernel-{multi_label}-batched", wall_seconds=t_multi_batched,
        cycles=multi_batched.total_cycles, cells=multi_cells, mode="exact",
        extra={"batched": True,
               "batched_windows": agg_multi.batched_windows,
               "batched_cycles": agg_multi.batched_cycles,
               "chunks": len(multi_batched.chunk_stats),
               "chunk_scalar_cycles": chunk_scalar,
               "detected_period": multi_period})
    best_batched = min(batched_times)
    best_resilient = min(resilient_times)
    overhead = (best_resilient / best_batched - 1.0 if best_batched > 0
                else 0.0)
    rec_resilient = BenchRecord(
        name=f"kernel-{label}-resilient", wall_seconds=best_resilient,
        cycles=resilient.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"chunk_retries": resilient.chunk_retries,
               "overhead_vs_batched": round(overhead, 4),
               "timing_pairs": args.overhead_repeats})
    best_observed = min(observed_times)
    observe_overhead = (best_observed / best_batched - 1.0
                        if best_batched > 0 else 0.0)
    rec_observed = BenchRecord(
        name=f"kernel-{label}-observed", wall_seconds=best_observed,
        cycles=observed.total_cycles, cells=grid.num_cells, mode="exact",
        extra={"overhead_vs_batched": round(observe_overhead, 4),
               "timing_pairs": args.overhead_repeats,
               "instruments": "tracer+metrics, disabled"})
    stencil_cells = fields.u.size
    rec_diff_scalar = BenchRecord(
        name=f"diffusion-{label}-scalar", wall_seconds=t_diff_scalar,
        cycles=diff_s_stats.cycles, cells=stencil_cells, mode="exact",
        extra={"batched": False})
    rec_diff_batched = BenchRecord(
        name=f"diffusion-{label}-batched", wall_seconds=t_diff_batched,
        cycles=diff_b_stats.cycles, cells=stencil_cells, mode="exact",
        extra={"batched": True,
               "batched_windows": diff_b_stats.batched_windows,
               "batched_cycles": diff_b_stats.batched_cycles})
    suite.add(rec_scalar)
    suite.add(rec_batched)
    suite.add(rec_multi_scalar)
    suite.add(rec_multi_batched)
    suite.add(rec_resilient)
    suite.add(rec_observed)
    suite.add(rec_diff_scalar)
    suite.add(rec_diff_batched)
    gain_batched = speedup(rec_scalar, rec_batched)
    gain_diffusion = speedup(rec_diff_scalar, rec_diff_batched)
    gain_multi = speedup(rec_multi_scalar, rec_multi_batched)
    suite.context["speedup_batched_exact"] = round(gain_batched, 2)
    suite.context["speedup_multichunk_batched"] = round(gain_multi, 2)
    suite.context["speedup_diffusion_batched"] = round(gain_diffusion, 2)
    suite.context["resilience_overhead"] = round(overhead, 4)
    suite.context["observe_overhead"] = round(observe_overhead, 4)
    path = suite.write(args.output)

    print(render_table(suite.records))
    print(f"\nbatched exact speedup: {gain_batched:.2f}x "
          f"({agg_batched.batched_cycles}/{batched.total_cycles} cycles "
          f"batched in {agg_batched.batched_windows} windows)")
    print(f"multi-chunk ({multi_label}) batched exact speedup: "
          f"{gain_multi:.2f}x ({agg_multi.batched_cycles}/"
          f"{multi_batched.total_cycles} cycles batched in "
          f"{agg_multi.batched_windows} windows)")
    print(f"multi-chunk scalar cycles per chunk: {chunk_scalar} "
          f"(detected period {multi_period})")
    print(f"diffusion batched exact speedup: {gain_diffusion:.2f}x "
          f"({diff_b_stats.batched_cycles}/{diff_b_stats.cycles} cycles "
          f"batched in {diff_b_stats.batched_windows} windows)")
    print(f"fault-free resilience overhead: {overhead * 100:+.2f}%")
    print(f"disabled observability overhead: "
          f"{observe_overhead * 100:+.2f}%")
    print(f"records written to {path}")
    failed = False
    if gain_batched < args.min_batched_speedup:
        print(f"FAIL: batched exact speedup {gain_batched:.2f}x below "
              f"the {args.min_batched_speedup:.1f}x floor",
              file=sys.stderr)
        failed = True
    if gain_multi < args.min_batched_speedup:
        print(f"FAIL: multi-chunk batched exact speedup {gain_multi:.2f}x "
              f"below the {args.min_batched_speedup:.1f}x floor",
              file=sys.stderr)
        failed = True
    replanned = [index for index, scalar in enumerate(chunk_scalar)
                 if index and scalar > chunk_scalar[0] - multi_period]
    if replanned:
        print(f"FAIL: multi-chunk chunks {replanned} re-ran the detection "
              f"plane ({chunk_scalar} scalar cycles per chunk; later "
              f"chunks must tick at most {chunk_scalar[0] - multi_period})",
              file=sys.stderr)
        failed = True
    if gain_diffusion < args.min_batched_speedup:
        print(f"FAIL: diffusion batched exact speedup {gain_diffusion:.2f}x "
              f"below the {args.min_batched_speedup:.1f}x floor",
              file=sys.stderr)
        failed = True
    if overhead > args.max_resilience_overhead:
        print(f"FAIL: fault-free resilience overhead {overhead * 100:.2f}% "
              f"exceeds the {args.max_resilience_overhead * 100:.1f}% "
              f"budget", file=sys.stderr)
        failed = True
    if observe_overhead > args.max_observe_overhead:
        print(f"FAIL: disabled observability overhead "
              f"{observe_overhead * 100:.2f}% exceeds the "
              f"{args.max_observe_overhead * 100:.1f}% budget",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
