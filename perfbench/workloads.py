"""The benchmark's four workloads: set-up, timed call, gate and counts.

Each workload builds every input from its seed in :meth:`setup`, so the
timed :meth:`run` only hands those inputs to the program.  :meth:`check`
runs outside the timed region and returns ``(attempted, failed)`` over
the workload's operations; a raised error or a mismatch is a failure.
:meth:`counts` gives the exact counts that must repeat between runs of
the same code and seed.  :meth:`perturb` corrupts one output value, so
the self-test can prove each gate fails.

Sizes: ``full`` is the benchmark; ``tiny`` is the self-test's.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

__all__ = ["WORKLOADS", "SUITE_SCENARIOS", "RESULT_LAYER_METRICS", "Outcome", "get"]

COMPONENTS = ("su", "sv", "sw")

#: Scenarios the stencil-suite workload runs, in order: two kernels on
#: the general shift buffer and the advection control.
SUITE_SCENARIOS = ("diffusion", "buoyancy", "pw-advection")


@dataclass
class Outcome:
    """What the timed call produced, or the error it raised."""

    output: Any = None
    error: BaseException | None = None


def _same(a: Any, b: Any) -> bool:
    return all(np.array_equal(getattr(a, c), getattr(b, c))
               for c in COMPONENTS)


class AdvectMultichunk:
    """``simulate_kernel`` on a grid that several Y-chunks cover."""

    name = "advect-multichunk"
    sizes = {"full": ((64, 256, 64), 64), "tiny": ((8, 24, 8), 8)}

    def __init__(self, size: str, pins: dict) -> None:
        (self.nx, self.ny, self.nz), self.chunk_width = self.sizes[size]
        self.chunk_cycles = pins["chunk_cycles"]

    def setup(self, seed: int) -> dict:
        from repro.core.grid import Grid
        from repro.core.wind import random_wind
        from repro.kernel import KernelConfig, simulate_kernel

        grid = Grid(self.nx, self.ny, self.nz)
        return {"config": KernelConfig(grid=grid,
                                       chunk_width=self.chunk_width),
                "fields": random_wind(grid, seed=seed),
                "simulate": simulate_kernel}

    def run(self, state: dict) -> Any:
        return state["simulate"](state["config"], state["fields"])

    def check(self, state: dict, outcome: Outcome) -> tuple[int, int]:
        from repro.core.reference import advect_reference

        chunks = state["config"].chunk_plan().chunks
        if outcome.error is not None:
            return len(chunks), len(chunks)
        result = outcome.output
        reference = advect_reference(state["fields"])
        failed = 0
        for chunk in chunks:
            rows = slice(chunk.write_start - 1, chunk.write_stop - 1)
            same = all(
                np.array_equal(getattr(result.sources, c)[:, rows],
                               getattr(reference, c)[:, rows])
                for c in COMPONENTS)
            cycles = (result.chunk_stats[chunk.index].cycles
                      if chunk.index < len(result.chunk_stats) else None)
            if not same or cycles != self.chunk_cycles[chunk.index]:
                failed += 1
        return len(chunks), failed

    def perturb(self, output: Any) -> None:
        output.sources.su[0, 0, 1] += 1.0

    def counts(self, output: Any) -> dict:
        stats = output.aggregate_stats()
        return {"cycles": output.total_cycles,
                "batched_cycles": stats.batched_cycles,
                "batched_windows": stats.batched_windows,
                "chunks": len(output.chunk_stats),
                "fallback": stats.batch_fallback_reason}

    def work(self, output: Any) -> float:
        return output.total_cycles

    def layer_metrics(self, output: Any) -> dict:
        return {}


class TuneGrid:
    """Exhaustive ``tune`` over the U280 design space."""

    name = "tune-grid"
    sizes = {"full": None, "tiny": 12}

    def __init__(self, size: str, pins: dict) -> None:
        self.budget = self.sizes[size]
        self.points = pins["points"]
        self.best = pins["best"]
        self.digest = pins["digest"]

    def setup(self, seed: int) -> dict:
        from repro.core.grid import Grid
        from repro.tune import tune

        return {"grid": Grid.from_cells(16_000_000), "seed": seed,
                "tune": tune}

    def run(self, state: dict) -> Any:
        return state["tune"]("u280", state["grid"], strategy="grid",
                             seed=state["seed"], budget=self.budget)

    @staticmethod
    def evaluation_digest(report: Any) -> str:
        """Digest over every evaluation's key, feasibility, GFLOPS and
        statically proved cycle count, in key order."""
        rows = sorted(
            (e.point.key(), e.feasible, repr(e.kernel_gflops),
             repr(e.end_to_end_gflops), e.static_cycles)
            for e in report.evaluations)
        return hashlib.blake2b(json.dumps(rows).encode(),
                               digest_size=16).hexdigest()

    def check(self, state: dict, outcome: Outcome) -> tuple[int, int]:
        # The gate is over the whole report: any mismatch fails every point.
        if outcome.error is not None:
            return self.points, self.points
        report = outcome.output
        best = report.best.point.key() if report.best is not None else None
        ok = (len(report.evaluations) == self.points and best == self.best
              and self.evaluation_digest(report) == self.digest)
        return self.points, 0 if ok else self.points

    def perturb(self, output: Any) -> None:
        first = output.evaluations[0]
        output.evaluations[0] = replace(
            first, kernel_gflops=first.kernel_gflops + 1.0)

    def counts(self, output: Any) -> dict:
        return {"points": len(output.evaluations),
                "feasible": output.feasible_count,
                "rejected": output.infeasible_count,
                "best": output.best.point.key() if output.best else None}

    def work(self, output: Any) -> float:
        return len(output.evaluations)

    def layer_metrics(self, output: Any) -> dict:
        return {"tune.points": len(output.evaluations),
                "tune.feasible": output.feasible_count,
                "tune.rejected": output.infeasible_count}


class StencilSuite:
    """``Scenario.run`` for diffusion, buoyancy and the advection control."""

    name = "stencil-suite"
    sizes = {"full": (32, 32, 32), "tiny": (6, 7, 6)}

    def __init__(self, size: str, pins: dict) -> None:
        self.dims = self.sizes[size]
        self.cycles = pins["cycles"]

    def setup(self, seed: int) -> dict:
        from repro.core.grid import Grid
        from repro.scenarios import get

        return {"grid": Grid(*self.dims), "seed": seed,
                "scenarios": [get(name) for name in SUITE_SCENARIOS]}

    def run(self, state: dict) -> Any:
        results = {}
        for scenario in state["scenarios"]:
            try:
                results[scenario.name] = scenario.run(state["grid"],
                                                      seed=state["seed"])
            except Exception as error:  # noqa: BLE001 - one failed operation
                traceback.print_exc(file=sys.stderr)
                results[scenario.name] = error
        return results

    def check(self, state: dict, outcome: Outcome) -> tuple[int, int]:
        total = len(state["scenarios"])
        if outcome.error is not None:
            return total, total
        failed = 0
        for scenario in state["scenarios"]:
            result = outcome.output[scenario.name]
            if isinstance(result, BaseException):
                failed += 1
                continue
            reference = scenario.reference(state["grid"], seed=state["seed"])
            if (len(reference) != len(result.batches)
                    or not all(map(_same, reference, result.batches))
                    or result.total_cycles != self.cycles[scenario.name]):
                failed += 1
        return total, failed

    def perturb(self, output: Any) -> None:
        output[SUITE_SCENARIOS[0]].batches[0].sv[1, 1, 1] += 1.0

    def counts(self, output: Any) -> dict:
        return {name: {"cycles": result.total_cycles,
                       "batched_cycles": result.stats.batched_cycles,
                       "batched_windows": result.stats.batched_windows,
                       "fallback": result.stats.batch_fallback_reason}
                for name, result in output.items()
                if not isinstance(result, BaseException)}

    def work(self, output: Any) -> float:
        return sum(result.total_cycles for result in output.values()
                   if not isinstance(result, BaseException))

    def layer_metrics(self, output: Any) -> dict:
        metrics = {}
        for name, result in output.items():
            if not isinstance(result, BaseException):
                cycles = result.total_cycles
                metrics[f"scenarios.{name}.batched_share"] = (
                    result.stats.batched_cycles / cycles if cycles else 0.0)
        return metrics


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """The highest nearest-rank percentile with ``beyond`` samples above
    it: ``(fraction, value)``; ``(0, 0)`` with too few samples."""
    if len(values) <= beyond:
        return 0.0, 0.0
    ordered = sorted(values)
    rank = len(ordered) - beyond
    return rank / len(ordered), ordered[rank - 1]


class ServeLoad:
    """Open-loop Poisson arrivals served by the default fleet."""

    name = "serve-load"
    sizes = {"full": (96, (12, 18, 12)), "tiny": (8, (6, 9, 6))}

    def __init__(self, size: str, pins: dict) -> None:
        self.jobs, self.dims = self.sizes[size]

    def setup(self, seed: int) -> dict:
        from repro.serve import (DEFAULT_FLEET_SPEC, Fleet, FleetScheduler,
                                 PoissonLoad, build_arrivals)

        nx, ny, nz = self.dims
        load = PoissonLoad(jobs=self.jobs, nx=nx, ny=ny, nz=nz,
                           exact_fraction=0.0, distinct_inputs=self.jobs,
                           seed=seed)
        # An exact job costs a cycle simulation, a fast one does not, so
        # a drawn exact share would make wall time follow the seed's
        # binomial draw.  Exactly half the jobs ask for the exact tier
        # (a seeded choice); a quarter of those forbid degradation.
        arrivals = build_arrivals(load)
        chosen = np.random.default_rng(seed).permutation(self.jobs)
        exact = chosen[:self.jobs // 2]
        strict = set(exact[:self.jobs // 8].tolist())
        for index in exact.tolist():
            at, spec = arrivals[index]
            arrivals[index] = (at, replace(spec, mode="exact",
                                           allow_degrade=index not in strict))
        return {"arrivals": arrivals,
                "scheduler": FleetScheduler(
                    Fleet.from_spec(DEFAULT_FLEET_SPEC))}

    def run(self, state: dict) -> Any:
        return state["scheduler"].serve_sync(state["arrivals"])

    def check(self, state: dict, outcome: Outcome) -> tuple[int, int]:
        from repro.core.reference import advect_reference
        from repro.serve import checksum_sources

        total = len(state["arrivals"])
        if outcome.error is not None:
            return total, total
        failed = total - len(outcome.output)
        for job in outcome.output:
            if not job.ok:
                failed += 1
            elif job.result.checksum != checksum_sources(
                    advect_reference(job.spec.fields())):
                failed += 1
        return total, failed

    def perturb(self, output: Any) -> None:
        first = next(job for job in output if job.ok)
        first.result.checksum = "0" * len(first.result.checksum)

    def counts(self, output: Any) -> dict:
        done = [job.result for job in output if job.ok]
        return {"completed": len(done),
                "exact": sum(r.mode_served == "exact" for r in done),
                "degraded": sum(r.degraded for r in done),
                "cache_hits": sum(r.cache_hit for r in done),
                "reshards": sum(r.reshards for r in done),
                "errors": sum(not job.ok for job in output)}

    def work(self, output: Any) -> float:
        return sum(job.ok for job in output)

    def latency_ms(self, output: Any) -> dict:
        """Modelled latency: median, tail percentile and sample count."""
        latencies = [job.result.latency_seconds * 1e3
                     for job in output if job.ok]
        fraction, tail = tail_percentile(latencies)
        return {"p50_ms": float(np.median(latencies)) if latencies else 0.0,
                "tail_quantile": fraction, "tail_ms": tail,
                "samples": len(latencies)}

    def layer_metrics(self, output: Any) -> dict:
        counts = self.counts(output)
        latency = self.latency_ms(output)
        return {"serve.completed": counts["completed"],
                "serve.degraded": counts["degraded"],
                "serve.cache_hits": counts["cache_hits"],
                "serve.reshards": counts["reshards"],
                "serve.latency_p50_ms_modelled": latency["p50_ms"],
                "serve.latency_p90_ms_modelled": latency["tail_ms"],
                "serve.latency_samples": latency["samples"]}


WORKLOADS = {cls.name: cls for cls in (AdvectMultichunk, TuneGrid,
                                       StencilSuite, ServeLoad)}

#: Result-derived per-layer metrics: every workload reports every name,
#: 0 where the workload does not produce it.
RESULT_LAYER_METRICS = (
    "tune.points", "tune.feasible", "tune.rejected",
    *(f"scenarios.{name}.batched_share" for name in SUITE_SCENARIOS),
    "serve.completed", "serve.degraded", "serve.cache_hits", "serve.reshards",
    "serve.latency_p50_ms_modelled", "serve.latency_p90_ms_modelled",
    "serve.latency_samples",
)


def get(name: str, size: str, pins: dict) -> Any:
    """Instantiate workload ``name`` at ``size`` with its pinned values."""
    return WORKLOADS[name](size, pins[name][size])
