"""Tuning orchestration: space -> search -> Pareto -> measured tier.

:func:`tune` wires the subsystem together: derive (or accept) a
parameter space for the device, run one seeded strategy over the
lint-gated cost model with an optional persistent cache, extract the
Pareto frontier over (GFLOPS, utilisation, watts), and optionally
re-score the top-K candidates with the batched exact simulation tier.

Observability rides along: pass a
:class:`~repro.observe.trace.Tracer`/:class:`~repro.observe.metrics.MetricRegistry`
and every evaluation becomes a span on the ``tune`` track (on a
deterministic evaluation-index clock, so traces are reproducible),
cache hits become instants, and counters record
evaluations/hits/infeasible points — exportable to Perfetto via
:func:`repro.observe.export.write_trace`.

The report's ``to_dict``/``to_json`` are byte-deterministic for a given
(device, grid, space, strategy, seed, budget): floats are rounded, keys
sorted, and nothing records wall-clock time.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.grid import Grid
from repro.errors import TuneError
from repro.hardware.device import FPGADevice
from repro.hardware.devices import device_by_name
from repro.tune.cache import EvaluationCache
from repro.tune.cost import OBJECTIVES, Evaluation
from repro.tune.measure import MeasuredResult, measure_candidates
from repro.tune.pareto import pareto_front
from repro.tune.strategies import make_strategy

#: Backend whose behaviour predates the backend seam; reports omit the
#: backend key for it so pre-backend golden fixtures stay byte-identical.
_DEFAULT_BACKEND = "fpga_shiftbuffer"

if TYPE_CHECKING:
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = ["TuneReport", "tune"]


@dataclass
class TuneReport:
    """Everything one tuning run decided and why."""

    device: str
    grid: Grid
    strategy: str
    objective: str
    seed: int
    budget: int
    space: Any
    evaluations: list[Evaluation]
    front: list[Evaluation]
    best: Evaluation | None
    measured: list[MeasuredResult] = field(default_factory=list)
    cache_hits: int = 0
    context: dict[str, Any] = field(default_factory=dict)
    backend: str = _DEFAULT_BACKEND

    @property
    def feasible_count(self) -> int:
        return sum(1 for e in self.evaluations if e.feasible)

    @property
    def infeasible_count(self) -> int:
        return len(self.evaluations) - self.feasible_count

    @property
    def worst_measured_error(self) -> float:
        return max((m.relative_error for m in self.measured), default=0.0)

    def to_dict(self) -> dict[str, Any]:
        payload = self._base_dict()
        if self.backend != _DEFAULT_BACKEND:
            # Pre-backend golden fixtures pin the schema without this
            # key; only non-default backends stamp themselves.
            payload["backend"] = self.backend
        return payload

    def _base_dict(self) -> dict[str, Any]:
        return {
            "device": self.device,
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny,
                     "nz": self.grid.nz, "cells": self.grid.num_cells},
            "strategy": self.strategy,
            "objective": self.objective,
            "seed": self.seed,
            "budget": self.budget,
            "space": self.space.to_dict(),
            "space_size": self.space.size,
            "evaluated": len(self.evaluations),
            "feasible": self.feasible_count,
            "infeasible": self.infeasible_count,
            "cache_hits": self.cache_hits,
            "best": None if self.best is None else self.best.to_dict(),
            "pareto_front": [e.to_dict() for e in self.front],
            "measured": [m.to_dict() for m in self.measured],
            "worst_measured_error": round(self.worst_measured_error, 6),
            "context": self.context,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _resolve_device(device: "FPGADevice | str") -> FPGADevice:
    if isinstance(device, FPGADevice):
        return device
    resolved = device_by_name(device)
    if not isinstance(resolved, FPGADevice):
        raise TuneError(
            f"device {device!r} is not an FPGA; the tuner explores FPGA "
            f"deployment parameters"
        )
    return resolved


def tune(device: "FPGADevice | str | None", grid: Grid, *,
         backend: str | None = None,
         strategy: str = "greedy", objective: str = "kernel",
         budget: int | None = None, seed: int = 0,
         space: Any | None = None,
         wide_precision: bool = False,
         flops_scale: float = 1.0,
         cache_path: "str | pathlib.Path | None" = None,
         measure_top_k: int = 0, measure_seed: int | None = None,
         tracer: "Tracer | None" = None,
         metrics: "MetricRegistry | None" = None) -> TuneReport:
    """Run one design-space exploration and return its report.

    Parameters
    ----------
    device:
        Device fixture or catalog alias (``"u280"``, ``"stratix10"``,
        ``"vc1902"``); ``None`` resolves the backend's default device.
    backend:
        Registered backend id (``"fpga_shiftbuffer"``, ``"versal_aie"``);
        ``None`` uses the default FPGA shift-buffer backend, preserving
        the pre-backend behaviour exactly.
    grid:
        The problem the deployment must serve.
    strategy:
        ``"grid"``, ``"greedy"`` or ``"anneal"``.
    objective:
        Scalar the search maximises (the Pareto front is always
        extracted over all three axes regardless).
    budget:
        Maximum distinct evaluations; defaults to the space size
        (exhaustive within reach of any strategy).
    seed:
        Seed for the strategy's random source.
    space:
        Explicit parameter space; derived from the device/grid when
        omitted.
    wide_precision:
        Open the reduced-precision axis when deriving the space.
    flops_scale:
        Operation intensity relative to the advection kernel (scenario
        kernels pass ``scenario.flops_scale``); re-scales the GFLOPS
        axes and keys the evaluation cache separately.
    cache_path:
        Persistent JSON evaluation cache (loaded before, saved after).
    measure_top_k:
        Re-score this many top candidates with the batched exact
        simulation tier (0 = analytic only).
    measure_seed:
        Seed for the measured tier's wind fields (default: ``seed``).
    tracer / metrics:
        Optional observability sinks (see module docstring).
    """
    # Deferred import: repro.backend's built-in modules import this
    # package's cost/space layers, so the registry is only reached at
    # call time, never at module import.
    from repro.backend import get_backend

    target = get_backend(backend)
    if target.id == _DEFAULT_BACKEND:
        # Preserve the pre-backend resolution path (and its TuneError
        # for non-FPGA catalog devices) exactly.
        fpga = _resolve_device(device if device is not None
                               else target.default_device)
    else:
        fpga = target.resolve_device(device)
    if objective not in OBJECTIVES:
        raise TuneError(
            f"unknown objective {objective!r}; known: {sorted(OBJECTIVES)}"
        )
    if space is None:
        space = target.parameter_space(fpga, grid,
                                       wide_precision=wide_precision)
    if budget is None:
        budget = space.size
    if budget < 1:
        raise TuneError(f"budget must be >= 1, got {budget}")
    if measure_top_k < 0:
        raise TuneError(f"measure_top_k must be >= 0, got {measure_top_k}")
    if measure_top_k and target.id != _DEFAULT_BACKEND:
        raise TuneError(
            f"measured refinement runs the shift-buffer simulation tier "
            f"and is only available on the {_DEFAULT_BACKEND!r} backend, "
            f"not {target.id!r}"
        )

    model = target.cost_model(fpga, grid, flops_scale=flops_scale)
    grid_key = f"{grid.nx}x{grid.ny}x{grid.nz}"
    if flops_scale != 1.0:
        # Scaled scenarios must not share cached GFLOPS with advection.
        grid_key += f"@x{flops_scale:g}"
    cache = EvaluationCache(cache_path, backend=target.id,
                            device=fpga.name, grid_key=grid_key,
                            point_factory=target.point_from_dict)

    trace_on = tracer is not None and tracer.enabled
    metrics_on = metrics is not None and metrics.enabled
    eval_index = 0

    def instrumented_evaluate(point: Any) -> Evaluation:
        nonlocal eval_index
        cached = cache.get(point)
        if cached is not None:
            if trace_on:
                assert tracer is not None
                tracer.instant("cache hit", "tune", ts=float(eval_index),
                               point=point.key())
            if metrics_on:
                assert metrics is not None
                metrics.counter(
                    "tune_cache_hits",
                    "evaluations served from the persistent cache",
                ).inc()
            return cached
        evaluation = model.evaluate(point)
        cache.put(evaluation)
        if trace_on:
            assert tracer is not None
            tracer.add_span(
                point.key(), "tune", float(eval_index),
                float(eval_index + 1), category="evaluate",
                feasible=evaluation.feasible,
                objective=round(evaluation.objective(objective), 6)
                if evaluation.feasible else None,
            )
        if metrics_on:
            assert metrics is not None
            metrics.counter(
                "tune_evaluations", "cost-model evaluations performed",
            ).inc()
            if not evaluation.feasible:
                metrics.counter(
                    "tune_infeasible", "points rejected by the lint gate",
                ).inc()
        eval_index += 1
        return evaluation

    search = make_strategy(strategy)
    evaluations = search.run(space, instrumented_evaluate, budget=budget,
                             seed=seed, objective=objective)
    cache.save()

    front = pareto_front(evaluations)
    feasible = [e for e in evaluations if e.feasible]
    best = (max(feasible, key=lambda e: e.sort_key(objective))
            if feasible else None)

    ranked = sorted(feasible, key=lambda e: e.sort_key(objective),
                    reverse=True)
    measured = measure_candidates(
        ranked[:measure_top_k], grid,
        seed=seed if measure_seed is None else measure_seed,
    ) if measure_top_k else []
    if metrics_on and measured:
        assert metrics is not None
        for result in measured:
            metrics.histogram(
                "tune_measured_error",
                "relative analytic-vs-simulated cycle error",
            ).observe(result.relative_error)

    return TuneReport(
        device=fpga.name,
        grid=grid,
        strategy=strategy,
        objective=objective,
        seed=seed,
        budget=budget,
        space=space,
        evaluations=evaluations,
        front=front,
        best=best,
        measured=measured,
        cache_hits=cache.hits,
        context=model.describe(),
        backend=target.id,
    )


def render_text(report: TuneReport) -> str:
    """Human-readable tuning summary (the CLI's text mode)."""
    lines = [
        f"tune: {report.device} | grid "
        f"{report.grid.nx}x{report.grid.ny}x{report.grid.nz} "
        f"({report.grid.num_cells:,} cells)",
        *([f"backend: {report.backend}"]
          if report.backend != _DEFAULT_BACKEND else []),
        f"strategy {report.strategy} (seed {report.seed}, budget "
        f"{report.budget}) maximising {report.objective}; "
        f"space {report.space.size} points",
        f"evaluated {len(report.evaluations)} "
        f"({report.feasible_count} feasible, "
        f"{report.infeasible_count} rejected by the lint gate, "
        f"{report.cache_hits} cache hits)",
        "",
    ]
    if report.best is None:
        lines.append("no feasible point found")
        return "\n".join(lines) + "\n"

    best = report.best
    lines.append(
        f"best: {best.point.key()} -> "
        f"{best.kernel_gflops:.2f} kernel GFLOPS @ "
        f"{best.clock_mhz:.0f} MHz, "
        f"{best.end_to_end_gflops:.2f} end-to-end, "
        f"{best.utilisation:.0%} peak utilisation, "
        f"{best.watts:.0f} W"
    )
    lines.append("")
    lines.append(f"pareto front ({len(report.front)} points: "
                 f"kernel GFLOPS vs utilisation vs watts):")
    header = (f"  {'point':34} {'GFLOPS':>8} {'clock':>6} "
              f"{'util':>6} {'watts':>6}")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for entry in report.front:
        lines.append(
            f"  {entry.point.key():34} {entry.kernel_gflops:8.2f} "
            f"{entry.clock_mhz:5.0f}M {entry.utilisation:6.1%} "
            f"{entry.watts:6.1f}"
        )
    if report.measured:
        lines.append("")
        lines.append("measured refinement (batched exact simulation):")
        for result in report.measured:
            lines.append(
                f"  {result.point.key():34} analytic "
                f"{result.analytic_cycles:,} vs measured "
                f"{result.measured_cycles:,} cycles "
                f"(error {result.relative_error:.2%})"
            )
    return "\n".join(lines) + "\n"
