"""In-memory span tracing around the program's public entry points.

The traced run wraps each layer's entry point at every module or class
attribute that holds it, so a caller that resolved the name at import
time (``from repro.kernel.functional import execute_chunked``) and one
that resolves it at call time both go through the wrapper.  Nothing in
the program changes; the spans come from this file.

A span is (name, start, end, parent).  Spans live in flat arrays, one
entry per call, and are reduced only when the run ends: a layer's self
time is the sum over its spans of duration minus the time covered by
their direct child spans, so self times add up to the root span.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable

import numpy as np

__all__ = ["SpanRecorder", "install", "layer_metrics", "LAYER_SPANS"]

#: Span name -> (module, attribute path) of the wrapped entry point.
#: Class methods are wrapped on the class; free functions at every
#: ``repro.*`` module attribute that holds the same function object.
LAYER_SPANS: dict[str, list[tuple[str, str]]] = {
    "dataflow.engine": [("repro.dataflow.engine", "DataflowEngine.run")],
    "dataflow.window": [("repro.dataflow.compiled", "execute_window")],
    "dataflow.compile": [("repro.dataflow.compiled", "compile_graph")],
    "shiftbuffer.feed": [("repro.shiftbuffer.buffer3d", "ShiftBuffer3D.feed")],
    "shiftbuffer.bulk_feed": [
        ("repro.shiftbuffer.buffer3d", "ShiftBuffer3D.feed_bulk"),
        ("repro.shiftbuffer.buffer3d", "ShiftBuffer3D.feed_block"),
    ],
    "shiftbuffer.ports": [
        ("repro.shiftbuffer.ports", "MemoryPortTracker.end_cycle"),
        ("repro.shiftbuffer.ports", "MemoryPortTracker.record_steady"),
    ],
    "shiftbuffer.general_feed": [
        ("repro.shiftbuffer.general", "GeneralShiftBuffer.feed"),
        ("repro.shiftbuffer.general", "GeneralShiftBuffer.feed_block"),
    ],
    "kernel.build_graph": [("repro.kernel.builder", "build_advection_graph")],
    "kernel.simulate": [("repro.kernel.simulate", "simulate_kernel")],
    "analyze.interpret": [("repro.analyze.interp", "interpret")],
    "analyze.analyze_graph": [("repro.analyze.report", "analyze_graph")],
    "analyze.static_cycles": [("repro.analyze.kernel", "static_kernel_cycles")],
    "lint.lint_kernel": [("repro.lint.runner", "lint_kernel")],
    "runtime.session": [("repro.runtime.session", "AdvectionSession.run")],
    "hardware.invocation": [("repro.hardware.device", "FPGADevice.invocation")],
    "tune.evaluate": [("repro.tune.cost", "CostModel.evaluate")],
    "serve.quote": [("repro.tune.admission", "quote_job")],
    "serve.numerics": [("repro.kernel.functional", "execute_chunked")],
    "serve.scheduler": [("repro.serve.scheduler", "FleetScheduler.serve_sync")],
}

#: Modules whose import makes every wrapped attribute and every stage
#: class exist before wrapping (lazy ``from x import y`` inside a
#: function body resolves the patched module attribute at call time).
_IMPORTS = (
    "repro.dataflow.engine", "repro.kernel.stages", "repro.kernel.generic",
    "repro.kernel.multi_simulate", "repro.kernel.simulate",
    "repro.analyze.twin", "repro.analyze.report", "repro.analyze.kernel",
    "repro.analyze.schedule", "repro.analyze.occupancy", "repro.lint.runner",
    "repro.tune", "repro.tune.cost", "repro.serve", "repro.serve.scheduler",
    "repro.serve.admission", "repro.scenarios", "repro.runtime.session",
    "repro.hardware.device", "repro.shiftbuffer.general",
)


class SpanRecorder:
    """Flat in-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Counts fed by call hooks (port cycles, RunStats totals).
        self.counters: dict[str, float] = {}
        #: Distinct abstract-interpretation inputs seen.
        self.interpret_keys: set[Any] = set()

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn: Callable, name: str | Callable[..., str], *,
             on_call: Callable[..., None] | None = None,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``name`` may be a callable of the call's arguments for spans
        whose layer depends on the receiver (one span per scenario).
        Hooks run outside the span's interval, so their cost lands in
        the parent's self time and in the measured tracing overhead.
        """
        fixed = None if callable(name) else self.name_id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(*args, **kwargs)
            index = len(start)
            name_of.append(fixed if fixed is not None
                           else self.name_id(name(*args, **kwargs)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, outermost calls, inclusive and self time."""
        count = len(self.start)
        result: dict[str, dict[str, float]] = {
            name: {"calls": 0, "outer_calls": 0, "total_s": 0.0,
                   "self_s": 0.0} for name in self.names}
        if not count:
            return result
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        child_time = np.zeros(count)
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], duration[has_parent])
        self_time = duration - child_time
        parent_name = np.full(count, -1, dtype=np.int64)
        parent_name[has_parent] = names[parents[has_parent]]
        for index, name in enumerate(self.names):
            mine = names == index
            stats = result[name]
            stats["calls"] = int(mine.sum())
            stats["outer_calls"] = int((mine & (parent_name != index)).sum())
            stats["total_s"] = float(duration[mine & (parent_name != index)]
                                     .sum())
            stats["self_s"] = float(self_time[mine].sum())
        return result

    def under(self, name: str, ancestor: str) -> tuple[int, float]:
        """Calls and inclusive time of ``name`` spans below ``ancestor``."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0, 0.0
        want, root = self._name_ids[name], self._name_ids[ancestor]
        calls, total = 0, 0.0
        for index, name_index in enumerate(self.name_of):
            if name_index != want:
                continue
            up = self.parent[index]
            while up >= 0 and self.name_of[up] != root:
                up = self.parent[up]
            if up >= 0:
                calls += 1
                total += self.end[index] - self.start[index]
        return calls, total


def _patch_everywhere(original: Callable, wrapper: Callable) -> int:
    """Rebind ``original`` at every ``repro.*`` module attribute."""
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patched += 1
    return patched


def _interpret_key(graph: Any, tokens: Any = None, **kwargs: Any) -> tuple:
    """Everything ``interpret`` reads: structure, rates, depths, tokens."""
    stages = tuple(
        (stage.name, stage.ii, stage.latency,
         tuple((port, stage.inputs[port].name)
               for port in stage.input_ports if port in stage.inputs),
         tuple((port, stage.outputs[port].name)
               for port in stage.output_ports if port in stage.outputs))
        for stage in graph.stages)
    streams = tuple((stream.name, stream.depth) for stream in graph.streams)
    return stages, streams, tokens, tuple(sorted(kwargs.items()))


def _fallback_kind(reason: str) -> str:
    if "vetoed steady-state" in reason:
        return "data_dependent"
    if "monitor" in reason:
        return "monitor"
    if "corrupted word" in reason:
        return "fault_in_flight"
    return "other"


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point in :data:`LAYER_SPANS` plus the stage
    classes' ``ff_signature`` and ``Scenario.run``."""
    import importlib

    for module_name in _IMPORTS:
        importlib.import_module(module_name)

    def on_engine_result(stats: Any) -> None:
        recorder.count("dataflow.cycles", stats.cycles)
        recorder.count("dataflow.batched_cycles", stats.batched_cycles)
        recorder.count("dataflow.batched_windows", stats.batched_windows)
        recorder.count("dataflow.engine_runs")
        if stats.batch_fallback_reason:
            recorder.count("dataflow.fallbacks")
            recorder.count("dataflow.fallbacks."
                           + _fallback_kind(stats.batch_fallback_reason))

    def on_simulate_result(result: Any) -> None:
        recorder.count("kernel.chunks", len(result.chunk_stats))

    def on_record_steady(tracker: Any, pattern: Any, cycles: int) -> None:
        recorder.count("shiftbuffer.port_cycles", cycles)

    def on_end_cycle(tracker: Any) -> None:
        recorder.count("shiftbuffer.port_cycles", 1)

    def on_interpret(*args: Any, **kwargs: Any) -> None:
        recorder.interpret_keys.add(_interpret_key(*args, **kwargs))

    hooks: dict[str, dict[str, Callable]] = {
        "DataflowEngine.run": {"on_result": on_engine_result},
        "simulate_kernel": {"on_result": on_simulate_result},
        "MemoryPortTracker.record_steady": {"on_call": on_record_steady},
        "MemoryPortTracker.end_cycle": {"on_call": on_end_cycle},
        "interpret": {"on_call": on_interpret},
    }

    for span_name, targets in LAYER_SPANS.items():
        for module_name, path in targets:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                setattr(owner, attr, recorder.wrap(original, span_name,
                                                   **hooks.get(path, {})))
            else:
                original = getattr(module, attr)
                wrapper = recorder.wrap(original, span_name,
                                        **hooks.get(attr, {}))
                if not _patch_everywhere(original, wrapper):
                    raise RuntimeError(f"{module_name}.{attr} not patched")

    from repro.dataflow.stage import Stage

    pending, seen = [Stage], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "ff_signature" in vars(cls):
            cls.ff_signature = recorder.wrap(vars(cls)["ff_signature"],
                                             "dataflow.fingerprint")

    from repro.scenarios.base import Scenario

    Scenario.run = recorder.wrap(  # type: ignore[method-assign]
        Scenario.run, lambda scenario, *a, **k: f"scenarios.{scenario.name}.run")


def layer_metrics(recorder: SpanRecorder,
                  scenarios: tuple[str, ...]) -> dict[str, float]:
    """Reduce the recorded spans to the benchmark's per-layer metrics.

    Every name is present on every workload; a layer the workload never
    enters reads 0.  ``scenarios`` names the ``scenarios.<name>.run_s``
    spans to report.
    """
    spans = recorder.reduce()
    counters = recorder.counters

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str, key: str = "calls") -> int:
        return int(spans.get(name, {}).get(key, 0))

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    cycles = int(counters.get("dataflow.cycles", 0))
    batched = int(counters.get("dataflow.batched_cycles", 0))
    scalar = cycles - batched
    scalar_host_s = (total_s("dataflow.engine") - total_s("dataflow.window")
                     - total_s("dataflow.compile"))
    interpret_calls = calls("analyze.interpret")
    distinct = len(recorder.interpret_keys)
    exact_jobs, exact_sim_s = recorder.under("kernel.simulate",
                                             "serve.scheduler")
    metrics: dict[str, float] = {
        "dataflow.engine_s": self_s("dataflow.engine"),
        "dataflow.host_us_per_scalar_cycle":
            scalar_host_s / scalar * 1e6 if scalar else 0.0,
        "dataflow.fingerprint_s": self_s("dataflow.fingerprint"),
        "dataflow.fingerprint_calls": calls("dataflow.fingerprint",
                                            "outer_calls"),
        "dataflow.window_s": self_s("dataflow.window"),
        "dataflow.window_calls": calls("dataflow.window"),
        "dataflow.compile_s": self_s("dataflow.compile"),
        "dataflow.engine_runs": int(counters.get("dataflow.engine_runs", 0)),
        "dataflow.cycles": cycles,
        "dataflow.batched_cycles": batched,
        "dataflow.scalar_cycles": scalar,
        "dataflow.batched_share": batched / cycles if cycles else 0.0,
        "dataflow.batched_windows":
            int(counters.get("dataflow.batched_windows", 0)),
        "dataflow.fallbacks": int(counters.get("dataflow.fallbacks", 0)),
        "shiftbuffer.feed_s": self_s("shiftbuffer.feed"),
        "shiftbuffer.feed_calls": calls("shiftbuffer.feed"),
        "shiftbuffer.bulk_feed_s": self_s("shiftbuffer.bulk_feed"),
        "shiftbuffer.bulk_feed_calls": calls("shiftbuffer.bulk_feed"),
        "shiftbuffer.ports_s": self_s("shiftbuffer.ports"),
        "shiftbuffer.port_cycles":
            int(counters.get("shiftbuffer.port_cycles", 0)),
        "shiftbuffer.general_feed_s": self_s("shiftbuffer.general_feed"),
        "shiftbuffer.general_feed_calls": calls("shiftbuffer.general_feed"),
        "kernel.build_graph_s": self_s("kernel.build_graph"),
        "kernel.simulate_s": self_s("kernel.simulate"),
        "kernel.chunks": int(counters.get("kernel.chunks", 0)),
        "analyze.interpret_s": self_s("analyze.interpret"),
        "analyze.interpret_calls": interpret_calls,
        "analyze.interpret_distinct": distinct,
        "analyze.interpret_repeat_share":
            1 - distinct / interpret_calls if interpret_calls else 0.0,
        "analyze.analyze_graph_s": self_s("analyze.analyze_graph"),
        "analyze.static_cycles_s": self_s("analyze.static_cycles"),
        "lint.lint_kernel_s": self_s("lint.lint_kernel"),
        "runtime.session_s": self_s("runtime.session"),
        "hardware.invocation_s": self_s("hardware.invocation"),
        "hardware.invocation_calls": calls("hardware.invocation"),
        "tune.evaluate_s": self_s("tune.evaluate"),
        "serve.quote_s": self_s("serve.quote"),
        "serve.quote_calls": calls("serve.quote"),
        "serve.numerics_s": self_s("serve.numerics"),
        "serve.exact_sim_s": exact_sim_s,
        "serve.exact_jobs": exact_jobs,
        "serve.scheduler_self_s": self_s("serve.scheduler"),
    }
    for kind in ("data_dependent", "monitor", "fault_in_flight", "other"):
        metrics[f"dataflow.fallbacks.{kind}"] = int(
            counters.get(f"dataflow.fallbacks.{kind}", 0))
    for name in scenarios:
        metrics[f"scenarios.{name}.run_s"] = total_s(f"scenarios.{name}.run")
    return metrics
