"""Single-file Chrome/Perfetto export of the whole observability plane.

One JSON, loadable in ``ui.perfetto.dev`` or ``chrome://tracing``,
carrying every timeline the stack produces:

* the **engine process** — dataflow-stage activity spans, shift-buffer
  prime/steady phases, kernel chunk spans and batched windows, all
  on the deterministic cycle clock (scaled to wall microseconds by the
  kernel clock when one is given);
* the **host process** — the command-queue schedule's transfer/compute
  events, re-using :func:`repro.runtime.trace_export.to_trace_events`
  so ``repro run --trace`` and ``repro trace`` emit identical shapes;
* the **fleet process** — the serving layer's job spans, one row per
  device lane (plus the admission queue), on the scheduler's
  modelled-seconds clock: job occupancy, device-loss/blip markers,
  reshard and half-open-probe instants.

Tracks map to Chrome thread rows: every span/instant/counter naming the
same track shares one row, and rows keep first-recorded order.
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.observe.trace import Tracer

if TYPE_CHECKING:
    from repro.runtime.simulator import ScheduleResult

__all__ = ["tracer_to_events", "build_trace", "write_trace", "ENGINE_PID",
           "SCHEDULE_PID", "SERVE_PID"]

#: pid of the engine (cycle-clock) process in the merged trace.
ENGINE_PID = 1
#: pid of the host-schedule (seconds-clock) process.
SCHEDULE_PID = 2
#: pid of the serving fleet (modelled-seconds clock), one row per lane.
SERVE_PID = 3


def tracer_to_events(tracer: Tracer, *, pid: int = ENGINE_PID,
                     process_name: str = "engine",
                     time_scale_us: float = 1.0) -> list[dict[str, Any]]:
    """Convert a tracer's records to Trace Event Format dicts.

    ``time_scale_us`` converts the tracer's native unit to microseconds:
    pass ``1e6 / clock_hz`` for a cycle-clock tracer to land on real
    time, or leave 1.0 to view one cycle as one microsecond.
    """
    if time_scale_us <= 0:
        raise ConfigurationError(
            f"time_scale_us must be positive, got {time_scale_us}"
        )
    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": process_name},
    }]
    tids = {track: tid for tid, track in enumerate(tracer.tracks())}
    for track, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
        events.append({
            "name": "thread_sort_index", "ph": "M", "pid": pid, "tid": tid,
            "args": {"sort_index": tid},
        })
    for span in tracer.spans:
        events.append({
            "name": span.name,
            "cat": span.category or span.track,
            "ph": "X",
            "pid": pid,
            "tid": tids[span.track],
            "ts": span.start * time_scale_us,
            "dur": span.duration * time_scale_us,
            "args": dict(span.args),
        })
    for inst in tracer.instants:
        events.append({
            "name": inst.name,
            "ph": "i",
            "s": "t",  # thread-scoped marker
            "pid": pid,
            "tid": tids[inst.track],
            "ts": inst.ts * time_scale_us,
            "args": dict(inst.args),
        })
    for sample in tracer.counters:
        events.append({
            "name": sample.name,
            "ph": "C",
            "pid": pid,
            "tid": tids[sample.track],
            "ts": sample.ts * time_scale_us,
            "args": dict(sample.values),
        })
    return events


def build_trace(tracer: Tracer | None = None,
                schedule: "ScheduleResult | None" = None, *,
                serve_tracer: Tracer | None = None,
                process_name: str = "advection",
                cycle_time_us: float = 1.0) -> dict[str, Any]:
    """Merge tracers and/or a schedule into one Chrome trace payload.

    The engine's spans land in pid 1 on the (scaled) cycle clock, the
    schedule's transfer/compute events in pid 2 on modelled seconds, and
    a fleet scheduler's ``serve_tracer`` in pid 3 with its
    modelled-seconds records scaled to microseconds — one thread row per
    device lane, so device loss, resharding and breaker probes line up
    against the jobs they displaced.
    """
    if tracer is None and schedule is None and serve_tracer is None:
        raise ConfigurationError(
            "build_trace needs a tracer, a schedule, or a serve tracer"
        )
    events: list[dict[str, Any]] = []
    if tracer is not None:
        events.extend(tracer_to_events(
            tracer, pid=ENGINE_PID, process_name=f"{process_name} [engine]",
            time_scale_us=cycle_time_us))
    if schedule is not None:
        from repro.runtime.trace_export import to_trace_events

        events.extend(to_trace_events(
            schedule, process_name=f"{process_name} [host]",
            pid=SCHEDULE_PID))
    if serve_tracer is not None:
        events.extend(tracer_to_events(
            serve_tracer, pid=SERVE_PID,
            process_name=f"{process_name} [fleet]",
            time_scale_us=1e6))  # modelled seconds -> microseconds
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace(path: str | pathlib.Path, tracer: Tracer | None = None,
                schedule: "ScheduleResult | None" = None, *,
                serve_tracer: Tracer | None = None,
                process_name: str = "advection",
                cycle_time_us: float = 1.0) -> pathlib.Path:
    """Write the merged trace JSON; returns the path written."""
    path = pathlib.Path(path)
    payload = build_trace(tracer, schedule, serve_tracer=serve_tracer,
                          process_name=process_name,
                          cycle_time_us=cycle_time_us)
    path.write_text(json.dumps(payload))
    return path
