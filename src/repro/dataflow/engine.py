"""The cycle-driven simulation engine.

The engine ticks every stage once per clock cycle, in topological order
(producers before consumers, so a value can traverse at most one stage per
cycle *boundary* while each stage still enforces its own pipeline latency).
It terminates when the whole machine is quiescent — every source exhausted,
every pipeline drained, every stream empty — and reports cycle counts plus
stall breakdowns, the numbers the paper uses to argue a design achieves
II = 1.

Batched exact execution
-----------------------
Every library stage's firing *counts* depend only on control state
(pipeline fill, II timer, shift-buffer position), never on data values.
With ``batched=True`` (the default) the engine compiles the graph
(:mod:`repro.dataflow.compiled`) and fingerprints the complete control
state each cycle (:meth:`~repro.dataflow.stage.Stage.ff_signature` per
stage plus every stream occupancy), keeping each cycle's fingerprint and
counter snapshot on a trail.  When the same fingerprint recurs ``P``
cycles later the machine is provably periodic — a deterministic system
revisiting a state replays it exactly — and the trail between the two
occurrences is the period's whole orbit.  A window of ``N`` whole
periods plus a tail of ``k < P`` cycles is then executed as one batched
step:

* counters (fires, retirements, stalls, pushes, pops) grow by ``N`` times
  their per-period delta, measured between the two matching cycles, plus
  the orbit's delta over its first ``k`` cycles;
* data flows through the graph in bulk: each stage's
  :meth:`~repro.dataflow.stage.Stage.fire_bulk` processes its firings at
  once (vectorised where the stage supports it), FIFO semantics pin the
  few items left in streams and stage pipelines, and each stage installs
  the orbit's recorded state ``k`` cycles in
  (:meth:`~repro.dataflow.stage.Stage.ff_commit`);
* the window is capped by every stage's remaining capacity
  (:meth:`~repro.dataflow.stage.Stage.ff_fire_capacity`): whole periods
  may spend a stage's last unit, a tail stops just before it, so a
  window ends exactly at boundary events — source exhaustion, the shift
  buffer's prime boundary — and in a state the orbit recorded.  The
  machine is fingerprinted once after a tail; landing off the orbit
  raises :class:`~repro.errors.DataflowError`.

On the kernel graphs the shift stages fingerprint their prime as one
state, so the prime batches as one short-period window; what stays
scalar is the pipeline fill before it, one plane of recurrence
detection before the steady window — once per call and shape, see
below — and the drain after the source's last cell.

Orbits committed on a trail can be shared between the runs of one call
through an :class:`~repro.dataflow.orbits.OrbitMemo` (``orbits=``): a
run whose graph has the same control key and reaches any memoised
fingerprint opens its window at once, with snapshots rebuilt from the
memoised relative counters, so the chunks of a chunked simulation after
the first skip their detection plane.  The machine is fingerprinted
once after every memo window, and landing off the orbit raises
:class:`~repro.errors.DataflowError`.  The memo is neither read nor
written under an active fault plan.

Windows are *event-aware*: monitor sample cycles, fault freeze
boundaries and previewed FIFO fault strikes bound each window and are
always executed on the scalar path, so monitored and faulted runs
accelerate too.  For unit-rate graphs the compiled graph carries a
statically proven period (``period_hint``); the engine then arms a
single probe at that horizon instead of hunting for a recurrence, and a
wrong hint costs speed, never correctness.  A probe records no orbit,
so its windows keep to whole periods.

Results are bit-identical to ``batched=False`` scalar ticking —
statistics, stream occupancies, sink data, fault traces, and raised
errors — with the batched/scalar split reported on
:attr:`RunStats.batched_windows` / :attr:`RunStats.batched_cycles`.
Where batching cannot apply (an every-cycle monitor, a corrupted word
left in flight, or a stage vetoing the fingerprint because its control
is data-dependent, such as a starved arbiter) the run falls back to
scalar ticking and the reason is recorded on
:attr:`RunStats.batch_fallback_reason` rather than swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.dataflow.compiled import (EventCalendar, compile_graph,
                                     execute_window, machine_signature)
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.monitors import Monitor
from repro.dataflow.orbits import OrbitMemo, control_key
from repro.dataflow.stage import Stage
from repro.errors import DataflowError, FaultError, LintError, WatchdogTimeout

if TYPE_CHECKING:  # imported lazily to keep dataflow import-cycle free
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = ["DataflowEngine", "RunStats"]

#: Signature trail cap: beyond this many recorded control states the
#: run is clearly not periodic at a useful scale; the trail is cleared
#: to bound memory and detection re-arms from scratch.
_FF_TRAIL_CAP = 65_536

#: Consecutive probe misses before a *learned* period is
#: dropped and trail detection resumes (a statically proven period is
#: never dropped — a wrong one only costs speed).
_LEARNED_MISS_CAP = 8


class _Trail:
    """The control states of consecutive cycles since detection (re)armed.

    ``states[j]`` is the ``(signature, counter snapshot)`` of cycle
    ``start + j``; ``first`` maps each distinct signature to the cycle it
    first occurred.  When a signature recurs, the states between its two
    occurrences are the period's whole orbit, so a window may end at any
    offset of it.
    """

    __slots__ = ("first", "states", "start")

    def __init__(self) -> None:
        self.first: dict[Any, int] = {}
        self.states: list[tuple[tuple, tuple]] = []
        self.start = 0

    def clear(self) -> None:
        self.first.clear()
        self.states.clear()

    def record(self, cycle: int, sig: tuple, snapshot: tuple) -> None:
        """Append the state of ``cycle`` (the cycle after the last one)."""
        if not self.states:
            self.start = cycle
        elif len(self.states) >= _FF_TRAIL_CAP:
            self.clear()
            self.start = cycle
        self.first.setdefault(sig, cycle)
        self.states.append((sig, snapshot))

    def orbit(self, cycle: int, sig: tuple) -> list[tuple[tuple, tuple]] | None:
        """The recorded orbit if ``sig`` at ``cycle`` recurs, else None."""
        first = self.first.get(sig)
        if first is None:
            return None
        return self.states[first - self.start:cycle - self.start]

    def slide(self, cycle: int, sig: tuple, snapshot: tuple) -> None:
        """Keep one period: drop the orbit's first state, record ``cycle``.

        Called when a hit at ``cycle`` was deferred: the next cycle's
        hit then finds its orbit one cycle on, and a machine parked for
        many cycles keeps a trail of one period, not one entry per cycle.
        """
        keep = self.first[sig] + 1 - self.start
        for old_sig, _snapshot in self.states[:keep]:
            del self.first[old_sig]
        del self.states[:keep]
        self.start += keep
        self.first[sig] = cycle
        self.states.append((sig, snapshot))


@dataclass
class RunStats:
    """Result of one engine run."""

    cycles: int
    #: stage name -> fires
    fires: dict[str, int] = field(default_factory=dict)
    #: stage name -> {"input": n, "output": n, "ii": n, "pipeline": n}
    stalls: dict[str, dict[str, int]] = field(default_factory=dict)
    #: stream name -> max occupancy observed
    stream_high_water: dict[str, int] = field(default_factory=dict)
    #: number of batched windows committed (``batched=True``)
    batched_windows: int = 0
    #: cycles executed inside those batched windows; the scalar-fallback
    #: remainder is ``cycles - batched_cycles``.
    batched_cycles: int = 0
    #: why batched exact execution was (partly) disabled mid-run: an
    #: every-cycle monitor, a corrupted word left in flight, or a
    #: data-dependent stage veto.  ``None`` when batching never had to
    #: fall back (including ``batched=False`` runs).
    batch_fallback_reason: str | None = None

    def throughput(self, stage: str) -> float:
        """Average results per cycle for one stage (1.0 == ideal II=1)."""
        if self.cycles <= 0:
            return 0.0
        return self.fires.get(stage, 0) / self.cycles

    def total_stalls(self, stage: str) -> int:
        return sum(self.stalls.get(stage, {}).values())

    @classmethod
    def merge(cls, runs: Iterable["RunStats"]) -> "RunStats":
        """Aggregate several runs (e.g. per-chunk stats) into one summary.

        Cycles, fires, stalls, and batched counters add up; stream
        high-water marks take the maximum, matching their meaning as a
        sizing bound.  Distinct ``batch_fallback_reason`` values are all
        kept (joined with ``"; "`` in first-seen order) — different chunks
        can fall back for different causes and each deserves to surface.
        """
        merged = cls(cycles=0)
        fallback_reasons: list[str] = []
        for run in runs:
            merged.cycles += run.cycles
            for name, fires in run.fires.items():
                merged.fires[name] = merged.fires.get(name, 0) + fires
            for name, stalls in run.stalls.items():
                into = merged.stalls.setdefault(name, {})
                for kind, count in stalls.items():
                    into[kind] = into.get(kind, 0) + count
            for name, high in run.stream_high_water.items():
                merged.stream_high_water[name] = max(
                    merged.stream_high_water.get(name, 0), high)
            merged.batched_windows += run.batched_windows
            merged.batched_cycles += run.batched_cycles
            if run.batch_fallback_reason is not None \
                    and run.batch_fallback_reason not in fallback_reasons:
                fallback_reasons.append(run.batch_fallback_reason)
        merged.batch_fallback_reason = (
            "; ".join(fallback_reasons) if fallback_reasons else None)
        return merged

    def to_dict(self) -> dict:
        """JSON-ready dump (stable key order for golden snapshots)."""
        return {
            "cycles": self.cycles,
            "fires": {name: self.fires[name] for name in sorted(self.fires)},
            "stalls": {
                name: dict(self.stalls[name]) for name in sorted(self.stalls)
            },
            "stream_high_water": {
                name: self.stream_high_water[name]
                for name in sorted(self.stream_high_water)
            },
            "batched_windows": self.batched_windows,
            "batched_cycles": self.batched_cycles,
            "batch_fallback_reason": self.batch_fallback_reason,
        }

    def split_lines(self, total_cycles: int) -> list[str]:
        """The ``batched:`` / ``fallback:`` lines of a run report over
        ``total_cycles`` cycles (``repro simulate``, conformance)."""
        lines = []
        if self.batched_windows:
            scalar = total_cycles - self.batched_cycles
            lines.append(f"batched:  {self.batched_cycles} cycles in "
                         f"{self.batched_windows} windows "
                         f"({self.batched_cycles / total_cycles:.1%} of "
                         f"the run), {scalar} scalar")
        if self.batch_fallback_reason:
            lines.append(f"fallback: {self.batch_fallback_reason}")
        return lines

    def summary(self) -> str:
        """Human-readable multi-line run summary."""
        lines = [f"cycles: {self.cycles}"]
        if self.batched_windows:
            lines[0] += (
                f" ({self.batched_cycles} batched in "
                f"{self.batched_windows} windows, "
                f"{self.cycles - self.batched_cycles} scalar)"
            )
        if self.batch_fallback_reason is not None:
            lines.append(
                f"  batched fallback: {self.batch_fallback_reason}")
        for name in sorted(self.fires):
            stalls = self.stalls.get(name, {})
            lines.append(
                f"  {name}: fires={self.fires[name]} "
                f"throughput={self.throughput(name):.3f} "
                f"stalls(in={stalls.get('input', 0)}, out={stalls.get('output', 0)}, "
                f"ii={stalls.get('ii', 0)}, pipe={stalls.get('pipeline', 0)})"
            )
        return "\n".join(lines)


class DataflowEngine:
    """Runs a :class:`DataflowGraph` to quiescence.

    Parameters
    ----------
    graph:
        The wired dataflow graph; :meth:`DataflowGraph.validate` is called
        before the first cycle.
    max_cycles:
        Hard cap to bound runaway simulations.
    monitors:
        Optional probes sampled once per cycle (honouring each monitor's
        ``sample_every``/``sample_phase`` stride, when present).
    batched:
        Execute provably periodic event-free windows as batched steps
        via :mod:`repro.dataflow.compiled` (see module docstring).  On
        by default; ``batched=False`` is the scalar reference: pure
        per-cycle ticking.  Results are bit-identical either way — only
        wall-clock time and the ``batched_*`` counters change.
    lint:
        When True, run the full graph-family lint pass
        (:func:`repro.lint.lint_graph`) before the first cycle and raise
        :class:`~repro.errors.LintError` on any error diagnostic — the
        synthesis-time pre-flight the HLS tools would perform.  Off by
        default: :meth:`DataflowGraph.validate` already covers the hard
        structural errors, and tests deliberately run odd graphs.
    watchdog:
        Optional cycle budget for the whole run.  Where ``max_cycles``
        models the simulator's own runaway guard, the watchdog models the
        *host's* patience: exceeding it raises
        :class:`~repro.errors.WatchdogTimeout` (a
        :class:`~repro.errors.FaultError`), which the checkpointed layers
        treat as a retriable fault.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  At run start the
        engine arms matching FIFO fault hooks and stage freeze windows;
        their strikes and boundaries bound batched windows.
    tracer:
        Optional :class:`~repro.observe.trace.Tracer`.  When enabled, the
        run emits one activity span per stage (first to last progressing
        cycle, with fire/stall counts attached), prime/steady phase spans
        for stages exposing ``first_emit_cycle`` (the shift buffer),
        batched window spans, and fallback markers — all on the
        engine's cycle clock.  Unlike monitors, a tracer never bounds a
        batched window: it records phase boundaries and aggregates that
        batched windows preserve exactly, never per-cycle samples.
    metrics:
        Optional :class:`~repro.observe.metrics.MetricRegistry`.  At the
        end of the run the engine feeds ``engine_cycles``,
        ``stage_fires``/``stage_stalls`` counters, ``fifo_high_water``
        gauges and a ``stage_throughput`` histogram — a once-per-run
        cost, so an attached registry (enabled or not) leaves the tick
        loop untouched.
    orbits:
        Optional :class:`~repro.dataflow.orbits.OrbitMemo` shared by the
        runs of one call: orbits this run commits are stored under the
        graph's control key, and a memoised fingerprint opens a window
        without a detection plane (see module docstring).  ``None``
        detects every period afresh.
    """

    def __init__(self, graph: DataflowGraph, *, max_cycles: int = 10_000_000,
                 monitors: list[Monitor] | None = None,
                 stall_grace: int | None = None, batched: bool = True,
                 lint: bool = False, watchdog: int | None = None,
                 fault_plan: "FaultPlan | None" = None,
                 tracer: "Tracer | None" = None,
                 metrics: "MetricRegistry | None" = None,
                 orbits: OrbitMemo | None = None) -> None:
        if max_cycles < 1:
            raise DataflowError(f"max_cycles must be >= 1, got {max_cycles}")
        if stall_grace is not None and stall_grace < 1:
            raise DataflowError(
                f"stall_grace must be >= 1, got {stall_grace}"
            )
        if watchdog is not None and watchdog < 1:
            raise DataflowError(
                f"watchdog must be >= 1, got {watchdog}"
            )
        self.graph = graph
        self.max_cycles = max_cycles
        self.monitors = list(monitors or [])
        self.stall_grace = stall_grace
        self.batched = batched
        self.lint = lint
        self.watchdog = watchdog
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.metrics = metrics
        self.orbits = orbits

    def run(self) -> RunStats:
        """Simulate until quiescence and return run statistics."""
        if self.lint:
            from repro.lint import lint_graph

            report = lint_graph(self.graph)
            if not report.ok:
                raise LintError(
                    f"lint pre-flight failed for graph "
                    f"{self.graph.name!r}:\n{report.render_text()}"
                )
        self.graph.validate()
        order = self.graph.topological_order()
        # Arm the fault plan: FIFO word hooks and stage freeze windows.
        plan = self.fault_plan
        plan_active = plan is not None and plan.active
        freeze: dict[str, tuple[int, int | None]] = {}
        if plan is not None and plan_active:
            for stream in self.graph.streams:
                hook = plan.stream_hook(stream.name)
                if hook is not None:
                    stream.fault_hook = hook
            for stage in order:
                window = plan.freeze_window(stage.name)
                if window is not None:
                    freeze[stage.name] = window
        # A machine can legitimately make no visible progress for up to the
        # largest II (waiting out the interval); anything longer without
        # progress while non-idle is a deadlock (e.g. an undersized FIFO).
        # Stages gated by external resources (a starved memory arbiter)
        # may stall longer — callers model that via ``stall_grace``.
        grace = self.stall_grace if self.stall_grace is not None else (
            max(s.ii for s in order) + max(s.latency for s in order) + 1
        )
        # Monitors sampled on a stride skip the call entirely off-phase;
        # an empty monitor list skips the whole loop.
        monitor_plan = [
            (m, getattr(m, "sample_every", 1), getattr(m, "sample_phase", 0))
            for m in self.monitors
        ]
        # Batched windows are event-aware (repro.dataflow.compiled):
        # monitors and fault plans bound windows instead of vetoing them;
        # only an every-cycle monitor leaves nothing to batch.
        batch_reason: str | None = None
        batched = self.batched
        calendar: EventCalendar | None = None
        # Statically proved steady-state horizon (unit-rate graphs only):
        # probe at that period instead of trail hunting.
        proven: int | None = None
        if batched:
            for monitor, every, _phase in monitor_plan:
                if every <= 1:
                    batched = False
                    batch_reason = (
                        f"monitor {type(monitor).__name__} samples every "
                        f"cycle: no window can be skipped"
                    )
                    break
        if batched:
            compiled = compile_graph(self.graph)
            calendar = EventCalendar(
                monitors=[(every, phase)
                          for _, every, phase in monitor_plan],
                freeze=freeze,
                plan=plan if plan_active else None,
                hooked=[stream.name for stream in self.graph.streams
                        if stream.fault_hook is not None],
            )
            proven = compiled.period_hint
        # Orbits memoised under this graph's control key, fingerprint ->
        # (orbit, offset); None when no memo serves this run.  A fault
        # plan perturbs counters mid-orbit, so it keeps the memo out.
        memo: dict | None = None
        memo_key: tuple | None = None
        if batched and self.orbits is not None and not plan_active:
            memo_key = control_key(order, self.graph.streams)
            if memo_key is not None:
                memo = self.orbits.table(memo_key)
        trail = _Trail()
        #: Armed probe under a known period: (signature, cycle, snapshot).
        probe: tuple[Any, int, tuple] | None = None
        #: Learned period: after the first trail hit, probe at the
        #: committed period so windows re-open immediately after each
        #: scalar event cycle.  Dropped after repeated misses.
        learned: int | None = None
        probe_misses = 0
        batched_windows = 0
        batched_cycles = 0
        plan_trace_len = len(plan.trace) if plan is not None else 0
        boundaries = calendar.boundaries if calendar is not None else ()
        boundary_idx = 0
        streams = list(self.graph.streams)
        stream_index = {stream.name: i for i, stream in enumerate(streams)}
        cap = (self.max_cycles if self.watchdog is None
               else min(self.max_cycles, self.watchdog))
        # Activity tracking (stage name -> [first, last] progressing cycle)
        # only runs with an *enabled* tracer: the flag is hoisted here so a
        # compiled-in-but-disabled tracer costs nothing inside the loop.
        tracer = self.tracer
        trace_on = tracer is not None and tracer.enabled
        activity: dict[str, list[int]] = {}
        veto_cycle: int | None = None

        cycle = 0
        last_progress = 0
        while cycle < cap:
            progressed = False
            if trace_on:
                for stage in order:
                    window = freeze.get(stage.name) if freeze else None
                    if window is not None and window[0] <= cycle and (
                            window[1] is None or cycle < window[1]):
                        continue  # frozen: the stage does nothing
                    if stage.tick(cycle):
                        progressed = True
                        slot = activity.get(stage.name)
                        if slot is None:
                            activity[stage.name] = [cycle, cycle]
                        else:
                            slot[1] = cycle
            elif not freeze:
                for stage in order:
                    progressed |= stage.tick(cycle)
            else:
                for stage in order:
                    window = freeze.get(stage.name)
                    if window is not None and window[0] <= cycle and (
                            window[1] is None or cycle < window[1]):
                        continue  # frozen: the stage does nothing
                    progressed |= stage.tick(cycle)
            for monitor, every, phase in monitor_plan:
                if every <= 1 or cycle % every == phase:
                    monitor.sample(cycle, self.graph)
            if progressed:
                last_progress = cycle
            else:
                if self._quiescent():
                    cycle += 1
                    break
                if cycle - last_progress > grace:
                    raise DataflowError(
                        f"dataflow deadlock in graph {self.graph.name!r} at "
                        f"cycle {cycle}: no progress for {cycle - last_progress} "
                        f"cycles; stream states: "
                        + ", ".join(
                            f"{s.name}={s.occupancy}/{s.depth}"
                            for s in self.graph.streams
                        )
                    )
            if batched and plan_active:
                # A fault struck on the scalar path this cycle.  A
                # corrupt strike leaves a CorruptedWord in flight, and
                # the bulk relay would consume it past the consumer-side
                # ECC check — scalar ticking for the rest of the run.
                # Any other strike (a dropped word) perturbs the
                # counters mid-measurement: a period measured across it
                # would replay polluted deltas (the producer's retire
                # rate includes the vanished word, the consumer's pop
                # rate does not), so recurrence detection restarts from
                # the post-strike state.
                assert plan is not None
                if len(plan.trace) != plan_trace_len:
                    trail.clear()
                    probe = None
                    for event in plan.trace[plan_trace_len:]:
                        if event.site == "fifo" and event.kind == "corrupt":
                            batched = False
                            batch_reason = (
                                f"corrupted word in flight on stream "
                                f"{event.name!r}: bulk relay would bypass "
                                f"the consumer-side ECC check"
                            )
                            veto_cycle = cycle
                            break
                    plan_trace_len = len(plan.trace)
            if batched and boundary_idx < len(boundaries) \
                    and boundaries[boundary_idx] <= cycle + 1:
                # Crossing a freeze boundary changes which stages tick:
                # periods measured across it are invalid.
                while boundary_idx < len(boundaries) \
                        and boundaries[boundary_idx] <= cycle + 1:
                    boundary_idx += 1
                trail.clear()
                probe = None
            if batched:
                sig, veto_stage = machine_signature(order, streams, cycle + 1)
                if sig is None:
                    # A stage vetoed (data-dependent control, e.g. a
                    # starved arbiter): scalar ticking for the rest of
                    # the run.
                    batch_reason = (
                        f"stage {veto_stage!r} vetoed steady-state "
                        f"detection (data-dependent control)"
                    )
                    batched = False
                    trail.clear()
                    probe = None
                    veto_cycle = cycle
                else:
                    hit: tuple[int, list] | None = None
                    horizon = proven if proven is not None else learned
                    if horizon is not None:
                        # Known period (statically proven or learned
                        # from a committed window): no trail, one probe,
                        # whole periods only.
                        if probe is not None \
                                and (cycle + 1) - probe[1] == horizon:
                            if sig == probe[0]:
                                hit = (probe[1], [(sig, probe[2])])
                                probe_misses = 0
                            elif proven is None:
                                probe_misses += 1
                                if probe_misses >= _LEARNED_MISS_CAP:
                                    # The learned period went stale;
                                    # back to trail detection.
                                    learned = None
                                    probe_misses = 0
                            probe = None  # re-armed below on a miss
                        if hit is None and probe is None \
                                and (proven is not None
                                     or learned is not None):
                            probe = (sig, cycle + 1, self._ff_snapshot(order))
                    else:
                        orbit = trail.orbit(cycle + 1, sig)
                        if orbit is None:
                            trail.record(cycle + 1, sig,
                                         self._ff_snapshot(order))
                        else:
                            hit = (cycle + 1 - len(orbit), orbit)
                    # A memoised orbit (committed earlier in this call)
                    # opens the window without a detection plane.
                    from_memo = False
                    if hit is None and memo:
                        found = memo.get(sig)
                        if found is not None:
                            record, offset = found
                            hit = (cycle + 1 - record.period,
                                   record.replay(offset,
                                                 self._ff_snapshot(order)))
                            from_memo = True
                    if hit is None:
                        cycle += 1
                        continue
                    first_cycle, orbit = hit
                    period = (cycle + 1) - first_cycle
                    fires_before = ({s.name: s.stats.fires for s in order}
                                    if trace_on else None)
                    # A whole orbit found here is stored once its window
                    # commits; its counters are read before they move.
                    now = (self._ff_snapshot(order)
                           if memo is not None and not from_memo
                           and len(orbit) == period else None)
                    assert calendar is not None
                    skipped = execute_window(
                        order, streams, stream_index, cycle + 1, period,
                        orbit, cap, calendar, verify=from_memo)
                    if skipped > 0:
                        if now is not None:
                            assert self.orbits is not None \
                                and memo_key is not None
                            self.orbits.store(memo_key, orbit, now)
                        batched_windows += 1
                        batched_cycles += skipped
                        # Probe at the committed period from now on:
                        # windows re-open one period after each scalar
                        # event cycle instead of re-hunting.
                        learned = period
                        probe_misses = 0
                        if trace_on:
                            assert fires_before is not None
                            tracer.add_span(
                                f"batched x{skipped}", "engine",
                                cycle + 1, cycle + 1 + skipped,
                                category="batched",
                                period=period)
                            for stage in order:
                                if stage.stats.fires \
                                        <= fires_before[stage.name]:
                                    continue
                                slot = activity.get(stage.name)
                                if slot is None:
                                    activity[stage.name] = [cycle + 1,
                                                            cycle + skipped]
                                else:
                                    slot[1] = cycle + skipped
                        cycle += skipped
                        last_progress = cycle
                        # Counters moved: every stored snapshot is stale.
                        trail.clear()
                        probe = None
                    elif skipped < 0:
                        # No supply left for even one cycle (sources at
                        # their end): the remaining run is short; tick it.
                        batched = False
                        trail.clear()
                        probe = None
                    elif horizon is None and not from_memo:
                        # A parked zero-fire period, or an event due
                        # within one period: detection state stays
                        # valid, and the trail slides on so the next
                        # hit finds its whole orbit.  (A deferred memo
                        # hit leaves the trail as this cycle recorded
                        # it.)
                        trail.slide(cycle + 1, sig,
                                    self._ff_snapshot(order))
            cycle += 1
        else:
            if self.watchdog is not None and cap == self.watchdog:
                raise WatchdogTimeout(
                    f"graph {self.graph.name!r} exceeded its watchdog "
                    f"budget of {self.watchdog} cycles without quiescing"
                )
            raise DataflowError(
                f"graph {self.graph.name!r} did not quiesce within "
                f"{self.max_cycles} cycles"
            )

        if plan is not None and plan.active:
            # End-of-run accounting: a healthy quiescent stream has seen
            # every pushed word popped (or still holds it).  A shortfall
            # means an injected drop swallowed data that nothing checked
            # downstream — surface it as a typed error, never silently.
            for stream in self.graph.streams:
                lost = (stream.stats.pushes - stream.stats.pops
                        - stream.occupancy)
                if lost > 0:
                    raise FaultError(
                        f"{lost} word(s) lost in flight on stream "
                        f"{stream.name!r} (push/pop accounting mismatch "
                        f"at quiescence)"
                    )

        stats = RunStats(
            cycles=cycle,
            fires={s.name: s.stats.fires for s in order},
            stalls={
                s.name: {
                    "input": s.stats.input_stalls,
                    "output": s.stats.output_stalls,
                    "ii": s.stats.ii_waits,
                    "pipeline": s.stats.pipeline_full_stalls,
                }
                for s in order
            },
            stream_high_water={
                s.name: s.stats.max_occupancy for s in self.graph.streams
            },
            batched_windows=batched_windows,
            batched_cycles=batched_cycles,
            batch_fallback_reason=batch_reason,
        )
        if trace_on:
            self._emit_spans(stats, order, activity, veto_cycle)
        if self.metrics is not None and self.metrics.enabled:
            self._emit_metrics(stats)
        return stats

    # -- observability (end-of-run, never in the tick loop) ---------------------

    def _emit_spans(self, stats: RunStats, order: list[Stage],
                    activity: dict[str, list[int]],
                    veto_cycle: int | None) -> None:
        """Emit the run's spans onto the attached (enabled) tracer."""
        tracer = self.tracer
        assert tracer is not None
        tracer.add_span(
            self.graph.name, "engine", 0, stats.cycles, category="run",
            cycles=stats.cycles,
            batched_windows=stats.batched_windows,
            batched_cycles=stats.batched_cycles)
        if stats.batch_fallback_reason is not None:
            tracer.instant("batched execution fell back", "engine",
                           ts=float(veto_cycle if veto_cycle is not None
                                    else 0),
                           reason=stats.batch_fallback_reason)
        for stage in order:
            window = activity.get(stage.name)
            if window is None:
                continue
            first, last = window[0], window[1] + 1
            stalls = stats.stalls[stage.name]
            tracer.add_span(
                "active", stage.name, first, last, category="stage",
                fires=stats.fires[stage.name],
                throughput=round(stats.throughput(stage.name), 4),
                **stalls)
            # Stages exposing first_emit_cycle (the shift buffer) split
            # into the paper's prime/steady phases: priming consumes
            # without producing, steady state emits every cycle.
            first_emit = getattr(stage, "first_emit_cycle", None)
            if first_emit is not None and first <= first_emit <= last:
                tracer.add_span("prime", stage.name, first, first_emit,
                                category="phase")
                tracer.add_span("steady", stage.name, first_emit, last,
                                category="phase")
        for stream in self.graph.streams:
            if stream.stats.max_occupancy:
                tracer.counter("fifo_high_water", "fifo",
                               ts=float(stats.cycles),
                               **{stream.name: stream.stats.max_occupancy})

    def _emit_metrics(self, stats: RunStats) -> None:
        """Fold the run's statistics into the attached registry."""
        registry = self.metrics
        assert registry is not None
        registry.counter(
            "engine_cycles", "simulated cycles to quiescence",
        ).inc(stats.cycles)
        registry.counter(
            "engine_runs", "engine runs folded into this registry",
        ).inc()
        fires = registry.counter("stage_fires", "firings per stage")
        stalls = registry.counter(
            "stage_stalls", "stall cycles per stage and kind")
        throughput = registry.histogram(
            "stage_throughput", "per-run fires/cycle per stage")
        for name, count in stats.fires.items():
            fires.inc(count, stage=name)
            throughput.observe(stats.throughput(name), stage=name)
        for name, kinds in stats.stalls.items():
            for kind, count in kinds.items():
                stalls.inc(count, stage=name, kind=kind)
        high_water = registry.gauge(
            "fifo_high_water", "max FIFO occupancy per stream")
        for name, high in stats.stream_high_water.items():
            high_water.set_max(high, stream=name)
        if self.batched:
            registry.counter(
                "batched_windows", "batched exact windows committed",
            ).inc(stats.batched_windows)
            registry.counter(
                "scalar_fallback_cycles",
                "cycles ticked scalar outside batched windows",
            ).inc(stats.cycles - stats.batched_cycles)
            if stats.batch_fallback_reason is not None:
                registry.counter(
                    "batch_fallbacks",
                    "batched exact runs that fell back to scalar ticking",
                ).inc(reason=stats.batch_fallback_reason)

    # -- steady-state detection internals --------------------------------------

    def _ff_snapshot(self, order: list[Stage]) -> tuple[tuple, tuple]:
        """Counter snapshot paired with a signature's first occurrence.

        Flat tuples aligned with ``order`` / ``graph.streams`` — built
        once per simulated cycle, so no dict overhead.
        """
        stage_counts = tuple([
            (s.stats.fires, s.stats.retired, s.stats.input_stalls,
             s.stats.output_stalls, s.stats.ii_waits,
             s.stats.pipeline_full_stalls)
            for s in order
        ])
        stream_counts = tuple([
            (st.stats.pushes, st.stats.pops, st.stats.full_stalls,
             st.stats.empty_stalls)
            for st in self.graph.streams
        ])
        return (stage_counts, stream_counts)

    def _quiescent(self) -> bool:
        """True when nothing can ever happen again."""
        return all(stage.is_idle() for stage in self.graph.stages) and all(
            stream.is_empty for stream in self.graph.streams
        )
