"""A generic cycle-level stencil kernel over the general shift buffer.

The advection kernel's dataflow shape — ``read -> shift buffer ->
compute -> write`` — is not specific to advection.  This module provides
that shape for *any* per-window computation, so new stencil kernels (the
diffusion kernel, or a user's own) get a cycle-accurate dataflow
simulation for free:

* :class:`GeneralShiftBufferStage` — streams one value per cycle into a
  :class:`~repro.shiftbuffer.general.GeneralShiftBuffer` and emits its
  windows;
* :class:`WindowComputeStage` — evaluates a :class:`WindowOp` on each
  window, yielding the centre cell plus, at the column ends, the
  vertical boundary cell (the FIFO-absorbed burst pattern);
* :class:`ScatterWriteStage` — scatters results into an output array;
* :func:`run_stencil_kernel` — wires and runs the whole machine.

Batched exact execution
-----------------------
Every stage's control is data-independent, so the machine batches like
the advection graph does.  A feed emits iff its position is at least
``2r`` on every axis, so the shift stage's signature is its fill
position (``"prime"`` before the first emitting feed, ``(min(x, 2r), y,
z)`` after): the prime batches as a period-1 window and the steady state
one plane per period.  A window's burst size is a closed-form function
of its centre height, never of data.  In :meth:`~repro.dataflow.stage.
Stage.fire_bulk` the buffer jumps ahead analytically
(:meth:`~repro.shiftbuffer.general.GeneralShiftBuffer.feed_bulk`),
windows travel as a lazy run of emission indices, and each
:class:`WindowOp` rule is evaluated once per window run on a
:class:`WindowBatch` — the same rule code the scalar path evaluates on a
:class:`~repro.shiftbuffer.general.GeneralWindow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.dataflow.bulk import (
    Bulk,
    FireBulkResult,
    ListBulk,
    ListFireResult,
    UniformFireResult,
)
from repro.dataflow.engine import DataflowEngine, RunStats
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.orbits import OrbitMemo
from repro.dataflow.stage import SourceStage, Stage
from repro.errors import ConfigurationError, DataflowError, ShiftBufferError
from repro.kernel.stages import AdvectResultBulk
from repro.shiftbuffer.general import (GeneralShiftBuffer, GeneralWindow,
                                      fill_capacity, fill_signature)
from repro.shiftbuffer.ports import MemoryPortTracker

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.observe.metrics import MetricRegistry
    from repro.observe.trace import Tracer

__all__ = [
    "WindowOp",
    "WindowBatch",
    "WindowRunBulk",
    "GeneralShiftBufferStage",
    "WindowComputeStage",
    "ScatterWriteStage",
    "run_stencil_kernel",
]

#: One window rule: an elementwise expression over a window accessor —
#: ``at(di, dj, dk)`` taps and ``center`` — returning the cell's value.
WindowRule = Callable[[Any], Any]


@dataclass(frozen=True)
class WindowOp:
    """The per-window computation of the generic stencil machine.

    ``interior`` gives the window's centre cell.  ``bottom`` (optional)
    gives the ``k = 0`` cell from the window centred at ``k = r``;
    ``top`` (optional) gives the ``k = nz - 1`` cell from the window
    centred at ``k = nz - 1 - r``.  A window's burst is therefore
    ``1 + [bottom and cz == r] + [top and cz == nz - 1 - r]`` results —
    closed-form in the centre height, never data-dependent.

    Each rule must be elementwise: arithmetic over the accessor's taps,
    no branching on values.  The scalar path evaluates it on a
    :class:`~repro.shiftbuffer.general.GeneralWindow` (floats), batched
    execution on a :class:`WindowBatch` (arrays), so one implementation
    serves both.
    """

    interior: WindowRule
    bottom: WindowRule | None = None
    top: WindowRule | None = None


class _NotElementwise(TypeError):
    """A window rule used a batched tap as a scalar (a value branch)."""


class _Lanes(np.ndarray):
    """One stencil tap across a batch of windows; refuses scalar use."""

    def __bool__(self) -> bool:
        raise _NotElementwise("truth value of a batched window tap")

    def __float__(self) -> float:
        raise _NotElementwise("float() of a batched window tap")


class WindowBatch:
    """The window accessor over many windows at once.

    ``at(di, dj, dk)`` gathers the tap of every window from the backing
    block at its centre vector; ``center`` is the ``(cx, cy, cz)``
    vectors.  Values are arrays that refuse truth tests, so a rule that
    branches on data fails loudly instead of batching wrongly.
    """

    __slots__ = ("center", "radius", "_flat", "_base", "_sx", "_sy")

    def __init__(self, backing: np.ndarray, cx: np.ndarray, cy: np.ndarray,
                 cz: np.ndarray, radius: int) -> None:
        _nx, ny, nz = backing.shape
        self.center = (cx.view(_Lanes), cy.view(_Lanes), cz.view(_Lanes))
        self.radius = radius
        self._flat = backing.reshape(-1)
        self._sx, self._sy = ny * nz, nz
        self._base = cx * self._sx + cy * self._sy + cz

    def at(self, di: int, dj: int, dk: int) -> np.ndarray:
        """Tap ``(di, dj, dk)`` of every window, each in ``[-r, r]``."""
        r = self.radius
        if not (-r <= di <= r and -r <= dj <= r and -r <= dk <= r):
            raise ShiftBufferError(
                f"offset ({di}, {dj}, {dk}) outside radius {r}"
            )
        offset = di * self._sx + dj * self._sy + dk
        return self._flat[self._base + offset].view(_Lanes)


class WindowRunBulk(Bulk):
    """A run of general shift-buffer emissions addressed by flat index.

    Windows are only cut (:meth:`GeneralShiftBuffer.window_at`) for the
    few that end up inside FIFOs or stage pipelines when exact ticking
    resumes; the compute stage evaluates the rest straight from the
    backing block.
    """

    def __init__(self, buffer: GeneralShiftBuffer, backing: np.ndarray,
                 start: int, stop: int) -> None:
        self.buffer = buffer
        self.backing = backing
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def slice(self, start: int, stop: int) -> "WindowRunBulk":
        self._check_range(start, stop)
        return WindowRunBulk(self.buffer, self.backing, self.start + start,
                             self.start + stop)

    def materialize(self) -> list[GeneralWindow]:
        return [self.buffer.window_at(e, self.backing)
                for e in range(self.start, self.stop)]

    def centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centre coordinate vectors of every window in this run."""
        return self.buffer.emission_centers(self.start, self.stop)


class GeneralShiftBufferStage(Stage):
    """Feeds a radius-``r`` shift buffer; emits its windows.

    ``backing`` (the streamed block) unlocks the batched firing path:
    the buffer jumps ahead analytically and emissions travel as a
    :class:`WindowRunBulk` instead of materialised windows.  It serves
    only while every value consumed is the block's (:meth:`_track`).
    """

    input_ports = ("in",)
    output_ports = ("out",)

    #: Zero or one window per feed breaks the one-word-in/one-word-out
    #: premise of the static occupancy proof; runtime recurrence
    #: detection still batches this stage because :meth:`ff_signature`
    #: carries the fill position.
    unit_rate = False

    def __init__(self, name: str, nx: int, ny: int, nz: int, *,
                 radius: int = 1, ii: int = 1, latency: int = 2,
                 tracker: MemoryPortTracker | None = None,
                 backing: np.ndarray | None = None) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self.buffer = GeneralShiftBuffer(
            nx, ny, nz, radius=radius,
            tracker=tracker if tracker is not None
            else MemoryPortTracker(enforce=False),
            name=name,
        )
        if backing is not None and backing.shape != (nx, ny, nz):
            raise DataflowError(
                f"shift stage {name!r}: backing shape {backing.shape} "
                f"does not match extents ({nx}, {ny}, {nz})"
            )
        self._backing = None if backing is None else np.ascontiguousarray(
            backing, dtype=float)
        #: The backing's bit patterns in stream order, for :meth:`_track`.
        self._bits = None if backing is None \
            else self._backing.reshape(-1).view(np.int64)

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        (value,) = inputs["in"]
        value = float(value)
        if self._backing is not None:
            fed = self.buffer.fed
            if fed >= self._bits.size or \
                    np.float64(value).view(np.int64) != self._bits[fed]:
                self._backing = None  # see _track
        windows = self.buffer.feed(value)
        return {"out": windows} if windows else {}

    def ff_signature(self, cycle: int) -> tuple:
        return super().ff_signature(cycle) + fill_signature(self.buffer)

    def ff_control_key(self) -> tuple:
        # Extents and radius fix the prime length, the plane period and
        # which feeds emit.
        buffer = self.buffer
        return (buffer.nx, buffer.ny, buffer.nz, buffer.radius)

    def ff_fire_capacity(self, want: int) -> int:
        return fill_capacity(self.buffer, want)

    def _track(self, values: np.ndarray) -> None:
        """Drop the backing for good unless ``values`` continue it.

        The backing stays only while every value fed so far is the
        block's, bitwise: after one off-block word (a word dropped or
        corrupted upstream) the registers hold history the block cannot
        reproduce, even where later input matches it again.
        """
        fed = self.buffer.fed
        if not np.array_equal(values.view(np.int64),
                              self._bits[fed:fed + len(values)]):
            self._backing = None

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        if len(inputs.get("in", ())) != count:
            raise DataflowError(
                f"shift stage {self.name!r}: batched window consumed "
                f"{len(inputs.get('in', ()))} values for {count} firings"
            )
        # Off-block input takes the exact per-firing loop, identical to
        # scalar ticking, for the rest of the run.
        if self._backing is not None:
            self._track(np.asarray(inputs["in"].materialize(), dtype=float))
        backing = self._backing
        if backing is None:
            return super().fire_bulk(count, inputs, cycle)
        first, stop = self.buffer.feed_bulk(count, backing)
        return UniformFireResult(
            {"out": WindowRunBulk(self.buffer, backing, first, stop)})


class _BurstFireResult(FireBulkResult):
    """Fire-bulk result of the compute stage: one burst per firing.

    Results travel as one array-backed run; ``ends[i]`` is one past the
    last result of firing ``i``.
    """

    def __init__(self, results: AdvectResultBulk, ends: np.ndarray) -> None:
        self._results = results
        self._ends = ends
        self.producing_firings = len(ends)

    def port_total(self, port: str) -> int:
        return len(self._results) if port == "out" else 0

    def head_bulk(self, port: str, count: int) -> Bulk:
        if count == 0:
            return ListBulk([])
        return self._results.slice(0, int(self._ends[count - 1]))

    def tail_firings(self, count: int) -> list[dict[str, list[Any]]]:
        n = len(self._ends)
        firings = []
        for i in range(n - count, n):
            start = int(self._ends[i - 1]) if i else 0
            firings.append({"out": self._results.slice(
                start, int(self._ends[i])).materialize()})
        return firings


class WindowComputeStage(Stage):
    """Evaluates a :class:`WindowOp`; forwards its (center, value) burst."""

    input_ports = ("in",)
    output_ports = ("out",)

    #: Bursts of up to three results per window break the unit-rate
    #: premise of the static proof (runtime detection still batches).
    unit_rate = False

    def __init__(self, name: str, op: WindowOp, *, nz: int,
                 radius: int = 1, ii: int = 1, latency: int = 8) -> None:
        super().__init__(name, ii=ii, latency=latency)
        if not isinstance(op, WindowOp):
            raise DataflowError(
                f"stage {name!r}: expected a WindowOp, got "
                f"{type(op).__name__}"
            )
        self._op = op
        self._nz = nz
        self._radius = radius

    def ff_control_key(self) -> tuple:
        # A window's burst is closed-form in its centre height: nz, the
        # radius and which boundary rules exist decide it, the rules'
        # arithmetic does not.
        op = self._op
        return (self._nz, self._radius, op.bottom is not None,
                op.top is not None)

    def _scalar(self, label: str, value: Any) -> Any:
        """One rule's value for one window, held to the shape contract."""
        if np.ndim(value) != 0:
            raise DataflowError(
                f"stage {self.name!r}: {label} rule returned shape "
                f"{np.shape(value)} for one window"
            )
        return value

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        (window,) = inputs["in"]
        op, r = self._op, self._radius
        cx, cy, cz = window.center
        results = [(window.center,
                    self._scalar("interior", op.interior(window)))]
        if op.bottom is not None and cz == r:
            results.append(((cx, cy, 0),
                            self._scalar("bottom", op.bottom(window))))
        if op.top is not None and cz == self._nz - 1 - r:
            results.append(((cx, cy, self._nz - 1),
                            self._scalar("top", op.top(window))))
        return {"out": results}

    def _evaluate(self, label: str, rule: WindowRule,
                  batch: WindowBatch, n: int) -> np.ndarray:
        """One rule over a window batch, held to the elementwise contract."""
        try:
            values = np.asarray(rule(batch), dtype=float)
        except _NotElementwise as error:
            raise DataflowError(
                f"stage {self.name!r}: {label} rule is not elementwise "
                f"({error}); window rules must not branch on values"
            ) from error
        if values.shape == ():
            values = np.full(n, values)
        if values.shape != (n,):
            raise DataflowError(
                f"stage {self.name!r}: {label} rule returned shape "
                f"{values.shape} for {n} windows"
            )
        return values

    def _fire_run(self, run: WindowRunBulk
                  ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Vectorised bursts of a window run: result arrays and counts."""
        op, r, nz = self._op, self._radius, self._nz
        cx, cy, cz = run.centers()
        n = len(cx)
        bottom = (cz == r) if op.bottom is not None else np.zeros(n, bool)
        top = (cz == nz - 1 - r) if op.top is not None \
            else np.zeros(n, bool)
        counts = 1 + bottom.astype(np.int64) + top
        ends = np.cumsum(counts)
        starts = ends - counts
        total = int(ends[-1]) if n else 0
        ox = np.empty(total, np.int64)
        oy = np.empty(total, np.int64)
        oz = np.empty(total, np.int64)
        ov = np.empty(total)
        batch = WindowBatch(run.backing, cx, cy, cz, r)
        ox[starts], oy[starts], oz[starts] = cx, cy, cz
        ov[starts] = self._evaluate("interior", op.interior, batch, n)
        for label, rule, mask, pos, k in (
                ("bottom", op.bottom, bottom, starts + 1, 0),
                ("top", op.top, top, ends - 1, nz - 1)):
            sel = np.flatnonzero(mask)
            if rule is None or not len(sel):
                continue
            at = pos[sel]
            ox[at], oy[at], oz[at] = cx[sel], cy[sel], k
            ov[at] = self._evaluate(
                label, rule,
                WindowBatch(run.backing, cx[sel], cy[sel], cz[sel], r),
                len(sel))
        return (ox, oy, oz, ov), counts

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        bulk = inputs["in"]
        if len(bulk) != count:
            raise DataflowError(
                f"compute {self.name!r}: batched window consumed "
                f"{len(bulk)} windows for {count} firings"
            )
        columns: list[tuple[np.ndarray, ...]] = []
        counts: list[np.ndarray] = []
        for part in bulk.parts():
            if isinstance(part, WindowRunBulk):
                arrays, part_counts = self._fire_run(part)
            elif len(part):
                bursts = [self.fire(cycle, {"in": [window]})["out"]
                          for window in part.materialize()]
                flat = [item for burst in bursts for item in burst]
                arrays = (
                    np.array([c[0] for c, _ in flat], np.int64),
                    np.array([c[1] for c, _ in flat], np.int64),
                    np.array([c[2] for c, _ in flat], np.int64),
                    np.array([v for _, v in flat], float),
                )
                part_counts = np.array([len(b) for b in bursts], np.int64)
            else:
                continue
            columns.append(arrays)
            counts.append(part_counts)
        if not columns:
            return ListFireResult([])
        results = AdvectResultBulk(
            *(np.concatenate(column) for column in zip(*columns)))
        return _BurstFireResult(results, np.cumsum(np.concatenate(counts)))


class ScatterWriteStage(Stage):
    """Writes (center, value) results into an interior output array.

    Centres arrive in the streamed block's halo coordinates; the stage
    shifts them by the halo depth before scattering.
    """

    input_ports = ("in",)
    output_ports: tuple[str, ...] = ()

    def __init__(self, name: str, out: np.ndarray, *, halo: int = 1,
                 ii: int = 1, latency: int = 4) -> None:
        super().__init__(name, ii=ii, latency=latency)
        self._out = out
        self._halo = halo
        self.cells_written = 0

    def fire(self, cycle: int, inputs: Mapping[str, list]):
        ((center, value),) = inputs["in"]
        cx, cy, cz = center
        self._out[cx - self._halo, cy - self._halo, cz] = value
        self.cells_written += 1
        return {}

    def ff_control_key(self) -> tuple:
        return ()

    def fire_bulk(self, count: int, inputs: dict[str, Bulk],
                  cycle: int) -> FireBulkResult:
        bulk = inputs["in"]
        if len(bulk) != count:
            raise DataflowError(
                f"write {self.name!r}: batched window consumed "
                f"{len(bulk)} results for {count} firings"
            )
        h = self._halo
        for part in bulk.parts():
            if isinstance(part, AdvectResultBulk):
                self._out[part.cx - h, part.cy - h, part.cz] = part.values
            else:
                for (cx, cy, cz), value in part.materialize():
                    self._out[cx - h, cy - h, cz] = value
        self.cells_written += count
        # Writes land at fire time and never enter the pipeline.
        return ListFireResult([])


def run_stencil_kernel(block: np.ndarray, op: WindowOp, out: np.ndarray, *,
                       radius: int = 1, stream_depth: int = 4,
                       tracker: MemoryPortTracker | None = None,
                       max_cycles: int = 10_000_000,
                       batched: bool = True,
                       fault_plan: "FaultPlan | None" = None,
                       watchdog: int | None = None,
                       tracer: "Tracer | None" = None,
                       metrics: "MetricRegistry | None" = None,
                       orbits: OrbitMemo | None = None) -> RunStats:
    """Run one stencil kernel pass, cycle-accurately.

    Parameters
    ----------
    block:
        The halo-extended input block, streamed Z-fastest.
    op:
        The :class:`WindowOp` evaluated per window; a window with
        boundary rules bursts up to three results (the downstream FIFO
        must absorb the burst: ``stream_depth`` >= the largest burst + 1).
    out:
        Interior output array, shape ``(nx - 2r, ny - 2r, nz)`` in the
        x/y axes with the full z extent of ``block``.
    batched:
        Engine execution mode.  Every stage's control is
        data-independent, so batched exact execution runs the prime and
        the steady state in batched windows, bit-identical to
        ``batched=False`` (which keeps the real register machine,
        :meth:`~repro.shiftbuffer.general.GeneralShiftBuffer.feed`).
    fault_plan, watchdog, tracer, metrics, orbits:
        Passed straight to the :class:`~repro.dataflow.engine.
        DataflowEngine` (FIFO word faults, stage freezes, cycle
        watchdog, observability sinks, the call's orbit memo).
    """
    if block.ndim != 3:
        raise ConfigurationError(
            f"expected a 3-D block, got shape {block.shape}"
        )
    if not isinstance(op, WindowOp):
        raise ConfigurationError(
            f"op must be a WindowOp, got {type(op).__name__}"
        )
    nx, ny, nz = block.shape
    expected = (nx - 2 * radius, ny - 2 * radius, nz)
    if out.shape != expected:
        raise ConfigurationError(
            f"output shape {out.shape} does not match expected {expected}"
        )

    backing = np.ascontiguousarray(block, dtype=float)
    graph = DataflowGraph("stencil")
    graph.add(SourceStage("read", iter(backing.reshape(-1))))
    shift = graph.add(GeneralShiftBufferStage(
        "shift", nx, ny, nz, radius=radius, tracker=tracker,
        backing=backing))
    compute = graph.add(WindowComputeStage("compute", op, nz=nz,
                                           radius=radius))
    write = graph.add(ScatterWriteStage("write", out, halo=radius))
    graph.connect("read", "out", shift, "in", depth=stream_depth)
    graph.connect(shift, "out", compute, "in", depth=stream_depth)
    graph.connect(compute, "out", write, "in", depth=stream_depth)
    return DataflowEngine(graph, max_cycles=max_cycles, batched=batched,
                          fault_plan=fault_plan, watchdog=watchdog,
                          tracer=tracer, metrics=metrics,
                          orbits=orbits).run()
