"""Property suite: the general stencil machine batches exactly.

Three layers are checked against their scalar references on random
inputs: the buffer's analytic jump (``feed_bulk`` after any number of
scalar feeds equals the scalar feeds, register for register and port
report for port report), whole ``run_stencil_kernel`` passes (batched
exact equals ``batched=False``, outputs and stats, for the suite's
window ops and a radius-2 one), and faulted passes (same typed error,
same fault trace; a dropped word keeps the rest of the run scalar).  The :class:`WindowOp` contract guard is pinned
too: a rule that is not elementwise fails loudly on the batched path.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.errors import DataflowError, FaultError
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.buoyancy import (
    buoyancy_boundary_from_window,
    buoyancy_from_window,
)
from repro.kernel.diffusion import (
    diffusion_boundary_from_window,
    diffusion_from_window,
)
from repro.kernel.generic import WindowOp, run_stencil_kernel
from repro.scenarios.conformance import STATS_BATCH_KEYS
from repro.shiftbuffer.general import GeneralShiftBuffer
from repro.shiftbuffer.ports import MemoryPortTracker

_GRID = Grid(nx=4, ny=4, nz=4, dx=20.0, dy=30.0, dz=10.0)

#: name -> (radius, op): the suite's two kernels, the identity and a
#: radius-2 mean.
OPS = {
    "diffusion": (1, WindowOp(
        interior=lambda w: diffusion_from_window(w, _GRID, 2.5),
        bottom=lambda w: diffusion_boundary_from_window(
            w, _GRID, 2.5, top=False),
        top=lambda w: diffusion_boundary_from_window(
            w, _GRID, 2.5, top=True))),
    "buoyancy": (1, WindowOp(
        interior=lambda w: buoyancy_from_window(w, 0.25),
        bottom=lambda w: buoyancy_boundary_from_window(w, 0.25, top=False),
        top=lambda w: buoyancy_boundary_from_window(w, 0.25, top=True))),
    "identity": (1, WindowOp(lambda w: w.at(0, 0, 0))),
    "mean-r2": (2, WindowOp(
        interior=lambda w: sum(w.at(d, 0, d) for d in range(-2, 3)) / 5.0,
        top=lambda w: w.at(0, 0, 2) - w.at(0, -1, 0))),
}


def _reports(tracker):
    return {name: dataclasses.asdict(report)
            for name, report in tracker.reports().items()}


def _stats_minus_batching(stats):
    return {key: value for key, value in stats.to_dict().items()
            if key not in STATS_BATCH_KEYS}


@st.composite
def blocks(draw, radius):
    side = 2 * radius + 1
    shape = tuple(side + draw(st.integers(0, 3)) for _ in range(3))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).normal(size=shape)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), radius=st.sampled_from([1, 2]))
def test_feed_bulk_equals_scalar_feeds(data, radius):
    """After k scalar feeds, feed_bulk(n) leaves exactly the state of
    k + n scalar feeds and reports the windows those feeds emit."""
    block = data.draw(blocks(radius))
    nx, ny, nz = block.shape
    total = nx * ny * nz
    k = data.draw(st.integers(0, total - 1))
    n = data.draw(st.integers(1, total - k))
    flat = block.reshape(-1)
    scalar = GeneralShiftBuffer(nx, ny, nz, radius=radius,
                                tracker=MemoryPortTracker(enforce=True))
    bulk = GeneralShiftBuffer(nx, ny, nz, radius=radius,
                              tracker=MemoryPortTracker(enforce=True))
    for value in flat[:k]:
        scalar.feed(float(value))
        bulk.feed(float(value))
    emitted = []
    for value in flat[k:k + n]:
        emitted.extend(scalar.feed(float(value)))
    first, stop = bulk.feed_bulk(n, block)

    np.testing.assert_array_equal(bulk._slab, scalar._slab)
    np.testing.assert_array_equal(bulk._lines, scalar._lines)
    np.testing.assert_array_equal(bulk._windows, scalar._windows)
    assert bulk.position == scalar.position
    assert bulk.fed == scalar.fed == k + n
    assert _reports(bulk.tracker) == _reports(scalar.tracker)
    assert stop - first == len(emitted)
    for index, window in zip(range(first, stop), emitted):
        cut = bulk.window_at(index, block)
        assert cut.center == window.center
        np.testing.assert_array_equal(cut.raw, window.raw)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(OPS)),
       depth=st.integers(4, 6))
def test_batched_run_equals_scalar_run(data, name, depth):
    """Same outputs, and identical stats once the batching bookkeeping
    is dropped, for every op on random blocks."""
    radius, op = OPS[name]
    block = data.draw(blocks(radius))
    nx, ny, nz = block.shape
    outs, stats = [], []
    for batched in (False, True):
        out = np.zeros((nx - 2 * radius, ny - 2 * radius, nz))
        stats.append(run_stencil_kernel(block, op, out, radius=radius,
                                        stream_depth=depth,
                                        batched=batched))
        outs.append(out)
    np.testing.assert_array_equal(outs[0], outs[1])
    assert _stats_minus_batching(stats[0]) == \
        _stats_minus_batching(stats[1])
    assert stats[1].batch_fallback_reason is None


@settings(max_examples=30, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(OPS)),
       kind=st.sampled_from(["corrupt", "drop"]),
       stream=st.sampled_from(["read.out->shift.in",
                               "shift.out->compute.in",
                               "compute.out->write.in"]),
       probability=st.sampled_from([0.002, 0.01, 0.05]),
       seed=st.integers(0, 1000))
def test_faulted_runs_agree(data, name, kind, stream, probability, seed):
    """Under a FIFO fault plan both paths end in the same typed error
    (or the same output) with the same fault trace."""
    radius, op = OPS[name]
    block = data.draw(blocks(radius))
    nx, ny, nz = block.shape
    legs = []
    for batched in (False, True):
        plan = FaultPlan([FaultSpec("fifo", kind, match=stream,
                                    probability=probability, count=1)],
                         seed=seed)
        out = np.zeros((nx - 2 * radius, ny - 2 * radius, nz))
        try:
            run_stencil_kernel(block, op, out, radius=radius,
                               batched=batched, fault_plan=plan)
            error = None
        except (FaultError, DataflowError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        legs.append((out, error, plan.trace_key()))
    (s_out, s_err, s_trace), (b_out, b_err, b_trace) = legs
    assert s_trace == b_trace
    assert s_err == b_err
    np.testing.assert_array_equal(s_out, b_out)


def _random_head_block():
    """Two random planes, then constant; words 0 and 1 are equal, so
    the first scalar feed still matches after word 0 is dropped."""
    block = np.full((14, 5, 5), 0.75)
    block[:2] = np.random.default_rng(3).normal(size=(2, 5, 5))
    block[0, 0, 0] = block[0, 0, 1]
    return block


def _one_odd_word_block():
    """Constant but for word 81, next to where seed 131 drops word 80,
    so only scalar firings between batched windows see the shift."""
    block = np.full((14, 5, 5), 0.75)
    block[3, 1, 1] = -1.0
    return block


@pytest.mark.parametrize("make_block, probability, seed", [
    (_random_head_block, 1.0, 0),
    (_one_odd_word_block, 0.01, 131),
], ids=["seen-by-a-window", "seen-by-a-scalar-firing"])
def test_dropped_word_keeps_the_run_scalar(make_block, probability, seed):
    """A word dropped upstream shifts the stream for good.  Once the
    shifted input runs into constant cells it matches the block again,
    but the buffer's history is still shifted, so the stage must not
    re-seed its registers from the block, whichever path (a batched
    window or a scalar firing) first saw the shift."""
    block = make_block()
    _radius, op = OPS["diffusion"]
    legs = []
    for batched in (False, True):
        plan = FaultPlan([FaultSpec("fifo", "drop",
                                    match="read.out->shift.in",
                                    probability=probability)], seed=seed)
        out = np.zeros((12, 3, 5))
        with pytest.raises(FaultError, match="lost in flight") as error:
            run_stencil_kernel(block, op, out, batched=batched,
                               fault_plan=plan)
        legs.append((out, str(error.value), plan.trace_key()))
    (s_out, s_err, s_trace), (b_out, b_err, b_trace) = legs
    assert s_trace == b_trace
    assert s_err == b_err
    np.testing.assert_array_equal(s_out, b_out)


class TestWindowOpContract:
    """A rule that is not elementwise raises a typed error naming the
    compute stage, instead of batching wrongly."""

    BLOCK = np.random.default_rng(1).normal(size=(6, 6, 8))

    def run(self, op, **kwargs):
        out = np.zeros((4, 4, 8))
        return run_stencil_kernel(self.BLOCK, op, out, **kwargs)

    def test_value_branch_raises(self):
        op = WindowOp(lambda w: w.at(0, 0, 0)
                      if w.at(0, 0, 0) > 0 else 0.0)
        self.run(op, batched=False)  # fine one window at a time
        with pytest.raises(DataflowError, match="'compute'.*elementwise"):
            self.run(op)

    def test_float_coercion_raises(self):
        op = WindowOp(lambda w: float(w.at(0, 0, 0)) * 2.0)
        with pytest.raises(DataflowError, match="'compute'.*elementwise"):
            self.run(op)

    @pytest.mark.parametrize("batched", [False, True])
    def test_wrong_shape_raises(self, batched):
        op = WindowOp(lambda w: (w.at(0, 0, 0), w.at(1, 0, 0)))
        with pytest.raises(DataflowError, match="'compute'.*shape"):
            self.run(op, batched=batched)

    def test_boundary_rule_is_guarded_too(self):
        op = WindowOp(lambda w: w.at(0, 0, 0),
                      top=lambda w: max(w.at(0, 0, 0), w.at(0, 0, 1)))
        with pytest.raises(DataflowError, match="top rule"):
            self.run(op)

    def test_constant_rule_broadcasts(self):
        """A constant is elementwise: it fills every window's cell."""
        stats = self.run(WindowOp(lambda w: 1.5))
        assert stats.batched_windows > 0
