"""A word dropped before the advection shift stage fails alike in both modes.

The stage's batched path serves from the chunk's backing block only
while every cell it consumed is the block's, bitwise.  After the first
off-block cell (here: the cell after a dropped word) both the batched
and the scalar path drop the backing for the rest of the run, so the
run ends in the same lost-word accounting error, with the same fault
trace and the same partial outputs, whichever path saw the shift first.
"""

import numpy as np
import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import FieldSet, SourceSet
from repro.core.grid import Grid
from repro.dataflow.engine import DataflowEngine
from repro.errors import FaultError
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.stages import ShiftBufferStage

GRID = Grid(8, 12, 8)
CONFIG = KernelConfig(grid=GRID, chunk_width=12)


def _random_fields():
    rng = np.random.default_rng(0)
    return FieldSet.from_interior(
        GRID, *(rng.normal(size=GRID.interior_shape) for _ in range(3)))


def _one_odd_word_fields():
    """Constant but for stream word 200 of ``v``: the cells after the
    dropped first word match the block until the odd word arrives,
    inside the prime's batched window."""
    fields = FieldSet.zeros(GRID)
    for array in (fields.u, fields.v, fields.w):
        array[...] = 0.75
    fields.v.reshape(-1)[200] = -1.0
    return fields


@pytest.mark.parametrize("make_fields, seen_by_window", [
    (_random_fields, False),
    (_one_odd_word_fields, True),
], ids=["seen-by-a-scalar-firing", "seen-by-a-window"])
def test_dropped_read_word_fails_alike_batched_and_scalar(
        monkeypatch, make_fields, seen_by_window):
    # Which path drops the backing: the window path goes through
    # ``_track``, the scalar path checks inline.
    window_drops = []
    track = ShiftBufferStage._track

    def spy(self, values):
        had = self._backing is not None
        track(self, values)
        window_drops.append(had and self._backing is None)

    monkeypatch.setattr(ShiftBufferStage, "_track", spy)

    chunk = CONFIG.chunk_plan().chunks[0]
    legs = []
    for batched in (False, True):
        window_drops.clear()
        out = SourceSet.zeros(GRID)
        graph = build_advection_graph(
            CONFIG, make_fields(), chunk,
            AdvectionCoefficients.uniform(GRID), out)
        plan = FaultPlan([FaultSpec("fifo", "drop", match="read_data*")])
        with pytest.raises(FaultError, match="lost in flight") as error:
            DataflowEngine(graph, batched=batched, fault_plan=plan).run()
        legs.append((out, str(error.value), plan.trace_key()))
    assert any(window_drops) is seen_by_window

    (s_out, s_err, s_trace), (b_out, b_err, b_trace) = legs
    assert s_trace == b_trace
    assert s_err == b_err
    for name in ("su", "sv", "sw"):
        np.testing.assert_array_equal(getattr(s_out, name),
                                      getattr(b_out, name))
