"""Batched windows that batch the prime and end mid-period.

A table-detected window runs whole periods plus a tail of ``k`` cycles
and ends in the recorded orbit state ``k`` cycles into the period; the
shift stages fingerprint their prime as one state, so the prime batches
as one short-period window.  These properties hold the kernel and the
multi-kernel co-simulation (arbiter credits installed mid-period) to
the scalar reference on random shapes — the generic stencil machine's
are in ``test_generic_properties.py`` — and pin the two places a tail
could go wrong: a prime window ending at the prime boundary, and a tail
ending at the source's last cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.monitors import StreamProbe
from repro.dataflow.stage import ConstStage, FunctionStage, SinkStage
from repro.errors import DataflowError
from repro.kernel.config import KernelConfig
from repro.kernel.multi_simulate import simulate_multi_kernel
from repro.kernel.simulate import simulate_kernel
from repro.observe import Tracer
from repro.scenarios.conformance import STATS_BATCH_KEYS


def _stats(stats):
    return {key: value for key, value in stats.to_dict().items()
            if key not in STATS_BATCH_KEYS}


def _assert_sources_equal(a, b):
    for name in ("su", "sv", "sw"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@st.composite
def kernel_cases(draw, min_nx=1):
    nx = draw(st.integers(min_nx, 5))
    ny = draw(st.integers(1, 8))
    nz = draw(st.integers(3, 6))
    grid = Grid(nx=nx, ny=ny, nz=nz)
    config = KernelConfig(grid=grid,
                          chunk_width=draw(st.integers(2, ny + 1)),
                          shift_buffer_ii=draw(st.sampled_from([1, 2])))
    fields = random_wind(grid, seed=draw(st.integers(0, 2**16)))
    return config, fields


@settings(max_examples=40, deadline=None)
@given(case=kernel_cases(), read_ii=st.sampled_from([1, 2]))
def test_kernel_batched_equals_scalar(case, read_ii):
    """Per-chunk stats (batching bookkeeping dropped) and outputs."""
    config, fields = case
    scalar = simulate_kernel(config, fields, read_ii=read_ii, batched=False)
    batched = simulate_kernel(config, fields, read_ii=read_ii)
    assert [_stats(s) for s in batched.chunk_stats] \
        == [_stats(s) for s in scalar.chunk_stats]
    _assert_sources_equal(scalar.sources, batched.sources)
    assert batched.aggregate_stats().batch_fallback_reason is None


@settings(max_examples=30, deadline=None)
@given(case=kernel_cases(min_nx=2), kernels=st.integers(1, 2),
       headroom=st.sampled_from([0.0, 0.5, 1.25]))
def test_multi_kernel_batched_equals_scalar(case, kernels, headroom):
    """Ample bandwidth (never a denial): fractional rates make the
    arbiter's credit accumulator move mid-period, so a tail must
    install the recorded credits."""
    config, fields = case
    legs = [simulate_multi_kernel(config, fields, num_kernels=kernels,
                                  memory_cells_per_cycle=kernels + headroom,
                                  batched=batched)
            for batched in (False, True)]
    scalar, batched = legs
    assert batched.arbiter.denials == scalar.arbiter.denials == 0
    assert batched.total_cycles == scalar.total_cycles
    assert batched.chunk_cycles == scalar.chunk_cycles
    assert batched.arbiter.grants == scalar.arbiter.grants
    assert batched.arbiter._credits == scalar.arbiter._credits
    assert batched.batch_fallback_reason is None
    _assert_sources_equal(scalar.sources, batched.sources)


def _traced(config, fields, **kwargs):
    tracer = Tracer()
    result = simulate_kernel(config, fields, tracer=tracer, **kwargs)
    windows = [s for s in tracer.spans if s.category == "batched"]
    phases = {s.name: s for s in tracer.spans if s.category == "phase"}
    return result, windows, phases


def test_prime_window_ends_at_the_prime_boundary():
    """At shift II = 2 the prime is a period-2 orbit whose window stops
    exactly at the first emitting feed; nothing of the prime orbit may
    run past it."""
    grid = Grid(nx=4, ny=4, nz=6)
    fields = random_wind(grid, seed=2)
    config = KernelConfig(grid=grid, chunk_width=64, shift_buffer_ii=2)
    result, windows, phases = _traced(config, fields)
    scalar = simulate_kernel(config, fields, batched=False)
    prime = windows[0]
    assert prime.args["period"] == 2
    assert prime.end == phases["prime"].end == phases["steady"].start
    assert _stats(result.chunk_stats[0]) == _stats(scalar.chunk_stats[0])
    _assert_sources_equal(scalar.sources, result.sources)


def test_tail_stops_one_cycle_short_of_the_last_cell():
    """The steady window's tail ends where the read stage is about to
    fire its last cell: spending it would leave a state (``cursor <
    total`` false) the orbit never recorded, so that firing is scalar."""
    grid = Grid(nx=4, ny=4, nz=6)
    fields = random_wind(grid, seed=2)
    config = KernelConfig(grid=grid, chunk_width=64)
    result, windows, _phases = _traced(config, fields)
    scalar = simulate_kernel(config, fields, batched=False)
    steady = windows[-1]
    cells = (grid.nx + 2) * (grid.ny + 2) * grid.nz
    assert (steady.end - steady.start) % steady.args["period"] != 0
    assert steady.end == cells - 1  # the read fires cell i at cycle i
    assert _stats(result.chunk_stats[0]) == _stats(scalar.chunk_stats[0])
    _assert_sources_equal(scalar.sources, result.sources)


class _DutyStage(FunctionStage):
    """Rests every third cycle, counting cycles on the tick path only.

    The count is control state its signature carries but no batched
    window advances or installs, so a tail that is not a multiple of
    three cycles leaves it off the recorded orbit.
    """

    unit_rate = False

    def __init__(self, name):
        super().__init__(name, lambda x: x)
        self.ticks = 0

    def _try_fire(self, cycle):
        self.ticks += 1
        if self.ticks % 3 == 0:
            return False
        return super()._try_fire(cycle)

    def ff_signature(self, cycle):
        return super().ff_signature(cycle) + (self.ticks % 3,)


def _duty_graph():
    graph = DataflowGraph("duty")
    graph.add(ConstStage("src", 1.0, 200))
    graph.add(_DutyStage("duty"))
    graph.add(SinkStage("sink"))
    graph.connect("src", "out", "duty", "in", depth=4)
    graph.connect("duty", "out", "sink", "in", depth=4)
    return graph


def test_state_a_stage_cannot_install_raises():
    """A tail that lands off its recorded orbit is a typed error, never
    a silent mismatch.  The probe's samples end windows mid-period."""
    def probe():
        return [StreamProbe("src.out->duty.in", stride=50)]

    DataflowEngine(_duty_graph(), batched=False, monitors=probe()).run()
    with pytest.raises(DataflowError, match="recorded orbit.*'duty'"):
        DataflowEngine(_duty_graph(), monitors=probe()).run()


def test_a_hit_at_the_cycle_limit_runs_no_window():
    """A recurrence found on the last cycle before ``max_cycles`` opens
    no window: the run stops where the scalar run stops, with the same
    firings, instead of running a tail past the limit."""
    from repro.core.coefficients import AdvectionCoefficients
    from repro.core.fields import SourceSet
    from repro.kernel.builder import build_advection_graph

    grid = Grid(nx=4, ny=10, nz=4)
    config = KernelConfig(grid=grid, chunk_width=5)
    fields = random_wind(grid, seed=0, magnitude=2.0)
    chunk = config.chunk_plan().chunks[0]
    tracer = Tracer()
    DataflowEngine(build_advection_graph(
        config, fields, chunk, AdvectionCoefficients.uniform(grid),
        SourceSet.zeros(grid)), tracer=tracer).run()
    # The steady-state trail hit: limit the run to end right there.
    hit = max(span.start for span in tracer.spans_on("engine")
              if span.name.startswith("batched x"))
    fires = {}
    for batched in (True, False):
        graph = build_advection_graph(
            config, fields, chunk, AdvectionCoefficients.uniform(grid),
            SourceSet.zeros(grid))
        with pytest.raises(DataflowError, match="did not quiesce"):
            DataflowEngine(graph, batched=batched, max_cycles=hit).run()
        fires[batched] = {stage.name: stage.stats.fires
                          for stage in graph.stages}
    assert fires[True] == fires[False]
