"""The call-scoped orbit memo: later chunks skip the detection plane.

A memo hit must be indistinguishable from a fresh run (no memo) and
from the scalar reference, except for the batching bookkeeping; graphs
whose control keys differ, or that have none, must never share; a
memoised orbit the machine does not follow is a typed error; and the
memo's scope is one call, so repeated calls replay byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import AdvectionCoefficients
from repro.core.fields import SOURCE_NAMES, SourceSet
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.dataflow import orbits as orbits_module
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.orbits import OrbitMemo, control_key
from repro.dataflow.stage import ConstStage, FunctionStage, SinkStage
from repro.errors import DataflowError
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.builder import build_advection_graph
from repro.kernel.config import KernelConfig
from repro.kernel.simulate import simulate_kernel
from repro.kernel.stages import ShiftBufferStage
from repro.observe import Tracer
from repro.observe.export import build_trace
from repro.scenarios import get
from repro.scenarios.conformance import STATS_BATCH_KEYS
from repro.shiftbuffer.ports import MemoryPortTracker


def run_chunks(config, fields, *, batched=True, orbits=None, read_ii=1,
               max_cycles=10_000_000, retype=None):
    """``simulate_kernel``'s chunk loop with an explicit memo (or none).

    Returns ``(sources, per-chunk stats, error text or None)``;
    ``retype`` swaps the shift stage's class before each run.
    """
    grid = config.grid
    coeffs = AdvectionCoefficients.uniform(grid)
    out = SourceSet.zeros(grid)
    tracker = MemoryPortTracker(enforce=True)
    stats = []
    for chunk in config.chunk_plan().chunks:
        graph = build_advection_graph(config, fields, chunk, coeffs, out,
                                      read_ii=read_ii, tracker=tracker)
        if retype is not None:
            graph.stage("shift_buffer").__class__ = retype
        try:
            stats.append(DataflowEngine(graph, batched=batched,
                                        orbits=orbits,
                                        max_cycles=max_cycles).run())
        except DataflowError as error:
            return out, stats, f"{type(error).__name__}: {error}"
    return out, stats, None


def minus_batching(stats):
    return [{key: value for key, value in run.to_dict().items()
             if key not in STATS_BATCH_KEYS} for run in stats]


def scalar_cycles(stats):
    return [run.cycles - run.batched_cycles for run in stats]


def same_sources(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in SOURCE_NAMES)


@settings(max_examples=30, deadline=None)
@given(nx=st.integers(3, 6), nz=st.integers(3, 7),
       nz_twin=st.sampled_from([0, 1]), width=st.integers(2, 5),
       chunks=st.integers(2, 3), extra=st.integers(0, 2),
       read_ii=st.sampled_from([1, 2]), shift_ii=st.sampled_from([1, 2]),
       budget=st.sampled_from([None, None, None, 150, 900]),
       seed=st.integers(0, 2**31 - 1))
def test_memo_hit_equals_fresh_equals_scalar(nx, nz, nz_twin, width, chunks,
                                             extra, read_ii, shift_ii,
                                             budget, seed):
    """Two chunked kernels of equal chunk shape, the second possibly one
    level taller, share one memo; every chunk's stats (minus batching),
    output and raised error equal a memo-less run and the scalar run."""
    memo = OrbitMemo()
    for depth in (nz, nz + nz_twin):
        grid = Grid(nx=nx, ny=width * chunks + min(extra, width - 1),
                    nz=depth)
        config = KernelConfig(grid=grid, chunk_width=width,
                              shift_buffer_ii=shift_ii)
        fields = random_wind(grid, seed=seed, magnitude=2.0)
        kwargs = {"read_ii": read_ii,
                  "max_cycles": budget if budget is not None else 10_000_000}
        hit = run_chunks(config, fields, orbits=memo, **kwargs)
        fresh = run_chunks(config, fields, **kwargs)
        scalar = run_chunks(config, fields, batched=False, **kwargs)
        for other in (fresh, scalar):
            assert hit[2] == other[2]
            assert minus_batching(hit[1]) == minus_batching(other[1])
            assert same_sources(hit[0], other[0])


def three_chunks(seed=5, nz=6):
    grid = Grid(nx=8, ny=18, nz=nz)
    return (KernelConfig(grid=grid, chunk_width=6),
            random_wind(grid, seed=seed, magnitude=2.0))


def test_later_chunks_skip_the_detection_plane():
    config, fields = three_chunks()
    tracer = Tracer()
    result = simulate_kernel(config, fields, tracer=tracer)
    scalar = scalar_cycles(result.chunk_stats)
    period = max(span.args["period"] for span in tracer.spans_on("engine")
                 if span.name.startswith("batched x")
                 and span.end <= result.chunk_stats[0].cycles)
    assert all(later <= scalar[0] - period for later in scalar[1:])
    assert [run.batched_windows for run in result.chunk_stats] \
        == [2, 2, 2]


def test_near_twin_with_another_nz_misses():
    config, fields = three_chunks(nz=6)
    twin, twin_fields = three_chunks(nz=7)
    memo = OrbitMemo()
    run_chunks(config, fields, orbits=memo)
    held = len(memo)
    assert held > 0
    shared = run_chunks(twin, twin_fields, orbits=memo)
    # The twin's first chunk pays its own plane: its full stats,
    # batching included, equal a memo-less run of that chunk.
    alone = run_chunks(twin, twin_fields, orbits=OrbitMemo())
    assert shared[1][0].to_dict() == alone[1][0].to_dict()
    assert len(memo) > held


class _InheritingShift(ShiftBufferStage):
    """Declares no key of its own: a subclass never inherits one."""


def test_graph_with_a_keyless_stage_never_hits():
    config, fields = three_chunks()
    memo = OrbitMemo()
    shared = run_chunks(config, fields, orbits=memo,
                        retype=_InheritingShift)
    fresh = run_chunks(config, fields, retype=_InheritingShift)
    assert len(memo) == 0
    assert [run.to_dict() for run in shared[1]] \
        == [run.to_dict() for run in fresh[1]]

    def const_graph():
        graph = DataflowGraph("const")
        graph.add(ConstStage("src", 2.0, 300))
        graph.add(FunctionStage("double", lambda x: 2 * x, latency=3))
        graph.add(SinkStage("sink"))
        graph.connect("src", "out", "double", "in", depth=2)
        graph.connect("double", "out", "sink", "in", depth=2)
        return graph

    graph = const_graph()
    assert control_key(graph.topological_order(), graph.streams) is None
    first = DataflowEngine(graph, orbits=memo).run()
    second = DataflowEngine(const_graph(), orbits=memo).run()
    assert len(memo) == 0
    assert first.to_dict() == second.to_dict()


def test_chunks_of_one_shape_share_a_key():
    config, fields = three_chunks()
    grid = config.grid
    coeffs = AdvectionCoefficients.uniform(grid)
    out = SourceSet.zeros(grid)
    keys = []
    for chunk in config.chunk_plan().chunks:
        graph = build_advection_graph(config, fields, chunk, coeffs, out)
        keys.append(control_key(graph.topological_order(), graph.streams))
    assert keys[0] is not None and keys[0] == keys[1] == keys[2]


@pytest.mark.parametrize("tamper", ["rotate", "delta"])
def test_an_orbit_the_machine_does_not_follow_raises(tamper):
    config, fields = three_chunks()
    memo = OrbitMemo()
    grid = config.grid
    coeffs = AdvectionCoefficients.uniform(grid)
    out = SourceSet.zeros(grid)
    first, second = config.chunk_plan().chunks[:2]
    DataflowEngine(build_advection_graph(config, fields, first, coeffs,
                                         out), orbits=memo).run()
    steady = [record for _key, record in memo._stored if record.period > 1]
    assert steady
    for record in steady:
        if tamper == "rotate":
            record.sigs = record.sigs[1:] + record.sigs[:1]
        else:
            record.delta[0][:, 1] += 1  # one retirement too many
    with pytest.raises(DataflowError):
        DataflowEngine(build_advection_graph(config, fields, second,
                                             coeffs, out),
                       orbits=memo).run()


def test_active_fault_plan_keeps_the_memo_out():
    config, fields = three_chunks()
    memo = OrbitMemo()
    plan = FaultPlan([FaultSpec("fifo", "drop", match="no-such-stream")])
    grid = config.grid
    graph = build_advection_graph(config, fields,
                                  config.chunk_plan().chunks[0],
                                  AdvectionCoefficients.uniform(grid),
                                  SourceSet.zeros(grid))
    stats = DataflowEngine(graph, fault_plan=plan, orbits=memo).run()
    assert stats.batched_windows > 0
    assert len(memo) == 0


def test_memo_is_bounded(monkeypatch):
    """Past the state cap the oldest orbits go, and the results stay."""
    config, fields = three_chunks()
    reference = run_chunks(config, fields)
    for cap in (1, 40):
        monkeypatch.setattr(orbits_module, "_MEMO_STATE_CAP", cap)
        memo = OrbitMemo()
        bounded = run_chunks(config, fields, orbits=memo)
        assert memo.states <= cap
        assert minus_batching(bounded[1]) == minus_batching(reference[1])
        assert same_sources(bounded[0], reference[0])


def test_simulate_replays_byte_for_byte():
    """One memo per call: a repeat call, and a call after an unrelated
    call of the same shape, report the same stats and trace."""
    config, fields = three_chunks()

    def traced_run():
        tracer = Tracer()
        result = simulate_kernel(config, fields, tracer=tracer)
        return ([json.dumps(run.to_dict()) for run in result.chunk_stats],
                json.dumps(build_trace(tracer)))

    first = traced_run()
    assert traced_run() == first
    simulate_kernel(config, three_chunks(seed=9)[1])
    assert traced_run() == first


def test_scenario_replays_byte_for_byte():
    scenario = get("diffusion-batch")

    def stats():
        return json.dumps(scenario.run(seed=0).stats.to_dict())

    first = stats()
    assert stats() == first
    scenario.run(seed=3)
    assert stats() == first


def test_stencil_passes_share_their_orbits():
    """The general stencil machine keys its stages too: a second pass of
    one shape skips the plane the first ticked, and stays exact."""
    from repro.kernel.generic import run_stencil_kernel
    from repro.scenarios.kernels import DiffusionKernel

    grid = Grid(nx=6, ny=7, nz=8)
    op = DiffusionKernel().window_op(grid)
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((8, 9, 8)) for _ in range(2)]

    def run(block, **kwargs):
        out = np.zeros(grid.interior_shape)
        return out, run_stencil_kernel(block, op, out, stream_depth=4,
                                       **kwargs)

    memo = OrbitMemo()
    _out, first = run(blocks[0], orbits=memo)
    shared_out, shared = run(blocks[1], orbits=memo)
    fresh_out, fresh = run(blocks[1])
    scalar_out, scalar = run(blocks[1], batched=False)
    for out, stats in ((fresh_out, fresh), (scalar_out, scalar)):
        assert np.array_equal(shared_out, out)
        assert minus_batching([shared]) == minus_batching([stats])
    assert scalar_cycles([shared])[0] < scalar_cycles([fresh])[0] \
        == scalar_cycles([first])[0]
