"""The tuner's pricing layers do their work once per distinct input.

Each layer memoises a value that is a pure function of its key: the
device invocation prices one cycle breakdown per X-part width, a
session prices one kernel time per distinct X-chunk shape, and a
:class:`CostModel` lints once per (config, kernels) and runs the cycle
models once per config.  These properties hold every memoised layer to
a reference that recomputes everything, field for field and bit for
bit.
"""

import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid, GridDecomposition
from repro.hardware import ALVEO_U280, STRATIX10_GX2800, TESLA_V100
from repro.hardware.device import InvocationEstimate
from repro.kernel.config import KernelConfig
from repro.kernel.cycle_model import KernelCycleModel
from repro.runtime.overlap import ChunkWork
from repro.runtime.session import AdvectionSession
from repro.tune.cost import CostModel
from repro.tune.space import ParameterSpace

FPGAS = {"u280": ALVEO_U280, "stratix10": STRATIX10_GX2800}


def reference_invocation(device, config, grid, *, num_kernels, memory):
    """``FPGADevice.invocation`` with one cycle model per X-part."""
    data_bytes = config.bytes_per_cell_cycle * grid.num_cells
    mem_name = memory or device.select_memory(data_bytes)
    mem = device.memory_model(mem_name)
    clock_hz = device.clock.frequency_hz(num_kernels)
    burst = mem.chunk_burst_bytes(min(config.chunk_width, grid.ny),
                                  grid.nz, itemsize=config.word_bytes)
    decomp = GridDecomposition(grid, min(num_kernels, grid.nx))
    worst_compute = worst_memory = total_traffic = 0.0
    for part in range(decomp.parts):
        sub = decomp.subgrid(part)
        model = KernelCycleModel(config.for_grid(sub))
        worst_compute = max(worst_compute, model.cycles() / clock_hz)
        traffic = (config.in_bytes_per_cell * model.breakdown().feeds_total
                   + config.out_bytes_per_cell * sub.num_cells)
        total_traffic += traffic
        worst_memory = max(
            worst_memory,
            traffic / mem.effective_per_kernel(burst_bytes=burst))
    aggregate = total_traffic / mem.effective_aggregate(
        decomp.parts, burst_bytes=burst)
    memory_seconds = max(worst_memory, aggregate)
    return InvocationEstimate(
        seconds=max(worst_compute, memory_seconds)
        + device.launch_overhead_s,
        compute_seconds=worst_compute,
        memory_seconds=memory_seconds,
        num_kernels=decomp.parts,
        memory=mem_name,
        clock_hz=clock_hz,
    )


def _bits(estimate):
    """Every field, floats as their exact representation."""
    return {name: (value.hex() if isinstance(value, float) else value)
            for name, value in vars(estimate).items()}


@settings(max_examples=80, deadline=None)
@given(
    device_key=st.sampled_from(sorted(FPGAS)),
    nx=st.integers(1, 600),
    ny=st.integers(1, 300),
    nz=st.integers(3, 96),
    num_kernels=st.integers(1, 8),
    chunk_width=st.integers(2, 320),
    word_bytes=st.sampled_from([2, 4, 8]),
    memory_index=st.integers(0, 2),
)
def test_invocation_matches_the_per_part_reference(
        device_key, nx, ny, nz, num_kernels, chunk_width, word_bytes,
        memory_index):
    device = FPGAS[device_key]
    grid = Grid(nx, ny, nz)
    config = KernelConfig(grid=grid, chunk_width=chunk_width,
                          word_bytes=word_bytes)
    # Index past the catalog means "let the device choose".
    names = sorted(device.memories)
    memory = names[memory_index] if memory_index < len(names) else None
    got = device.invocation(config, grid, num_kernels=num_kernels,
                            memory=memory)
    want = reference_invocation(device, config, grid,
                                num_kernels=num_kernels, memory=memory)
    assert _bits(got) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(
    device_key=st.sampled_from(["u280", "stratix10", "v100"]),
    nx=st.integers(2, 200),
    ny=st.integers(1, 200),
    nz=st.integers(3, 64),
    x_chunks=st.integers(1, 40),
    num_kernels=st.integers(1, 8),
    out_scale=st.sampled_from([1.0, 2.5]),
)
def test_chunk_work_matches_per_chunk_pricing(
        device_key, nx, ny, nz, x_chunks, num_kernels, out_scale):
    device = {**FPGAS, "v100": TESLA_V100}[device_key]
    grid = Grid(nx, ny, nz)
    config = KernelConfig(grid=grid, chunk_width=64)
    session = AdvectionSession(device, config, num_kernels=num_kernels,
                               x_chunks=x_chunks)
    memory = session.memory_for(grid)
    want = [
        ChunkWork(
            index=index,
            in_bytes=config.in_bytes_per_cell * (cg.nx + 2) * cg.ny * cg.nz,
            out_bytes=config.out_bytes_per_cell * cg.num_cells * out_scale,
            kernel_seconds=session._chunk_kernel_seconds(cg, memory),
        )
        for index, cg in enumerate(session._x_chunk_grids(grid))
    ]
    assert session.chunk_work(grid, out_scale=out_scale) == want


@settings(max_examples=20, deadline=None)
@given(
    device_key=st.sampled_from(sorted(FPGAS)),
    nx=st.integers(4, 48),
    ny=st.integers(4, 512),
    nz=st.integers(3, 192),
    indices=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    repeats=st.integers(1, 3),
    shuffle_seed=st.integers(0, 2**16),
)
@example(device_key="u280", nx=16, ny=256, nz=128, indices=[0],
         repeats=2, shuffle_seed=0)
def test_cost_model_memo_matches_a_fresh_model_per_point(
        device_key, nx, ny, nz, indices, repeats, shuffle_seed):
    device = FPGAS[device_key]
    grid = Grid(nx, ny, nz)
    space = ParameterSpace.derive(device, grid, wide_precision=True)
    points = [space.point_at(i % space.size) for i in indices]
    # Points that share all but one field with the first, and the
    # widest chunk at every replica count: on wide chunks and tall
    # columns the lint verdict turns on ``num_kernels`` alone.
    widest = replace(points[0], chunk_width=space.chunk_widths[-1])
    points += space.neighbours(points[0]) + [
        replace(widest, num_kernels=k) for k in space.num_kernels]
    points *= repeats
    random.Random(shuffle_seed).shuffle(points)
    shared = CostModel(device, grid)
    for point in points:
        assert shared.evaluate(point) == CostModel(device, grid).evaluate(
            point)
