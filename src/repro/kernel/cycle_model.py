"""Closed-form cycle count for the advection kernel.

The dataflow design's whole purpose is that, in steady state, one grid
cell is consumed per cycle (II = 1).  A kernel invocation therefore costs,
per chunk, the number of values streamed in times the effective initiation
interval, plus the pipeline fill (every chunk restarts the pipeline).  The
cycle-accurate simulator measures exactly this on small grids; the closed
form below is validated against it in the test suite and then used for the
paper-scale problem sizes where a per-cycle simulation of 10^9 cells is
pointless.

The *effective* initiation interval is the largest II of any stage in the
chain: a bandwidth-starved read stage (II 2 from DDR contention) or the
URAM variant of the shift buffer (II 2, section III-A) halves throughput,
exactly as the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.grid import Grid
from repro.kernel.config import KernelConfig

__all__ = ["CycleBreakdown", "KernelCycleModel"]

#: Fixed per-chunk pipeline overhead beyond the read/advect latencies:
#: shift-buffer stage (2) + replicate (1) + end-of-chunk drain detection (2).
#: Fitted to, and kept in lock step with, the cycle-accurate simulator —
#: see tests/kernel/test_cycle_model.py.
_FIXED_FILL: int = 5


@dataclass(frozen=True)
class CycleBreakdown:
    """Cycle count of one kernel invocation, decomposed."""

    chunks: int
    feeds_total: int
    effective_ii: int
    fill_per_chunk: int

    @property
    def steady_cycles(self) -> int:
        return self.feeds_total * self.effective_ii

    @property
    def fill_cycles(self) -> int:
        return self.chunks * self.fill_per_chunk

    @property
    def total(self) -> int:
        return self.steady_cycles + self.fill_cycles

    @property
    def fill_fraction(self) -> float:
        return self.fill_cycles / self.total if self.total else 0.0


class KernelCycleModel:
    """Closed-form performance model of one kernel instance.

    Parameters
    ----------
    config:
        Kernel design parameters.
    read_ii:
        Effective initiation interval imposed by external memory on the
        read stage (>= 1).  Device models compute this from bandwidth; 1
        means memory keeps up with the pipeline.
    """

    def __init__(self, config: KernelConfig, *, read_ii: int = 1) -> None:
        if read_ii < 1:
            raise ValueError(f"read_ii must be >= 1, got {read_ii}")
        self.config = config
        self.read_ii = read_ii

    @property
    def effective_ii(self) -> int:
        return max(self.read_ii, self.config.shift_buffer_ii)

    @property
    def pipeline_depth(self) -> int:
        """Per-chunk pipeline fill/drain cost in cycles.

        Empirically (and exactly, across latency sweeps) the simulator
        charges one memory latency plus the advect latency plus the fixed
        stage overheads per chunk: the second memory latency and the
        stream hops overlap with streaming and never appear on the
        critical path.
        """
        c = self.config
        return c.memory_latency + c.advect_latency + _FIXED_FILL

    def breakdown(self, grid: Grid | None = None) -> CycleBreakdown:
        """Cycle count decomposition for ``grid`` (default: config grid)."""
        grid = grid or self.config.grid
        plan = self.config.for_grid(grid).chunk_plan()
        return CycleBreakdown(
            chunks=plan.num_chunks,
            feeds_total=(grid.nx + 2) * plan.total_read_cells * grid.nz,
            effective_ii=self.effective_ii,
            fill_per_chunk=self.pipeline_depth,
        )

    def cycles(self, grid: Grid | None = None) -> int:
        """Total cycles of one kernel invocation."""
        return self.breakdown(grid).total

    def runtime_seconds(self, clock_hz: float, grid: Grid | None = None) -> float:
        """Invocation wall time at a given kernel clock."""
        if clock_hz <= 0:
            raise ValueError(f"clock must be positive, got {clock_hz}")
        return self.cycles(grid) / clock_hz

    def efficiency(self, grid: Grid | None = None) -> float:
        """Achieved fraction of the ideal one-cell-per-cycle rate.

        Ideal cycles = interior cells of the grid; the model's overheads
        (halo feeds, chunk overlap, pipeline fill, II > 1) push the real
        count above that.
        """
        grid = grid or self.config.grid
        return grid.num_cells / self.cycles(grid)
