"""Next-generation AI-engine device projection (the paper's §V outlook).

"Taking the Xilinx Versal as an example, there will be up to 400 AI
engines which act as vector units clocked at around 1 GHz, each capable
of performing eight single precision floating point operations per
cycle.  This could considerably accelerate the arithmetic component of
our advection kernel, and keeping the engines fed with data will be the
key, exploiting the reconfigurable fabric of the ACAP for our shift
buffer design."

:class:`AIEngineProjection` turns that paragraph into arithmetic: the
compute ceiling of an AI-engine array on the PW kernel, the feed
bandwidth the shift-buffer fabric must sustain to keep it busy, and the
resulting roofline against realisable on-chip bandwidth.  The
projection is folded into the ``versal_aie`` backend's roofline as a
consistency cross-check; import it, :data:`VERSAL_VC1902` and
:data:`STRATIX10_NX_PROJECTION` from :mod:`repro.backend`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.errors import ConfigurationError

__all__ = ["AIEngineProjection", "VERSAL_VC1902", "STRATIX10_NX_PROJECTION"]


@dataclass(frozen=True)
class AIEngineProjection:
    """A vector-engine array running the PW advection arithmetic.

    Parameters
    ----------
    name:
        Device label.
    engines:
        Vector processors available.
    clock_ghz:
        Engine clock.
    flops_per_engine_cycle:
        Single-precision operations per engine per cycle (Versal: 8).
    fabric_feed_bandwidth:
        Bytes/second the reconfigurable fabric (hosting the shift
        buffers) can stream into the engine array.
    """

    name: str
    engines: int
    clock_ghz: float
    flops_per_engine_cycle: int
    fabric_feed_bandwidth: float

    def __post_init__(self) -> None:
        if self.engines < 1:
            raise ConfigurationError("engines must be >= 1")
        if self.clock_ghz <= 0 or self.fabric_feed_bandwidth <= 0:
            raise ConfigurationError("rates must be positive")
        if self.flops_per_engine_cycle < 1:
            raise ConfigurationError("flops_per_engine_cycle must be >= 1")

    @property
    def compute_peak_gflops(self) -> float:
        """Raw single-precision peak of the engine array."""
        return self.engines * self.clock_ghz * self.flops_per_engine_cycle

    def cells_per_second_compute(self,
                                 column_height: int = constants.DEFAULT_COLUMN_HEIGHT
                                 ) -> float:
        """Grid cells/s if arithmetic were the only limit."""
        ops = constants.average_ops_per_cycle(column_height)
        return self.compute_peak_gflops * 1e9 / ops

    def cells_per_second_feed(self, *, bytes_per_cell: float = 3 * 4) -> float:
        """Grid cells/s the fabric can feed (3 float32 values per cell)."""
        if bytes_per_cell <= 0:
            raise ConfigurationError("bytes_per_cell must be positive")
        return self.fabric_feed_bandwidth / bytes_per_cell

    def attainable_gflops(self,
                          column_height: int = constants.DEFAULT_COLUMN_HEIGHT,
                          *, bytes_per_cell: float = 3 * 4) -> float:
        """Roofline: min(compute ceiling, feed ceiling) on the PW kernel."""
        ops = constants.average_ops_per_cycle(column_height)
        cells = min(self.cells_per_second_compute(column_height),
                    self.cells_per_second_feed(bytes_per_cell=bytes_per_cell))
        return cells * ops / 1e9

    @property
    def feed_bound(self) -> bool:
        """True when keeping the engines fed is the limit (§V's prediction)."""
        return self.cells_per_second_feed() < self.cells_per_second_compute()

    def speedup_over(self, baseline_gflops: float) -> float:
        """Attainable speedup over a measured baseline (e.g. Fig. 6)."""
        if baseline_gflops <= 0:
            raise ConfigurationError("baseline must be positive")
        return self.attainable_gflops() / baseline_gflops


#: The §V Versal example: 400 engines, ~1 GHz, 8 SP FLOPs/cycle; fabric
#: feed estimated at a few hundred GB/s of distributed on-chip streams.
VERSAL_VC1902 = AIEngineProjection(
    name="Xilinx Versal VC1902 (projection)",
    engines=400,
    clock_ghz=1.0,
    flops_per_engine_cycle=8,
    fabric_feed_bandwidth=600e9,
)

#: The Intel counterpart the paper names: Stratix 10 NX AI tensor blocks.
STRATIX10_NX_PROJECTION = AIEngineProjection(
    name="Intel Stratix 10 NX (projection)",
    engines=3960,          # AI tensor blocks
    clock_ghz=0.6,
    flops_per_engine_cycle=2,  # per block, dense FP16-ish mode on this kernel
    fabric_feed_bandwidth=500e9,
)
