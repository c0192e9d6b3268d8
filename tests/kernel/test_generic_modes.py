"""Cross-mode behaviour of the generic stencil machine.

The shift-buffer and window-compute stages fingerprint their control
state (the buffer's fill position, the window op's height-only burst),
so batched exact execution genuinely batches both kernels built on the
machine — and the batched runs must stay byte-for-byte identical to
forced-scalar execution and to the NumPy references.
"""

import numpy as np
import pytest

from repro.core.buoyancy import buoyancy_reference
from repro.core.diffusion import diffuse_reference
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.scenarios.conformance import STATS_BATCH_KEYS
from repro.scenarios.kernels import BuoyancyKernel, DiffusionKernel


def run_field(kernel, fields, name, *, batched=True):
    from repro.kernel.generic import run_stencil_kernel

    grid = fields.grid
    out = np.zeros(grid.interior_shape)
    stats = run_stencil_kernel(
        getattr(fields, name), kernel.window_op(grid), out,
        batched=batched)
    return out, stats


@pytest.mark.parametrize("kernel,reference", [
    (DiffusionKernel(nu=1.5), lambda f: diffuse_reference(f, nu=1.5)),
    (BuoyancyKernel(), buoyancy_reference),
])
class TestGenericKernelModes:
    def test_stages_fingerprint_and_batch(self, kernel, reference):
        """Neither stage vetoes steady-state detection, and a run
        commits batched windows with no fallback."""
        from repro.kernel.generic import (
            GeneralShiftBufferStage,
            WindowComputeStage,
        )

        grid = Grid(nx=4, ny=5, nz=6)
        shift = GeneralShiftBufferStage("s", 4, 4, 4)
        compute = WindowComputeStage("c", kernel.window_op(grid), nz=6)
        for stage in (shift, compute):
            assert stage.unit_rate is False
            assert stage.ff_signature(0) is not None
            assert stage.ff_signature(10_000) is not None
        assert shift.ff_signature(0)[-1] == "prime"

        fields = random_wind(grid, seed=5)
        _out, stats = run_field(kernel, fields, "u")
        assert stats.batch_fallback_reason is None
        assert stats.batched_windows > 0
        assert 0 < stats.batched_cycles < stats.cycles

    def test_batched_exact_matches_scalar_byte_for_byte(self, kernel,
                                                        reference):
        grid = Grid(nx=4, ny=5, nz=6)
        fields = random_wind(grid, seed=23, magnitude=2.0)
        expected = reference(fields)
        for name, ref in (("u", expected.su), ("v", expected.sv),
                          ("w", expected.sw)):
            scalar, s_stats = run_field(kernel, fields, name,
                                        batched=False)
            batched, b_stats = run_field(kernel, fields, name,
                                         batched=True)
            np.testing.assert_array_equal(scalar, batched)
            np.testing.assert_array_equal(scalar, ref)
            assert s_stats.cycles == b_stats.cycles
            assert b_stats.batch_fallback_reason is None
            assert b_stats.batched_windows > 0
            s_dict = s_stats.to_dict()
            b_dict = b_stats.to_dict()
            for key in STATS_BATCH_KEYS:
                s_dict.pop(key), b_dict.pop(key)
            assert s_dict == b_dict
