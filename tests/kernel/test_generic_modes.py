"""Cross-mode behaviour of the generic stencil machine.

The shift-buffer and window-compute stages are data-dependent
(``unit_rate = False``, no steady-state signature), so batched exact
execution must fall back to the scalar loop — recording why — and the
fallen-back runs must stay byte-for-byte identical to forced-scalar
execution.  These tests pin that contract for both kernels built on the
machine.
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
        getattr(fields, name), kernel.window_fn(grid), out,
        batched=batched)
    return out, stats


@pytest.mark.parametrize("kernel,reference", [
    (DiffusionKernel(nu=1.5), lambda f: diffuse_reference(f, nu=1.5)),
    (BuoyancyKernel(), buoyancy_reference),
])
class TestGenericKernelModes:
    def test_ff_signature_veto_is_declared(self, kernel, reference):
        """Both stages opt out of steady-state detection entirely."""
        from repro.kernel.generic import (
            GeneralShiftBufferStage,
            WindowComputeStage,
        )

        shift = GeneralShiftBufferStage("s", 4, 4, 4)
        compute = WindowComputeStage("c", lambda w: [])
        for stage in (shift, compute):
            assert stage.unit_rate is False
            assert stage.ff_signature(0) is None
            assert stage.ff_signature(10_000) is None

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
            # The fallback is recorded, and everything else matches.
            assert b_stats.batch_fallback_reason
            assert b_stats.batched_windows == 0
            s_dict = s_stats.to_dict()
            b_dict = b_stats.to_dict()
            for key in STATS_BATCH_KEYS:
                s_dict.pop(key), b_dict.pop(key)
            assert s_dict == b_dict
