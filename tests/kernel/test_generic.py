"""The generic cycle-level stencil kernel."""

import numpy as np
import pytest

from repro.core.diffusion import diffuse_reference
from repro.core.grid import Grid
from repro.core.wind import random_wind
from repro.errors import ConfigurationError
from repro.kernel.diffusion import (
    diffusion_boundary_from_window,
    diffusion_from_window,
)
from repro.kernel.generic import WindowOp, run_stencil_kernel
from repro.shiftbuffer.ports import MemoryPortTracker


def diffusion_fn(grid: Grid, nu: float) -> WindowOp:
    """Window op computing diffusion incl. vertical boundaries."""
    return WindowOp(
        interior=lambda w: diffusion_from_window(w, grid, nu),
        bottom=lambda w: diffusion_boundary_from_window(
            w, grid, nu, top=False),
        top=lambda w: diffusion_boundary_from_window(w, grid, nu, top=True),
    )


class TestDiffusionCycleAccurate:
    def test_bitwise_equal_to_reference(self):
        """The diffusion kernel, run cycle-accurately on the generic
        dataflow machine, reproduces the reference bit for bit."""
        grid = Grid(nx=4, ny=5, nz=5, dx=20.0, dy=30.0, dz=10.0)
        fields = random_wind(grid, seed=11, magnitude=2.0)
        reference = diffuse_reference(fields, nu=4.0)
        for name, expected in (("u", reference.su), ("v", reference.sv),
                               ("w", reference.sw)):
            out = np.zeros(grid.interior_shape)
            run_stencil_kernel(getattr(fields, name),
                               diffusion_fn(grid, 4.0), out)
            np.testing.assert_array_equal(out, expected)

    def test_ii1_machine_behaviour(self):
        """One value consumed per cycle in steady state: the dataflow
        design generalises beyond advection."""
        grid = Grid(nx=4, ny=4, nz=8)
        fields = random_wind(grid, seed=1)
        out = np.zeros(grid.interior_shape)
        stats = run_stencil_kernel(fields.u, diffusion_fn(grid, 1.0), out)
        feeds = (grid.nx + 2) * (grid.ny + 2) * grid.nz
        assert stats.fires["shift"] == feeds
        assert stats.cycles <= feeds + 40  # fill only

    def test_port_budget(self):
        grid = Grid(nx=4, ny=4, nz=4)
        fields = random_wind(grid, seed=2)
        out = np.zeros(grid.interior_shape)
        tracker = MemoryPortTracker(enforce=True)
        run_stencil_kernel(fields.u, diffusion_fn(grid, 1.0), out,
                           tracker=tracker)
        assert tracker.worst_case == 2


class TestGenericMechanics:
    def test_identity_stencil(self):
        """An op returning the centre value copies the interior."""
        block = np.arange(4 * 5 * 3, dtype=float).reshape(4, 5, 3)
        out = np.zeros((2, 3, 3))
        run_stencil_kernel(block, WindowOp(lambda w: w.at(0, 0, 0)), out)
        np.testing.assert_array_equal(out[:, :, 1], block[1:-1, 1:-1, 1])

    def test_radius_two(self):
        """A radius-2 mean filter through the same machinery."""
        block = np.random.default_rng(3).normal(size=(6, 6, 6))
        out = np.zeros((2, 2, 6))

        def mean5(window):
            return sum(window.at(di, 0, 0) for di in range(-2, 3)) / 5.0

        run_stencil_kernel(block, WindowOp(mean5), out, radius=2)
        cx, cy, cz = 2, 2, 2  # a centre the buffer emits
        expected = block[0:5, cy, cz].sum() / 5.0
        assert out[0, 0, 2] == pytest.approx(expected)

    def test_output_shape_validated(self):
        block = np.zeros((4, 4, 4))
        with pytest.raises(ConfigurationError):
            run_stencil_kernel(block, WindowOp(lambda w: 0.0),
                               np.zeros((3, 3, 4)))

    def test_block_rank_validated(self):
        with pytest.raises(ConfigurationError):
            run_stencil_kernel(np.zeros((4, 4)), WindowOp(lambda w: 0.0),
                               np.zeros((2, 2)))

    def test_bare_window_function_rejected(self):
        """The window contract is a WindowOp, not a free function."""
        with pytest.raises(ConfigurationError, match="WindowOp"):
            run_stencil_kernel(np.zeros((4, 4, 4)),
                               lambda w: [(w.center, 0.0)],
                               np.zeros((2, 2, 4)))
