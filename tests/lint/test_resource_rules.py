"""Resource-family lint rules (RS201-RS204): the paper's scaling limits.

The paper places six kernels on the Alveo U280 before running out of LUTs
and five on the Stratix 10 before running out of ALMs.  Those counts are
regression fixtures for RS201: the last fitting count must lint clean and
one more kernel must be an error naming the limiting axis.
"""

import pytest

from repro.core.grid import Grid
from repro.hardware.devices import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.config import KernelConfig
from repro.lint.runner import lint_kernel

PAPER_CONFIG = KernelConfig(grid=Grid.from_cells(2**24))


class TestScalingFixtures:
    @pytest.mark.parametrize("device,fits", [
        (ALVEO_U280, 6),
        (STRATIX10_GX2800, 5),
    ])
    def test_paper_kernel_count_lints_clean(self, device, fits):
        report = lint_kernel(PAPER_CONFIG, device, fits)
        assert report.ok, report.render_text()
        assert "RS201" not in report.codes

    @pytest.mark.parametrize("device,fits,axis", [
        (ALVEO_U280, 6, "luts"),
        (STRATIX10_GX2800, 5, "alms"),
    ])
    def test_one_more_kernel_is_rs201_error(self, device, fits, axis):
        report = lint_kernel(PAPER_CONFIG, device, fits + 1)
        assert not report.ok
        (diag,) = [d for d in report.diagnostics if d.code == "RS201"]
        assert axis in diag.message
        assert f"at most {fits} kernel(s)" in diag.hint


class TestHeadroomReport:
    def test_rs202_reports_fit_and_limiting_axis(self):
        report = lint_kernel(PAPER_CONFIG, ALVEO_U280)
        (diag,) = [d for d in report.diagnostics if d.code == "RS202"]
        assert "fits 6 kernel(s)" in diag.message
        assert "luts" in diag.message

    def test_rs202_absent_without_device(self):
        assert "RS202" not in lint_kernel(PAPER_CONFIG).codes


class TestSingleKernelFit:
    def test_paper_kernel_fits_alone(self):
        report = lint_kernel(PAPER_CONFIG, ALVEO_U280, 1)
        assert "RS203" not in report.codes

    def test_oversized_buffers_are_rs203(self):
        # A chunk the full height of a huge NY blows the on-chip RAM budget.
        huge = KernelConfig(grid=Grid(nx=4, ny=1 << 17, nz=128),
                            chunk_width=1 << 17)
        report = lint_kernel(huge, ALVEO_U280, 1)
        assert "RS203" in report.codes
        assert not report.ok


class TestMemoryCapacity:
    def test_paper_data_set_fits(self):
        assert "RS204" not in lint_kernel(PAPER_CONFIG, ALVEO_U280).codes

    @pytest.mark.parametrize("device", [ALVEO_U280, STRATIX10_GX2800])
    def test_oversized_data_set_is_rs204(self, device):
        # 1G cells x 48 B/cell = 48 GiB: beyond HBM2 (8) and DDR (32).
        big = KernelConfig(grid=Grid(nx=4096, ny=4096, nz=64))
        report = lint_kernel(big, device)
        assert "RS204" in report.codes
        assert not report.ok


class TestFitOncePerPass:
    """RS201, RS202 and RS203 share one ``max_kernels`` per lint pass."""

    @pytest.mark.parametrize("device,kernels", [
        (ALVEO_U280, 6),
        (ALVEO_U280, 7),
        (STRATIX10_GX2800, 6),
    ])
    def test_one_max_kernels_call_per_pass(self, monkeypatch, device,
                                           kernels):
        before = lint_kernel(PAPER_CONFIG, device, kernels).render_text()
        calls = []
        original = type(device).max_kernels

        def counting(self, config):
            calls.append(config)
            return original(self, config)

        monkeypatch.setattr(type(device), "max_kernels", counting)
        report = lint_kernel(PAPER_CONFIG, device, kernels)
        assert len(calls) == 1
        assert report.render_text() == before
