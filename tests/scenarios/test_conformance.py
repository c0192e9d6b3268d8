"""The cross-mode conformance harness, run over the whole registry.

This is the suite's enforcement arm: every registered scenario must be
bit-identical between forced-scalar and batched exact execution (and
against the NumPy reference), actually batch when its kernel is
admissible (or record why not when it is data-dependent), agree under
an injected fault plan, pass
lint, and carry a static deadlock-freedom proof.  A scenario that fails
any leg cannot ship.
"""

import dataclasses

import pytest

from repro.dataflow.engine import RunStats
from repro.scenarios import get, names, run_conformance, run_suite
from repro.scenarios.conformance import CHECKS, STATS_BATCH_KEYS


@pytest.mark.parametrize("name", names())
class TestEveryScenarioConforms:
    def test_all_checks_pass(self, name):
        entry = run_conformance(get(name))
        failures = [f"{r.check}: {r.detail}" for r in entry.results
                    if not r.ok]
        assert entry.ok, f"{name} failed conformance: {failures}"
        assert [r.check for r in entry.results] == list(CHECKS)


class TestHarnessMechanics:
    def test_stats_batch_keys_exist(self):
        """The exclusion list must track RunStats' actual dict shape."""
        keys = set(RunStats(cycles=0).to_dict())
        assert STATS_BATCH_KEYS <= keys

    def test_suite_report_shapes(self):
        report = run_suite(("buoyancy",))
        assert report.ok
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["scenarios"][0]["scenario"] == "buoyancy"
        text = report.render_text()
        assert "1/1 scenarios" in text

    def test_report_carries_the_batched_split(self):
        """Text and JSON name each kernel's batched/scalar split, in the
        wording ``repro simulate --scenario`` prints."""
        report = run_suite(("buoyancy",))
        entry = report.entries[0]
        result = get("buoyancy").run(entry.grid)
        split = report.to_dict()["scenarios"][0]["batched_split"]
        assert split == {
            "cycles": result.total_cycles,
            "batched_cycles": result.stats.batched_cycles,
            "batched_windows": result.stats.batched_windows,
            "scalar_cycles": (result.total_cycles
                              - result.stats.batched_cycles),
            "batch_fallback_reason": None,
        }
        (line,) = result.stats.split_lines(result.total_cycles)
        assert line.startswith("batched:  ")
        assert line in report.render_text()

    def test_failures_render_with_detail(self):
        report = run_suite(("buoyancy",))
        entry = report.entries[0]
        entry.results[0] = dataclasses.replace(
            entry.results[0], ok=False, detail="synthetic failure")
        assert not report.ok
        assert "synthetic failure" in report.render_text()

    def test_seed_changes_the_fault_leg_deterministically(self):
        """Same scenario, same seed: identical fault traces each time."""
        scenario = get("diffusion")
        first = scenario.fault_plan(seed=3)
        second = scenario.fault_plan(seed=3)
        grid = scenario.small_grid()
        for plan in (first, second):
            try:
                scenario.run(grid, batched=False, fault_plan=plan)
            except Exception:
                pass
        assert first.trace_key() == second.trace_key()

    def test_stencil_kernels_batch(self):
        """The general stencil machine batches; double-check directly."""
        scenario = get("diffusion")
        result = scenario.run(scenario.small_grid())
        assert scenario.kernel.batch_admissible
        assert not result.stats.batch_fallback_reason
        assert result.stats.batched_windows > 0

    def test_advection_batching_is_admissible(self):
        scenario = get("pw-advection")
        result = scenario.run(scenario.small_grid())
        assert scenario.kernel.batch_admissible
        assert not result.stats.batch_fallback_reason
        assert result.stats.batched_windows > 0

    def test_silent_fallback_fails_the_batched_check(self, monkeypatch):
        """A kernel declared data-dependent that batches without
        recording a fallback is a conformance failure, not a pass."""
        scenario = get("buoyancy")
        monkeypatch.setattr(type(scenario.kernel), "batch_admissible",
                            False)
        entry = run_conformance(scenario)
        (batched,) = [r for r in entry.results if r.check == "batched"]
        assert not batched.ok
        assert "without recording a fallback reason" in batched.detail

    @pytest.mark.parametrize("name", ["buoyancy", "pw-advection"])
    def test_admissible_fallback_fails_the_batched_check(self, monkeypatch,
                                                         name):
        """An admissible kernel that falls back to scalar ticking is a
        conformance failure too: never silently, in either direction."""
        scenario = get(name)
        kernel_cls = type(scenario.kernel)
        real_run = kernel_cls.run

        def falling_back_run(self, fields, **kwargs):
            sources, stats, cycles = real_run(self, fields, **kwargs)
            if kwargs.get("batched", True):
                stats = dataclasses.replace(
                    stats, batched_windows=0, batched_cycles=0,
                    batch_fallback_reason="stage 'shift' vetoed "
                                          "steady-state detection")
            return sources, stats, cycles

        monkeypatch.setattr(kernel_cls, "run", falling_back_run)
        entry = run_conformance(scenario)
        (batched,) = [r for r in entry.results if r.check == "batched"]
        assert not batched.ok
        assert "admissible kernel fell back to scalar" in batched.detail
        assert "committed no batched window" in batched.detail
