"""Tests for the dual-port memory access tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PortConflictError
from repro.shiftbuffer.ports import MemoryPortTracker


class TestAccounting:
    def test_within_budget(self):
        t = MemoryPortTracker()
        t.begin_cycle()
        t.access("m", 2)
        t.end_cycle()
        assert t.worst_case == 2
        assert t.conflicts == 0

    def test_enforcing_raises_on_third_access(self):
        t = MemoryPortTracker(enforce=True)
        t.begin_cycle()
        t.access("m", 2)
        with pytest.raises(PortConflictError, match="partition"):
            t.access("m", 1)

    def test_non_enforcing_records_conflicts(self):
        t = MemoryPortTracker(enforce=False)
        t.begin_cycle()
        t.access("m", 5)
        t.end_cycle()
        assert t.conflicts == 1
        assert t.worst_case == 5

    def test_separate_memories_tracked_separately(self):
        t = MemoryPortTracker()
        t.begin_cycle()
        t.access("a", 2)
        t.access("b", 2)
        t.end_cycle()
        assert t.report("a").max_accesses_per_cycle == 2
        assert t.report("b").max_accesses_per_cycle == 2

    def test_access_outside_cycle_rejected(self):
        t = MemoryPortTracker()
        with pytest.raises(PortConflictError):
            t.access("m")

    def test_rejects_bad_ports(self):
        with pytest.raises(ValueError):
            MemoryPortTracker(ports=0)


class TestReports:
    def test_mean_accesses(self):
        t = MemoryPortTracker()
        for count in (1, 2, 1):
            t.begin_cycle()
            t.access("m", count)
            t.end_cycle()
        report = t.report("m")
        assert report.total_accesses == 4
        assert report.cycles == 3
        assert report.mean_accesses_per_cycle == pytest.approx(4 / 3)

    def test_unknown_memory_empty_report(self):
        t = MemoryPortTracker()
        report = t.report("ghost")
        assert report.total_accesses == 0
        assert report.mean_accesses_per_cycle == 0.0


class TestAchievableII:
    def test_ii_one_when_within_ports(self):
        t = MemoryPortTracker()
        t.begin_cycle()
        t.access("m", 2)
        t.end_cycle()
        assert t.achievable_ii() == 1

    @pytest.mark.parametrize("accesses,expected_ii", [(3, 2), (4, 2), (5, 3)])
    def test_ii_ceil_of_pressure(self, accesses, expected_ii):
        t = MemoryPortTracker(enforce=False)
        t.begin_cycle()
        t.access("m", accesses)
        t.end_cycle()
        assert t.achievable_ii() == expected_ii

    def test_ii_one_when_untouched(self):
        assert MemoryPortTracker().achievable_ii() == 1


class _AgingReference:
    """Port accounting that ages every known report on every closed
    cycle: the reference the tracker's birth-cycle bookkeeping must
    reproduce exactly."""

    def __init__(self, enforce):
        self.enforce = enforce
        self.reports = {}
        self.conflicts = 0
        #: An enforcing conflict aborts a cycle and leaves it open.
        self.open = False

    def _over(self, count, cycles):
        if count > 2:
            self.conflicts += cycles
            if self.enforce:
                raise PortConflictError("reference conflict")

    def cycle(self, accesses):
        self.open = True
        counts = {}
        for memory, count in accesses:
            counts[memory] = counts.get(memory, 0) + count
            self._over(counts[memory], 1)
        for memory, count in counts.items():
            report = self.reports.setdefault(memory, [0, 0, 0])
            report[1] += count
            report[2] = max(report[2], count)
        for report in self.reports.values():
            report[0] += 1
        self.open = False

    def steady(self, pattern, cycles):
        if cycles == 0:
            return
        if self.open:
            raise PortConflictError("reference window still open")
        for count in pattern.values():
            self._over(count, cycles)
        for memory, count in pattern.items():
            report = self.reports.setdefault(memory, [0, 0, 0])
            report[1] += count * cycles
            report[2] = max(report[2], count)
        for report in self.reports.values():
            report[0] += cycles


_MEMORIES = st.sampled_from(["a", "b", "c", "d"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("cycle"),
              st.lists(st.tuples(_MEMORIES, st.integers(1, 3)),
                       max_size=4)),
    st.tuples(st.just("steady"),
              st.dictionaries(_MEMORIES, st.integers(1, 3), max_size=3),
              st.integers(0, 5)),
), max_size=25)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, enforce=st.booleans())
def test_reports_match_per_cycle_aging(ops, enforce):
    """Random access/end_cycle/record_steady sequences give the reports
    and conflict counts of per-cycle aging, read after every step."""
    tracker = MemoryPortTracker(enforce=enforce)
    reference = _AgingReference(enforce)
    for op in ops:
        raised = []
        for side in (tracker, reference):
            try:
                if op[0] == "steady" and side is tracker:
                    tracker.record_steady(op[1], op[2])
                elif op[0] == "steady":
                    reference.steady(op[1], op[2])
                elif side is tracker:
                    tracker.begin_cycle()
                    for memory, count in op[1]:
                        tracker.access(memory, count)
                    tracker.end_cycle()
                else:
                    reference.cycle(op[1])
                raised.append(False)
            except PortConflictError:
                raised.append(True)
        assert raised[0] == raised[1]
        assert tracker.conflicts == reference.conflicts
        assert {name: [r.cycles, r.total_accesses, r.max_accesses_per_cycle]
                for name, r in tracker.reports().items()} \
            == reference.reports
        for memory in "abcd":
            expected = reference.reports.get(memory, [0, 0, 0])
            assert tracker.report(memory).cycles == expected[0]
