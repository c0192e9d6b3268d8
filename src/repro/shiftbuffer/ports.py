"""On-chip memory port accounting for the shift buffer.

BRAM/M20K blocks are dual ported: at most two accesses (any mix of reads
and writes) per block per cycle.  The paper's claim — "given correct
partitioning, there are never more than two memory accesses per cycle on
the 3D and 2D rectangular array" — is a structural property of the shift
buffer update sequence, and :class:`MemoryPortTracker` verifies it on every
simulated cycle.

The tracker also demonstrates the Intel-specific finding of section III-B:
*without* splitting the dimension-3 arrays apart, a single memory would see
more than two accesses per cycle, forcing the tooling to raise the
initiation interval.  Constructing a buffer with ``partitioned=False``
reproduces exactly that conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PortConflictError

__all__ = ["MemoryPortTracker", "PortReport"]

#: Ports per on-chip RAM block (BRAM and M20K are both dual ported).
DUAL_PORT: int = 2


@dataclass
class PortReport:
    """Access statistics for one logical memory across a run."""

    name: str
    cycles: int = 0
    total_accesses: int = 0
    max_accesses_per_cycle: int = 0

    @property
    def mean_accesses_per_cycle(self) -> float:
        return self.total_accesses / self.cycles if self.cycles else 0.0


class MemoryPortTracker:
    """Counts accesses per logical memory per cycle and enforces port limits.

    Parameters
    ----------
    ports:
        Ports available per memory per cycle (2 for dual-ported BRAM).
    enforce:
        When True, exceeding the port count raises
        :class:`~repro.errors.PortConflictError` — the simulator equivalent
        of the HLS tool refusing II=1.  When False, conflicts are only
        recorded, letting experiments *measure* how bad an unpartitioned
        layout would be.
    """

    def __init__(self, *, ports: int = DUAL_PORT, enforce: bool = True) -> None:
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        self.ports = ports
        self.enforce = enforce
        self._this_cycle: dict[str, int] = {}
        self._reports: dict[str, PortReport] = {}
        #: Cycles closed so far, and the count each report was born at:
        #: a report's ``cycles`` is their difference, filled in when it is
        #: read, so closing a cycle never touches the idle reports.
        self._cycles = 0
        self._born: dict[str, int] = {}
        self.conflicts: int = 0
        self._cycle_open = False

    # -- cycle protocol --------------------------------------------------------

    def begin_cycle(self) -> None:
        """Start a new cycle's accounting window."""
        self._this_cycle = {}
        self._cycle_open = True

    def access(self, memory: str, count: int = 1) -> None:
        """Record ``count`` accesses to ``memory`` in the current cycle."""
        if not self._cycle_open:
            raise PortConflictError(
                "access() called outside a begin_cycle/end_cycle window"
            )
        new_total = self._this_cycle.get(memory, 0) + count
        self._this_cycle[memory] = new_total
        if new_total > self.ports:
            self.conflicts += 1
            if self.enforce:
                raise PortConflictError(
                    f"memory {memory!r} accessed {new_total} times in one "
                    f"cycle but has only {self.ports} ports; partition the "
                    f"array (HLS array_partition / manual split on Intel)"
                )

    def _report_for(self, memory: str) -> PortReport:
        """The lifetime report of ``memory``, born now if it is new."""
        report = self._reports.get(memory)
        if report is None:
            report = self._reports[memory] = PortReport(memory)
            self._born[memory] = self._cycles
        return report

    def end_cycle(self) -> None:
        """Close the cycle and fold counts into the lifetime reports."""
        reports = self._reports
        for memory, count in self._this_cycle.items():
            report = reports.get(memory) or self._report_for(memory)
            report.total_accesses += count
            if count > report.max_accesses_per_cycle:
                report.max_accesses_per_cycle = count
        self._cycles += 1
        self._cycle_open = False

    def record_steady(self, pattern: dict[str, int], cycles: int) -> None:
        """Replay ``cycles`` identical cycles of ``pattern`` in one step.

        The shift buffer's per-feed access pattern is a compile-time
        constant, so batched feeds (``feed_bulk``/``feed_block``) account
        for it in bulk instead of opening one window per value.  The
        result is identical to ``cycles`` begin/access/end rounds:
        conflicts are counted (and raised, when enforcing) per cycle, and
        every known report ages by ``cycles``.
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        if cycles == 0:
            return
        if self._cycle_open:
            raise PortConflictError(
                "record_steady() called inside a begin_cycle/end_cycle window"
            )
        for memory, count in pattern.items():
            if count > self.ports:
                self.conflicts += cycles
                if self.enforce:
                    raise PortConflictError(
                        f"memory {memory!r} accessed {count} times in one "
                        f"cycle but has only {self.ports} ports; partition "
                        f"the array (HLS array_partition / manual split on "
                        f"Intel)"
                    )
        for memory, count in pattern.items():
            report = self._report_for(memory)
            report.total_accesses += count * cycles
            if count > report.max_accesses_per_cycle:
                report.max_accesses_per_cycle = count
        self._cycles += cycles

    # -- results -----------------------------------------------------------------

    def report(self, memory: str) -> PortReport:
        report = self._reports.get(memory)
        if report is None:
            return PortReport(memory)
        report.cycles = self._cycles - self._born[memory]
        return report

    def reports(self) -> dict[str, PortReport]:
        for memory, report in self._reports.items():
            report.cycles = self._cycles - self._born[memory]
        return dict(self._reports)

    @property
    def worst_case(self) -> int:
        """Largest per-cycle access count seen on any memory."""
        return max(
            (r.max_accesses_per_cycle for r in self._reports.values()),
            default=0,
        )

    def achievable_ii(self) -> int:
        """Initiation interval the memory system forces on the design.

        A memory that needs N accesses per input with P ports can accept a
        new input only every ceil(N / P) cycles — this is how an
        unpartitioned layout shows up as II=2 in the vendor reports.
        """
        if self.worst_case == 0:
            return 1
        return -(-self.worst_case // self.ports)  # ceil division
