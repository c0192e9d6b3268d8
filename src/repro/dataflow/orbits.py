"""A call-scoped memo of committed steady-state orbits.

The engine (:mod:`repro.dataflow.engine`) finds a steady period by
ticking until a control-state fingerprint recurs.  On the paper's kernel
that costs one plane of feeds per run, and Y chunking restarts the
pipeline on every chunk, so each chunk of a shape would tick the same
plane only to find the period the previous chunk already found.

An :class:`OrbitMemo` remembers every orbit a run committed a batched
window on — its period, its per-period counter deltas, every orbit
state's fingerprint mapped to its offset, and the counter snapshots
relative to the orbit's start — under the graph's *control key*
(:func:`control_key`).  A later run with the same key that reaches any
memoised fingerprint opens its window at once.

Soundness
---------
The fingerprint is the complete control state of a machine with a fixed
transition function, and the control key fixes that function: every
stage's :meth:`~repro.dataflow.stage.Stage.ff_control_key` (the
parameters that shape its transitions) plus the wiring, ``ii``,
``latency`` and stream depths.  A deterministic machine that reaches a
memoised state therefore replays the recorded orbit, exactly as a
machine revisiting a state within one run does.  Remaining supply is not
part of the fingerprint; the window planner reads it live
(:meth:`~repro.dataflow.stage.Stage.ff_fire_capacity`), so a memo window
is capped like any other.

Keys are conservative: a stage class that does not define
``ff_control_key`` itself (a subclass inherits no key), or defines it
as ``None``, makes the whole graph keyless, and a keyless graph never
reads or writes the memo.

Scope
-----
A memo lives for one call — one ``simulate_kernel``, one multi-kernel
simulation, one stencil scenario run — and is shared by that call's
chunks and retries.  A process-wide memo would make the batched counters
and tracer spans depend on what ran earlier in the process; scoped to a
call they stay a function of the call's arguments.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.dataflow.stage import Stage
from repro.dataflow.stream import Stream

__all__ = ["OrbitMemo", "control_key"]

#: Bound on the orbit states one memo holds over all keys; the oldest
#: orbits are evicted first, and an orbit longer than this is not kept.
_MEMO_STATE_CAP = 65_536


def control_key(order: Sequence[Stage],
                streams: Sequence[Stream]) -> tuple | None:
    """The graph's control key, or None when any stage has no key.

    The key fixes the machine's transition function: per stage (in tick
    order) its class, name, ``ii``, ``latency``, own
    :meth:`~repro.dataflow.stage.Stage.ff_control_key` and port wiring;
    per stream its name and depth.  The graph's name is left out, so the
    graphs of two chunks of one shape share a key.
    """
    stages = []
    for stage in order:
        if "ff_control_key" not in vars(type(stage)):
            return None
        key = stage.ff_control_key()
        if key is None:
            return None
        stages.append((
            type(stage), stage.name, stage.ii, stage.latency, key,
            tuple(sorted((port, s.name) for port, s in stage.inputs.items())),
            tuple(sorted((port, s.name)
                         for port, s in stage.outputs.items())),
        ))
    return (tuple(stages),
            tuple((stream.name, stream.depth) for stream in streams))


def _copy(value: Any) -> Any:
    """A fresh copy of a nested tuple (leaves are shared)."""
    if type(value) is tuple:
        return tuple([_copy(item) for item in value])
    return value


class _Orbit:
    """One committed orbit: fingerprints and relative counters."""

    __slots__ = ("period", "sigs", "delta", "relative")

    def __init__(self, sigs: list[tuple], delta: tuple[np.ndarray, ...],
                 relative: tuple[np.ndarray, ...]) -> None:
        self.period = len(sigs)
        #: ``sigs[j]``: the fingerprint ``j`` cycles into the orbit.
        self.sigs = sigs
        #: Per-period ``(stage, stream)`` counter deltas.
        self.delta = delta
        #: ``(stage, stream)`` counters at each offset minus offset 0,
        #: shaped ``(period, rows, columns)``.
        self.relative = relative

    def replay(self, offset: int, now: tuple[tuple, tuple]) -> "_Replay":
        """The orbit as a trail would hold it, for a machine at ``offset``.

        Entry ``i`` pairs the fingerprint ``i`` cycles on from
        ``offset`` with the counter snapshot a trail would have taken
        one period before that cycle: ``now - delta + relative``, with
        the orbit rotated to start at ``offset``.
        """
        counters = []
        for current, delta, rel in zip(now, self.delta, self.relative):
            base = np.asarray(current, dtype=np.int64).reshape(delta.shape)
            rotated = np.concatenate([rel[offset:], rel[:offset] + delta])
            counters.append(base - delta + rotated - rel[offset])
        return _Replay(self.sigs, offset, counters[0], counters[1])


class _Replay(Sequence):
    """A rotated orbit whose snapshots are built per entry on demand.

    The window planner reads a few entries and one counter column of
    the rest, so no period's worth of snapshot tuples is ever held.
    Snapshots are nested lists, read like the trail's tuples.
    """

    def __init__(self, sigs: list[tuple], offset: int, stage: np.ndarray,
                 stream: np.ndarray) -> None:
        self._sigs = sigs
        self._offset = offset
        self._stage = stage
        self._stream = stream

    def __len__(self) -> int:
        return len(self._sigs)

    def __getitem__(self, index):
        if not 0 <= index < len(self._sigs):
            raise IndexError(index)
        sig = self._sigs[(self._offset + index) % len(self._sigs)]
        return sig, (self._stage[index].tolist(),
                     self._stream[index].tolist())


class OrbitMemo:
    """Committed orbits under their graph control keys (see module doc).

    Create one per call and pass it to every
    :class:`~repro.dataflow.engine.DataflowEngine` of that call.
    """

    def __init__(self) -> None:
        #: control key -> {fingerprint: (orbit, offset)}
        self._tables: dict[tuple, dict[tuple, tuple[_Orbit, int]]] = {}
        #: (control key, orbit) in storage order, for eviction.
        self._stored: list[tuple[tuple, _Orbit]] = []
        #: Orbit states held over all keys (bounded by the cap).
        self.states = 0

    def __len__(self) -> int:
        """Orbits held."""
        return len(self._stored)

    def table(self, key: tuple) -> dict[tuple, tuple[_Orbit, int]]:
        """The fingerprint table of one control key (live, may be empty)."""
        return self._tables.setdefault(key, {})

    def store(self, key: tuple, orbit: Sequence[tuple[tuple, Any]],
              now: tuple[tuple, tuple]) -> None:
        """Remember a committed trail orbit.

        ``orbit`` is the trail's whole orbit (``orbit[0]`` is the state
        the machine is in at the hit, with its snapshot one period ago)
        and ``now`` the counter snapshot at the hit, taken before the
        window moved the counters.
        """
        table = self.table(key)
        period = len(orbit)
        if period > _MEMO_STATE_CAP or orbit[0][0] in table:
            return
        # Stage rows carry six counters, stream rows four (see
        # repro.dataflow.compiled.period_deltas).
        delta, relative = [], []
        for part, width in ((0, 6), (1, 4)):
            shape = (len(now[part]), width)
            column = np.asarray([snap[part] for _sig, snap in orbit],
                                dtype=np.int64).reshape((period,) + shape)
            relative.append(column - column[0])
            delta.append(np.asarray(now[part], dtype=np.int64)
                         .reshape(shape) - column[0])
        # Hold one fresh copy of each distinct stage signature and
        # occupancy vector: most repeat across the orbit (a full pipeline
        # firing every cycle looks alike each cycle), and fresh copies
        # leave the trail's objects free to go when the trail clears.
        shared: dict[tuple, tuple] = {}

        def own(part: tuple) -> tuple:
            held = shared.get(part)
            if held is None:
                held = shared[part] = _copy(part)
            return held

        sigs = [(tuple([own(part) for part in stages]), own(occupancy))
                for (stages, occupancy), _snap in orbit]
        record = _Orbit(sigs, tuple(delta), tuple(relative))
        while self._stored and self.states + period > _MEMO_STATE_CAP:
            old_key, old = self._stored.pop(0)
            old_table = self._tables[old_key]
            for offset, sig in enumerate(old.sigs):
                if old_table.get(sig) == (old, offset):
                    del old_table[sig]
            self.states -= old.period
        for offset, sig in enumerate(record.sigs):
            table.setdefault(sig, (record, offset))
        self._stored.append((key, record))
        self.states += period
