"""A radius-``r`` generalisation of the paper's 3D shift buffer.

The paper calls its structure a "general purpose 3D shift buffer"; this
module makes that literal.  :class:`GeneralShiftBuffer` supports any
stencil radius: a ``(2r+1) x Y x Z`` slab, per-slice ``(2r+1) x Z`` line
buffers, and per-slice ``(2r+1) x (2r+1)`` register windows — collapsing
exactly to the Fig. 3 structure at ``r = 1``.

Unlike :class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D` (which carries
the PW kernel's column-top double-emission protocol) this class emits
only *full* windows — the clean building block for other stencil codes
(e.g. a deeper advection scheme, or the diffusion stencils MONC also
runs).  Port accounting shows the dual-port property is radius-
independent: per partitioned bank the update costs at most one read plus
one write per cycle at any radius.

Like the paper's buffer, the state after any number of feeds is a
closed-form function of the streamed block: :func:`gather_state` jumps a
buffer of either kind straight to it, which is what lets batched
execution skip whole planes of feeds (:meth:`GeneralShiftBuffer.
feed_bulk`) while ``feed`` stays the real register machine.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShiftBufferError
from repro.shiftbuffer.ports import MemoryPortTracker

__all__ = ["GeneralShiftBuffer", "GeneralWindow", "gather_state",
           "fill_signature", "fill_capacity"]


def gather_state(slab: np.ndarray, lines: np.ndarray, windows: np.ndarray,
                 backing: np.ndarray, fed: int) -> None:
    """Set a shift buffer's state to what ``fed`` scalar feeds leave.

    ``slab`` is ``side x ny x nz``, ``lines`` ``side x side x nz`` and
    ``windows`` ``side x side x side`` (``side = 2r + 1``); ``backing``
    is the ``(nx, ny, nz)`` block being streamed.  Every shift-register
    slot holds a value at a closed-form position of the block, so the
    state is gathered rather than simulated.  Slots the stream never
    reached that deep keep their prior contents, which must therefore
    come from scalar feeds of the same block (or a fresh buffer).
    """
    side = slab.shape[0]
    nx, ny, nz = backing.shape
    x, rest = divmod(fed, ny * nz)
    y, z = divmod(rest, nz)

    # Slab slice s holds, at each (y', z'), the value of plane
    # (x - s) where the streaming front has passed this plane and
    # (x - 1 - s) where it has not.
    yy, zz = np.meshgrid(np.arange(ny), np.arange(nz), indexing="ij")
    passed = (yy * nz + zz) < (y * nz + z)
    for s in range(side):
        plane = np.where(passed, x - s, x - 1 - s)
        valid = (plane >= 0) & (plane < nx)
        slab[s][valid] = backing[plane[valid], yy[valid], zz[valid]]

    # Line buffers slide over global row index g = plane * ny + row,
    # independently per height: depth dy holds the value that entered
    # dy feeds-at-this-height ago, i.e. row g - dy (wrapping into the
    # previous plane's last rows at plane seams).
    heights = np.arange(nz)
    last_row = np.where(heights < z, x * ny + y,
                        x * ny + y - 1)  # last feed at each height
    for s in range(side):
        for dy in range(side):
            g = last_row - dy
            plane_idx, row_idx = np.divmod(g, ny)
            src_plane = plane_idx - s
            valid = (g >= 0) & (src_plane >= 0) & (src_plane < nx)
            lines[s, dy, valid] = backing[
                src_plane[valid], row_idx[valid], heights[valid]]

    # Register windows: column dz was loaded by the feed dz steps ago.
    for dz in range(side):
        f = fed - 1 - dz
        if f < 0:
            continue
        fx, frest = divmod(f, ny * nz)
        fy, fz = divmod(frest, nz)
        for s in range(side):
            for dy in range(side):
                g = fx * ny + fy - dy
                if g < 0:
                    continue
                gx, gy = divmod(g, ny)
                if 0 <= gx - s < nx:
                    windows[s, dy, dz] = backing[gx - s, gy, fz]


def fill_signature(buffer) -> tuple:
    """The emission-control state of a shift buffer of either kind.

    A feed emits iff its position is at least ``2r`` on every axis, so
    emission depends on the fill position alone: ``("prime",)`` before
    the first emitting feed (no prime feed emits, so the prime is one
    state), then ``(min(x, 2r), y, z)`` — every X at or past ``2r``
    behaves alike, so the steady state repeats once per plane.
    """
    if buffer.fed < buffer.first_emit_feed:
        return ("prime",)
    x, y, z = buffer.position
    return (min(x, 2 * buffer.radius), y, z)


def fill_capacity(buffer, want: int) -> int:
    """How many of ``want`` feeds a batched window may give ``buffer``.

    A window never crosses the prime/steady boundary: during the prime
    it stops at the first emitting feed, after it at the block's end.
    """
    first = buffer.first_emit_feed
    stop = first if buffer.fed < first else buffer.expected_feeds
    return min(want, stop - buffer.fed)


class GeneralWindow:
    """A ``(2r+1)^3`` stencil snapshot centred on ``center``."""

    __slots__ = ("raw", "center", "radius")

    def __init__(self, raw: np.ndarray, center: tuple[int, int, int],
                 radius: int) -> None:
        side = 2 * radius + 1
        if raw.shape != (side, side, side):
            raise ShiftBufferError(
                f"window must be {side}^3 for radius {radius}, got "
                f"{raw.shape}"
            )
        self.raw = raw
        self.center = center
        self.radius = radius

    def at(self, di: int, dj: int, dk: int) -> float:
        """Value at stencil offset ``(di, dj, dk)``, each in ``[-r, r]``.

        ``raw[s, dy, dz]`` holds ``field[x - s, y - dy, z - dz]`` for feed
        position ``(x, y, z)``; the centre sits at age ``r`` on each axis.
        """
        r = self.radius
        if not (-r <= di <= r and -r <= dj <= r and -r <= dk <= r):
            raise ShiftBufferError(
                f"offset ({di}, {dj}, {dk}) outside radius {r}"
            )
        return float(self.raw[r - di, r - dj, r - dk])

    def as_array(self) -> np.ndarray:
        """Stencil as ``a[di+r, dj+r, dk+r]``."""
        return self.raw[::-1, ::-1, ::-1].copy()


class GeneralShiftBuffer:
    """A shift buffer producing ``(2r+1)^3`` stencils at one value/cycle.

    Parameters
    ----------
    nx, ny, nz:
        Extents of the streamed block (halo included).
    radius:
        Stencil radius; 1 reproduces the paper's 27-point design.
    tracker, name:
        As for :class:`~repro.shiftbuffer.buffer3d.ShiftBuffer3D`.
    """

    def __init__(self, nx: int, ny: int, nz: int, *, radius: int = 1,
                 tracker: MemoryPortTracker | None = None,
                 name: str = "field") -> None:
        if radius < 1:
            raise ShiftBufferError(f"radius must be >= 1, got {radius}")
        side = 2 * radius + 1
        if nx < side or ny < side or nz < side:
            raise ShiftBufferError(
                f"block must be at least {side} in every dimension for "
                f"radius {radius}, got ({nx}, {ny}, {nz})"
            )
        self.nx, self.ny, self.nz = nx, ny, nz
        self.radius = radius
        self.side = side
        self.name = name
        self.tracker = tracker if tracker is not None else MemoryPortTracker(
            enforce=False)

        self._slab = np.zeros((side, ny, nz))
        self._lines = np.zeros((side, side, nz))   # [slice, dy, z]
        self._windows = np.zeros((side, side, side))  # [slice, dy, dz]
        self._x = self._y = self._z = 0
        self._fed = 0

    @property
    def memory_words(self) -> int:
        return self.side * self.ny * self.nz + self.side * self.side * self.nz

    @property
    def fed(self) -> int:
        """Values consumed so far."""
        return self._fed

    @property
    def position(self) -> tuple[int, int, int]:
        """``(x, y, z)`` of the next value to be fed."""
        return (self._x, self._y, self._z)

    @property
    def expected_feeds(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def expected_emissions(self) -> int:
        span = 2 * self.radius
        return ((self.nx - span) * (self.ny - span) * (self.nz - span))

    @property
    def first_emit_feed(self) -> int:
        """Index of the first feed that emits a window (the prime length).

        A feed at ``(x, y, z)`` emits iff ``x, y, z >= 2r``, so the first
        one is ``(2r, 2r, 2r)`` and every feed before it only primes.
        """
        span = 2 * self.radius
        return span * self.ny * self.nz + span * self.nz + span

    def _emissions_before(self, feeds: int) -> int:
        """Windows emitted by the first ``feeds`` values of the block."""
        span = 2 * self.radius
        ny, nz = self.ny, self.nz
        x, rest = divmod(feeds, ny * nz)
        y, z = divmod(rest, nz)
        total = max(x - span, 0) * (ny - span) * (nz - span)
        if x >= span:
            total += max(y - span, 0) * (nz - span)
            if y >= span:
                total += max(z - span, 0)
        return total

    def emission_centers(self, first: int, stop: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centre vectors of flat emission indices ``[first, stop)``.

        Emissions are numbered in streaming order: ``nz - 2r`` per
        interior column, columns Y fastest, then X.
        """
        r = self.radius
        column, k = np.divmod(np.arange(first, stop), self.nz - 2 * r)
        cx, cy = np.divmod(column, self.ny - 2 * r)
        return cx + r, cy + r, k + r

    def feed(self, value: float) -> list[GeneralWindow]:
        """Consume one value (streaming order: Z, then Y, then X)."""
        if self._fed >= self.expected_feeds:
            raise ShiftBufferError(
                f"buffer {self.name!r} already consumed its block"
            )
        x, y, z = self._x, self._y, self._z
        side, r = self.side, self.radius
        t = self.tracker
        t.begin_cycle()

        # Slab: shift the X history at (y, z); each partitioned slice is
        # one read (the displaced value) plus one write.
        displaced = value
        for s in range(side):
            displaced, self._slab[s, y, z] = self._slab[s, y, z], displaced
            t.access(f"{self.name}.slab[{s}]",
                     2 if s < side - 1 else 1)

        # Line buffers: shift the Y history at height z per slice; the
        # entering value is forwarded from the slab write (no extra port).
        for s in range(side):
            entering = self._slab[s, y, z]
            for dy in range(side):
                entering, self._lines[s, dy, z] = (
                    self._lines[s, dy, z], entering)
                t.access(f"{self.name}.lines[{s}][{dy}]",
                         2 if dy < side - 1 else 1)

        # Register windows: shift the Z history (registers, no ports).
        self._windows[:, :, 1:] = self._windows[:, :, :-1]
        for s in range(side):
            self._windows[s, :, 0] = self._lines[s, :, z]
        t.end_cycle()

        emitted: list[GeneralWindow] = []
        if x >= 2 * r and y >= 2 * r and z >= 2 * r:
            emitted.append(GeneralWindow(
                raw=self._windows.copy(),
                center=(x - r, y - r, z - r),
                radius=r,
            ))

        self._fed += 1
        self._z += 1
        if self._z == self.nz:
            self._z = 0
            self._y += 1
            if self._y == self.ny:
                self._y = 0
                self._x += 1
        return emitted

    def _check_block_shape(self, block: np.ndarray) -> None:
        if block.shape != (self.nx, self.ny, self.nz):
            raise ShiftBufferError(
                f"block shape {block.shape} does not match extents "
                f"({self.nx}, {self.ny}, {self.nz})"
            )

    def _access_pattern(self) -> dict[str, int]:
        """Per-feed memory access counts, in :meth:`feed`'s order."""
        side = self.side
        pattern = {f"{self.name}.slab[{s}]": 2 if s < side - 1 else 1
                   for s in range(side)}
        for s in range(side):
            for dy in range(side):
                pattern[f"{self.name}.lines[{s}][{dy}]"] = (
                    2 if dy < side - 1 else 1)
        return pattern

    def feed_bulk(self, count: int, backing: np.ndarray) -> tuple[int, int]:
        """Advance ``count`` feeds analytically; return the emission range.

        ``backing`` must be the full ``(nx, ny, nz)`` block being
        streamed — the same values earlier :meth:`feed` calls supplied.
        The buffer jumps to the state ``count`` more scalar feeds would
        leave (:func:`gather_state`) and the port tracker replays the
        per-feed pattern in bulk.  Returns ``(first, stop)``, the
        half-open range of flat emission indices the feeds produced
        (:meth:`emission_centers`, :meth:`window_at`).
        """
        self._check_block_shape(backing)
        if count < 1:
            raise ShiftBufferError(
                f"buffer {self.name!r}: feed_bulk count must be >= 1, "
                f"got {count}"
            )
        if self._fed + count > self.expected_feeds:
            raise ShiftBufferError(
                f"buffer {self.name!r}: feed_bulk of {count} values "
                f"overruns the block ({self._fed} of "
                f"{self.expected_feeds} already consumed)"
            )
        first = self._emissions_before(self._fed)
        new_fed = self._fed + count
        self.tracker.record_steady(self._access_pattern(), count)
        gather_state(self._slab, self._lines, self._windows, backing,
                     new_fed)
        self._fed = new_fed
        self._x, rest = divmod(new_fed, self.ny * self.nz)
        self._y, self._z = divmod(rest, self.nz)
        return first, self._emissions_before(new_fed)

    def window_at(self, index: int, backing: np.ndarray) -> GeneralWindow:
        """Materialise the window of flat emission ``index`` from backing.

        Bit-identical to the window :meth:`feed` emits at that point of
        the stream: the registers hold the neighbourhood of the feed
        position reversed on every axis (newest value at raw index 0).
        """
        r = self.radius
        (cx,), (cy,), (cz,) = self.emission_centers(index, index + 1)
        raw = backing[cx - r:cx + r + 1, cy - r:cy + r + 1,
                      cz - r:cz + r + 1]
        return GeneralWindow(
            raw=np.ascontiguousarray(raw[::-1, ::-1, ::-1]),
            center=(int(cx), int(cy), int(cz)), radius=r)

    def feed_block(self, block: np.ndarray) -> list[GeneralWindow]:
        """Stream a whole block; return every full window."""
        self._check_block_shape(block)
        emitted: list[GeneralWindow] = []
        for value in block.reshape(-1):
            emitted.extend(self.feed(float(value)))
        return emitted
