"""Windowed streaming access to compressed trajectories.

Paper §2.1: on a memory-limited node, "recently retrieved frames should be
evacuated from the limited memory to make room for subsequent phases of
frames".  :class:`StreamingTrajectory` does exactly that over a compressed
XTC stream: frames decode through
:func:`~repro.formats.xtc.decode_frame_range` (keyframe-anchored partial
decode), with an LRU of decoded windows bounding residency.  The *window*
is the residency unit -- what the LRU holds, evicts and counts as a hit or
a decode; the keyframe-anchored *group of frames* is the decode unit: a
window is demand-filled, a miss decoding only the group (clipped to the
window) that holds the requested frame, the other groups on first touch.
A random seek thus costs at most ``keyframe_interval`` frames of decode,
whatever the window size, and a group at least as long as the window
degenerates to a whole-window decode.  Sequential playback decodes each
window once; rocking playback with a too-small budget thrashes --
reproducing the paper's "low data hit rate under random frame accesses".

Every decode is a demand decode on the caller's thread: the stream holds
decoded windows and nothing speculative.

With ``lod_bytes`` the stream additionally carries ADA's coarse
low-precision sibling (the ``lod:`` tier): set ``precision`` to ``"lod"``
to scrub through ~4x-cheaper frames.  ``"auto"`` is refused -- the stream
has no load signal to decide by; the middleware fronts keep it.  Decoded
windows cache per tier, so a coarse window can never satisfy (or evict
into) a full-precision hit, and :attr:`lod_max_error` advertises the
per-coordinate bound the coarse frames honour.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.lod import validate_precision
from repro.errors import CodecError
from repro.formats.trajectory import BYTES_PER_COORD, Frame, Trajectory
from repro.formats.xtc import FrameIndex, decode_frame_range

__all__ = ["StreamingTrajectory"]


class _Window:
    """One resident window: frames ``[start, stop)``, filled span by span.

    ``slots[i]`` is ``(decoded span, its first frame)`` for window frame
    ``start + i``, or ``None`` while that frame's group is still undecoded.
    """

    __slots__ = ("start", "slots", "nbytes")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.slots: List[Optional[Tuple[Trajectory, int]]] = [None] * (
            stop - start
        )
        self.nbytes = 0

    def fill(self, first: int, span: Trajectory) -> None:
        lo = first - self.start
        self.slots[lo : lo + span.nframes] = [(span, first)] * span.nframes
        self.nbytes += span.nbytes


class StreamingTrajectory:
    """Frame access over compressed bytes with bounded decoded residency.

    The frame headers are scanned exactly once, at construction, into a
    :class:`FrameIndex`; every decode then seeks straight to its keyframe
    anchor, so a seek costs O(group of frames) and playback O(window) per
    window instead of O(file).  :attr:`window_decodes`/:attr:`window_hits`
    count window residency misses/hits; :attr:`frames_decoded` counts the
    frames actually pushed through the decode kernel (rewind frames
    before a mid-group window edge included).

    ``lod_bytes`` optionally attaches the coarse LOD sibling stream;
    :attr:`precision` (``"full"``/``"lod"``, mutable at any point of
    playback) then picks the tier each ``frame()`` call decodes
    from.  ``lod_max_error`` advertises the coarse tier's per-coordinate
    error bound (ADA's :meth:`~repro.core.middleware.ADA.lod_bound`).
    """

    def __init__(
        self,
        xtc_bytes: bytes,
        window_frames: int = 32,
        max_windows: int = 4,
        index: Optional[FrameIndex] = None,
        lod_bytes: Optional[bytes] = None,
        lod_max_error: Optional[float] = None,
        precision: str = "full",
    ):
        if window_frames < 1 or max_windows < 1:
            raise CodecError("window_frames and max_windows must be >= 1")
        self._data = xtc_bytes
        self.index = index if index is not None else FrameIndex.build(xtc_bytes)
        self._nframes = self.index.nframes
        self._natoms = self.index.natoms
        self.window_frames = int(window_frames)
        self.max_windows = int(max_windows)
        # Keyed (tier, window_id): the coarse tier's windows are distinct
        # cache entries, never aliased with full-precision ones.
        self._windows: "OrderedDict[Tuple[str, int], _Window]" = (
            OrderedDict()
        )
        self.window_decodes = 0
        self.window_hits = 0
        self.frames_decoded = 0
        # -- LOD tier ------------------------------------------------------
        self._lod_data = lod_bytes
        self._lod_index: Optional[FrameIndex] = None  # built on first use
        self.lod_max_error = lod_max_error
        self.precision = precision
        self.last_tier: Optional[str] = None
        self.lod_frames_served = 0

    @property
    def nframes(self) -> int:
        return self._nframes

    @property
    def natoms(self) -> int:
        return self._natoms

    @property
    def precision(self) -> str:
        """Requested tier: ``"full"`` or ``"lod"``."""
        return self._precision

    @precision.setter
    def precision(self, value: str) -> None:
        value = validate_precision(value)
        if value == "auto":
            raise CodecError(
                "precision='auto' needs a load signal a stream does not "
                "have: pick 'full' or 'lod'"
            )
        if value == "lod" and self._lod_data is None:
            raise CodecError(
                "precision='lod' needs an attached LOD stream (lod_bytes)"
            )
        self._precision = value

    @property
    def has_lod(self) -> bool:
        return self._lod_data is not None

    @property
    def resident_nbytes(self) -> int:
        """Decoded bytes currently held (the memory the paper budgets)."""
        return sum(w.nbytes for w in self._windows.values())

    @property
    def max_resident_nbytes(self) -> int:
        """Upper bound on decoded residency implied by the configuration."""
        return self.max_windows * self.window_frames * self._natoms * BYTES_PER_COORD

    def frame(self, index: int) -> Frame:
        """Fetch one frame, decoding (or LRU-hitting) its window.

        A window miss decodes only the group of frames holding ``index``;
        a hit on a window whose group for ``index`` is still undecoded
        fills that group.  The tier the frame decodes from is resolved
        per call (see :meth:`tier`), so flipping :attr:`precision`
        mid-playback takes effect on the very next frame.
        """
        if not 0 <= index < self._nframes:
            raise CodecError(f"frame {index} outside [0, {self._nframes})")
        tier = self.tier()
        window_id = index // self.window_frames
        key = (tier, window_id)
        window = self._windows.get(key)
        if window is not None:
            self.window_hits += 1
            self._windows.move_to_end(key)
        else:
            window = _Window(*self._window_span(window_id))
            self._fill(tier, window, index)  # raises before any count
            self.window_decodes += 1
            self._windows[key] = window
            if len(self._windows) > self.max_windows:
                self._windows.popitem(last=False)
        if window.slots[index - window.start] is None:
            self._fill(tier, window, index)
        self.last_tier = tier
        if tier == "lod":
            self.lod_frames_served += 1
        span, first = window.slots[index - window.start]
        return span.frame(index - first)

    def tier(self) -> str:
        """The tier the next ``frame()`` call decodes from: ``"lod"``
        exactly when :attr:`precision` is ``"lod"``."""
        return self._precision

    def close(self) -> None:
        """Nothing to release (the stream owns no worker); idempotent."""

    def hit_rate(self) -> float:
        total = self.window_hits + self.window_decodes
        return self.window_hits / total if total else 0.0

    # -- internals ----------------------------------------------------------

    def _lod_frame_index(self) -> FrameIndex:
        """The coarse stream's (lazily built) frame index."""
        if self._lod_index is None:
            index = FrameIndex.build(self._lod_data)
            if index.nframes != self._nframes:
                raise CodecError(
                    f"LOD stream has {index.nframes} frames; "
                    f"full stream has {self._nframes}"
                )
            self._lod_index = index
        return self._lod_index

    def _window_span(self, window_id: int) -> Tuple[int, int]:
        start = window_id * self.window_frames
        return start, min(start + self.window_frames, self._nframes)

    def _tier_source(self, tier: str) -> Tuple[bytes, FrameIndex]:
        if tier == "lod":
            return self._lod_data, self._lod_frame_index()
        return self._data, self.index

    def _fill(self, tier: str, window: _Window, index: int) -> None:
        """Decode the group of frames holding ``index``, clipped to
        ``window``, into it."""
        data, frame_index = self._tier_source(tier)
        gof_start, gof_stop = frame_index.gof(index)
        first = max(gof_start, window.start)
        stop = min(gof_stop, window.start + len(window.slots))
        window.fill(
            first, decode_frame_range(data, first, stop, index=frame_index)
        )
        self.frames_decoded += stop - gof_start
