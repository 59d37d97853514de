"""The data decompressor.

Wraps the XTC codec for ADA's storage-side use: "the data decompressor
will be invoked if the original data is compressed" (§3.1).  Pass-through
for raw containers, so the pre-processor accepts either representation.

A small :class:`~repro.formats.xtc.FrameIndex` cache rides along with the
codec's hot path: repeated queries against the same blob (``frame_count``
then ``raw_nbytes`` then ``decompress``, the pre-processor's exact
sequence) share one header scan instead of rescanning the stream each
call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.errors import CodecError
from repro.formats.dcd import (
    DCD_MAGIC,
    dcd_frame_count,
    decode_dcd,
    decode_dcd_range,
)
from repro.formats.trajectory import Trajectory
from repro.formats.trr import (
    TRR_MAGIC,
    decode_trr,
    decode_trr_range,
    trr_frame_count,
)
from repro.formats.xtc import (
    RAW_MAGIC,
    XTC_MAGIC,
    FrameIndex,
    decode_frame_range,
    decode_xtc,
    decode_raw,
)

__all__ = ["Decompressor", "TrajectoryWindow"]

#: Blobs whose :class:`FrameIndex` (or raw decode) a decompressor keeps.
INDEX_CACHE_SIZE = 8


@dataclass(frozen=True)
class TrajectoryWindow:
    """One decoded slice of an arriving trajectory stream.

    ``[start, stop)`` are frame indices into the full stream; for
    compressed streams the window is GOF-aligned (``start`` is a
    keyframe), so each window decodes independently and the concatenation
    of all windows is bit-identical to a whole-stream decode.
    """

    index: int
    start: int
    stop: int
    trajectory: Trajectory

    @property
    def nframes(self) -> int:
        return self.stop - self.start

    @property
    def raw_nbytes(self) -> int:
        return self.trajectory.nbytes


class Decompressor:
    """Format-sniffing trajectory decoder.

    The last :data:`INDEX_CACHE_SIZE` blobs keep a cached
    :class:`FrameIndex` (LRU, keyed by blob identity).
    """

    def __init__(self):
        # id(blob) -> (blob, FrameIndex).  Holding the blob keeps the id
        # stable (and the entry is verified by identity before use, so a
        # recycled id can never alias a different blob).
        self._index_cache: "OrderedDict[int, tuple[bytes, FrameIndex]]" = (
            OrderedDict()
        )
        # Same identity-keyed LRU idea for decoded *raw* containers: raw
        # decodes are zero-copy views, but a multi-container stream pays
        # one splice per decode -- windowed ingest slices the cached
        # trajectory instead of re-splicing per window.
        self._raw_cache: "OrderedDict[int, tuple[bytes, Trajectory]]" = (
            OrderedDict()
        )
        self.index_hits = 0
        self.index_misses = 0

    @staticmethod
    def sniff(data: bytes) -> str:
        """``'xtc'``, ``'raw'``, ``'dcd'``, or :class:`CodecError`."""
        if len(data) < 8:
            raise CodecError("stream too short to identify")
        magic = int.from_bytes(data[:4], "little", signed=True)
        if magic == XTC_MAGIC:
            return "xtc"
        if magic == RAW_MAGIC:
            return "raw"
        if magic == TRR_MAGIC:
            return "trr"
        if data[4:8] == DCD_MAGIC:
            return "dcd"
        raise CodecError(f"unknown container magic {magic}")

    def is_compressed(self, data: bytes) -> bool:
        return self.sniff(data) == "xtc"

    def frame_index(self, data: bytes) -> FrameIndex:
        """The (cached) :class:`FrameIndex` of an XTC blob.

        One header scan per blob: subsequent calls with the same object
        reuse the cached index, so ``frame_count`` / ``raw_nbytes`` /
        ``decompress`` sequences cost a single scan total.
        """
        key = id(data)
        entry = self._index_cache.get(key)
        if entry is not None and entry[0] is data:
            self.index_hits += 1
            self._index_cache.move_to_end(key)
            return entry[1]
        index = FrameIndex.build(data)
        self.index_misses += 1
        self._index_cache[key] = (data, index)
        self._index_cache.move_to_end(key)
        if len(self._index_cache) > INDEX_CACHE_SIZE:
            self._index_cache.popitem(last=False)
        return index

    def decompress(self, data: bytes) -> Trajectory:
        """Decode any supported container into an in-memory trajectory."""
        kind = self.sniff(data)
        if kind == "xtc":
            return decode_xtc(data, index=self.frame_index(data))
        if kind == "dcd":
            return decode_dcd(data)
        if kind == "trr":
            trajectory, _velocities = decode_trr(data)
            return trajectory
        return decode_raw(data)

    # -- streaming windows ------------------------------------------------

    def window_spans(
        self, data: bytes, window_frames: int
    ) -> List[Tuple[int, int]]:
        """``(start, stop)`` frame spans of the stream's ingest windows.

        For compressed streams every span boundary is a keyframe: whole
        GOFs are packed greedily until a window reaches ``window_frames``
        frames, so a window never needs decode state from its neighbours.
        Uncompressed containers have no inter-frame prediction and split
        at exact multiples of ``window_frames``.
        """
        if window_frames < 1:
            raise CodecError(
                f"window_frames must be >= 1, got {window_frames}"
            )
        if self.sniff(data) == "xtc":
            spans: List[Tuple[int, int]] = []
            start = None
            for gof_start, gof_stop in self.frame_index(data).gofs():
                if start is None:
                    start = gof_start
                if gof_stop - start >= window_frames:
                    spans.append((start, gof_stop))
                    start = None
            if start is not None:
                spans.append((start, self.frame_index(data).nframes))
            return spans
        nframes = self.frame_count(data)
        return [
            (s, min(s + window_frames, nframes))
            for s in range(0, nframes, window_frames)
        ]

    def decode_range(self, data: bytes, start: int, stop: int) -> Trajectory:
        """Decode frames ``[start, stop)`` only -- any supported format.

        The shared lazy-window primitive: XTC seeks via its
        :class:`FrameIndex`, TRR and DCD via fixed-frame-size header
        arithmetic, and raw slices its (cached) zero-copy view.  Bytes
        outside the range are never inflated for the seekable formats, so
        windowed ingest of a TRR or DCD stream peaks at one window of
        frames exactly like the XTC path.
        """
        kind = self.sniff(data)
        if kind == "xtc":
            return decode_frame_range(
                data, start, stop, index=self.frame_index(data)
            )
        if kind == "trr":
            trajectory, _velocities = decode_trr_range(data, start, stop)
            return trajectory
        if kind == "dcd":
            return decode_dcd_range(data, start, stop)
        return self._raw_trajectory(data).slice_frames(start, stop)

    def iter_windows(
        self, data: bytes, window_frames: int
    ) -> Iterator[TrajectoryWindow]:
        """Decode an arriving stream one GOF-aligned window at a time.

        The streaming-ingest primitive: each yielded
        :class:`TrajectoryWindow` is decoded lazily on ``next()`` via
        :meth:`decode_range`, so peak memory is one window's frames (plus
        the encoded stream), not the whole raw dataset -- for XTC, TRR,
        and DCD alike.  Concatenating every window's frames is
        bit-identical to :meth:`decompress` of the full stream.
        """
        spans = self.window_spans(data, window_frames)
        for i, (start, stop) in enumerate(spans):
            yield TrajectoryWindow(
                index=i,
                start=start,
                stop=stop,
                trajectory=self.decode_range(data, start, stop),
            )

    def frame_count(self, data: bytes) -> int:
        """Frames in a stream without inflating coordinate payloads."""
        kind = self.sniff(data)
        if kind == "xtc":
            return self.frame_index(data).nframes
        if kind == "trr":
            return trr_frame_count(data)
        if kind == "dcd":
            return dcd_frame_count(data)
        return self._raw_trajectory(data).nframes

    def raw_nbytes(self, data: bytes) -> int:
        """Decompressed payload size (headers only for xtc)."""
        if self.sniff(data) == "xtc":
            return self.frame_index(data).raw_nbytes
        return self.decompress(data).nbytes

    def _raw_trajectory(self, data: bytes) -> Trajectory:
        """The (cached) decoded form of a raw container stream."""
        key = id(data)
        entry = self._raw_cache.get(key)
        if entry is not None and entry[0] is data:
            self._raw_cache.move_to_end(key)
            return entry[1]
        trajectory = decode_raw(data)
        self._raw_cache[key] = (data, trajectory)
        self._raw_cache.move_to_end(key)
        if len(self._raw_cache) > INDEX_CACHE_SIZE:
            self._raw_cache.popitem(last=False)
        return trajectory
