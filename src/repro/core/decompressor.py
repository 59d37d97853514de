"""The data decompressor.

Wraps the XTC codec for ADA's storage-side use: "the data decompressor
will be invoked if the original data is compressed" (§3.1).  Pass-through
for raw containers, so the pre-processor accepts either representation.

A small :class:`~repro.formats.xtc.FrameIndex` cache rides along:
repeated queries against one blob (its windows' spans, then each
window's decode) share one header scan.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Tuple

from repro.errors import CodecError
from repro.formats.dcd import DCD_MAGIC, dcd_frame_count, decode_dcd_range
from repro.formats.trajectory import Trajectory
from repro.formats.trr import TRR_MAGIC, decode_trr_range, trr_frame_count
from repro.formats.xtc import (
    RAW_MAGIC,
    XTC_MAGIC,
    FrameIndex,
    _decode_frames,
    decode_frame_range,
    decode_raw,
)

__all__ = ["Decompressor"]

#: Blobs whose :class:`FrameIndex` (or raw decode) a decompressor keeps.
INDEX_CACHE_SIZE = 8


def _cached(cache: "OrderedDict[int, tuple]", data: bytes, build: Callable):
    """``(build(data), hit)`` through an LRU of :data:`INDEX_CACHE_SIZE`
    blobs keyed by ``id(data)``.  Each entry holds its blob, which keeps
    the id stable, and is verified by identity before use, so a recycled
    id can never alias a different blob."""
    key = id(data)
    entry = cache.get(key)
    if entry is not None and entry[0] is data:
        cache.move_to_end(key)
        return entry[1], True
    value = build(data)
    cache[key] = (data, value)
    cache.move_to_end(key)
    if len(cache) > INDEX_CACHE_SIZE:
        cache.popitem(last=False)
    return value, False


class Decompressor:
    """Format-sniffing trajectory decoder.

    The last :data:`INDEX_CACHE_SIZE` blobs keep a cached
    :class:`FrameIndex` (LRU, keyed by blob identity).
    """

    def __init__(self):
        # id(blob) -> (blob, FrameIndex); see :func:`_cached`.
        self._index_cache: "OrderedDict[int, tuple[bytes, FrameIndex]]" = (
            OrderedDict()
        )
        # The same LRU for decoded *raw* containers: raw decodes are
        # zero-copy views, but a multi-container stream pays one splice
        # per decode -- windowed ingest slices the cached trajectory
        # instead of re-splicing per window.
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
        index, hit = _cached(self._index_cache, data, FrameIndex.build)
        if hit:
            self.index_hits += 1
        else:
            self.index_misses += 1
        return index

    def decompress(self, data: bytes) -> Trajectory:
        """Decode any supported container into an in-memory trajectory:
        raw as its zero-copy views, every other format as the range
        decode of all its frames."""
        if self.sniff(data) == "raw":
            return decode_raw(data)
        nframes, decode = self._seekable(data)
        return decode(0, nframes)

    def _seekable(
        self, data: bytes
    ) -> "tuple[int, Callable[[int, int], Trajectory]]":
        """``(nframes, decode)``: the stream's frame count, read without
        inflating payloads, and its ``[start, stop)`` frame-range decoder --
        the one format switch behind every decode.

        XTC seeks via its (cached) :class:`FrameIndex`, TRR and DCD via
        fixed-frame-size header arithmetic, and raw slices its (cached)
        zero-copy view.
        """
        kind = self.sniff(data)
        if kind == "xtc":
            index = self.frame_index(data)
            return index.nframes, lambda start, stop: decode_frame_range(
                data, start, stop, index=index
            )
        if kind == "trr":
            return trr_frame_count(data), (
                lambda start, stop: decode_trr_range(data, start, stop)[0]
            )
        if kind == "dcd":
            return dcd_frame_count(data), (
                lambda start, stop: decode_dcd_range(data, start, stop)
            )
        raw = self._raw_trajectory(data)
        return raw.nframes, raw.slice_frames

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

    def range_decoder(self, data: bytes) -> Callable[[int, int], Trajectory]:
        """The ``[start, stop)`` frame-range decoder of ``data`` -- any
        supported format (see :meth:`_seekable`): windowed ingest never
        inflates bytes outside a window.  Sniff and caches are read here,
        on the caller; for (trusted) :meth:`window_spans` bounds the
        decoder reaches no public codec entry point, so the ingest
        read-ahead may run it on its own thread."""
        if self.sniff(data) == "xtc":
            index = self.frame_index(data)
            return lambda start, stop: _decode_frames(data, start, stop, index)
        return self._seekable(data)[1]

    def frame_count(self, data: bytes) -> int:
        """Frames in a stream without inflating coordinate payloads."""
        return self._seekable(data)[0]

    def raw_nbytes(self, data: bytes) -> int:
        """Decompressed payload size (headers only for xtc)."""
        if self.sniff(data) == "xtc":
            return self.frame_index(data).raw_nbytes
        return self.decompress(data).nbytes

    def _raw_trajectory(self, data: bytes) -> Trajectory:
        """The (cached) decoded form of a raw container stream."""
        return _cached(self._raw_cache, data, decode_raw)[0]
