"""The data pre-processor (paper §3.2, Fig. 5): decompress -> categorize ->
label, producing per-tag raw subset blobs ready for dispatch.

This is the work ADA *moves off the compute nodes*: it happens once, on a
storage node, when a dataset arrives for permanent storage -- instead of on
every read, on a compute node, as the traditional workflow does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.core.categorizer import Categorizer
from repro.core.decompressor import Decompressor
from repro.core.lod import lod_max_error, lod_tag
from repro.core.labeler import LabelMap
from repro.core.tags import TagPolicy
from repro.formats.pdb import parse_pdb
from repro.formats.topology import Topology
from repro.formats.trajectory import Trajectory
from repro.formats.dcd import encode_dcd
from repro.formats.xtc import encode_raw, encode_xtc

__all__ = [
    "DataPreProcessor",
    "PreProcessResult",
    "SUBSET_ENCODERS",
    "WindowResult",
]

#: How dispatched subsets are serialized.  The paper stores them
#: decompressed ("raw") so reads skip inflation entirely; "xtc" trades
#: read-time CPU for ~3x less backend storage (the design-choice ablation
#: in ``bench_ablation_subset_format.py``); "dcd" is raw-volume but in the
#: interoperable CHARMM layout.
SUBSET_ENCODERS = {
    "raw": encode_raw,
    "xtc": encode_xtc,
    "dcd": encode_dcd,
}


@dataclass
class PreProcessResult:
    """Everything the pre-processor hands to the I/O determinator."""

    label_map: LabelMap
    subsets: Dict[str, bytes]  # tag -> raw-container blob
    raw_nbytes: int  # decompressed size of the full dataset
    compressed_nbytes: int  # arriving (compressed) size
    nframes: int

    def subset_nbytes(self, tag: str) -> int:
        return len(self.subsets[tag])

    @property
    def tags(self) -> list:
        return sorted(self.subsets)


@dataclass
class WindowResult:
    """One pre-processed ingest window, ready for write-behind dispatch.

    The streaming counterpart of :class:`PreProcessResult`: same per-tag
    encoded subset blobs, but covering frames ``[start, stop)`` of the
    arriving stream only, so the dispatcher can start writing window 0
    while window 1 is still being categorized.
    """

    index: int
    start: int
    stop: int
    subsets: Dict[str, bytes]  # tag -> encoded container for this window
    raw_nbytes: int  # decompressed size of the window
    #: Decoded ``(nframes, natoms, 3)`` float32 coordinates of the window,
    #: populated only when the stream was opened with ``keep_coords=True``
    #: (the fused in-situ analysis stage reads them before the window's
    #: buffers are released, then nulls the field).
    coords: Optional[object] = None

    @property
    def nframes(self) -> int:
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        """Encoded bytes this window holds in the write-behind buffer."""
        return sum(len(blob) for blob in self.subsets.values())

    @property
    def tags(self) -> list:
        return sorted(self.subsets)


class DataPreProcessor:
    """Storage-side pipeline: structure analysis + dataset division."""

    def __init__(
        self,
        policy: TagPolicy = None,
        subset_format: str = "raw",
        lod_precision: Optional[float] = None,
    ):
        if subset_format not in SUBSET_ENCODERS:
            raise ValueError(
                f"unknown subset format {subset_format!r}; "
                f"have {sorted(SUBSET_ENCODERS)}"
            )
        if lod_precision is not None:
            lod_max_error(lod_precision)  # validates > 0
        self.policy = policy or TagPolicy.protein_vs_misc()
        self.subset_format = subset_format
        self.lod_precision = (
            float(lod_precision) if lod_precision is not None else None
        )
        self.categorizer = Categorizer(self.policy)
        self.decompressor = Decompressor()

    def close(self) -> None:
        """Nothing to release: the codec holds no processes or buffers.

        Kept because ``benchmarks/e2e/workloads.py`` calls it at teardown,
        and that directory changes only with the benchmark.
        """

    def analyze_structure(self, pdb_text: str) -> LabelMap:
        """Algorithm 1 applied to a ``.pdb`` file."""
        topology, _ = parse_pdb(pdb_text)
        return self.categorizer.label(topology)

    def process(self, pdb_text: str, trajectory_blob: bytes) -> PreProcessResult:
        """Full pre-processing of one arriving ``(.pdb, .xtc)`` pair."""
        topology, _ = parse_pdb(pdb_text)
        return self.process_topology(topology, trajectory_blob)

    def process_topology(
        self, topology: Topology, trajectory_blob: bytes
    ) -> PreProcessResult:
        """Pre-process with an already-parsed structure."""
        label_map = self.categorizer.label(topology)
        trajectory = self.decompressor.decompress(trajectory_blob)
        return self._divide(label_map, trajectory, len(trajectory_blob))

    def process_chunk(
        self, label_map: LabelMap, trajectory_blob: bytes
    ) -> PreProcessResult:
        """Pre-process an *appended* chunk under an existing label map.

        Streaming ingestion: an MD engine keeps emitting ``.xtc`` segments
        for a structure ADA has already analyzed; only division is needed.
        """
        trajectory = self.decompressor.decompress(trajectory_blob)
        return self._divide(label_map, trajectory, len(trajectory_blob))

    def process_windows(
        self,
        label_map: LabelMap,
        trajectory_blob: bytes,
        window_frames: int,
        keep_coords: bool = False,
    ) -> Iterator[WindowResult]:
        """Pre-process an arriving stream one GOF-aligned window at a time.

        Lazily decodes, categorizes, and encodes ``window_frames``-frame
        windows (compressed streams round up to whole GOFs): each
        ``next()`` performs one window's CPU work, which is what the
        streaming ingest pipeline overlaps with backend dispatch of the
        previous windows.  Every subset byte across all windows equals a
        monolithic :meth:`process_chunk` split of the same blob.

        ``keep_coords=True`` additionally exposes each window's decoded
        coordinate array on :attr:`WindowResult.coords` -- the in-situ
        analysis stage consumes it without a second decompression pass.
        """
        for window in self.decompressor.iter_windows(
            trajectory_blob, window_frames
        ):
            yield WindowResult(
                index=window.index,
                start=window.start,
                stop=window.stop,
                subsets=self._encode_split(label_map, window.trajectory),
                raw_nbytes=window.raw_nbytes,
                coords=window.trajectory.coords if keep_coords else None,
            )

    def _encode_split(
        self, label_map: LabelMap, trajectory: Trajectory
    ) -> Dict[str, bytes]:
        """Categorize + encode one trajectory (or window) into subset blobs.

        With ``lod_precision`` configured, each base subset also encodes a
        coarse-quantized XTC sibling under its ``lod:`` tag -- same
        frames, same chunk cadence, a fraction of the bytes (see
        :mod:`repro.core.lod`) -- so every dispatch/index/cache mechanism
        downstream applies to the cheap tier unchanged.
        """
        split = self.categorizer.split(trajectory, label_map)
        encoder = SUBSET_ENCODERS[self.subset_format]
        # Base tags first (the chunk-claim order), then the LOD siblings.
        subsets = {tag: encoder(sub) for tag, sub in split.items()}
        if self.lod_precision is not None:
            for tag, sub in split.items():
                subsets[lod_tag(tag)] = encode_xtc(
                    sub, precision=self.lod_precision
                )
        return subsets

    def _divide(
        self, label_map: LabelMap, trajectory: Trajectory, compressed_nbytes: int
    ) -> PreProcessResult:
        subsets = self._encode_split(label_map, trajectory)
        return PreProcessResult(
            label_map=label_map,
            subsets=subsets,
            raw_nbytes=trajectory.nbytes,
            compressed_nbytes=compressed_nbytes,
            nframes=trajectory.nframes,
        )
