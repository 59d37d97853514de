"""Animation replay: the 3D playback the biologists actually watch.

"Recently retrieved frames should be evacuated from the limited memory to
make room for subsequent phases of frames.  Frequent data swapping
operations cause a low data hit rate under random frame accesses (e.g.,
replaying the frames back and forth)" (paper §2.1).  :class:`Animator`
models that: a fixed-size frame cache in front of the frame array, with
hit-rate accounting under sequential and rocking (back-and-forth) access.
Every render is a demand render: the cache holds only frames shown.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import TopologyError
from repro.vmd.molecule import Molecule
from repro.vmd.render import FrameGeometry, GeometryBuilder

__all__ = ["Animator", "PlaybackStats"]


@dataclass
class PlaybackStats:
    """Cache behaviour of one playback run."""

    frames_shown: int
    cache_hits: int
    cache_misses: int

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class Animator:
    """Replays a molecule's frames through an LRU geometry cache."""

    def __init__(self, molecule: Molecule, cache_frames: int = 64):
        if molecule.num_frames == 0:
            raise TopologyError("nothing to animate: molecule has no frames")
        if cache_frames < 1:
            raise ValueError("cache must hold at least one frame")
        self.molecule = molecule
        self.builder = GeometryBuilder(molecule)
        self.cache_frames = cache_frames
        self._cache: "OrderedDict[int, FrameGeometry]" = OrderedDict()
        self.current = 0
        self.hits = 0
        self.misses = 0

    def goto(self, iframe: int) -> FrameGeometry:
        """Jump to a frame, rendering (or cache-hitting) its geometry."""
        n = self.molecule.num_frames
        if not 0 <= iframe < n:
            raise IndexError(f"frame {iframe} outside [0, {n})")
        self.current = iframe
        cached = self._cache.get(iframe)
        if cached is not None:
            self._cache.move_to_end(iframe)
            self.hits += 1
            return cached
        self.misses += 1
        geometry = self.builder.render_frame(iframe)
        self._cache[iframe] = geometry
        if len(self._cache) > self.cache_frames:
            self._cache.popitem(last=False)
        return geometry

    def play(self, order: Optional[Iterable[int]] = None) -> PlaybackStats:
        """Replay frames in the given order (default: sequential)."""
        if order is None:
            order = range(self.molecule.num_frames)
        h0, m0 = self.hits, self.misses
        shown = 0
        for iframe in order:
            self.goto(iframe)
            shown += 1
        return PlaybackStats(
            frames_shown=shown,
            cache_hits=self.hits - h0,
            cache_misses=self.misses - m0,
        )

    def rock(self, passes: int = 2) -> PlaybackStats:
        """Back-and-forth replay: the random-ish access of paper §2.1."""
        n = self.molecule.num_frames
        order: List[int] = []
        for p in range(passes):
            sweep = range(n) if p % 2 == 0 else range(n - 1, -1, -1)
            order.extend(sweep)
        return self.play(order)
