"""The labeler: Algorithm 1 of the paper.

Walks the atom table of a ``.pdb`` file once, collecting maximal runs of
consecutive atoms that share a tag into per-tag lists of half-open
``[begin, end)`` ranges, and persists the result as a *label file* "for
later I/O reference".  Tag metadata lives entirely outside the data subsets
("no additional information is injected to any of data subsets", §3.2).

The paper's pseudo-code mishandles the first and last runs (``begin`` is
reset from ``offset`` only on tag changes and the final run is never
flushed); we implement the evident intent and property-test the invariant
that the ranges exactly partition ``[0, natoms)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import LabelIndexError, TagNotFoundError
from repro.formats.topology import Topology
from repro.core.tags import TagPolicy

__all__ = ["LabelMap", "build_label_map"]


@dataclass
class LabelMap:
    """Per-tag half-open atom-index ranges over one structure."""

    natoms: int
    ranges: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)

    # -- queries ------------------------------------------------------------

    @property
    def tags(self) -> List[str]:
        return sorted(self.ranges)

    def _tag_ranges(self, tag: str) -> List[Tuple[int, int]]:
        try:
            return self.ranges[tag]
        except KeyError:
            raise TagNotFoundError(
                f"no tag {tag!r} in label map (available: {self.tags})"
            ) from None

    def atom_count(self, tag: str) -> int:
        return sum(e - b for b, e in self._tag_ranges(tag))

    def indices(self, tag: str) -> np.ndarray:
        """Sorted atom indices carrying ``tag`` (vectorized range expansion)."""
        ranges = self._tag_ranges(tag)
        if not ranges:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(b, e, dtype=np.int64) for b, e in ranges])

    def fraction(self, tag: str) -> float:
        """Atom fraction of a tag -- equals its byte fraction of any frame."""
        return self.atom_count(tag) / max(self.natoms, 1)

    def run_count(self, tag: str) -> int:
        return len(self._tag_ranges(tag))

    def validate(self) -> None:
        """Check the partition invariant; raises on overlap or gaps."""
        spans = sorted(
            (b, e, t) for t, rs in self.ranges.items() for b, e in rs
        )
        cursor = 0
        for b, e, t in spans:
            if b != cursor or e <= b:
                raise LabelIndexError(
                    f"label ranges do not partition [0, {self.natoms}): "
                    f"run ({b}, {e}, {t!r}) at cursor {cursor}"
                )
            cursor = e
        if cursor != self.natoms:
            raise LabelIndexError(
                f"label ranges cover [0, {cursor}) of [0, {self.natoms})"
            )

    # -- persistence (the label_file of Algorithm 1, line 28) -------------------

    def to_bytes(self) -> bytes:
        payload = {
            "natoms": self.natoms,
            "ranges": {t: [list(r) for r in rs] for t, rs in self.ranges.items()},
        }
        return json.dumps(payload, sort_keys=True).encode()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LabelMap":
        try:
            payload = json.loads(blob)
            label_map = cls(
                natoms=int(payload["natoms"]),
                ranges={
                    str(t): [(int(b), int(e)) for b, e in rs]
                    for t, rs in payload["ranges"].items()
                },
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise LabelIndexError(f"corrupt label file: {exc}") from exc
        label_map.validate()
        return label_map


def build_label_map(topology: Topology, policy: TagPolicy) -> LabelMap:
    """Algorithm 1: one pass over the atom table, run-length by tag.

    Vectorized equivalent of the paper's per-atom loop: tag-change points
    come from one ``np.diff`` over the per-atom tag codes.
    """
    n = topology.natoms
    label_map = LabelMap(natoms=n)
    if n == 0:
        return label_map
    tags = policy.atom_tags(topology)
    # Encode tags as ints to find run boundaries vectorized.
    unique, codes = np.unique(tags, return_inverse=True)
    change = np.flatnonzero(np.diff(codes)) + 1
    bounds = np.concatenate(([0], change, [n]))
    for begin, end in zip(bounds[:-1], bounds[1:]):
        tag = str(unique[codes[begin]])
        label_map.ranges.setdefault(tag, []).append((int(begin), int(end)))
    label_map.validate()
    return label_map
