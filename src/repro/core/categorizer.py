"""The data categorizer.

Splits a decoded trajectory into per-tag sub-trajectories using the label
map built from the ``.pdb`` structure.  Selection across all frames is one
vectorized fancy-index per tag (see :meth:`Trajectory.select_atoms`).
"""

from __future__ import annotations

from typing import Dict

from repro.core.labeler import LabelMap, build_label_map
from repro.core.tags import TagPolicy
from repro.errors import TopologyError
from repro.formats.topology import Topology
from repro.formats.trajectory import Trajectory

__all__ = ["Categorizer"]


class Categorizer:
    """Applies a :class:`TagPolicy` to structures and trajectories."""

    def __init__(self, policy: TagPolicy):
        self.policy = policy

    def label(self, topology: Topology) -> LabelMap:
        """Build the label map for a structure (Algorithm 1)."""
        return build_label_map(topology, self.policy)

    def split(
        self, trajectory: Trajectory, label_map: LabelMap
    ) -> Dict[str, Trajectory]:
        """Divide a trajectory into per-tag sub-trajectories.

        Every atom lands in exactly one subset; frame counts are preserved.
        """
        if trajectory.natoms != label_map.natoms:
            raise TopologyError(
                f"trajectory has {trajectory.natoms} atoms but label map "
                f"covers {label_map.natoms}"
            )
        return {
            tag: trajectory.select_atoms(label_map.indices(tag))
            for tag in label_map.tags
        }
