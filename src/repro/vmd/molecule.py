"""The molecule object VMD commands operate on.

A molecule is born from a structure file (``mol new foo.pdb``) and
accumulates frames from trajectory files (``mol addfile bar.xtc``).  When a
trajectory carries only an atom *subset* (an ADA tag-selective load), the
molecule tracks which atom indices of the full structure the frames cover.

Frames accumulate in a geometrically grown backing store: the first load
is adopted as it stands, later ones are written behind it in place, and
``Molecule.trajectory`` is always a plain :class:`Trajectory` over the
filled leading part -- so ``n`` appends copy O(total frames) bytes, not
O(n^2), and a ``Trajectory`` handed out earlier keeps reading the frames
it had (appends only ever write behind them).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.formats.topology import Topology
from repro.formats.trajectory import Trajectory

__all__ = ["Molecule"]


class Molecule:
    """Structure plus an (optionally subset) frame array."""

    def __init__(self, mol_id: int, name: str, topology: Topology):
        self.mol_id = mol_id
        self.name = name
        self.topology = topology
        self.trajectory: Optional[Trajectory] = None
        #: Indices into ``topology`` that trajectory atoms correspond to
        #: (None => all atoms).
        self.loaded_indices: Optional[np.ndarray] = None
        #: Coordinate bytes ``add_frames`` has memmoved so far (appended
        #: frames plus whatever a growing store carried over).
        self.copied_nbytes = 0
        # (coords, steps, times) arrays ``trajectory`` is a leading view
        # of, and that view: a ``trajectory`` assigned from outside is not
        # ours to write behind.
        self._store: Optional[Tuple[np.ndarray, ...]] = None
        self._store_view: Optional[Trajectory] = None

    # -- frame management -----------------------------------------------------

    def add_frames(
        self, trajectory: Trajectory, atom_indices: Optional[np.ndarray] = None
    ) -> None:
        """Append frames (``mol addfile``); atom coverage must be consistent."""
        expected = (
            self.topology.natoms if atom_indices is None else len(atom_indices)
        )
        if trajectory.natoms != expected:
            raise TopologyError(
                f"trajectory carries {trajectory.natoms} atoms; expected "
                f"{expected} for molecule {self.name!r}"
            )
        if self.trajectory is None:
            self.trajectory = trajectory
            self.loaded_indices = (
                None if atom_indices is None else np.asarray(atom_indices)
            )
            return
        if not self._same_coverage(atom_indices):
            raise TopologyError(
                "cannot mix full-structure and subset trajectories in one molecule"
            )
        self._append(trajectory)

    def _append(self, trajectory: Trajectory) -> None:
        held = self.trajectory
        used, total = held.nframes, held.nframes + trajectory.nframes
        store = self._store if held is self._store_view else None
        if store is None or total > len(store[0]):
            # Grow by doubling (never faster: the old and new store are
            # both live while frames carry over); the superseded store is
            # released with the last Trajectory handed out over it.
            capacity = max(total, 2 * used)
            store = (
                np.empty((capacity, held.natoms, 3), dtype=np.float32),
                np.empty(capacity, dtype=np.int64),
                np.empty(capacity, dtype=np.float64),
            )
            for dst, src in zip(store, (held.coords, held.steps, held.times_ps)):
                dst[:used] = src
            self.copied_nbytes += held.nbytes
            self._store = store
        new = (trajectory.coords, trajectory.steps, trajectory.times_ps)
        for dst, src in zip(store, new):
            dst[used:total] = src
        self.copied_nbytes += trajectory.nbytes
        coords, steps, times_ps = (column[:total] for column in store)
        self.trajectory = self._store_view = Trajectory(
            coords=coords, steps=steps, times_ps=times_ps, box=held.box
        )

    def _same_coverage(self, atom_indices: Optional[np.ndarray]) -> bool:
        if self.loaded_indices is None:
            return atom_indices is None
        return atom_indices is not None and np.array_equal(
            self.loaded_indices, np.asarray(atom_indices)
        )

    # -- queries ---------------------------------------------------------------

    @property
    def num_frames(self) -> int:
        return 0 if self.trajectory is None else self.trajectory.nframes

    @property
    def loaded_natoms(self) -> int:
        if self.loaded_indices is not None:
            return int(len(self.loaded_indices))
        return self.topology.natoms

    @property
    def frame_nbytes(self) -> int:
        """Raw bytes held by the frame array."""
        return 0 if self.trajectory is None else self.trajectory.nbytes

    def loaded_topology(self) -> Topology:
        """Structure rows matching the loaded frames."""
        if self.loaded_indices is None:
            return self.topology
        return self.topology.select(self.loaded_indices)

    def frame_coords(self, iframe: int) -> np.ndarray:
        if self.trajectory is None:
            raise TopologyError(f"molecule {self.name!r} has no frames")
        return self.trajectory.coords[iframe]

    def __repr__(self) -> str:
        return (
            f"Molecule(id={self.mol_id}, name={self.name!r}, "
            f"natoms={self.topology.natoms}, frames={self.num_frames})"
        )
