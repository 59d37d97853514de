"""The VMD command surface the paper modifies (§3.4).

``mol new foo.pdb`` creates a molecule from a structure file;
``mol addfile bar.xtc`` loads trajectory data into it.  The paper's change
is one extra parameter: ``mol addfile /mnt/bar.xtc tag p`` asks ADA for
only the subset labeled ``p``.

A session can be wired to an :class:`~repro.core.middleware.ADA` instance
(tag-aware loads through the middleware) and/or handed raw blobs directly
(the traditional file-system path).  An optional memory ledger enforces the
compute node's RAM during loads, reproducing OOM kills in materialized runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.memory import MemoryLedger
from repro.core.middleware import ADA
from repro.errors import ConfigurationError, TopologyError
from repro.formats.pdb import parse_pdb
from repro.formats.topology import Topology
from repro.vmd.loader import LoadResult, TrajectoryLoader
from repro.vmd.molecule import Molecule

__all__ = ["VMDSession"]


class VMDSession:
    """Holds molecules and executes VMD-style load commands."""

    def __init__(
        self,
        ada: Optional[ADA] = None,
        memory: Optional[MemoryLedger] = None,
    ):
        self.ada = ada
        self.memory = memory
        self.loader = TrajectoryLoader()
        self.molecules: Dict[int, Molecule] = {}
        # Structure text -> its parsed topology, for this session only: a
        # viewer opens one structure under several molecules (exact, LOD,
        # playback view), and a Topology has no mutators to un-share it.
        self._topologies: Dict[str, Topology] = {}
        self._next_id = 0
        self.top: Optional[Molecule] = None

    # -- mol new -----------------------------------------------------------

    def mol_new(self, pdb_text: str, name: str = "molecule") -> Molecule:
        """``mol new foo.pdb``: create a molecule from structure text.

        A text already opened in this session is not parsed again; its
        molecules share one :class:`Topology` by reference.
        """
        topology = self._topologies.get(pdb_text)
        if topology is None:
            topology, _ = parse_pdb(pdb_text)
            self._topologies[pdb_text] = topology
        mol = Molecule(self._next_id, name, topology)
        self.molecules[self._next_id] = mol
        self._next_id += 1
        self.top = mol
        return mol

    # -- mol addfile -------------------------------------------------------------

    def mol_addfile(
        self,
        blob: bytes,
        molecule: Optional[Molecule] = None,
        selection=None,
    ) -> LoadResult:
        """Traditional path: load a trajectory blob read from a plain FS.

        Compressed blobs pay full decompression; ``selection`` (an index
        array or a VMD selection string like ``"protein and name CA"``)
        filters afterwards -- there is no earlier place to filter, which is
        the paper's point.
        """
        mol = self._target(molecule)
        selection = self._resolve_selection(mol, selection)
        result = self.loader.load(blob, selection=selection)
        self._charge_memory(result)
        mol.add_frames(result.trajectory, atom_indices=selection)
        return result

    @staticmethod
    def _resolve_selection(mol: Molecule, selection):
        if selection is None or not isinstance(selection, str):
            return selection
        from repro.vmd.selection import select

        return select(mol.topology, selection)

    def mol_addfile_tag(
        self,
        logical: str,
        tag: str,
        molecule: Optional[Molecule] = None,
        precision: str = "full",
    ) -> LoadResult:
        """``mol addfile /mnt/bar.xtc tag p``: tag-selective load via ADA.

        ``precision`` picks the read tier (``"full"``/``"lod"``); a
        coarse read surfaces its tier and advertised error bound on the
        returned :class:`LoadResult`.
        """
        mol = self._target(molecule)
        ada = self._require_ada()
        obj = ada.sim.run_process(ada.fetch(logical, tag, precision=precision))
        result = self.loader.load_subset(obj.data)
        result.tier = obj.tier
        result.max_error = obj.max_error
        self._charge_memory(result)
        indices = ada.label_map(logical).indices(tag)
        mol.add_frames(result.trajectory, atom_indices=indices)
        return result

    def mol_addfile_all(
        self,
        logical: str,
        molecule: Optional[Molecule] = None,
        precision: str = "full",
    ) -> LoadResult:
        """Load every ADA subset and merge back to full frames."""
        mol = self._target(molecule)
        ada = self._require_ada()
        merged = ada.sim.run_process(
            ada.fetch_merged(logical, precision=precision)
        )
        result = LoadResult(
            trajectory=merged,
            source_nbytes=ada.container_nbytes(logical),
            decompressed_nbytes=0,
            tier=getattr(merged, "tier", "full"),
            max_error=getattr(merged, "max_error", None),
        )
        self._charge_memory(result)
        mol.add_frames(merged)
        return result

    # -- internals ------------------------------------------------------------------

    def _target(self, molecule: Optional[Molecule]) -> Molecule:
        mol = molecule or self.top
        if mol is None:
            raise TopologyError("no molecule loaded; run mol_new first")
        return mol

    def _require_ada(self) -> ADA:
        if self.ada is None:
            raise ConfigurationError("this session has no ADA middleware attached")
        return self.ada

    def _charge_memory(self, result: LoadResult) -> None:
        if self.memory is not None:
            self.memory.allocate("frames", result.loaded_nbytes)
            if result.decompressed_nbytes:
                # Transient inflate buffer: peaks, then is released.
                self.memory.allocate("inflate", result.decompressed_nbytes)
                self.memory.allocate("source", result.source_nbytes)
                self.memory.free("inflate")
                self.memory.free("source")
