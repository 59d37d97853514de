"""CPU-burst profiling (Fig. 8).

The paper profiles the traditional pipeline with a Flame Graph and finds
"data decompression weights more than 50% of the CPU burst time for VMD to
build 3D graphics in ext4".  Two views are provided:

* :func:`modeled_cpu_profile` -- per-phase CPU seconds from the calibrated
  rate model at any frame count (what the figure plots at paper scale);
* :func:`measured_cpu_profile` -- real ``perf_counter`` phase timings of
  the *actual* Python pipeline (codec inflate -> filter -> geometry) on a
  materialized workload, demonstrating the same shape on live code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.node import CpuSpec
from repro.harness.calibration import E5_2603V4
from repro.vmd.loader import TrajectoryLoader
from repro.vmd.molecule import Molecule
from repro.vmd.render import GeometryBuilder
from repro.workloads.gpcr import GpcrWorkload, build_workload
from repro.workloads.virtual import SizingModel

__all__ = ["CpuProfile", "modeled_cpu_profile", "measured_cpu_profile"]


@dataclass
class CpuProfile:
    """Per-phase CPU seconds of one pipeline run."""

    pipeline: str  # "C-trad" or "D-ada-p"
    phases: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def fraction(self, phase: str) -> float:
        return self.phases.get(phase, 0.0) / self.total if self.total else 0.0

    def rows(self):
        """(phase, seconds, percent) rows, flame-graph style (widest first)."""
        return [
            (phase, seconds, 100.0 * seconds / self.total if self.total else 0.0)
            for phase, seconds in sorted(
                self.phases.items(), key=lambda kv: -kv[1]
            )
        ]


def modeled_cpu_profile(
    nframes: int,
    pipeline: str = "C-trad",
    cpu: CpuSpec = E5_2603V4,
    sizing: Optional[SizingModel] = None,
) -> CpuProfile:
    """Phase seconds from the calibrated rate model."""
    d = (sizing or SizingModel.paper()).dataset(nframes)
    if pipeline == "C-trad":
        phases = {
            "decompress": d.raw_nbytes / cpu.decompress_rate,
            "render": d.protein_nbytes / cpu.render_rate,
        }
    elif pipeline == "D-trad":
        phases = {
            "filter": d.raw_nbytes / cpu.scan_rate,
            "render": d.protein_nbytes / cpu.render_rate,
        }
    elif pipeline == "D-ada-p":
        phases = {"render": d.protein_nbytes / cpu.render_rate}
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return CpuProfile(pipeline=pipeline, phases=phases)


def measured_cpu_profile(
    workload: Optional[GpcrWorkload] = None,
    pipeline: str = "C-trad",
) -> CpuProfile:
    """Real wall-clock phase profile of the live Python pipeline."""
    import time

    workload = workload or build_workload(natoms=6000, nframes=25, seed=5)
    loader = TrajectoryLoader()
    label_map = workload.preprocess().label_map
    selection = label_map.indices("p")

    if pipeline == "C-trad":
        result = loader.load(workload.xtc_blob, selection=selection)
    elif pipeline == "D-ada-p":
        from repro.formats.xtc import encode_raw

        subset_blob = encode_raw(workload.trajectory.select_atoms(selection))
        result = loader.load(subset_blob)
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")

    phases = dict(result.timer.seconds)
    # Render phase: build geometry for every frame, timed for real.
    mol = Molecule(0, "gpcr", workload.system.topology.select(selection))
    mol.add_frames(result.trajectory)
    start = time.perf_counter()
    GeometryBuilder(mol).render_all()
    phases["render"] = time.perf_counter() - start
    return CpuProfile(pipeline=pipeline, phases=phases)
