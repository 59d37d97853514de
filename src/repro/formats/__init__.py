"""Molecular file formats and containers.

* :mod:`repro.formats.topology` -- atom/residue tables and classification
  (protein vs. MISC), the structural knowledge ADA derives from ``.pdb``
  files.
* :mod:`repro.formats.pdb` -- minimal fixed-column PDB reader/writer.
* :mod:`repro.formats.trajectory` -- in-memory frame/trajectory containers.
* :mod:`repro.formats.xtc` -- the XTC-like lossy compressed trajectory codec
  (quantization + delta coding + zlib), the format whose expensive
  decompression motivates the whole paper.
"""

from repro.formats.topology import (
    AtomClass,
    Topology,
    classify_residue,
)
from repro.formats.pdb import parse_pdb, write_pdb
from repro.formats.trajectory import Frame, Trajectory
from repro.formats.xtc import (
    XTC_MAGIC,
    FrameIndex,
    XtcFrameInfo,
    decode_frame_range,
    decode_xtc,
    encode_xtc,
    iter_frame_infos,
    raw_frame_nbytes,
)

__all__ = [
    "AtomClass",
    "Frame",
    "FrameIndex",
    "Topology",
    "Trajectory",
    "XTC_MAGIC",
    "XtcFrameInfo",
    "classify_residue",
    "decode_frame_range",
    "decode_xtc",
    "encode_xtc",
    "iter_frame_infos",
    "parse_pdb",
    "raw_frame_nbytes",
    "write_pdb",
]
