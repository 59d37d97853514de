"""Fuzz hardening: parsers must fail *typed*, never crash.

Every entry point that consumes untrusted bytes/text (PDB, XTC, DCD, TRR,
label files, structure files, selection expressions, console commands)
must either succeed or raise its documented exception class.  Anything
else -- IndexError, struct.error, UnicodeDecodeError, segfault-adjacent
numpy errors -- is a bug these tests exist to catch.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Decompressor, LabelMap
from repro.core.generic import RecordStructure
from repro.errors import (
    CodecError,
    ConfigurationError,
    LabelIndexError,
    TopologyError,
)
from repro.formats import parse_pdb
from repro.formats.dcd import decode_dcd
from repro.formats.trr import decode_trr
from repro.formats.xtc import (
    FrameIndex,
    decode_frame_range,
    decode_raw,
    decode_xtc,
    encode_xtc,
    iter_frame_infos,
)
from repro.vmd import SelectionError, select_mask
from repro.workloads import build_workload

SETTINGS = dict(max_examples=80, deadline=None)


@settings(**SETTINGS)
@given(text=st.text(max_size=400))
def test_fuzz_parse_pdb_random_text(text):
    try:
        topo, coords = parse_pdb(text)
        assert coords.shape == (topo.natoms, 3)
    except TopologyError:
        pass


@settings(**SETTINGS)
@given(
    text=st.text(
        alphabet="ATOMHET 0123456789.ALAX\n", min_size=10, max_size=400
    )
)
def test_fuzz_parse_pdb_atomish_text(text):
    """Text biased toward ATOM-looking lines still fails cleanly."""
    try:
        parse_pdb(text)
    except TopologyError:
        pass





@settings(**SETTINGS)
@given(blob=st.binary(max_size=300))
def test_fuzz_decoders_random_bytes(blob):
    for decoder in (decode_xtc, decode_raw, decode_dcd, decode_trr):
        try:
            decoder(blob)
        except CodecError:
            pass


@settings(**SETTINGS)
@given(blob=st.binary(max_size=200), cut=st.integers(0, 200))
def test_fuzz_truncated_real_xtc(blob, cut):
    """A real stream truncated/extended anywhere fails typed."""
    real = build_workload(natoms=300, nframes=2, seed=0).xtc_blob
    mutant = real[: min(cut, len(real))] + blob
    try:
        decode_xtc(mutant)
    except CodecError:
        pass


@settings(**SETTINGS)
@given(blob=st.binary(max_size=300))
def test_fuzz_label_map_from_bytes(blob):
    try:
        LabelMap.from_bytes(blob)
    except LabelIndexError:
        pass


@settings(**SETTINGS)
@given(blob=st.binary(max_size=300))
def test_fuzz_record_structure_from_bytes(blob):
    try:
        RecordStructure.from_bytes(blob)
    except ConfigurationError:
        pass


@settings(**SETTINGS)
@given(blob=st.binary(min_size=8, max_size=200))
def test_fuzz_decompressor_sniff(blob):
    d = Decompressor()
    try:
        d.sniff(blob)
    except CodecError:
        pass


_SELECTION_ALPHABET = (
    "protein water lipid name CA resid index to and or not within of ( ) "
    "5 -3 x.y"
).split()


@settings(**SETTINGS)
@given(tokens=st.lists(st.sampled_from(_SELECTION_ALPHABET), max_size=12))
def test_fuzz_selection_parser(tokens):
    from repro.formats import Topology

    topo = Topology(
        names=["CA", "OH2"], resnames=["ALA", "TIP3"], resids=[1, 2]
    )
    coords = np.zeros((2, 3), dtype=np.float32)
    try:
        mask = select_mask(topo, " ".join(tokens), coords=coords)
        assert mask.shape == (2,)
        assert mask.dtype == bool
    except SelectionError:
        pass


# -- XTC mutation fuzzing ----------------------------------------------------
#
# A multi-GOF stream (keyframe_interval=2) exercises both payload escape
# paths: I-frames are always deflated (zlib adler32 protects them) and
# P-frames may ship bit-packed bodies "stored" with a trailing CRC-32.
# Either way, a flipped payload bit must never decode to silently wrong
# coordinates.

_FUZZ_WORKLOAD = build_workload(natoms=200, nframes=6, seed=3)
_XTC_BLOB = encode_xtc(_FUZZ_WORKLOAD.trajectory, keyframe_interval=2)
_XTC_ORIG = decode_xtc(_XTC_BLOB)
_XTC_INFOS = list(iter_frame_infos(_XTC_BLOB))
_PAYLOAD_SPANS = [
    (i.offset + i.header_nbytes, i.offset + i.header_nbytes + i.payload_nbytes)
    for i in _XTC_INFOS
]
_PAYLOAD_POSITIONS = [p for a, b in _PAYLOAD_SPANS for p in range(a, b)]
_HEADER_POSITIONS = sorted(
    set(range(len(_XTC_BLOB))) - set(_PAYLOAD_POSITIONS)
)


def _flipped(pos, bit):
    mutant = bytearray(_XTC_BLOB)
    mutant[pos] ^= 1 << bit
    return bytes(mutant)


@settings(**SETTINGS)
@given(k=st.integers(min_value=0), bit=st.integers(0, 7))
def test_fuzz_xtc_payload_bitflip_decodes_original_or_raises(k, bit):
    """Checksummed payloads: a flipped bit is detected, never absorbed."""
    pos = _PAYLOAD_POSITIONS[k % len(_PAYLOAD_POSITIONS)]
    try:
        traj = decode_xtc(_flipped(pos, bit))
        assert np.array_equal(traj.coords, _XTC_ORIG.coords)
    except CodecError:
        pass


def _assert_typed_error_or_finite(blob):
    """RuntimeWarnings are errors here whatever the command line says (CI
    also runs this file under ``-W error::RuntimeWarning``)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            traj = decode_xtc(blob)
        except CodecError:
            return
    assert np.isfinite(traj.coords).all()


@settings(**SETTINGS)
@given(k=st.integers(min_value=0), bit=st.integers(0, 7))
def test_fuzz_xtc_header_bitflip_never_crashes_untyped(k, bit):
    """Header flips may alter metadata (step, time, box, a still-usable
    precision) but every outcome is a typed error or finite coordinates --
    never NaN/inf from a precision no encoder could have written, and no
    overflow warning on the way."""
    pos = _HEADER_POSITIONS[k % len(_HEADER_POSITIONS)]
    _assert_typed_error_or_finite(_flipped(pos, bit))


@pytest.mark.parametrize("bit", range(32))
def test_every_precision_bit_flip_is_typed_or_finite(bit):
    """The property above, exhaustively over the field it is about (the
    float32 at header offset 52), in every frame."""
    for info in _XTC_INFOS:
        _assert_typed_error_or_finite(_flipped(info.offset + 52 + bit // 8, bit % 8))


@settings(**SETTINGS)
@given(cut=st.integers(min_value=0))
def test_fuzz_xtc_truncation_prefix_or_raises(cut):
    """Any prefix decodes to an exact frame-prefix of the original, or
    raises typed -- a tear never yields extra/garbled frames."""
    prefix = _XTC_BLOB[: cut % (len(_XTC_BLOB) + 1)]
    try:
        traj = decode_xtc(prefix)
    except CodecError:
        return
    nframes = traj.coords.shape[0]
    assert np.array_equal(traj.coords, _XTC_ORIG.coords[:nframes])


@settings(**SETTINGS)
@given(start=st.integers(-10, 12), stop=st.integers(-10, 12))
def test_fuzz_decode_frame_range_windows(start, stop):
    """Valid windows decode exactly; invalid ones raise ValueError-typed
    CodecError (never IndexError)."""
    nframes = _XTC_ORIG.coords.shape[0]
    if 0 <= start < stop <= nframes:
        traj = decode_frame_range(_XTC_BLOB, start, stop)
        assert np.array_equal(traj.coords, _XTC_ORIG.coords[start:stop])
    else:
        with pytest.raises(CodecError) as excinfo:
            decode_frame_range(_XTC_BLOB, start, stop)
        assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize("bounds", [(0.5, 2), (0, 1.5), (None, 2), ("0", 2)])
def test_decode_frame_range_rejects_non_integer_bounds(bounds):
    with pytest.raises(CodecError):
        decode_frame_range(_XTC_BLOB, *bounds)


def test_empty_container_raises_valueerror_not_indexerror():
    for op in (
        lambda: FrameIndex.build(b""),
        lambda: decode_frame_range(b"", 0, 1),
        lambda: decode_xtc(b""),
    ):
        with pytest.raises(ValueError):  # CodecError is a ValueError
            op()


@settings(**SETTINGS)
@given(text=st.text(max_size=120))
def test_fuzz_console_commands(text):
    from repro.errors import ReproError
    from repro.vmd import VMDSession
    from repro.vmd.console import VMDConsole

    console = VMDConsole(VMDSession())
    try:
        console.execute(text)
    except ReproError:
        pass  # CommandError / ConfigurationError / SelectionError families
    except ValueError:
        pass  # shlex quote errors and int() of command operands
