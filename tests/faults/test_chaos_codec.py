"""Chaos properties over the parallel codec's process pool.

A corrupted stream must behave *identically* under serial decode and the
process-pool dispatch: either both return the original coordinates
(checksums absorbed nothing) or both raise :class:`CodecError`.  A
worker must never turn a CRC failure into a crash, a hung pool, or --
worst -- silently different coordinates; and every shared-memory segment
must be unlinked on those failure paths too.

Mutations are deterministic sweeps (hypothesis drives positions/bits)
over the same multi-GOF corpus the tier-1 fuzz suite uses: keyframes
every 2 frames so flips land in both payload escape paths (deflated
I-frames guarded by zlib's adler32, stored P-frame bodies guarded by a
trailing CRC-32).
"""

import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.formats.codecexec import CodecPool
from repro.formats.xtc import decode_xtc, encode_xtc, iter_frame_infos
from repro.workloads import build_workload

pytestmark = pytest.mark.chaos

SETTINGS = dict(max_examples=60, deadline=None)

_WORKLOAD = build_workload(natoms=200, nframes=12, seed=3)
_BLOB = encode_xtc(_WORKLOAD.trajectory, keyframe_interval=2)
_ORIG = decode_xtc(_BLOB)
_INFOS = list(iter_frame_infos(_BLOB))
_PAYLOAD_SPANS = [
    (i.offset + i.header_nbytes, i.offset + i.header_nbytes + i.payload_nbytes)
    for i in _INFOS
]
_PAYLOAD_POSITIONS = [p for a, b in _PAYLOAD_SPANS for p in range(a, b)]
_HEADER_POSITIONS = sorted(
    set(range(len(_BLOB))) - set(_PAYLOAD_POSITIONS)
)


@pytest.fixture(scope="module")
def pool():
    with CodecPool(4) as p:
        yield p


def _flipped(pos, bit):
    mutant = bytearray(_BLOB)
    mutant[pos] ^= 1 << bit
    return bytes(mutant)


def _outcome(data, **decode_kwargs):
    """(coords | None, error-class | None) for one decode attempt."""
    try:
        return decode_xtc(data, **decode_kwargs).coords, None
    except CodecError:
        return None, CodecError


def _assert_same_outcome(mutant, pool, require_original):
    serial_coords, serial_err = _outcome(mutant)
    proc_coords, proc_err = _outcome(mutant, workers=4, executor=pool)
    assert serial_err == proc_err, (
        "serial and process-pool decodes disagreed on whether the corruption "
        "is detectable"
    )
    if serial_err is None:
        np.testing.assert_array_equal(serial_coords, proc_coords)
        if require_original:
            # Absorbed payload flips must reproduce the original exactly
            # (the fuzz suite's guarantee), under both executors.
            np.testing.assert_array_equal(proc_coords, _ORIG.coords)


@settings(**SETTINGS)
@given(k=st.integers(min_value=0), bit=st.integers(0, 7))
def test_chaos_payload_bitflip_same_outcome_serial_vs_process(k, bit, pool):
    pos = _PAYLOAD_POSITIONS[k % len(_PAYLOAD_POSITIONS)]
    _assert_same_outcome(_flipped(pos, bit), pool, require_original=True)


@settings(**SETTINGS)
@given(k=st.integers(min_value=0), bit=st.integers(0, 7))
def test_chaos_header_bitflip_same_outcome_serial_vs_process(k, bit, pool):
    """Header flips may legally change metadata (e.g. a precision LSB);
    the chaos property is serial/process *agreement*, not identity with
    the original."""
    pos = _HEADER_POSITIONS[k % len(_HEADER_POSITIONS)]
    _assert_same_outcome(_flipped(pos, bit), pool, require_original=False)


@settings(**SETTINGS)
@given(cut=st.integers(min_value=1))
def test_chaos_truncation_same_outcome_serial_vs_process(cut, pool):
    """A torn stream decodes to the same frame-prefix (or raises) under
    both executors -- a tear never yields extra or garbled frames."""
    prefix = _BLOB[: cut % len(_BLOB)]
    serial_coords, serial_err = _outcome(prefix)
    proc_coords, proc_err = _outcome(prefix, workers=4, executor=pool)
    assert serial_err == proc_err
    if serial_err is None:
        np.testing.assert_array_equal(serial_coords, proc_coords)
        nframes = proc_coords.shape[0]
        np.testing.assert_array_equal(proc_coords, _ORIG.coords[:nframes])


def test_chaos_no_segment_leaked_after_mutation_sweep(pool):
    """Belt-and-braces: a burst of failing decodes leaves /dev/shm clean."""
    before = set(glob.glob("/dev/shm/repro-codec-*")) if os.path.isdir(
        "/dev/shm"
    ) else set()
    failures = 0
    for pos in _PAYLOAD_POSITIONS[:: max(1, len(_PAYLOAD_POSITIONS) // 40)]:
        try:
            decode_xtc(_flipped(pos, 0), workers=4, executor=pool)
        except CodecError:
            failures += 1
    assert failures > 0, "sweep never hit a detectable corruption"
    if os.path.isdir("/dev/shm"):
        assert set(glob.glob("/dev/shm/repro-codec-*")) == before
