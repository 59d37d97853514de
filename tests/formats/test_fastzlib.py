"""``repro.fastzlib`` on both of its paths: the host's libdeflate and the
zlib fallback a host without ``libdeflate0`` runs.

The ``backend`` fixture runs each test on both; the zlib half swaps the
binding out with ``monkeypatch``, and the libdeflate half skips where the
library is absent.  Every result and every error is zlib's: checksums
equal ``zlib.crc32``, inflates equal ``zlib.decompress`` (value or
message), and a decode of each malformed payload below returns the
frozen reference's frames or raises its ``CodecError`` text.
``test_decode_kernels_zlib.py`` re-runs the decode-kernel suite on the
fallback.
"""

import sys
import threading
import zlib

import numpy as np
import pytest

from repro import fastzlib
from repro.formats import Trajectory, decode_xtc, encode_xtc
from repro.formats.xtc import (
    _BLOCK_VALUES,
    _FLAG_PFRAME,
    _FLAG_STORED,
    _PAYLOAD_HEAD,
    _decode_gof_ints,
    iter_frame_infos,
)
from repro.harness.benchcodec import all_deflate_stream
from tests.formats.test_decode_kernels import (
    _assert_agree,
    _blob,
    _body,
    _iframe,
    _outcome,
    _walk,
)

NATOMS = 4
COUNT = NATOMS * 3
#: ``_frame_body``'s inflate bound for a P-frame of ``COUNT`` values.
BOUND = _PAYLOAD_HEAD.size + -(-COUNT // _BLOCK_VALUES) + 8 * COUNT


@pytest.fixture(params=["libdeflate", "zlib"])
def backend(request, monkeypatch):
    if request.param == "zlib":
        monkeypatch.setattr(fastzlib, "_LIB", None)
    elif fastzlib.backend() != "libdeflate":
        pytest.skip("libdeflate.so.0 (Debian libdeflate0) is not installed")
    assert fastzlib.backend() == request.param
    return request.param


# -- crc32 ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "nbytes", [0, 1, 12, 4095, 4096, 8191, 8192, 65537, 1 << 20]
)
def test_crc32_equals_zlib(backend, nbytes, monkeypatch):
    data = np.random.default_rng(nbytes).bytes(nbytes + 1)
    bufs = (data[1:], memoryview(data)[1:], memoryview(data)[:nbytes],
            bytearray(data[1:]))
    want = [zlib.crc32(buf) for buf in bufs]
    if backend == "libdeflate" and nbytes >= fastzlib._CRC_MIN_NBYTES:
        # Past the small-input cutoff the sum must be libdeflate's own.
        monkeypatch.setattr(fastzlib, "zlib", None)
    assert [fastzlib.crc32(buf) for buf in bufs] == want


# -- inflate: same bytes, same errors -------------------------------------------


def _inflate_outcome(fn, payload, *args):
    try:
        return bytes(fn(payload, *args))
    except zlib.error as exc:
        return f"zlib.error: {exc}"


def _pbody(trailing=0, nbits=5):
    values = np.arange(COUNT, dtype=np.uint64) % (1 << nbits)
    return _body(values, [nbits]) + bytes(trailing)


def _payloads():
    """Malformed (and one over-long) deflated P-frame payloads."""
    good = zlib.compress(_pbody())
    flipped_adler = bytearray(good)
    flipped_adler[-1] ^= 1
    cases = {
        "good": good,
        "bad header method": bytes([0x77]) + good[1:],
        "bad header check": good[:1] + bytes([good[1] ^ 1]) + good[2:],
        "preset dictionary": b"\x78\xbb" + good[2:],
        "flipped adler": bytes(flipped_adler),
        "trailing bytes": good + b"junk",
        "past the bound": zlib.compress(_pbody(trailing=BOUND)),
        "empty": b"",
    }
    for cut in range(1, len(good)):
        cases[f"truncated by {cut}"] = good[:-cut]
    return cases


@pytest.mark.parametrize("case", sorted(_payloads()))
def test_inflate_returns_or_raises_like_zlib(backend, case):
    payload = _payloads()[case]
    want = _inflate_outcome(lambda p: zlib.decompress(p), payload)
    for buf in (payload, memoryview(b"x" + payload)[1:]):
        assert _inflate_outcome(fastzlib.inflate, buf, BOUND) == want


def test_the_bound_is_a_buffer_size_not_a_limit(backend):
    body = _pbody(trailing=BOUND)
    payload = zlib.compress(body)
    for bound in (0, 1, BOUND, len(body) - 1, len(body), len(body) + 1):
        assert bytes(fastzlib.inflate(payload, bound)) == body


@pytest.mark.parametrize("case", sorted(_payloads()))
def test_decode_matches_the_reference_on_malformed_payloads(backend, case):
    """The payload is the second frame of a group: its decode returns the
    frozen zlib reference's frames or raises its exact message."""
    rng = np.random.default_rng(3)
    frames = [_iframe(rng, NATOMS, [9]), (_FLAG_PFRAME, _payloads()[case])]
    blob = _blob(NATOMS, frames)
    got = _assert_agree(blob, list(iter_frame_infos(blob)))
    decodes = case in ("good", "trailing bytes", "past the bound")
    assert isinstance(got, str) != decodes, got


def test_both_paths_raise_the_same_decode_errors(monkeypatch):
    """Path against path, not only against the reference."""
    rng = np.random.default_rng(3)
    i_frame = _iframe(rng, NATOMS, [9])
    blobs = [
        _blob(NATOMS, [i_frame, (_FLAG_PFRAME, payload)])
        for payload in _payloads().values()
    ]

    def outcomes():
        out = []
        for blob in blobs:
            got = _outcome(_decode_gof_ints, blob, list(iter_frame_infos(blob)))
            out.append(got if isinstance(got, str) else got.tobytes())
        return out

    live = outcomes()
    monkeypatch.setattr(fastzlib, "_LIB", None)
    assert outcomes() == live
    assert sum(isinstance(o, str) for o in live) == len(live) - 3


# -- concurrent decode ----------------------------------------------------------


def _deflated_blob(seed):
    traj = Trajectory(coords=_walk(24, 300, step=1.0, seed=seed))
    return all_deflate_stream(encode_xtc(traj, keyframe_interval=6))


def test_concurrent_decodes_equal_serial_ones(backend):
    """Two threads inflate distinct blobs under forced interleaving: each
    trajectory is byte-equal to its serial decode, and each thread
    inflates with its own decompressor."""
    blobs = [_deflated_blob(seed) for seed in (1, 2)]
    serial = [decode_xtc(blob).coords.tobytes() for blob in blobs]
    got, held = [None, None], [None, None]
    start = threading.Barrier(2, timeout=60)

    def work(k):
        start.wait()
        for _ in range(4):
            coords = decode_xtc(blobs[k]).coords.tobytes()
            if coords != serial[k]:
                break
        got[k] = coords
        held[k] = getattr(fastzlib._local, "decompressor", None)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial
    if backend == "zlib":
        assert held == [None, None]
    else:
        assert held[0] is not None and held[1] is not None
        assert held[0] is not held[1] and held[0].handle != held[1].handle
        assert getattr(fastzlib._local, "decompressor", None) not in held


def test_every_frame_is_inflated_here():
    """The concurrency blobs exercise inflate, not the stored-body path."""
    infos = list(iter_frame_infos(_deflated_blob(1)))
    assert not any(i.flags & _FLAG_STORED for i in infos) and len(infos) == 24
