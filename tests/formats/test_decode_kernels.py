"""The batched group-of-frames decode kernel against its frozen original.

``decode_reference`` holds the per-frame decode chain as it was before
P-frames sharing a block layout were unpacked as one bitstream.  The live
``_decode_gof_ints`` must agree with it bit for bit on every stream below,
encoder-made or hand-built (widths 0, 1, 63 and 64, mixed layouts in one
group), and error for error -- same ``CodecError`` message -- on every
corruption, hand-made or fuzzed.  Decoded windows are compared through
``decode_frame_range`` with the kernel swapped for the reference, which
covers every ``keep_from``.

This module inflates through the host's libdeflate and skips where it is
absent; ``test_decode_kernels_zlib.py`` runs every test here again on
``repro.fastzlib``'s zlib fallback.
"""

import zlib

import numpy as np
import pytest

from repro import fastzlib
from repro.errors import CodecError
from repro.formats import Trajectory, encode_xtc
from repro.formats import xtc
from repro.formats.xtc import (
    _BLOCK_VALUES,
    _FLAG_PFRAME,
    _FLAG_STORED,
    _HEADER,
    _PAYLOAD_HEAD,
    _STORED_CRC,
    XTC_MAGIC,
    FrameIndex,
    _decode_gof_ints,
    _pack_words,
    decode_frame_range,
    iter_frame_infos,
)
from repro.harness.benchcodec import all_deflate_stream
from tests.formats import decode_reference as ref


@pytest.fixture(autouse=True)
def inflate_backend():
    if fastzlib.backend() != "libdeflate":
        pytest.skip("libdeflate.so.0 (Debian libdeflate0) is not installed")


def _walk(nframes, natoms, step=0.25, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-40, 40, size=(natoms, 3))
    walk = rng.normal(scale=step, size=(nframes, natoms, 3))
    return (base + walk.cumsum(axis=0)).astype(np.float32)


def _outcome(kernel, blob, infos):
    try:
        return kernel(memoryview(blob), infos, infos[0].natoms)
    except CodecError as exc:
        return str(exc)


def _assert_agree(blob, infos):
    """Both kernels decode ``infos`` to the same ints or the same error."""
    want = _outcome(ref.decode_gof_ints, blob, infos)
    got = _outcome(_decode_gof_ints, blob, infos)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
    return got


def _gofs(blob):
    infos = list(iter_frame_infos(blob))
    bounds = [i.index for i in infos if i.is_keyframe] + [len(infos)]
    return [infos[s:e] for s, e in zip(bounds, bounds[1:])]


def _assert_stream_agrees(blob):
    for infos in _gofs(blob):
        _assert_agree(blob, infos)


# -- encoder-made streams -------------------------------------------------------


@pytest.mark.parametrize("precision", [12.5, 100.0, 1000.0])
@pytest.mark.parametrize("keyframe_interval", [1, 2, 5, 16])
@pytest.mark.parametrize("natoms", [1, 2, 3, 7, 200])
def test_streams_match_reference(natoms, keyframe_interval, precision):
    traj = Trajectory(coords=_walk(17, natoms, seed=natoms))
    _assert_stream_agrees(
        encode_xtc(traj, precision=precision, keyframe_interval=keyframe_interval)
    )


@pytest.mark.parametrize("natoms", [2731, 3000])
def test_two_block_frames_match_reference(natoms):
    """P-frames of 8193+ values span two blocks (the I-frame of 2731 atoms
    still fits one); the tail atoms move more, so blocks differ in width."""
    coords = _walk(7, natoms, seed=natoms)
    coords[:, 2600:] += np.linspace(0, 30, 7, dtype=np.float32)[:, None, None]
    blob = encode_xtc(Trajectory(coords=coords), keyframe_interval=4)
    _assert_stream_agrees(blob)
    _assert_stream_agrees(all_deflate_stream(blob))


def test_stored_and_deflated_bodies_match_reference():
    traj = Trajectory(coords=_walk(12, 200, step=3.0, seed=5))
    blob = encode_xtc(traj, keyframe_interval=4)
    flags = [i.flags for i in iter_frame_infos(blob)]
    assert any(f & _FLAG_STORED for f in flags)
    deflated = all_deflate_stream(blob)
    assert not any(i.flags & _FLAG_STORED for i in iter_frame_infos(deflated))
    for stream in (blob, deflated):
        _assert_stream_agrees(stream)
    assert np.array_equal(
        _decode_gof_ints(memoryview(blob), _gofs(blob)[1], 200),
        _decode_gof_ints(memoryview(deflated), _gofs(deflated)[1], 200),
    )


@pytest.mark.parametrize("keyframe_interval", [1, 3, 4, 16])
def test_every_window_matches_reference(monkeypatch, keyframe_interval):
    """Every start (so every ``keep_from`` in every group) and stop."""
    nframes = 13
    traj = Trajectory(coords=_walk(nframes, 40, seed=3))
    blob = encode_xtc(traj, keyframe_interval=keyframe_interval)
    index = FrameIndex.build(blob)
    windows = [(s, e) for s in range(nframes) for e in range(s + 1, nframes + 1)]
    live = [decode_frame_range(blob, s, e, index=index).coords for s, e in windows]
    monkeypatch.setattr(xtc, "_decode_gof_ints", ref.decode_gof_ints)
    for (s, e), got in zip(windows, live):
        want = decode_frame_range(blob, s, e, index=index).coords
        assert np.array_equal(got, want), (s, e)


# -- hand-built streams ---------------------------------------------------------


def _body(values, widths):
    """A frame body: prologue, width table, each block packed at its width
    (zero bytes of the right length for a width the format cannot hold)."""
    blocks = []
    for b, w in enumerate(widths):
        block = values[b * _BLOCK_VALUES : (b + 1) * _BLOCK_VALUES]
        blocks.append(
            _pack_words(block, w) if w <= 64 else bytes((block.size * w + 7) // 8)
        )
    head = _PAYLOAD_HEAD.pack(len(widths), len(values))
    return head + bytes(widths) + b"".join(blocks)


def _wrap(body, stored):
    if stored:
        return body + _STORED_CRC.pack(zlib.crc32(body))
    return zlib.compress(body)


def _origin(xyz=(120, -7, 3)):
    raw = np.asarray(xyz, dtype="<i4").tobytes()
    return raw + _STORED_CRC.pack(zlib.crc32(raw))


def _blob(natoms, frames):
    """Frames are ``(flags, payload)`` pairs; headers are made to fit."""
    out = []
    for step, (flags, payload) in enumerate(frames):
        out.append(
            _HEADER.pack(XTC_MAGIC, natoms, step, float(step), *([0.0] * 9),
                         100.0, flags, len(payload))
        )
        out.append(payload)
    return b"".join(out)


def _values(rng, count, nbits):
    if nbits == 0:
        return np.zeros(count, dtype=np.uint64)
    if nbits == 64:
        return rng.integers(0, 2**64, size=count, dtype=np.uint64)
    return rng.integers(0, 2**nbits, size=count, dtype=np.uint64)


def _pframe(rng, count, widths, stored=False):
    values = np.concatenate(
        [
            _values(rng, min(_BLOCK_VALUES, count - b * _BLOCK_VALUES), w)
            for b, w in enumerate(widths)
        ]
    )
    return _FLAG_PFRAME | (_FLAG_STORED if stored else 0), _wrap(
        _body(values, widths), stored
    )


def _iframe(rng, natoms, widths, stored=False):
    count = (natoms - 1) * 3
    values = np.concatenate(
        [_values(rng, min(_BLOCK_VALUES, count - b * _BLOCK_VALUES), w)
         for b, w in enumerate(widths)] or [np.zeros(0, dtype=np.uint64)]
    )
    flags = _FLAG_STORED if stored else 0
    return flags, _origin() + _wrap(_body(values, widths), stored)


def _iframe_widths(natoms, width=11):
    return [width] * (-(-((natoms - 1) * 3) // _BLOCK_VALUES))


@pytest.mark.parametrize(
    "pwidths",
    [
        [[0], [0], [0]],
        [[1], [1]],
        [[63], [63], [63]],
        [[64], [64]],
        [[8], [8], [8]],  # consecutive, whole rows, one period per value
        [[8], [11], [8], [11], [8]],  # same layouts on non-adjacent rows
        [[11], [11], [13]],  # padded to a lane period
        [[16], [32], [64], [16]],
        [[0], [1], [63], [64], [0], [1]],
    ],
)
@pytest.mark.parametrize("natoms", [1, 2, 3, 7, 100])
@pytest.mark.parametrize("stored", [False, True])
def test_hand_built_widths_match_reference(natoms, pwidths, stored):
    rng = np.random.default_rng(len(pwidths) * 97 + natoms)
    frames = [_iframe(rng, natoms, _iframe_widths(natoms), stored)]
    frames += [_pframe(rng, natoms * 3, w, stored) for w in pwidths]
    blob = _blob(natoms, frames)
    _assert_stream_agrees(blob)


@pytest.mark.parametrize(
    "pwidths",
    [
        [[9, 12], [9, 12], [12, 9], [9, 12]],  # two-run layouts, one shared
        [[5, 5], [5, 5], [5, 6]],  # one run, then a one-run-per-block split
        [[64, 0], [64, 0]],
        [[8, 8], [8, 8], [8, 8]],
    ],
)
def test_hand_built_two_block_layouts_match_reference(pwidths):
    natoms = 2800  # 8400 values: a full block and a 208-value tail
    rng = np.random.default_rng(len(pwidths))
    frames = [_iframe(rng, natoms, _iframe_widths(natoms, 7))]
    frames += [_pframe(rng, natoms * 3, w, stored=k % 2 == 1)
               for k, w in enumerate(pwidths)]
    _assert_stream_agrees(_blob(natoms, frames))


# -- error parity ---------------------------------------------------------------

_P, _PS = _FLAG_PFRAME, _FLAG_PFRAME | _FLAG_STORED


def _zeros(count, widths, flags=_P):
    """A P-frame (or, with ``flags=0``, an I-frame behind a good origin)
    whose ``count`` zero values are packed at ``widths``."""
    payload = _wrap(_body(np.zeros(count, np.uint64), widths), flags & _FLAG_STORED)
    return flags, payload if flags & _FLAG_PFRAME else _origin() + payload


def _corrupt_cases():
    """Each case is a group of 4-atom frames that must fail to decode."""
    rng = np.random.default_rng(0)
    good_i, good_p = _iframe(rng, 4, [9]), _pframe(rng, 12, [5])
    stored = _zeros(12, [5], _PS)[1]
    bad_origin = bytearray(good_i[1])
    bad_origin[1] ^= 0x40
    return {
        "bad stored crc": [good_i, (_PS, stored[:-1] + bytes([stored[-1] ^ 1]))],
        "stored shorter than crc": [good_i, (_PS, b"\x01\x02")],
        "failed inflate": [good_i, (_P, b"\x78\x9c garbage")],
        "short prologue": [good_i, (_P, zlib.compress(b"\x01\x00"))],
        "wrong value count": [good_i, _zeros(13, [5])],
        "wrong block count": [good_i, _zeros(12, [5, 5])],
        "truncated width table": [good_i, (_P, zlib.compress(_PAYLOAD_HEAD.pack(1, 12)))],
        "truncated bitstream": [good_i, (_PS, _wrap(_body(np.zeros(12, np.uint64), [5])[:-1], True))],
        "bad origin crc": [(good_i[0], bytes(bad_origin)), good_p],
        "missing origin": [(0, bytes(10)), good_p],
        "p-frame first": [good_p, good_p],
        "i-frame inside": [good_i, good_p, good_i],
        "width 65": [good_i, good_p, _zeros(12, [65])],
        "width 65 before a bad crc": [good_i, _zeros(12, [65]), (_PS, bytes(8))],
        "width 65 i-frame": [_zeros(9, [65], 0), good_p],
        "later frame fails first": [good_i, good_p, (_PS, bytes(2)), (_P, b"junk")],
    }


@pytest.mark.parametrize("case", sorted(_corrupt_cases()))
def test_corruption_raises_the_reference_error(case):
    blob = _blob(4, _corrupt_cases()[case])
    got = _assert_agree(blob, list(iter_frame_infos(blob)))
    assert isinstance(got, str), f"{case} decoded"


def test_fuzzed_bodies_raise_or_decode_like_the_reference():
    """Mutate the *inflated* body (prologue, width table, packed bits) and
    re-wrap it, so corruption reaches past the checksums into every check
    behind them; flip payload bits, so it reaches the checksums."""
    rng = np.random.default_rng(31)
    natoms = 6
    frames = [_iframe(rng, natoms, [9])] + [
        _pframe(rng, natoms * 3, w, stored=k % 2 == 0)
        for k, w in enumerate([[3], [3], [3], [7], [3]])
    ]
    bodies = []
    for flags, payload in frames:
        prefix = b"" if flags & _FLAG_PFRAME else payload[:16]
        inner = payload[len(prefix):]
        raw = inner[:-4] if flags & _FLAG_STORED else zlib.decompress(inner)
        bodies.append((flags, prefix, raw))
    failures = 0
    for _ in range(600):
        mutated = []
        for flags, prefix, raw in bodies:
            raw = bytearray(raw)
            kind = rng.integers(12)
            if kind == 0:
                raw[rng.integers(len(raw))] = int(rng.integers(256))
            elif kind == 1:
                del raw[rng.integers(len(raw)):]
            elif kind == 2:
                raw += bytes(int(rng.integers(1, 5)))
            payload = bytearray(prefix + _wrap(bytes(raw), flags & _FLAG_STORED))
            if rng.random() < 0.05:
                payload[rng.integers(len(payload))] ^= 1 << int(rng.integers(8))
            mutated.append((flags, bytes(payload)))
        blob = _blob(natoms, mutated)
        got = _assert_agree(blob, list(iter_frame_infos(blob)))
        failures += isinstance(got, str)
    assert 100 < failures < 600  # both outcomes were exercised


# -- the unpack kernel at every width -------------------------------------------


@pytest.mark.parametrize("nbits", range(1, 65))
def test_unpack_matches_bit_matrix_at_every_width(nbits):
    """One period-word kernel (plus whole words at 8/16/32/64) serves every
    width: straddling fields, partial last periods and both ``out=`` forms
    agree with the reference's bit-matrix unpacker."""
    lanes = xtc._lane_geometry(nbits, 1)[0]
    rng = np.random.default_rng(nbits)
    for count in sorted({1, lanes - 1, lanes, lanes + 1, 8192, 8193}):
        data = _pack_words(_values(rng, count, nbits), nbits)
        want = ref._unpack_words(data, count, nbits)
        assert np.array_equal(xtc._unpack_words(data, count, nbits), want)
        out = np.full(count, 7, dtype=np.uint64)
        assert xtc._unpack_words(data, count, nbits, out=out) is out
        assert np.array_equal(out, want), (nbits, count)
