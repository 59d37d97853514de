"""The encode kernels against their frozen originals, plus exact sentinels.

``encode_reference`` holds the quantize / zigzag / width-scan kernels as
they were before the period-word rewrite; the live ones must agree value
for value and, for ``_quantize``, error for error (type *and* message:
non-finite coordinates win over int32 overflow).  The pack kernel's
ground truth is the ``np.packbits`` reference in ``test_parallel_codec``.

The sentinels are counts that repeat exactly -- ``tracemalloc`` peaks and
``zlib.compressobj`` entries -- taken at two sizes of the same operation, so
a pass that quietly comes back (a staging copy, a trial compression)
fails here rather than in a wall-clock benchmark.
"""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import DataPreProcessor
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.errors import CodecError
from repro.formats import Trajectory, encode_xtc
from repro.formats.xtc import _block_widths, _pack_words, _quantize, _zigzag
from tests.formats import encode_reference as ref

PRECISIONS = (100.0, 12.5, 1000.0, 1.0, 0.1)
INT32_MAX = 2147483647


def _assert_quantize_agrees(coords, precision):
    try:
        want = ref.quantize(coords, precision)
    except CodecError as exc:
        with pytest.raises(CodecError) as got:
            _quantize(coords, precision)
        assert str(got.value) == str(exc)
    else:
        got = _quantize(coords, precision)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


# Mostly in-domain coordinates, salted with everything the two checks
# exist for: NaN, +-inf, and magnitudes that overflow int32 at some (or
# every) precision on the list.
_COORD = st.one_of(
    st.floats(-1e4, 1e4, width=32),
    st.floats(-1e4, 1e4, width=32),
    st.floats(width=32, allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), 3e7, -3e7, 2.2e9, -2.2e9]
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    coords=hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 3), st.integers(1, 5), st.just(3)),
        elements=_COORD,
    ),
    precision=st.sampled_from(PRECISIONS),
)
def test_quantize_matches_frozen_original(coords, precision):
    _assert_quantize_agrees(coords, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_quantize_int32_boundary(precision):
    """+-int32 max are the last quanta admitted; one float32 step beyond
    (and -2**31 itself, which int32 could hold) is an overflow."""
    edge = np.float32(INT32_MAX / precision)
    for value in (
        edge,
        -edge,
        np.nextafter(edge, np.float32(np.inf)),
        np.nextafter(edge, np.float32(0)),
        np.float32(-(2.0**31) / precision),
    ):
        coords = np.full((1, 2, 3), value, dtype=np.float32)
        coords[0, 1] = 0.25
        _assert_quantize_agrees(coords, precision)


def test_quantize_non_finite_wins_over_overflow():
    coords = np.array([[[3e9, 0.0, 1.0], [np.inf, 2.0, 3.0]]], dtype=np.float32)
    with pytest.raises(CodecError, match="non-finite"):
        _quantize(coords, 100.0)
    coords[0, 1, 0] = np.nan
    with pytest.raises(CodecError, match="non-finite"):
        _quantize(coords, 100.0)
    coords[0, 1, 0] = 0.0
    with pytest.raises(CodecError, match="overflow"):
        _quantize(coords, 100.0)
    _assert_quantize_agrees(coords, 100.0)


@pytest.mark.parametrize("shape", [(0, 5, 3), (2, 0, 3), (1, 1, 3), (4, 1, 3)])
def test_quantize_empty_and_single_atom(shape):
    coords = np.linspace(-7.0, 9.0, int(np.prod(shape)), dtype=np.float32)
    _assert_quantize_agrees(coords.reshape(shape), 100.0)


@settings(max_examples=50, deadline=None)
@given(
    deltas=hnp.arrays(
        np.int64,
        st.tuples(st.integers(0, 4), st.integers(0, 40)),
        elements=st.integers(-(2**32) + 2, 2**32 - 2),
    )
)
def test_zigzag_matches_frozen_original_in_place(deltas):
    want = ref.zigzag(deltas)
    owned = deltas.copy()
    got = _zigzag(owned)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)
    assert not owned.size or np.shares_memory(got, owned)  # consumed


@pytest.mark.parametrize("nvalues", [0, 1, 5, 8191, 8192, 8193, 16384, 16389])
def test_block_widths_match_frozen_scan(nvalues):
    """Full blocks through a view plus the tail: same table as the
    zero-padded copy, for every row of a group of frames at once."""
    rng = np.random.default_rng(nvalues)
    rows = rng.integers(0, 1 << 9, size=(3, nvalues)).astype(np.uint64)
    if nvalues > 8192:
        rows[1, :8192] = 0  # a width-0 block beside a wide one
        rows[2, 8192] = 1 << 33
    assert _block_widths(rows) == [ref.block_widths(row) for row in rows]
    assert _block_widths(rows[:0]) == []


# -- sentinels -----------------------------------------------------------------


def _traced_peak(fn, *args, **kwargs):
    fn(*args, **kwargs)  # warm per-width layout tables and the like
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("count", [8192, 4 * 8192, 8192 + 5])
def test_pack_words_allocates_at_most_three_times_its_input(count):
    """One masked copy of the values, the period words twice (native and
    big-endian) and the bytes: never the per-lane temporaries or the 16 KB
    padded staging the old kernel made."""
    values = np.arange(count, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for nbits in range(1, 33):
        peak = _traced_peak(_pack_words, values, nbits)
        assert peak <= 3 * values.nbytes, f"nbits={nbits}: {peak} B"


def _walk(nframes, natoms):
    idx = np.arange(nframes * natoms * 3, dtype=np.float64)
    idx = idx.reshape(nframes, natoms, 3)
    drift = np.arange(nframes)[:, None, None] * 0.2
    return Trajectory((np.sin(idx[:1] * 0.37) * 30 + np.cos(idx) * drift))


@pytest.mark.parametrize("natoms", [2000, 8000])
def test_encode_peak_is_below_the_recorded_parent(natoms):
    """One 8-frame call peaked at 8.06x its float32 input before the
    rewrite (1,547,720 B at 2000 atoms, 6,183,869 B at 8000): float64
    values, int32 and int64 quanta, deltas and three zigzag temporaries
    alive together.  Now the float64 values and the int64 quanta are the
    peak (4x), and it scales with the input, not the block padding."""
    traj = _walk(8, natoms)
    peak = _traced_peak(encode_xtc, traj)
    assert peak <= 4.25 * traj.coords.nbytes, peak


def _count_compress(monkeypatch):
    """Patch ``zlib.compressobj`` (one deflate stream per entry) to log its
    entries; returns the log."""
    calls, real = [], zlib.compressobj

    def counting(*args, **kwargs):
        calls.append(kwargs.get("strategy"))
        return real(*args, **kwargs)

    monkeypatch.setattr(zlib, "compressobj", counting)
    return calls


@pytest.mark.parametrize("natoms_target", [400, 8000])
def test_deflate_is_entered_once_per_frame(monkeypatch, natoms_target):
    """The stored-vs-deflated rule compares against the one compression the
    frame ships with -- no trial pass.  Shapes are the benchmark's: a
    sharded append (8 frames, raw subsets + two LOD siblings) is 16
    entries, an ``ingest_stream`` segment (16 frames as two 8-frame
    windows, xtc subsets + LOD siblings) is 64; the atom count (one block
    a frame, or several) does not enter."""
    system = build_gpcr_system(natoms_target=natoms_target, seed=5)
    blob = encode_xtc(
        generate_trajectory(system, nframes=16, seed=6), keyframe_interval=8
    )
    append = encode_xtc(
        generate_trajectory(system, nframes=8, seed=7), keyframe_interval=8
    )
    calls = _count_compress(monkeypatch)
    with DataPreProcessor(lod_precision=12.5) as pre:
        label_map = pre.categorizer.label(system.topology)
        pre.process_chunk(label_map, append)
    assert len(calls) == 16
    calls.clear()
    with DataPreProcessor(subset_format="xtc", lod_precision=12.5) as pre:
        for _ in pre.process_windows(label_map, blob, window_frames=8):
            pass
    assert len(calls) == 64
    assert set(calls) == {zlib.Z_HUFFMAN_ONLY}
