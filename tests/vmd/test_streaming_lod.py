"""StreamingTrajectory with an attached LOD sibling stream.

The streaming window cache is the layer that must keep the tiers
honest: a coarse window may never satisfy a full-precision hit, the
``precision`` knob flips tiers mid-playback, and ``auto`` -- which needs
a load signal the stream does not have -- is refused.
"""

import numpy as np
import pytest

from repro.core.lod import lod_max_error
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.errors import CodecError
from repro.vmd.streaming import StreamingTrajectory
from repro.formats import decode_xtc, encode_xtc

pytestmark = pytest.mark.lod

LOD_PRECISION = 12.5


@pytest.fixture(scope="module")
def tiered_setup():
    system = build_gpcr_system(natoms_target=600, seed=41)
    traj = generate_trajectory(system, nframes=32, seed=42)
    blob = encode_xtc(traj, keyframe_interval=8)
    lod_blob = encode_xtc(traj, precision=LOD_PRECISION, keyframe_interval=8)
    return traj, blob, lod_blob


def _stream(tiered_setup, **kwargs):
    _, blob, lod_blob = tiered_setup
    kwargs.setdefault("window_frames", 8)
    kwargs.setdefault("max_windows", 4)
    return StreamingTrajectory(
        blob,
        lod_bytes=lod_blob,
        lod_max_error=lod_max_error(LOD_PRECISION),
        **kwargs,
    )


def test_lod_frames_stay_within_the_advertised_bound(tiered_setup):
    traj, blob, _ = tiered_setup
    s = _stream(tiered_setup, precision="lod")
    exact = decode_xtc(blob)
    for i in (0, 9, 31):
        frame = s.frame(i)
        assert np.abs(frame.coords - exact.coords[i]).max() <= s.lod_max_error
    assert s.last_tier == "lod"
    assert s.lod_frames_served == 3


def test_precision_flips_mid_playback_without_cross_tier_hits(tiered_setup):
    _, blob, _ = tiered_setup
    s = _stream(tiered_setup)
    exact = decode_xtc(blob)
    np.testing.assert_allclose(s.frame(0).coords, exact.coords[0], atol=1e-6)
    assert s.last_tier == "full" and s.window_decodes == 1

    # Same window, coarse tier: a fresh decode, not a cache hit.
    s.precision = "lod"
    coarse = s.frame(0)
    assert s.last_tier == "lod"
    assert s.window_decodes == 2 and s.window_hits == 0
    assert np.abs(coarse.coords - exact.coords[0]).max() <= s.lod_max_error

    # Flip back: the full window is still resident -- an exact hit.
    s.precision = "full"
    again = s.frame(0)
    np.testing.assert_allclose(again.coords, exact.coords[0], atol=1e-6)
    assert s.window_hits == 1 and s.window_decodes == 2


def test_lod_precision_requires_an_attached_stream(tiered_setup):
    _, blob, _ = tiered_setup
    bare = StreamingTrajectory(blob, window_frames=8)
    assert not bare.has_lod
    with pytest.raises(CodecError, match="needs an attached LOD stream"):
        bare.precision = "lod"
    with pytest.raises(CodecError):
        StreamingTrajectory(blob, window_frames=8, precision="lod")
    assert bare.tier() == "full"


def test_precision_validates(tiered_setup):
    s = _stream(tiered_setup)
    with pytest.raises(Exception, match="unknown precision"):
        s.precision = "approx"


def test_auto_is_refused_without_a_load_signal(tiered_setup):
    with pytest.raises(CodecError, match="auto"):
        _stream(tiered_setup, precision="auto")
    s = _stream(tiered_setup, precision="lod")
    with pytest.raises(CodecError, match="auto"):
        s.precision = "auto"
    assert s.tier() == "lod"  # a refused flip leaves the tier as it was


def test_lod_stream_frame_count_must_match(tiered_setup):
    traj, blob, _ = tiered_setup
    system = build_gpcr_system(natoms_target=600, seed=41)
    short = generate_trajectory(system, nframes=8, seed=42)
    mismatched = encode_xtc(short, precision=LOD_PRECISION)
    s = StreamingTrajectory(
        blob, window_frames=8, lod_bytes=mismatched, precision="lod"
    )
    with pytest.raises(CodecError, match="frames"):
        s.frame(0)

