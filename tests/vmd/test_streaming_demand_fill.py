"""Demand-filled streaming windows: same frames, same window accounting.

``StreamingTrajectory`` keeps the window as its residency unit but decodes
by group of frames: a miss fills only the group holding the requested
frame.  What a caller can observe must not move --

* every frame served is ``array_equal`` to the same frame of a whole-stream
  ``decode_xtc`` (of the tier it was served from), in any access order;
* ``window_decodes``/``window_hits``/``hit_rate()`` are what a plain LRU
  over ``(tier, window)`` keys yields -- the whole-window implementation's
  numbers;
* ``resident_nbytes <= max_resident_nbytes`` after every call;

across ``full``/``lod`` and ``keyframe_interval`` 1 (every frame its own
group), 4 (groups nest in windows) and 100 (one group spans several
windows: the whole-window degenerate case).
"""

import random
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import build_gpcr_system, generate_trajectory
from repro.formats import decode_xtc, encode_xtc
from repro.vmd.streaming import StreamingTrajectory

NFRAMES = 96
WINDOW = 8
MAX_WINDOWS = 6
LOD_PRECISION = 12.5
KEYFRAME_INTERVALS = (1, 4, 100)
PRECISIONS = ("full", "lod")


@pytest.fixture(scope="module")
def streams():
    system = build_gpcr_system(natoms_target=300, seed=211)
    traj = generate_trajectory(system, nframes=NFRAMES, seed=212)
    out = {}
    for interval in KEYFRAME_INTERVALS:
        blob = encode_xtc(traj, keyframe_interval=interval)
        lod = encode_xtc(
            traj, precision=LOD_PRECISION, keyframe_interval=interval
        )
        out[interval] = (blob, lod)
    blob, lod = out[4]
    truth = {"full": decode_xtc(blob).coords, "lod": decode_xtc(lod).coords}
    return out, truth


def _scripts():
    rng = random.Random(2117)
    return {
        "scrub": [rng.randrange(NFRAMES) for _ in range(120)],
        "rock": list(range(NFRAMES)) + list(range(NFRAMES - 1, -1, -1)),
        "skip": list(range(0, NFRAMES, 16)) * 2 + list(range(5, NFRAMES, 3)),
    }


SCRIPTS = _scripts()


def _play(blobs, order, precision, truth=None):
    """Run ``order`` through a stream; returns it for its counters."""
    blob, lod = blobs
    stream = StreamingTrajectory(
        blob,
        window_frames=WINDOW,
        max_windows=MAX_WINDOWS,
        lod_bytes=lod,
        precision=precision,
    )
    for iframe in order:
        frame = stream.frame(iframe)
        if truth is not None:
            want = truth[stream.last_tier][iframe]
            assert np.array_equal(frame.coords, want), (iframe, stream.last_tier)
        assert stream.resident_nbytes <= stream.max_resident_nbytes
    return stream


def _lru_counts(order, tier):
    """(decodes, hits) of a whole-window LRU over ``(tier, window)`` keys:
    the accounting this class has always had, modelled independently."""
    resident = OrderedDict()
    decodes = hits = 0
    for iframe in order:
        key = (tier, iframe // WINDOW)
        if key in resident:
            hits += 1
            resident.move_to_end(key)
        else:
            decodes += 1
            resident[key] = True
            if len(resident) > MAX_WINDOWS:
                resident.popitem(last=False)
    return decodes, hits


@pytest.mark.parametrize("interval", KEYFRAME_INTERVALS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_on_demand_playback_matches_decode_and_lru(
    streams, script, precision, interval
):
    blobs, truth = streams
    order = SCRIPTS[script]
    stream = _play(blobs[interval], order, precision, truth)
    decodes, hits = _lru_counts(order, precision)
    assert (stream.window_decodes, stream.window_hits) == (decodes, hits)
    assert stream.hit_rate() == hits / len(order)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, NFRAMES - 1), min_size=1, max_size=60),
    st.sampled_from(PRECISIONS),
    st.sampled_from(KEYFRAME_INTERVALS),
)
def test_hypothesis_access_orders(streams, order, precision, interval):
    blobs, truth = streams
    stream = _play(blobs[interval], order, precision, truth)
    assert (stream.window_decodes, stream.window_hits) == _lru_counts(
        order, precision
    )


# -- what demand fill changes: the frames pushed through the decoder ------------


def test_frames_decoded_counts_groups_not_windows(streams):
    blobs, _ = streams
    order = SCRIPTS["scrub"]
    by_interval = {
        interval: _play(blobs[interval], order, "full").frames_decoded
        for interval in KEYFRAME_INTERVALS
    }
    decodes, _ = _lru_counts(order, "full")
    # One frame per touched group; never more than the window's worth a
    # whole-window decode pays for every miss.
    assert by_interval[1] <= len(order)
    assert by_interval[1] < by_interval[4] < decodes * WINDOW
    # A group longer than the window: every fill rewinds to the keyframe,
    # exactly as the whole-window decode did.
    assert by_interval[100] >= decodes * WINDOW


def test_sequential_playback_decodes_every_frame_once(streams):
    blobs, _ = streams
    for interval in (1, 4):
        stream = _play(blobs[interval], range(NFRAMES), "full")
        assert stream.frames_decoded == NFRAMES
        assert stream.window_decodes == NFRAMES // WINDOW


def test_failed_fill_counts_and_caches_nothing(streams):
    from repro.errors import CodecError

    blobs, _ = streams
    blob, _ = blobs[4]
    stream = StreamingTrajectory(blob, window_frames=WINDOW, lod_bytes=blob[:200])
    stream.frame(0)
    stream.precision = "lod"
    with pytest.raises(CodecError):
        stream.frame(0)
    assert (stream.window_decodes, stream.window_hits) == (1, 0)
    assert list(stream._windows) == [("full", 0)]

