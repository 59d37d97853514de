"""Demand-filled streaming windows: same frames, same window accounting.

``StreamingTrajectory`` keeps the window as its residency unit but decodes
by group of frames: a miss fills only the group holding the requested
frame.  What a caller can observe must not move --

* every frame served is ``array_equal`` to the same frame of a whole-stream
  ``decode_xtc`` (of the tier it was served from), in any access order;
* ``window_decodes``/``window_hits``/``hit_rate()`` are what a plain LRU
  over ``(tier, window)`` keys yields -- the whole-window implementation's
  numbers -- and, with ``prefetch`` on, the numbers that implementation
  produced on the same scripts (recorded from it; run this file as a
  script against a tree to print them);
* ``resident_nbytes <= max_resident_nbytes`` after every call;

across ``full``/``lod``/``auto``, ``prefetch`` on/off and
``keyframe_interval`` 1 (every frame its own group), 4 (groups nest in
windows) and 100 (one group spans several windows: the whole-window
degenerate case).
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
PRECISIONS = ("full", "lod", "auto")


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


def _pressure_at(step):
    """The scripted external pressure: loaded two steps out of every five."""
    return 1.0 if step % 5 >= 3 else 0.0


def _play(blobs, order, precision, prefetch, truth=None):
    """Run ``order`` through a stream; returns it (closed) for its counters.

    Speculative decodes are waited out after every call, so with
    ``prefetch`` on the counters are a function of the script alone.
    """
    blob, lod = blobs
    step = {"now": 0}
    stream = StreamingTrajectory(
        blob,
        window_frames=WINDOW,
        max_windows=MAX_WINDOWS,
        lod_bytes=lod,
        precision=precision,
        prefetch=prefetch,
        pressure_fn=lambda: _pressure_at(step["now"]),
    )
    try:
        for step["now"], iframe in enumerate(order):
            frame = stream.frame(iframe)
            if truth is not None:
                want = truth[stream.last_tier][iframe]
                assert np.array_equal(frame.coords, want), (iframe, stream.last_tier)
            assert stream.resident_nbytes <= stream.max_resident_nbytes
            for future in list(stream._pending.values()):
                future.result()
    finally:
        stream.close()
    return stream


def _lru_counts(order, precision):
    """(decodes, hits) of a whole-window LRU over ``(tier, window)`` keys:
    the accounting this class has always had, modelled independently."""
    resident = OrderedDict()
    decodes = hits = 0
    for step, iframe in enumerate(order):
        if precision == "auto":
            tier = "lod" if _pressure_at(step) >= 0.85 else "full"
        else:
            tier = precision
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


#: ``(window_decodes, window_hits, prefetch_issued, prefetch_hits,
#: prefetch_wasted, prefetch_suppressed)`` of the whole-window
#: implementation with ``prefetch=True``, per ``(script, precision)`` --
#: the same for every keyframe interval, which that implementation never
#: looked at.
WHOLE_WINDOW_PREFETCH = {
    ("rock", "full"): (15, 177, 3, 3, 0, 97),
    ("rock", "lod"): (15, 177, 3, 3, 0, 97),
    ("rock", "auto"): (41, 151, 1, 1, 0, 139),
    ("scrub", "full"): (69, 51, 0, 0, 0, 1),
    ("scrub", "lod"): (69, 51, 0, 0, 0, 1),
    ("scrub", "auto"): (89, 31, 0, 0, 0, 2),
    ("skip", "full"): (16, 27, 1, 1, 0, 26),
    ("skip", "lod"): (16, 27, 1, 1, 0, 26),
    ("skip", "auto"): (30, 13, 1, 0, 1, 26),
}


def _counters(stream):
    return (
        stream.window_decodes,
        stream.window_hits,
        stream.prefetch_issued,
        stream.prefetch_hits,
        stream.prefetch_wasted,
        stream.prefetch_suppressed,
    )


@pytest.mark.parametrize("interval", KEYFRAME_INTERVALS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_on_demand_playback_matches_decode_and_lru(
    streams, script, precision, interval
):
    blobs, truth = streams
    order = SCRIPTS[script]
    stream = _play(blobs[interval], order, precision, False, truth)
    decodes, hits = _lru_counts(order, precision)
    assert (stream.window_decodes, stream.window_hits) == (decodes, hits)
    assert stream.hit_rate() == hits / len(order)
    assert stream.prefetch_issued == 0


@pytest.mark.parametrize("interval", KEYFRAME_INTERVALS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_prefetching_playback_matches_decode_and_recorded_counters(
    streams, script, precision, interval
):
    blobs, truth = streams
    order = SCRIPTS[script]
    stream = _play(blobs[interval], order, precision, True, truth)
    assert _counters(stream) == WHOLE_WINDOW_PREFETCH[script, precision]
    assert stream.window_decodes + stream.window_hits == len(order)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, NFRAMES - 1), min_size=1, max_size=60),
    st.sampled_from(PRECISIONS),
    st.sampled_from(KEYFRAME_INTERVALS),
    st.booleans(),
)
def test_hypothesis_access_orders(streams, order, precision, interval, prefetch):
    blobs, truth = streams
    stream = _play(blobs[interval], order, precision, prefetch, truth)
    assert stream.window_decodes + stream.window_hits == len(order)
    if not prefetch:
        assert (stream.window_decodes, stream.window_hits) == _lru_counts(
            order, precision
        )


# -- what demand fill changes: the frames pushed through the decoder ------------


def test_frames_decoded_counts_groups_not_windows(streams):
    blobs, _ = streams
    order = SCRIPTS["scrub"]
    by_interval = {
        interval: _play(blobs[interval], order, "full", False).frames_decoded
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
        stream = _play(blobs[interval], range(NFRAMES), "full", False)
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


if __name__ == "__main__":  # print WHOLE_WINDOW_PREFETCH for the tree on the path
    _system = build_gpcr_system(natoms_target=300, seed=211)
    _traj = generate_trajectory(_system, nframes=NFRAMES, seed=212)
    for _interval in KEYFRAME_INTERVALS:
        _blobs = (
            encode_xtc(_traj, keyframe_interval=_interval),
            encode_xtc(_traj, precision=LOD_PRECISION, keyframe_interval=_interval),
        )
        print(f"keyframe_interval={_interval}")
        for _script in sorted(SCRIPTS):
            for _precision in PRECISIONS:
                _stream = _play(_blobs, SCRIPTS[_script], _precision, True)
                print(f'    ("{_script}", "{_precision}"): {_counters(_stream)},')
