"""What a viewer request costs must not depend on what it did not ask for.

Counted, not timed (the ``tests/core/test_windowed_reads.py`` pattern): the
same operation at a small and a large size of the thing it should be
independent of does the same amount of work.

* a random ``StreamingTrajectory.frame`` seek decodes one group of frames,
  whether windows hold 32 frames or 256;
* ``Molecule.add_frames`` copies O(1) bytes per appended frame, whether a
  molecule takes 16 appends or 256;
* ``VMDSession.mol_new`` parses a structure text once, whether it is
  opened once or eight times;
* serial codec calls never ask the OS for its CPU count;
* ``FrameIndex`` answers ``raw_nbytes``/``anchor``/``gofs`` identically
  (to a brute-force reading of the headers) on 16 and 4096 frames, and a
  ranged decode looks only at the groups it overlaps.
"""

import os
import random

import numpy as np
import pytest

from repro import build_workload
from repro.errors import CodecError
from repro.formats import Topology, decode_xtc, encode_xtc
from repro.formats.trajectory import Trajectory
from repro.formats.xtc import FrameIndex, decode_frame_range, iter_frame_infos
from repro.vmd import Molecule, VMDSession
from repro.vmd import session as session_mod
from repro.vmd.streaming import StreamingTrajectory

KEYFRAME_INTERVAL = 4


@pytest.fixture(scope="module")
def long_blob():
    """512 frames of a tiny system, a keyframe every fourth."""
    rng = np.random.default_rng(401)
    walk = rng.normal(scale=0.05, size=(512, 12, 3)).cumsum(axis=0)
    traj = Trajectory((walk + rng.uniform(0, 30, size=(12, 3))).astype(np.float32))
    return encode_xtc(traj, keyframe_interval=KEYFRAME_INTERVAL)


# -- StreamingTrajectory.frame ---------------------------------------------------


def _frames_decoded_by_cold_seeks(blob, window_frames, seeks):
    """Frames pushed through the decoder by each seek into a cold stream."""
    index = FrameIndex.build(blob)
    decoded = []
    for iframe in seeks:
        stream = StreamingTrajectory(blob, window_frames=window_frames, index=index)
        stream.frame(iframe)
        assert stream.window_decodes == 1
        decoded.append(stream.frames_decoded)
    return decoded


def test_a_seek_decodes_its_group_whatever_the_window(long_blob):
    rng = random.Random(402)
    seeks = [rng.randrange(512) for _ in range(40)]
    small = _frames_decoded_by_cold_seeks(long_blob, 32, seeks)
    large = _frames_decoded_by_cold_seeks(long_blob, 256, seeks)
    assert small == large == [KEYFRAME_INTERVAL] * len(seeks)


# -- Molecule.add_frames ---------------------------------------------------------


def _copied_per_appended_frame(nappends):
    natoms = 50
    topo = Topology(
        names=["C"] * natoms, resnames=["LIG"] * natoms, resids=range(natoms)
    )
    part = Trajectory(np.zeros((4, natoms, 3), dtype=np.float32))
    mol = Molecule(0, "m", topo)
    for _ in range(nappends):
        mol.add_frames(part)
    assert mol.num_frames == 4 * nappends
    return mol.copied_nbytes / mol.frame_nbytes


def test_appends_copy_a_constant_number_of_bytes_per_frame():
    few, many = _copied_per_appended_frame(16), _copied_per_appended_frame(256)
    # Each frame is written once and carried over by at most every
    # doubling behind it: < 3 copies, at 16 appends and at 256 alike
    # (rebuilding the array per append is 8.5 and 128.5).
    assert 1.0 <= few < 3.0 and 1.0 <= many < 3.0
    assert many <= few * 1.5


# -- VMDSession.mol_new ----------------------------------------------------------


def test_a_structure_text_is_parsed_once_per_session(monkeypatch):
    text = build_workload(natoms=300, nframes=1, seed=403).pdb_text
    calls = []
    real = session_mod.parse_pdb

    def counting(pdb_text):
        calls.append(len(pdb_text))
        return real(pdb_text)

    monkeypatch.setattr(session_mod, "parse_pdb", counting)
    once = VMDSession()
    once.mol_new(text)
    assert len(calls) == 1
    eight = VMDSession()
    molecules = [eight.mol_new(text, name=f"m{i}") for i in range(8)]
    assert len(calls) == 2  # one more: the second session's, not eight
    assert all(m.topology is molecules[0].topology for m in molecules)
    assert [m.mol_id for m in molecules] == list(range(8))
    assert eight.top is molecules[-1]
    # An equal text held in another object is the same structure...
    eight.mol_new("".join(text))
    assert len(calls) == 2
    # ...a different one is not, and nothing outlives the session.
    other = build_workload(natoms=320, nframes=1, seed=404).pdb_text
    assert eight.mol_new(other).topology is not molecules[0].topology
    assert len(calls) == 3
    VMDSession().mol_new(text)
    assert len(calls) == 4


# -- serial codec calls ----------------------------------------------------------


def test_serial_codec_calls_never_ask_for_the_cpu_count(long_blob, monkeypatch):
    asked = []
    monkeypatch.setattr(os, "cpu_count", lambda: asked.append(1) or 2)
    traj = decode_xtc(long_blob)
    encode_xtc(traj.slice_frames(0, 16), keyframe_interval=KEYFRAME_INTERVAL)
    decode_frame_range(long_blob, 9, 21)
    stream = StreamingTrajectory(long_blob)
    stream.frame(100)
    stream.close()
    assert asked == []


# -- FrameIndex ------------------------------------------------------------------


@pytest.mark.parametrize("nframes", [16, 4096])
def test_frame_index_answers_match_the_headers(nframes):
    rng = np.random.default_rng(nframes)
    coords = rng.uniform(0, 20, size=(nframes, 3, 3)).astype(np.float32)
    blob = encode_xtc(Trajectory(coords), keyframe_interval=7)
    index = FrameIndex.build(blob)
    infos = list(iter_frame_infos(blob))
    keyframes = [i.index for i in infos if i.is_keyframe]
    assert list(index.keyframes) == keyframes == list(range(0, nframes, 7))
    assert index.nframes == len(index) == nframes
    assert index.raw_nbytes == sum(i.raw_nbytes for i in infos) == nframes * 36
    assert index.stream_nbytes == len(blob)
    bounds = keyframes + [nframes]
    assert index.gofs() == list(zip(bounds, bounds[1:]))
    for frame in {0, 1, 6, 7, 8, nframes // 2, nframes - 2, nframes - 1}:
        want = max(k for k in keyframes if k <= frame)
        anchor = index.anchor(frame)
        assert anchor == want and type(anchor) is int
        start, stop = index.gof(frame)
        assert (start, stop) in index.gofs() and start <= frame < stop
    for bad in (-1, nframes):
        with pytest.raises(CodecError):
            index.anchor(bad)


def test_a_ranged_decode_walks_only_its_own_groups(long_blob, monkeypatch):
    """``decode_frame_range`` used to list every group of the stream to
    find the ones it overlaps; it bisects now."""
    index = FrameIndex.build(long_blob)
    whole = decode_xtc(long_blob, index=index)
    listed = []
    monkeypatch.setattr(FrameIndex, "gofs", lambda self: listed.append(1) or [])
    for start, stop in ((0, 1), (5, 6), (3, 13), (508, 512), (0, 512)):
        got = decode_frame_range(long_blob, start, stop, index=index)
        assert np.array_equal(got.coords, whole.coords[start:stop])
    assert listed == []
