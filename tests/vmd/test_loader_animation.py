"""Tests for load paths, phase timing, and animation playback."""

import numpy as np
import pytest

from repro.core import TagPolicy, build_label_map
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.formats import encode_xtc
from repro.formats.xtc import encode_raw
from repro.vmd import Animator, Molecule, PhaseTimer, TrajectoryLoader


@pytest.fixture(scope="module")
def data():
    system = build_gpcr_system(natoms_target=1200, protein_fraction=0.45, seed=31)
    traj = generate_trajectory(system, nframes=8, seed=32)
    lm = build_label_map(system.topology, TagPolicy.protein_vs_misc())
    return system, traj, lm


def test_phase_timer_accumulates():
    timer = PhaseTimer()
    with timer.phase("a"):
        sum(range(1000))
    with timer.phase("a"):
        pass
    with timer.phase("b"):
        pass
    assert set(timer.seconds) == {"a", "b"}
    assert timer.total() >= timer.seconds["a"]
    assert 0.0 <= timer.fraction("a") <= 1.0


def test_load_compressed_full(data):
    system, traj, _ = data
    result = TrajectoryLoader().load(encode_xtc(traj))
    assert result.trajectory.nframes == traj.nframes
    assert result.decompressed_nbytes == traj.nbytes
    assert "decompress" in result.timer.seconds


def test_load_compressed_with_selection_filters_after_inflate(data):
    system, traj, lm = data
    result = TrajectoryLoader().load(
        encode_xtc(traj), selection=lm.indices("p")
    )
    assert result.trajectory.natoms == lm.atom_count("p")
    # The full raw size was still materialized -- filtering cannot precede
    # decompression (the paper's core observation).
    assert result.decompressed_nbytes == traj.nbytes
    assert result.peak_memory_nbytes > result.loaded_nbytes
    assert set(result.timer.seconds) == {"decompress", "filter"}


def test_load_raw_skips_decompression(data):
    system, traj, lm = data
    result = TrajectoryLoader().load(
        encode_raw(traj), selection=lm.indices("p")
    )
    assert result.decompressed_nbytes == 0
    assert set(result.timer.seconds) == {"parse", "filter"}
    assert result.trajectory.natoms == lm.atom_count("p")


def test_load_subset_is_the_cheapest_path(data):
    system, traj, lm = data
    protein = traj.select_atoms(lm.indices("p"))
    result = TrajectoryLoader().load_subset(encode_raw(protein))
    assert result.trajectory.natoms == lm.atom_count("p")
    assert set(result.timer.seconds) == {"parse"}
    assert result.peak_memory_nbytes < 2.2 * result.loaded_nbytes


def test_load_subset_is_load_in_the_class_dict():
    """``benchmarks/e2e/trace.py`` patches ``load_subset`` in the class
    ``__dict__``; it must stay the one load, not a copy of it."""
    attrs = TrajectoryLoader.__dict__
    assert attrs["load_subset"] is attrs["load"]


def test_memory_ordering_across_paths(data):
    """Peak memory: C path > D path > ADA subset path (Fig. 7c ordering)."""
    system, traj, lm = data
    loader = TrajectoryLoader()
    sel = lm.indices("p")
    c = loader.load(encode_xtc(traj), selection=sel)
    d = loader.load(encode_raw(traj), selection=sel)
    a = loader.load_subset(encode_raw(traj.select_atoms(sel)))
    assert c.peak_memory_nbytes > d.peak_memory_nbytes > a.peak_memory_nbytes


# -- animation ---------------------------------------------------------------


def _molecule(data):
    system, traj, _ = data
    mol = Molecule(0, "gpcr", system.topology)
    mol.add_frames(traj)
    return mol


def test_sequential_playback_all_misses_then_hits(data):
    animator = Animator(_molecule(data), cache_frames=16)
    first = animator.play()
    assert first.frames_shown == 8
    assert first.cache_misses == 8
    second = animator.play()
    assert second.cache_hits == 8  # everything cached now


def test_small_cache_thrashes_on_rocking(data):
    """Paper §2.1: limited memory + back-and-forth replay => low hit rate."""
    big = Animator(_molecule(data), cache_frames=16).rock(passes=4)
    small = Animator(_molecule(data), cache_frames=2).rock(passes=4)
    assert small.hit_rate < big.hit_rate


def test_goto_bounds_checked(data):
    animator = Animator(_molecule(data))
    with pytest.raises(IndexError):
        animator.goto(99)


def test_cache_validation(data):
    with pytest.raises(ValueError):
        Animator(_molecule(data), cache_frames=0)


def test_goto_returns_geometry(data):
    animator = Animator(_molecule(data))
    geo = animator.goto(3)
    assert geo.nsegments > 0
    assert animator.current == 3
