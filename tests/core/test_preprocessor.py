"""Tests for the storage-side data pre-processor."""

import pytest

from repro.core import DataPreProcessor, TagPolicy
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.formats import encode_xtc, write_pdb
from repro.formats.codecexec import shared_pool
from repro.formats.xtc import decode_raw, encode_raw


@pytest.fixture(scope="module")
def dataset():
    system = build_gpcr_system(natoms_target=1200, protein_fraction=0.45, seed=7)
    traj = generate_trajectory(system, nframes=5, seed=8)
    return system, write_pdb(system.topology, system.coords), encode_xtc(traj), traj


def test_process_produces_both_subsets(dataset):
    system, pdb_text, blob, traj = dataset
    result = DataPreProcessor().process(pdb_text, blob)
    assert result.tags == ["m", "p"]
    assert result.nframes == traj.nframes
    assert result.raw_nbytes == traj.nbytes
    assert result.compressed_nbytes == len(blob)


def test_subsets_decode_to_consistent_trajectories(dataset):
    system, pdb_text, blob, traj = dataset
    result = DataPreProcessor().process(pdb_text, blob)
    protein = decode_raw(result.subsets["p"])
    misc = decode_raw(result.subsets["m"])
    assert protein.nframes == misc.nframes == traj.nframes
    assert protein.natoms + misc.natoms == traj.natoms


def test_subset_volume_fraction_tracks_label_fraction(dataset):
    """Table 2's invariant: the protein subset's share of raw bytes equals
    its atom fraction."""
    system, pdb_text, blob, traj = dataset
    result = DataPreProcessor().process(pdb_text, blob)
    byte_fraction = result.subset_nbytes("p") / (
        result.subset_nbytes("p") + result.subset_nbytes("m")
    )
    assert byte_fraction == pytest.approx(result.label_map.fraction("p"), abs=0.01)


def test_analyze_structure_only(dataset):
    system, pdb_text, _, _ = dataset
    lm = DataPreProcessor().analyze_structure(pdb_text)
    assert lm.natoms == system.natoms
    assert lm.fraction("p") == pytest.approx(system.protein_fraction(), abs=0.01)


def test_process_topology_skips_pdb_roundtrip(dataset):
    system, _, blob, _ = dataset
    result = DataPreProcessor().process_topology(system.topology, blob)
    assert result.tags == ["m", "p"]


def test_per_class_policy_produces_more_subsets(dataset):
    system, pdb_text, blob, _ = dataset
    result = DataPreProcessor(TagPolicy.per_class()).process(pdb_text, blob)
    assert set(result.tags) >= {"p", "w", "l", "i"}


def test_raw_input_accepted(dataset):
    """Pre-processor handles already-decompressed (raw container) arrivals."""
    system, pdb_text, _, traj = dataset
    result = DataPreProcessor().process(pdb_text, encode_raw(traj))
    assert result.raw_nbytes == traj.nbytes


@pytest.fixture(scope="module")
def long_chunk():
    """A raw-container chunk longer than ``encode_xtc``'s default 100-frame
    keyframe interval, so every XTC encode of it has >= 2 groups of frames
    to fan out -- and, arriving raw, a decode that is a parse and cannot
    touch a pool."""
    system = build_gpcr_system(natoms_target=300, protein_fraction=0.45, seed=7)
    traj = generate_trajectory(system, nframes=130, seed=8)
    label_map = DataPreProcessor().analyze_structure(
        write_pdb(system.topology, system.coords)
    )
    return label_map, encode_raw(traj)


def test_parallel_divide_identical_subsets(long_chunk):
    """Fanned-out subset encoding is byte-identical to serial."""
    for fmt in ("raw", "xtc"):
        for lod_precision in (None, 12.5):
            kwargs = dict(subset_format=fmt, lod_precision=lod_precision)
            serial = DataPreProcessor(**kwargs).process_chunk(*long_chunk)
            fanned = DataPreProcessor(workers=4, **kwargs).process_chunk(
                *long_chunk
            )
            assert fanned.subsets == serial.subsets
            assert ("lod:p" in serial.tags) == (lod_precision is not None)


def test_lod_sibling_encode_reaches_the_pool_in_the_raw_format(long_chunk):
    """Under the default ``subset_format="raw"`` the ``lod:`` siblings are
    the only compressed encodes; they used to run serially whatever
    ``workers`` said."""
    segments = shared_pool(2).metrics.counter("codec_shm_segments_total")
    before = segments.value
    fanned = DataPreProcessor(workers=2, lod_precision=12.5).process_chunk(
        *long_chunk
    )
    assert segments.value > before
    serial = DataPreProcessor(lod_precision=12.5).process_chunk(*long_chunk)
    assert fanned.subsets == serial.subsets
