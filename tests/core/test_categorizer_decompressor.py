"""Tests for the categorizer and decompressor."""

import numpy as np
import pytest

from repro.core import Categorizer, Decompressor, TagPolicy
from repro.core.decompressor import INDEX_CACHE_SIZE
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.errors import CodecError, TopologyError
from repro.formats import AtomClass, decode_xtc, encode_xtc
from repro.formats.xtc import decode_raw, encode_raw


@pytest.fixture(scope="module")
def system():
    return build_gpcr_system(natoms_target=1500, protein_fraction=0.45, seed=3)


@pytest.fixture(scope="module")
def trajectory(system):
    return generate_trajectory(system, nframes=6, seed=4)


def test_split_covers_every_atom(system, trajectory):
    cat = Categorizer(TagPolicy.protein_vs_misc())
    lm = cat.label(system.topology)
    subsets = cat.split(trajectory, lm)
    assert set(subsets) == {"p", "m"}
    assert sum(s.natoms for s in subsets.values()) == trajectory.natoms
    assert all(s.nframes == trajectory.nframes for s in subsets.values())


def test_split_preserves_coordinates(system, trajectory):
    cat = Categorizer(TagPolicy.protein_vs_misc())
    lm = cat.label(system.topology)
    subsets = cat.split(trajectory, lm)
    protein_idx = lm.indices("p")
    np.testing.assert_array_equal(
        subsets["p"].coords, trajectory.coords[:, protein_idx, :]
    )


def test_split_atom_count_mismatch_rejected(system, trajectory):
    cat = Categorizer(TagPolicy.protein_vs_misc())
    small = build_gpcr_system(natoms_target=800, seed=9)
    lm = cat.label(small.topology)
    with pytest.raises(TopologyError):
        cat.split(trajectory, lm)


def test_split_topology_classes(system):
    cat = Categorizer(TagPolicy.protein_vs_misc())
    lm = cat.label(system.topology)
    topos = cat.split_topology(system.topology, lm)
    assert all(topos["p"].classes == AtomClass.PROTEIN)
    assert not any(topos["m"].classes == AtomClass.PROTEIN)


def test_per_class_split(system, trajectory):
    cat = Categorizer(TagPolicy.per_class())
    lm = cat.label(system.topology)
    subsets = cat.split(trajectory, lm)
    counts = system.topology.counts_by_class()
    assert subsets["w"].natoms == counts[AtomClass.WATER]
    assert subsets["l"].natoms == counts[AtomClass.LIPID]


# -- decompressor ------------------------------------------------------------


def test_sniff_formats(trajectory):
    d = Decompressor()
    assert d.sniff(encode_xtc(trajectory)) == "xtc"
    assert d.sniff(encode_raw(trajectory)) == "raw"
    with pytest.raises(CodecError):
        d.sniff(b"\x00\x00\x00\x00rubbish")
    with pytest.raises(CodecError):
        d.sniff(b"ab")


def test_decompress_xtc(trajectory):
    d = Decompressor()
    out = d.decompress(encode_xtc(trajectory))
    assert out.nframes == trajectory.nframes
    assert np.abs(out.coords - trajectory.coords).max() < 0.01


def test_decompress_raw_passthrough(trajectory):
    d = Decompressor()
    out = d.decompress(encode_raw(trajectory))
    assert out.allclose(trajectory)


def test_is_compressed(trajectory):
    d = Decompressor()
    assert d.is_compressed(encode_xtc(trajectory))
    assert not d.is_compressed(encode_raw(trajectory))


def test_frame_count_without_decode(trajectory):
    d = Decompressor()
    assert d.frame_count(encode_xtc(trajectory)) == trajectory.nframes
    assert d.frame_count(encode_raw(trajectory)) == trajectory.nframes


def test_raw_nbytes_matches_payload(trajectory):
    d = Decompressor()
    assert d.raw_nbytes(encode_xtc(trajectory)) == trajectory.nbytes


# -- frame-index cache + worker wiring -----------------------------------------


def test_index_cache_shares_one_scan(trajectory):
    d = Decompressor()
    blob = encode_xtc(trajectory)
    d.frame_count(blob)
    d.raw_nbytes(blob)
    d.decompress(blob)
    assert d.index_misses == 1
    assert d.index_hits == 2


def test_index_cache_identity_keyed(trajectory):
    d = Decompressor()
    a = encode_xtc(trajectory)
    assert d.frame_index(a) is d.frame_index(a)
    # Equal bytes, distinct objects: each is its own entry, and the LRU
    # holds INDEX_CACHE_SIZE of them -- filling it evicts ``a``.
    others = [bytes(bytearray(a)) for _ in range(INDEX_CACHE_SIZE)]
    for blob in others:
        d.frame_index(blob)
    assert d.index_misses == 1 + INDEX_CACHE_SIZE
    d.frame_index(others[-1])  # still resident
    assert d.index_misses == 1 + INDEX_CACHE_SIZE
    d.frame_index(a)  # evicted: rescanned
    assert d.index_misses == 2 + INDEX_CACHE_SIZE


def test_decompress_with_cached_index_bit_identical(trajectory):
    blob = encode_xtc(trajectory, keyframe_interval=2)
    d = Decompressor()
    first = d.decompress(blob)
    again = d.decompress(blob)  # reuses the cached FrameIndex
    assert d.index_hits == 1
    np.testing.assert_array_equal(first.coords, decode_xtc(blob).coords)
    np.testing.assert_array_equal(again.coords, first.coords)
