"""Tests for full-system assembly and trajectory dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TagPolicy, build_label_map
from repro.core.tags import CLASS_TAGS
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.errors import TopologyError
from repro.formats import AtomClass, encode_xtc


def _class_runs(topology):
    """Runs of consecutive same-class atoms per class tag, as the labeler
    (Algorithm 1) extracts them."""
    label_map = build_label_map(topology, TagPolicy.per_class())
    return {tag: label_map.run_count(tag) for tag in label_map.tags}


def test_system_total_atoms_near_target():
    s = build_gpcr_system(natoms_target=4000, seed=0)
    assert abs(s.natoms - 4000) / 4000 < 0.05


def test_protein_fraction_near_request():
    for frac in (0.43, 0.49):
        s = build_gpcr_system(natoms_target=5000, protein_fraction=frac, seed=1)
        assert abs(s.protein_fraction() - frac) < 0.03


def test_all_major_classes_present():
    counts = build_gpcr_system(natoms_target=3000, seed=2).class_counts()
    for cls in (AtomClass.PROTEIN, AtomClass.WATER, AtomClass.LIPID, AtomClass.ION):
        assert counts[cls] > 0, cls


def test_block_layout_yields_few_runs():
    s = build_gpcr_system(natoms_target=3000, seed=3)
    runs = _class_runs(s.topology)
    assert sum(runs.values()) <= 6  # protein, ligand, lipid, water, ions


def test_multi_chain_and_interleaved_ligand():
    s = build_gpcr_system(
        natoms_target=4000, seed=4, n_chains=3, interleave_ligand=True
    )
    runs = _class_runs(s.topology)
    assert runs[CLASS_TAGS[AtomClass.PROTEIN]] == 3
    assert runs[CLASS_TAGS[AtomClass.LIGAND]] == 2


def test_deterministic_per_seed():
    a = build_gpcr_system(natoms_target=2000, seed=9)
    b = build_gpcr_system(natoms_target=2000, seed=9)
    assert a.topology == b.topology
    np.testing.assert_array_equal(a.coords, b.coords)


def test_too_small_target_rejected():
    with pytest.raises(TopologyError):
        build_gpcr_system(natoms_target=50)


def test_silly_fraction_rejected():
    with pytest.raises(TopologyError):
        build_gpcr_system(natoms_target=2000, protein_fraction=0.99)


@settings(max_examples=10, deadline=None)
@given(
    natoms=st.integers(1000, 8000),
    frac=st.floats(0.30, 0.60),
    seed=st.integers(0, 100),
)
def test_property_fraction_tracks_request(natoms, frac, seed):
    s = build_gpcr_system(natoms_target=natoms, protein_fraction=frac, seed=seed)
    assert abs(s.protein_fraction() - frac) < 0.05
    assert abs(s.natoms - natoms) / natoms < 0.10


# -- motion -----------------------------------------------------------------


def test_trajectory_shape_and_metadata():
    s = build_gpcr_system(natoms_target=1500, seed=0)
    t = generate_trajectory(s, nframes=8, seed=1, dt_ps=20.0)
    assert t.nframes == 8
    assert t.natoms == s.natoms
    assert t.times_ps[1] - t.times_ps[0] == pytest.approx(20.0)
    assert t.box is not None


def test_trajectory_zero_frames_rejected():
    s = build_gpcr_system(natoms_target=1500, seed=0)
    with pytest.raises(TopologyError):
        generate_trajectory(s, nframes=0)


def test_motion_bounded_by_ou_reversion():
    """Displacement stays near the stationary amplitude, not a free walk."""
    s = build_gpcr_system(natoms_target=1500, seed=0)
    t = generate_trajectory(s, nframes=100, seed=2)
    drift = np.linalg.norm(t.coords[-1] - s.coords[None, :, :][0], axis=1)
    assert np.percentile(drift, 99) < 25.0


def test_water_moves_more_than_protein():
    s = build_gpcr_system(natoms_target=2500, seed=1)
    t = generate_trajectory(s, nframes=40, seed=3)
    disp = np.linalg.norm(t.coords[-1] - t.coords[0], axis=1)
    water = disp[s.topology.class_mask(AtomClass.WATER)].mean()
    protein = disp[s.topology.class_mask(AtomClass.PROTEIN)].mean()
    assert water > protein


def test_trajectory_deterministic_per_seed():
    s = build_gpcr_system(natoms_target=1200, seed=5)
    t1 = generate_trajectory(s, nframes=5, seed=7)
    t2 = generate_trajectory(s, nframes=5, seed=7)
    np.testing.assert_array_equal(t1.coords, t2.coords)


def test_compression_ratio_in_paper_band():
    """Synthetic trajectories compress ~3-4x vs raw float32, like Table 2's
    327 MB raw -> 100 MB compressed (3.27x)."""
    s = build_gpcr_system(natoms_target=5000, protein_fraction=0.44, seed=0)
    t = generate_trajectory(s, nframes=30, seed=1)
    ratio = t.nbytes / len(encode_xtc(t))
    assert 2.5 < ratio < 5.0
