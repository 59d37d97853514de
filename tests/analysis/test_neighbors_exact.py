"""The neighbour-grid kernel returns the all-pairs bits, at O(N) cost.

Exactness: contact counts, native overlap, ``contact_map`` and ``within``
masks must be ``array_equal`` to the frozen all-pairs reference
(``allpairs_reference.py``) -- on random clouds and generated systems and
on the inputs a grid gets wrong first: pairs at ``d**2 == cutoff**2`` and
one ulp either side, atoms on cell boundaries, coincident atoms, tiny N,
a far outlier, non-finite coordinates.  CI runs this directory with
``-W error::RuntimeWarning``, so a NaN or an overflow reaching the
cell-key cast fails loudly.

Complexity: counted, not timed (the ``test_windowed_reads.py`` pattern) --
at fixed density the distance test runs on O(N) candidate pairs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_workload
from repro.analysis import (
    OnlineContacts,
    contact_count,
    contact_map,
    frame_contact_counts,
    native_contact_fraction,
    neighbors,
)
from repro.errors import TopologyError
from repro.formats import Trajectory
from tests.analysis import allpairs_reference as reference

pytestmark = pytest.mark.analysis


def _reference(coords, cutoff, selection):
    """All-pairs ``(native map, both-orders counts, overlap)`` of a stack."""
    selected = coords if selection is None else coords[:, selection]
    with np.errstate(invalid="ignore"):  # the reference's own inf - inf
        native = reference.contact_map(coords[0], cutoff, selection)
        counts, overlap = reference.frame_contact_counts(
            selected, cutoff, native=native
        )
    return native, counts, overlap


def _assert_matches_reference(coords, cutoff, selection=None):
    """Every public contact result on an (F, N, 3) stack, against all-pairs."""
    coords = np.asarray(coords)
    selected = coords if selection is None else coords[:, selection]
    native, want_counts, want_overlap = _reference(coords, cutoff, selection)
    for frame in coords:
        with np.errstate(invalid="ignore"):
            want = reference.contact_map(frame, cutoff, selection)
        got = contact_map(frame, cutoff=cutoff, selection=selection)
        assert got.dtype == bool and np.array_equal(got, want)
    got_counts, got_overlap = frame_contact_counts(
        selected, cutoff, native=native
    )
    assert np.array_equal(got_counts, want_counts)
    assert np.array_equal(got_overlap, want_overlap)
    if native.any():
        online = OnlineContacts(cutoff=cutoff, selection=selection)
        online.update(coords[:1])
        online.update(coords[1:])
        assert np.array_equal(online.result()["contacts"], want_counts // 2)
        assert np.array_equal(
            online.result()["native_fraction"], want_overlap / native.sum()
        )
    # The trajectory operators see the float32 coordinates it stores.
    traj = Trajectory(coords=coords)
    native, want_counts, want_overlap = _reference(
        traj.coords, cutoff, selection
    )
    assert np.array_equal(
        contact_count(traj, cutoff=cutoff, selection=selection),
        want_counts // 2,
    )
    if native.any():
        assert np.array_equal(
            native_contact_fraction(traj, cutoff=cutoff, selection=selection),
            want_overlap / native.sum(),
        )
    else:
        with pytest.raises(TopologyError, match="no contacts"):
            native_contact_fraction(traj, cutoff=cutoff, selection=selection)


def _assert_within_matches(coords, member, cutoff):
    with np.errstate(invalid="ignore"):
        want = reference.within(coords, coords[member], cutoff)
    got = neighbors.any_within(coords, coords[member], cutoff)
    assert got.dtype == bool and np.array_equal(got, want)


# -- random clouds and generated systems -------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    natoms=st.integers(0, 70),
    cutoff=st.floats(0.3, 30.0),
    spread=st.floats(0.5, 60.0),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_random_clouds_match_allpairs(seed, natoms, cutoff, spread, dtype):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-spread, spread, size=(3, natoms, 3)).astype(dtype)
    _assert_matches_reference(coords, cutoff)
    _assert_within_matches(coords[0], rng.random(natoms) < 0.3, cutoff)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    natoms=st.integers(2, 60),
    cutoff=st.sampled_from([1.0, 2.5, 5.0, 7.3]),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_lattice_clouds_tie_at_the_cutoff_and_match_allpairs(
    seed, natoms, cutoff, dtype
):
    # Atoms on a lattice of spacing cutoff/5, offset far from the origin:
    # many pairs sit at d**2 == cutoff**2 up to rounding (axis-aligned,
    # 3-4-5), many share a cell boundary, many coincide.
    rng = np.random.default_rng(seed)
    sites = rng.integers(-12, 13, size=(2, natoms, 3))
    coords = (sites * (cutoff / 5.0) - 1000.0 * cutoff).astype(dtype)
    _assert_matches_reference(coords, cutoff)
    _assert_within_matches(coords[1], rng.random(natoms) < 0.3, cutoff)


@pytest.mark.parametrize("natoms", [300, 1500])
def test_generated_systems_match_allpairs(natoms):
    traj = build_workload(natoms=natoms, nframes=3, seed=11).trajectory
    _assert_matches_reference(traj.coords, 8.0)
    protein = np.arange(0, traj.natoms, 3)
    _assert_matches_reference(traj.coords, 6.0, selection=protein)
    member = np.zeros(traj.natoms, dtype=bool)
    member[protein[:40]] = True
    _assert_within_matches(traj.coords[0], member, 8.0)


def test_float32_and_float64_inputs_agree():
    coords = build_workload(natoms=300, nframes=2, seed=3).trajectory.coords
    assert coords.dtype == np.float32
    for a, b in zip(
        frame_contact_counts(coords, 8.0),
        frame_contact_counts(coords.astype(np.float64), 8.0),
    ):
        assert np.array_equal(a, b)


# -- the inputs a grid gets wrong first ---------------------------------------


@pytest.mark.parametrize("cutoff", [8.0, 0.1, 3.3333333333333335])
@pytest.mark.parametrize("origin", [0.0, -37.25, 1.0e5])
def test_pairs_one_ulp_either_side_of_the_cutoff(cutoff, origin):
    # Along one axis d**2 is (x1 - x0)**2: walk x1 ulp by ulp across the
    # value where it meets cutoff**2.
    base = np.full(3, origin)
    reach = origin + cutoff
    steps = [reach]
    for _ in range(3):
        steps.insert(0, np.nextafter(steps[0], -np.inf))
        steps.append(np.nextafter(steps[-1], np.inf))
    verdicts = []
    for x1 in steps:
        other = base.copy()
        other[0] = x1
        frame = np.stack([base, other])
        _assert_matches_reference(np.stack([frame, frame]), cutoff)
        verdicts.append(bool(contact_map(frame, cutoff=cutoff)[0, 1]))
    assert verdicts[0] and not verdicts[-1]  # the walk crosses the cutoff


def test_atoms_exactly_on_cell_boundaries():
    cutoff = 4.0
    axis = np.arange(-3, 4) * cutoff
    lattice = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    shifted = lattice + np.array([cutoff, 0.0, 0.0])
    _assert_matches_reference(np.stack([lattice, shifted]), cutoff)
    _assert_matches_reference(np.stack([lattice, shifted]), cutoff * 1.5)
    _assert_within_matches(lattice, (lattice == 0).all(axis=1), cutoff * 1.5)


def test_negative_coordinates():
    rng = np.random.default_rng(5)
    coords = rng.uniform(-90.0, -60.0, size=(2, 120, 3))
    _assert_matches_reference(coords, 6.0)


def test_all_coincident_atoms():
    coords = np.full((2, 40, 3), 12.5, dtype=np.float32)
    _assert_matches_reference(coords, 1.0)
    assert contact_map(coords[0], cutoff=1.0).sum() == 40 * 39


@pytest.mark.parametrize("natoms", [0, 1, 2])
def test_tiny_systems(natoms):
    coords = np.arange(2 * natoms * 3, dtype=np.float64).reshape(2, natoms, 3)
    _assert_matches_reference(coords, 8.0)
    _assert_within_matches(coords[0], np.zeros(natoms, dtype=bool), 8.0)
    _assert_within_matches(coords[0], np.ones(natoms, dtype=bool), 8.0)


def test_zero_candidates():
    coords = (np.arange(30)[:, None] * np.array([50.0, 70.0, 90.0]))[None]
    _assert_matches_reference(np.concatenate([coords, coords]), 8.0)
    i, j = neighbors.self_pairs(coords[0], 8.0)
    assert i.size == j.size == 0


def test_far_outlier_costs_no_memory():
    """One atom 1e7 A away widens the cells; it must not allocate the box."""
    rng = np.random.default_rng(9)
    frame = rng.uniform(0.0, 60.0, size=(2000, 3))
    flung = frame.copy()
    flung[17] = [1.0e7, -1.0e7, 1.0e7]
    peaks = []
    for coords in (frame, flung):
        tracemalloc.start()
        i, j = neighbors.self_pairs(coords, 8.0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        want = reference.contact_map(coords, 8.0)
        assert i.size == want.sum() // 2 and want[i, j].all()
    assert peaks[1] < 2 * peaks[0] + (1 << 20)
    member = np.zeros(2000, dtype=bool)
    member[[3, 17]] = True
    _assert_within_matches(flung, member, 8.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_contact_nothing(bad, recwarn):
    rng = np.random.default_rng(13)
    coords = rng.uniform(-10.0, 10.0, size=(2, 50, 3))
    coords[0, 4, 1] = bad
    coords[1, 7] = bad
    coords[1, 8] = bad  # inf - inf between two bad atoms
    _assert_matches_reference(coords, 6.0)
    assert not contact_map(coords[1], cutoff=6.0)[[7, 8]].any()
    member = np.zeros(50, dtype=bool)
    member[[0, 7]] = True
    _assert_within_matches(coords[1], member, 6.0)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _sum_order_pairs(count, cutoff):
    """``(2 * count, 3)`` points, far apart pair by pair; each pair sits at a
    distance whose contact bit depends on the order of the three-term sum:
    ``(dx² + dy²) + dz²`` and ``(dx² + dz²) + dy²`` fall on opposite sides
    of ``cutoff²``."""
    rng = np.random.default_rng(5)
    c2 = cutoff * cutoff
    pts = []
    while len(pts) < 2 * count:
        base = np.array([4.0 * cutoff * len(pts), 0.0, 0.0])
        u = rng.normal(size=3)
        partner = base + u * (cutoff / np.linalg.norm(u))
        sq = (partner - base) ** 2
        if ((sq[0] + sq[1]) + sq[2] < c2) != ((sq[0] + sq[2]) + sq[1] < c2):
            pts += [base, partner]
    return np.array(pts)


def test_pair_series_decides_sum_order_ties_like_all_pairs():
    """Counts and native overlap where the order of the three-term sum
    flips a contact, with native pairs whose atoms later go NaN or +-inf."""
    cloud = np.random.default_rng(8).uniform(-200.0, -170.0, size=(40, 3))
    frame = np.concatenate([_sum_order_pairs(12, 8.0), cloud])
    native = reference.contact_map(frame, 8.0)
    assert 0 < native[:24, :24].sum() < 24  # flips both ways among natives
    i, j = np.nonzero(np.triu(native[24:, 24:]))
    i, j = i + 24, j + 24  # native pairs within the cloud
    coords = np.stack([frame] * 4)
    coords[1, j[0]] = np.nan
    coords[2, i[1]] = np.inf
    coords[2, j[2], 1] = -np.inf
    coords[3, [i[3], j[3]]] = np.inf  # inf - inf between the two
    _assert_matches_reference(coords, 8.0)


def test_nan_cutoff_reaches_nothing():
    coords = np.zeros((5, 3))
    assert neighbors.self_pairs(coords, float("nan"))[0].size == 0
    assert not neighbors.any_within(coords, coords, float("nan")).any()


# -- complexity sentinel ------------------------------------------------------


def _candidates_evaluated(monkeypatch, natoms, density=0.01, cutoff=8.0):
    side = (natoms / density) ** (1.0 / 3.0)
    coords = np.random.default_rng(natoms).uniform(0.0, side, (natoms, 3))
    evaluated = []
    original = neighbors._close

    def counting(a, p, b, q, cutoff):
        evaluated.append(p.size)
        return original(a, p, b, q, cutoff)

    with monkeypatch.context() as patch:
        patch.setattr(neighbors, "_close", counting)
        i, _ = neighbors.self_pairs(coords, cutoff)
    return sum(evaluated), i.size


def test_candidate_pairs_grow_linearly_at_fixed_density(monkeypatch):
    small, hits_small = _candidates_evaluated(monkeypatch, 2_000)
    large, hits_large = _candidates_evaluated(monkeypatch, 16_000)
    assert hits_small > 0 and hits_large > 8 * hits_small * 0.9
    # 8x the atoms: all-pairs would evaluate 64x the pairs.
    assert large <= 10 * small
    assert small < 2_000 * 1_999 // 2 // 4
