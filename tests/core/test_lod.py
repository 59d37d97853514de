"""Precision-selective serving: the LOD tier end to end.

The tentpole property set: the coarse layer is a sibling tag family
(``p`` -> ``lod:p``) written at ingest, so every existing chunk
mechanism applies unchanged; ``precision`` picks the tier per read;
``"full"`` is always exact; ``"lod"`` advertises (and honours) its
quantization error bound; ``"auto"`` degrades exactly while the
middleware is under pressure.
"""

import numpy as np
import pytest

from repro.core import ADA
from repro.core.lod import (
    DEFAULT_LOD_PRECISION,
    base_tag,
    base_tags,
    is_lod_tag,
    lod_max_error,
    lod_tag,
    validate_precision,
)
from repro.errors import ConfigurationError
from repro.formats.xtc import decode_raw, decode_xtc
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.units import MiB
from repro.workloads import build_workload

pytestmark = pytest.mark.lod

LOGICAL = "traj.xtc"


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=300, nframes=12, seed=3)


def _ada(sim, lod_precision=DEFAULT_LOD_PRECISION, **kwargs):
    return ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        lod_precision=lod_precision,
        **kwargs,
    )


def _ingested(workload, **kwargs):
    sim = Simulator()
    ada = _ada(sim, **kwargs)
    sim.run_process(
        ada.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob)
    )
    return sim, ada


# -- the tag-family helpers ---------------------------------------------------


def test_lod_tag_helpers_round_trip():
    assert lod_tag("p") == "lod:p"
    assert lod_tag("lod:p") == "lod:p"  # idempotent
    assert base_tag("lod:p") == "p" and base_tag("p") == "p"
    assert is_lod_tag("lod:m") and not is_lod_tag("m")
    assert base_tags(["p", "lod:p", "m", "lod:m"]) == ["p", "m"]


def test_validate_precision_rejects_unknown():
    for good in ("full", "lod", "auto"):
        assert validate_precision(good) == good
    with pytest.raises(ConfigurationError, match="unknown precision"):
        validate_precision("half")


def test_lod_max_error_is_half_a_grid_step_plus_slack():
    assert lod_max_error(12.5) == pytest.approx(0.04, rel=2e-3)
    assert lod_max_error(12.5) > 0.5 / 12.5  # float32 slack folded in
    with pytest.raises(ConfigurationError):
        lod_max_error(0.0)


# -- ingest writes the sibling family ----------------------------------------


def test_ingest_writes_lod_siblings_per_base_tag(workload):
    _, ada = _ingested(workload)
    all_tags = set(ada.all_tags(LOGICAL))
    bases = set(ada.tags(LOGICAL))
    assert bases and all(not is_lod_tag(t) for t in bases)
    assert {lod_tag(t) for t in bases} <= all_tags
    assert ada.has_lod(LOGICAL) and ada.has_lod(LOGICAL, "p")


def test_no_lod_layer_without_the_knob(workload):
    _, ada = _ingested(workload, lod_precision=None)
    assert not any(is_lod_tag(t) for t in ada.all_tags(LOGICAL))
    assert not ada.has_lod(LOGICAL)
    assert ada.lod_bound(LOGICAL) is None


def test_lod_layer_is_materially_smaller(workload):
    _, ada = _ingested(workload)
    full = ada.subset_nbytes(LOGICAL, "p")
    coarse = ada.subset_nbytes(LOGICAL, lod_tag("p"))
    assert coarse < 0.5 * full


# -- per-read tier selection --------------------------------------------------


def test_full_precision_is_exact_and_unannotated(workload):
    sim, ada = _ingested(workload)
    obj = sim.run_process(ada.fetch(LOGICAL, "p"))
    assert obj.tier == "full" and obj.max_error is None
    expected = ada.preprocessor.process_chunk(
        ada.label_map(LOGICAL), workload.xtc_blob
    )
    assert obj.data == expected.subsets["p"]


def test_lod_read_is_annotated_and_within_bound(workload):
    sim, ada = _ingested(workload)
    full = sim.run_process(ada.fetch(LOGICAL, "p"))
    lod = sim.run_process(ada.fetch(LOGICAL, "p", precision="lod"))
    assert lod.tier == "lod"
    assert lod.max_error == ada.lod_bound(LOGICAL)
    err = np.abs(
        decode_xtc(lod.data).coords - decode_raw(full.data).coords
    ).max()
    assert err <= lod.max_error
    assert ada.metrics.value("lod_served_total") == 1
    assert ada.metrics.value("lod_served_bytes_total") == lod.nbytes


def test_lod_fetch_chunks_annotates_every_chunk(workload):
    sim, ada = _ingested(workload)
    objs = sim.run_process(
        ada.fetch_chunks(LOGICAL, "p", [0], precision="lod")
    )
    assert all(o.tier == "lod" for o in objs)
    assert all(o.max_error == ada.lod_bound(LOGICAL) for o in objs)
    assert ada.metrics.value("lod_chunks_total") == len(objs)


def test_lod_request_without_layer_falls_back_to_full(workload):
    sim, ada = _ingested(workload, lod_precision=None)
    obj = sim.run_process(ada.fetch(LOGICAL, "p", precision="lod"))
    assert obj.tier == "full" and obj.max_error is None
    assert ada.metrics.value("lod_fallback_total") == 1


def test_direct_lod_tag_read_bypasses_tier_selection(workload):
    """Operator tooling addressing ``lod:p`` gets those bytes verbatim."""
    sim, ada = _ingested(workload)
    obj = sim.run_process(ada.fetch(LOGICAL, lod_tag("p"), precision="lod"))
    assert obj.tier == "full" and obj.max_error is None
    assert ada.metrics.value("lod_served_total") == 0


def test_unknown_precision_rejected(workload):
    sim, ada = _ingested(workload)
    with pytest.raises(ConfigurationError, match="unknown precision"):
        sim.run_process(ada.fetch(LOGICAL, "p", precision="approx"))


def test_tags_surface_stays_base_only(workload):
    """Whole-dataset surfaces never mix tiers."""
    sim, ada = _ingested(workload)
    assert ada.tags(LOGICAL) == base_tags(ada.all_tags(LOGICAL))
    merged = sim.run_process(ada.fetch_merged(LOGICAL))
    assert merged.natoms == workload.trajectory.natoms
    assert merged.tier == "full" and merged.max_error is None


def test_fetch_merged_lod_degrades_as_a_whole(workload):
    sim, ada = _ingested(workload)
    exact = sim.run_process(ada.fetch_merged(LOGICAL))
    coarse = sim.run_process(ada.fetch_merged(LOGICAL, precision="lod"))
    assert coarse.tier == "lod"
    assert coarse.max_error == ada.lod_bound(LOGICAL)
    assert np.abs(coarse.coords - exact.coords).max() <= coarse.max_error


# -- auto: pressure-driven degradation ----------------------------------------


def test_auto_degrades_at_the_cache_watermark(workload):
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=BlockCache(sim, l1_capacity_bytes=1 * MiB),
        lod_precision=DEFAULT_LOD_PRECISION,
    )
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))

    relaxed = sim.run_process(ada.fetch(LOGICAL, "p", precision="auto"))
    assert relaxed.tier == "full"
    assert ada.metrics.value("lod_auto_full_total") == 1

    # Warm the L1, then shrink it under the working set: occupancy sits
    # past the prefetch watermark -- the signal auto shares with the
    # prefetcher's stand-down.
    sim.run_process(ada.fetch(LOGICAL, "p"))
    ada.block_cache.l1_capacity_bytes = float(ada.block_cache.l1_bytes)
    assert ada.block_cache.pressure() >= 0.85
    degraded = sim.run_process(ada.fetch(LOGICAL, "p", precision="auto"))
    assert degraded.tier == "lod"
    assert degraded.max_error == ada.lod_bound(LOGICAL)
    assert ada.metrics.value("lod_auto_lod_total") == 1

    # ... but an explicit "full" is always honoured regardless.
    pinned = sim.run_process(ada.fetch(LOGICAL, "p"))
    assert pinned.tier == "full" and pinned.max_error is None


def test_bound_is_pinned_at_ingest_not_reconfiguration(workload):
    """Re-tuning ``lod_precision`` later must not re-advertise stored data."""
    sim, ada = _ingested(workload)
    before = ada.lod_bound(LOGICAL)
    ada.lod_precision = 50.0  # operator re-tunes for *future* ingests
    assert ada.lod_bound(LOGICAL) == before


def test_stats_carry_the_lod_section(workload):
    sim, ada = _ingested(workload)
    sim.run_process(ada.fetch(LOGICAL, "p", precision="lod"))
    section = ada.metrics.query("lod_")
    assert section["lod_served_total"] == 1
    assert set(section) == {
        f"lod_{event}_total"
        for event in (
            "served", "chunks", "served_bytes", "fallback",
            "auto_lod", "auto_full",
        )
    }
    assert ada.lod_precision == DEFAULT_LOD_PRECISION
