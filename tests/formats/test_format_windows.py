"""Format parity for the windowed ingest + LOD path (XTC/TRR/DCD/raw).

TRR and DCD used to take a bespoke whole-file decode inside
``iter_windows`` while XTC decoded lazily per window.  Both now route
through the shared :meth:`Decompressor.decode_range` helper -- fixed
frame size makes them randomly addressable -- so windowed ingest (and
therefore the LOD sibling encode) treats every arriving format the same
way.
"""

import numpy as np
import pytest

from repro.core import ADA
from repro.core.decompressor import Decompressor
from repro.core.lod import lod_tag
from repro.core.ingest import IngestPipelineConfig
from repro.errors import CodecError
from repro.formats import Trajectory
from repro.formats.dcd import (
    dcd_frame_count,
    decode_dcd,
    decode_dcd_range,
    encode_dcd,
)
from repro.formats.trr import (
    decode_trr,
    decode_trr_range,
    encode_trr,
    trr_frame_count,
)
from repro.formats.xtc import decode_raw, decode_xtc, encode_raw, encode_xtc
from repro.fs.localfs import LocalFS
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

ENCODERS = {
    "xtc": encode_xtc,
    "trr": encode_trr,
    "dcd": encode_dcd,
    "raw": encode_raw,
}

NFRAMES = 12


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=300, nframes=NFRAMES, seed=7,
                          keyframe_interval=4)


# -- the shared range decoder -------------------------------------------------


@pytest.mark.parametrize("fmt", sorted(ENCODERS))
def test_decode_range_partition_matches_full_decode(workload, fmt):
    blob = ENCODERS[fmt](workload.trajectory)
    dec = Decompressor()
    assert dec.frame_count(blob) == NFRAMES
    reference = dec.decompress(blob)
    spans = [(0, 5), (5, 9), (9, NFRAMES)]
    parts = [dec.decode_range(blob, lo, hi) for lo, hi in spans]
    coords = np.concatenate([p.coords for p in parts])
    np.testing.assert_array_equal(coords, reference.coords)
    steps = np.concatenate([p.steps for p in parts])
    np.testing.assert_array_equal(steps, reference.steps)


@pytest.mark.parametrize("fmt", ["trr", "dcd"])
def test_iter_windows_never_decodes_whole_stream(workload, fmt, monkeypatch):
    """The parity fix itself: no whole-file decode behind a window."""
    blob = ENCODERS[fmt](workload.trajectory)
    reference = Decompressor().decompress(blob)
    monkeypatch.setattr(
        f"repro.core.decompressor.decode_{fmt}",
        lambda *a, **k: pytest.fail(f"whole-stream decode_{fmt} called"),
    )
    windows = list(Decompressor().iter_windows(blob, 4))
    assert [w.nframes for w in windows] == [4, 4, 4]
    coords = np.concatenate([w.trajectory.coords for w in windows])
    np.testing.assert_array_equal(coords, reference.coords)


def test_trr_range_decoder_direct(workload):
    blob = encode_trr(workload.trajectory)
    assert trr_frame_count(blob) == NFRAMES
    part, vel = decode_trr_range(blob, 3, 7)
    assert vel is None
    full, _ = decode_trr(blob)
    np.testing.assert_array_equal(part.coords, full.coords[3:7])
    np.testing.assert_array_equal(part.steps, full.steps[3:7])
    with pytest.raises(CodecError, match="frame range"):
        decode_trr_range(blob, 5, NFRAMES + 1)


def test_trr_range_decoder_carries_velocities(workload):
    rng = np.random.default_rng(2)
    vel = rng.normal(size=workload.trajectory.coords.shape).astype(np.float32)
    blob = encode_trr(workload.trajectory, velocities=vel)
    assert trr_frame_count(blob) == NFRAMES
    _part, got = decode_trr_range(blob, 2, 6)
    np.testing.assert_array_equal(got, vel[2:6])


def test_dcd_range_decoder_spans_concatenated_segments(workload):
    """A range straddling a segment boundary splices exactly."""
    first = workload.trajectory.slice_frames(0, 7)
    second = workload.trajectory.slice_frames(7, NFRAMES)
    blob = encode_dcd(first) + encode_dcd(second)
    assert dcd_frame_count(blob) == NFRAMES
    full = decode_dcd(blob)
    part = decode_dcd_range(blob, 5, 10)
    np.testing.assert_array_equal(part.coords, full.coords[5:10])
    np.testing.assert_array_equal(part.steps, full.steps[5:10])
    with pytest.raises(CodecError, match="frame range"):
        decode_dcd_range(blob, -1, 3)


# -- windowed ingest + LOD, format-parametrized -------------------------------


def _ada(sim, lod_precision=None):
    return ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        lod_precision=lod_precision,
    )


@pytest.mark.parametrize("fmt", ["xtc", "trr", "dcd"])
def test_windowed_ingest_with_lod_roundtrip(workload, fmt):
    """Every arriving format gets windows, a full tier, and LOD siblings."""
    blob = ENCODERS[fmt](workload.trajectory)
    sim = Simulator()
    ada = _ada(sim, lod_precision=12.5)
    receipt = sim.run_process(
        ada.ingest_stream(
            f"w.{fmt}", blob, pdb_text=workload.pdb_text,
            config=IngestPipelineConfig(window_frames=4),
        )
    )
    tags = set(receipt.subset_sizes)
    assert {"p", "m", lod_tag("p"), lod_tag("m")} <= tags

    # Full tier: bit-exact against a monolithic split of the same blob.
    expected = ada.preprocessor.process_chunk(ada.label_map(f"w.{fmt}"), blob)
    full = sim.run_process(ada.fetch(f"w.{fmt}", "p"))
    assert full.tier == "full" and full.max_error is None
    got = decode_raw(full.data)
    np.testing.assert_array_equal(
        got.coords, decode_raw(expected.subsets["p"]).coords
    )

    # LOD tier: every atom within the advertised bound of the full tier.
    lod = sim.run_process(ada.fetch(f"w.{fmt}", "p", precision="lod"))
    assert lod.tier == "lod" and lod.max_error == ada.lod_bound(f"w.{fmt}")
    coarse = decode_xtc(lod.data)
    err = np.abs(coarse.coords - got.coords).max()
    assert err <= lod.max_error
    assert lod.nbytes < 0.5 * full.nbytes


# -- mixed atom counts --------------------------------------------------------


@pytest.mark.parametrize("order", ["small_first", "large_first"])
@pytest.mark.parametrize("fmt", ["raw", "dcd", "trr"])
def test_mixed_atom_counts_raise_a_codec_error_naming_both(fmt, order):
    """Containers over different atom sets cannot splice into one stream:
    every decode path says so as a ``CodecError`` naming both counts."""
    rng = np.random.default_rng(11)
    parts = [
        Trajectory(coords=rng.normal(size=(nframes, natoms, 3)).astype(np.float32))
        for nframes, natoms in [(2, 13), (3, 17)]
    ]
    if order == "large_first":
        parts.reverse()
    blob = b"".join(ENCODERS[fmt](part) for part in parts)
    decoders = [Decompressor().decompress]
    decoders.append({"raw": decode_raw, "dcd": decode_dcd, "trr": decode_trr}[fmt])
    if fmt == "dcd":
        decoders.append(lambda b: decode_dcd_range(b, 0, 1))
    for decode in decoders:
        with pytest.raises(CodecError) as info:
            decode(blob)
        assert "13" in str(info.value) and "17" in str(info.value)
