"""Playback-direction readahead: negative and jumpy stride patterns.

Interactive VMD sessions scrub *backwards* (rewind) and *jumpily*
(dragging the timeline towards one end) as often as they play forward.
The prefetcher handles both:

* an exact negative stride confirms like a positive one and the
  prediction extrapolates backwards;
* same-sign strides of varying magnitude confirm a *direction*, and the
  prediction is the window adjacent to the current one in that
  direction (counted separately as ``issued_direction``);
* sign-alternating access (rocking playback, random seeks) confirms
  neither and stays suppressed.
"""

from repro.core import ADA
from repro.formats.xtc import encode_raw
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

LOGICAL = "scrub.xtc"
NCHUNKS = 12


def _chunked_ada():
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=BlockCache(sim),
        prefetch=True,
    )
    frames_per_chunk = 2
    workload = build_workload(
        natoms=240, nframes=NCHUNKS * frames_per_chunk, seed=11
    )
    blobs = [
        encode_raw(
            workload.trajectory.slice_frames(
                i * frames_per_chunk, (i + 1) * frames_per_chunk
            )
        )
        for i in range(NCHUNKS)
    ]
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, blobs[0]))
    for blob in blobs[1:]:
        sim.run_process(ada.ingest_append(LOGICAL, blob))
    return sim, ada


def test_negative_stride_readahead_predicts_backwards():
    """Backward playback confirms an exact negative stride."""
    sim, ada = _chunked_ada()
    prefetcher = ada.prefetcher
    prefetcher.observe(LOGICAL, "p", [10, 11])
    prefetcher.observe(LOGICAL, "p", [8, 9])
    proc = prefetcher.observe(LOGICAL, "p", [6, 7])
    assert proc is not None
    assert prefetcher.metrics.value("prefetch_issued_total") == 1
    # exact stride, not fuzzy
    assert prefetcher.metrics.value("prefetch_issued_direction_total") == 0
    sim.run()
    # The prediction extrapolated the -2 stride: chunks 4 and 5.
    assert ada.block_cache.peek((LOGICAL, "p", 4))
    assert ada.block_cache.peek((LOGICAL, "p", 5))


def test_jumpy_forward_scrub_confirms_direction():
    """Same-sign strides of varying magnitude earn adjacent readahead."""
    sim, ada = _chunked_ada()
    prefetcher = ada.prefetcher
    prefetcher.observe(LOGICAL, "p", [0, 1])
    prefetcher.observe(LOGICAL, "p", [3, 4])  # +3
    proc = prefetcher.observe(LOGICAL, "p", [7, 8])  # +4: direction only
    assert proc is not None
    assert prefetcher.metrics.value("prefetch_issued_total") == 1
    assert prefetcher.metrics.value("prefetch_issued_direction_total") == 1
    sim.run()
    # Direction-mode prediction: the window adjacent in playback
    # direction, [start + span, start + 2*span) = chunks 9 and 10.
    assert ada.block_cache.peek((LOGICAL, "p", 9))
    assert ada.block_cache.peek((LOGICAL, "p", 10))


def test_jumpy_backward_scrub_confirms_direction():
    sim, ada = _chunked_ada()
    prefetcher = ada.prefetcher
    prefetcher.observe(LOGICAL, "p", [10, 11])
    prefetcher.observe(LOGICAL, "p", [7, 8])  # -3
    proc = prefetcher.observe(LOGICAL, "p", [5, 6])  # -2: direction only
    assert proc is not None
    assert prefetcher.metrics.value("prefetch_issued_direction_total") == 1
    sim.run()
    # Adjacent window backwards: [start - span, start) = chunks 3 and 4.
    assert ada.block_cache.peek((LOGICAL, "p", 3))
    assert ada.block_cache.peek((LOGICAL, "p", 4))


def test_exact_stride_takes_precedence_over_direction():
    """When both detectors hold, the stride prediction (skip-frame) wins."""
    sim, ada = _chunked_ada()
    prefetcher = ada.prefetcher
    prefetcher.observe(LOGICAL, "p", [0])
    prefetcher.observe(LOGICAL, "p", [3])
    proc = prefetcher.observe(LOGICAL, "p", [6])  # stride 3 confirmed twice
    assert proc is not None
    assert prefetcher.metrics.value("prefetch_issued_direction_total") == 0
    sim.run()
    assert ada.block_cache.peek((LOGICAL, "p", 9))  # 6 + 3, not 6 + 1
    assert not ada.block_cache.peek((LOGICAL, "p", 7))


def test_rocking_playback_stays_suppressed():
    """Alternating signs never confirm direction nor stride."""
    sim, ada = _chunked_ada()
    prefetcher = ada.prefetcher
    for start in (5, 8, 3, 9, 2, 10):  # signs: +, -, +, -, +
        prefetcher.observe(LOGICAL, "p", [start])
    assert prefetcher.metrics.value("prefetch_issued_total") == 0
    assert prefetcher.metrics.value("prefetch_issued_direction_total") == 0
    assert prefetcher.metrics.value("prefetch_suppressed_pattern_total") == 6
    sim.run()


def test_direction_readahead_clamped_at_chunk_zero():
    """A backward scrub near the start clamps instead of going negative."""
    sim, ada = _chunked_ada()
    prefetcher = ada.prefetcher
    prefetcher.observe(LOGICAL, "p", [8, 9])
    prefetcher.observe(LOGICAL, "p", [4, 5])  # -4
    proc = prefetcher.observe(LOGICAL, "p", [1, 2])  # -3: direction only
    assert proc is not None
    # Prediction [-1, 1) clamps to chunk 0 alone.
    assert prefetcher.metrics.value("prefetch_chunks_requested_total") == 1
    assert prefetcher.metrics.value("prefetch_suppressed_eof_total") == 1
    sim.run()
    assert ada.block_cache.peek((LOGICAL, "p", 0))
