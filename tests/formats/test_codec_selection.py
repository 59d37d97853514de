"""The codec's one selection rule, pinned.

``resolve_workers(workers, ntasks) > 1`` sends a call to the process
pool; anything else runs the serial kernel in the caller.  There is no
option that picks the path: ``workers=0`` on a one-CPU host is serial by
arithmetic, and the ``backend=``/``codec_backend=`` keyword that used to
choose is gone from every signature.
"""

import os

import numpy as np
import pytest

from repro import build_workload
from repro.core import DataPreProcessor
from repro.core.decompressor import Decompressor
from repro.core.middleware import ADA
from repro.formats import decode_xtc, encode_xtc
from repro.formats.codecexec import CodecPool, close_shared_pools, shared_pool
from repro.formats.xtc import decode_frame_range
from repro.harness.benchcodec import run_codec_bench
from repro.harness.benchingest import run_ingest_bench
from repro.obs.metrics import global_registry
from repro.vmd.loader import TrajectoryLoader
from repro.vmd.streaming import StreamingTrajectory


def test_workers_zero_on_a_one_cpu_host_runs_the_serial_kernel(monkeypatch):
    workload = build_workload(natoms=300, nframes=12, seed=5)
    blob = encode_xtc(workload.trajectory, keyframe_interval=3)
    serial = decode_xtc(blob)
    divided = DataPreProcessor(subset_format="xtc").process(
        workload.pdb_text, blob
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    # With no live shared pool, any fan-out below would have to spawn one.
    close_shared_pools()
    spawns = global_registry().counter("codec_pool_spawns_total")
    before = spawns.value

    np.testing.assert_array_equal(
        decode_xtc(blob, workers=0).coords, serial.coords
    )
    np.testing.assert_array_equal(
        Decompressor(workers=0).decompress(blob).coords, serial.coords
    )
    np.testing.assert_array_equal(
        decode_frame_range(blob, 0, 8, workers=0).coords, serial.coords[:8]
    )
    auto = DataPreProcessor(subset_format="xtc", workers=0).process(
        workload.pdb_text, blob
    )
    assert auto.subsets == divided.subsets
    assert spawns.value == before


@pytest.mark.parametrize(
    "fn, keyword",
    [
        (encode_xtc, "backend"),
        (decode_xtc, "backend"),
        (decode_frame_range, "backend"),
        (CodecPool, "backend"),
        (shared_pool, "backend"),
        (run_codec_bench, "backend"),
        (run_ingest_bench, "codec_backend"),
        (ADA, "codec_backend"),
        (Decompressor, "codec_backend"),
        (DataPreProcessor, "codec_backend"),
        (TrajectoryLoader, "codec_backend"),
        (StreamingTrajectory, "codec_backend"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_the_backend_keyword_is_gone(fn, keyword):
    with pytest.raises(
        TypeError, match=f"unexpected keyword argument '{keyword}'"
    ):
        fn(**{keyword: "process"})
