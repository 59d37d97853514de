"""Ablation: does a warm page cache rescue the traditional pipeline?

The paper argues the bottleneck is *repeated data pre-processing*, not
media speed: "simply replacing slower HDDs with faster SSDs cannot solve
the problem" (§4.1).  The strongest version of that argument is a fully
warm OS page cache -- zero effective I/O.  This bench wraps the SSD
server's ext4 in an LRU page cache, loads twice, and shows the second
C-path load barely improves (decompression still dominates) while
ADA(protein) stays an order of magnitude ahead.
"""

import pytest

from repro.fs.cache import CachedFS
from repro.harness.platforms import ssd_server
from repro.harness.report import Table
from repro.harness.scenarios import ScenarioPipeline
from repro.units import GiB, fmt_seconds
from repro.workloads import SizingModel

NFRAMES = 5_006


def _hits(fs: CachedFS) -> float:
    return fs.metrics.value("page_cache_hits_total", fs=fs.name)


@pytest.fixture(scope="module")
def warm_and_cold():
    platform = ssd_server()
    platform.traditional_fs = CachedFS(platform.traditional_fs, 8 * GiB)
    pipeline = ScenarioPipeline(platform, SizingModel.paper().dataset(NFRAMES))
    pipeline.seed()
    platform.traditional_fs.invalidate()  # cold start
    cold = pipeline.run("C-trad")
    warm = pipeline.run("C-trad")  # compressed file now cache-resident
    ada = pipeline.run("D-ada-p")
    assert _hits(platform.traditional_fs) >= 1
    return cold, warm, ada


def test_page_cache_table(warm_and_cold, artifact_sink):
    cold, warm, ada = warm_and_cold
    table = Table(
        ["run", "retrieval", "turnaround"],
        title=f"Ablation: warm page cache @{NFRAMES:,} frames",
    )
    table.add_row("C-ext4, cold cache", fmt_seconds(cold.retrieval_s),
                  fmt_seconds(cold.turnaround_s))
    table.add_row("C-ext4, warm cache", fmt_seconds(warm.retrieval_s),
                  fmt_seconds(warm.turnaround_s))
    table.add_row("D-ADA (protein)", fmt_seconds(ada.retrieval_s),
                  fmt_seconds(ada.turnaround_s))
    artifact_sink("ablation_page_cache.txt", table.render())


def test_warm_cache_helps_retrieval_only(warm_and_cold):
    cold, warm, _ = warm_and_cold
    assert warm.retrieval_s < 0.6 * cold.retrieval_s  # cache works...
    # ...but turnaround barely moves: the tax is CPU, not I/O.
    assert warm.turnaround_s > 0.95 * cold.turnaround_s


def test_ada_beats_even_a_warm_cache(warm_and_cold):
    _, warm, ada = warm_and_cold
    assert warm.turnaround_s / ada.turnaround_s > 10.0


def test_bench_warm_read(benchmark):
    """Timed kernel: a cache-hit read through the DES."""
    from repro.sim import Simulator
    from repro.fs import LocalFS
    from repro.storage import NVME_SSD_256GB

    def warm_read():
        sim = Simulator()
        fs = CachedFS(LocalFS(sim, NVME_SSD_256GB, name="s"), 8 * GiB)
        sim.run_process(fs.write("f", nbytes=800_000_000))
        sim.run_process(fs.read("f"))
        return _hits(fs)

    assert benchmark(warm_read) == 1
