"""Ablation: pipelined vs store-and-forward staging.

The scenario pipelines charge device service and the network hop
*sequentially* per target.  Real storage servers overlap them (read chunk
k+1 while shipping chunk k).  This bench models both as two DES processes
around a bounded staging buffer and quantifies the simplification:

* on the HDD pool -- which paces every *traditional* retrieval result --
  the InfiniBand hop is ~25x faster than the disk stream, so sequential
  staging overstates by only a few percent;
* on the SSD pool the stages are nearly balanced, so sequential staging
  overstates ADA's (already tiny) protein retrieval by up to ~2x -- i.e.
  the simplification *penalizes ADA*, making every reported advantage a
  conservative lower bound.
"""

import pytest

from repro.harness.report import Table
from repro.sim import Event, Simulator
from repro.units import GB, MB, fmt_seconds, gbps, mbps

PAYLOAD = 3 * GB
CHUNK = 64 * MB


def _staged(device_bw: float, link_bw: float, pipelined: bool) -> float:
    sim = Simulator()
    nchunks = int(PAYLOAD // CHUNK)
    # Pipelined: a tight double buffer.  Store-and-forward: an unbounded
    # staging area (everything lands before anything ships).
    capacity = 2 if pipelined else nchunks
    staged = [Event(sim) for _ in range(nchunks)]  # chunk i is in the buffer
    taken = [Event(sim) for _ in range(nchunks)]  # chunk i left the buffer

    def reader():
        for i in range(nchunks):
            yield sim.timeout(CHUNK / device_bw)
            if i >= capacity:
                yield taken[i - capacity]  # full: wait for a free slot
            staged[i].succeed()

    def shipper():
        for i in range(nchunks):
            yield staged[i]
            taken[i].succeed()
            yield sim.timeout(CHUNK / link_bw)

    if pipelined:
        sim.process(reader())
        sim.process(shipper())
        sim.run()
    else:
        sim.run_process(reader())
        sim.run_process(shipper())
    return sim.now


CASES = {
    "HDD node -> InfiniBand": (mbps(252.0), gbps(6.8)),
    "SSD node -> InfiniBand": (mbps(6000.0), gbps(6.8)),
    "HDD node -> 10GbE": (mbps(252.0), mbps(1100.0)),
    "balanced (equal stages)": (mbps(1000.0), mbps(1000.0)),
}


@pytest.fixture(scope="module")
def results():
    return {
        name: (
            _staged(dev, link, pipelined=False),
            _staged(dev, link, pipelined=True),
        )
        for name, (dev, link) in CASES.items()
    }


def test_pipelining_table(results, artifact_sink):
    table = Table(
        ["path", "store-and-forward", "pipelined", "overstatement"],
        title=f"Ablation: staging model for a {PAYLOAD / GB:.0f} GB transfer",
    )
    for name, (seq, pipe) in results.items():
        table.add_row(
            name, fmt_seconds(seq), fmt_seconds(pipe), f"{seq / pipe - 1:+.1%}"
        )
    artifact_sink("ablation_pipelining.txt", table.render())


def test_sequential_model_is_conservative(results):
    """Store-and-forward never undershoots pipelined staging."""
    for seq, pipe in results.values():
        assert seq >= pipe


def test_hdd_path_is_tight_ssd_path_penalizes_ada(results):
    """The traditional-path (HDD) numbers barely move; the ADA-path (SSD)
    numbers are overstated -- the headline ratios are lower bounds."""
    seq, pipe = results["HDD node -> InfiniBand"]
    assert seq / pipe < 1.07
    seq, pipe = results["SSD node -> InfiniBand"]
    assert seq / pipe > 1.3  # ADA's retrieval would be even faster


def test_balanced_stages_show_the_classic_2x(results):
    seq, pipe = results["balanced (equal stages)"]
    assert seq / pipe == pytest.approx(2.0, rel=0.05)


def test_bench_pipelined_transfer(benchmark):
    benchmark(_staged, mbps(252.0), gbps(6.8), True)
