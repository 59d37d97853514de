"""Dedicated tests for the indexer component."""

import pytest

from repro.core import Indexer
from repro.errors import TagNotFoundError
from repro.fs import LocalFS, PLFS
from repro.sim import Simulator
from repro.storage import NVME_SSD_256GB, WD_1TB_HDD
from tests.fs.plfs_writes import commit_run


@pytest.fixture
def setup():
    sim = Simulator()
    plfs = PLFS(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        metadata_backend="ssd",
    )
    sim.run_process(commit_run(plfs, "bar", [("p", 100)], "ssd"))
    sim.run_process(commit_run(plfs, "bar", [("m", 300)], "hdd"))
    sim.run_process(commit_run(plfs, "bar", [("p", 50)], "ssd"))
    return sim, Indexer(sim, plfs, lookup_latency_s=0.002)


def test_lookup_returns_ordered_records(setup):
    sim, indexer = setup
    records = sim.run_process(indexer.lookup("bar", "p"))
    assert [r.chunk for r in records] == [0, 1]
    assert [r.nbytes for r in records] == [100, 50]
    assert all(r.backend == "ssd" for r in records)


def test_lookup_charges_latency_and_counts(setup):
    sim, indexer = setup
    t0 = sim.now
    sim.run_process(indexer.lookup("bar", "p"))
    assert sim.now - t0 == pytest.approx(0.002)
    sim.run_process(indexer.lookup("bar", "m"))
    assert indexer.lookups == 2


def test_lookup_all_resolves_every_tag(setup):
    sim, indexer = setup
    table = sim.run_process(indexer.lookup_all("bar"))
    assert set(table) == {"p", "m"}
    assert len(table["p"]) == 2
    assert indexer.lookups == 1  # one metadata round trip for the container


def test_lookup_unknown_tag(setup):
    sim, indexer = setup
    with pytest.raises(TagNotFoundError):
        sim.run_process(indexer.lookup("bar", "z"))


def test_costfree_metadata_helpers(setup):
    sim, indexer = setup
    t0 = sim.now
    assert indexer.plfs.tags("bar") == ["m", "p"]
    assert indexer.plfs.subset_nbytes("bar", "p") == 150
    assert sim.now == t0  # planning queries are free
