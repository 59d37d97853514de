"""Tests for the generic (non-VMD) application support."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generic import FieldSpec, GenericPreProcessor, RecordStructure
from repro.errors import ConfigurationError, TopologyError


def _precision_structure():
    """§3.1's example: precision tiers of a scientific dataset."""
    return RecordStructure(
        [
            FieldSpec("timestamp", "<i8", "hi"),
            FieldSpec("value_hi", "<f8", "hi"),
            FieldSpec("value_lo", "<f2", "lo"),
            FieldSpec("quality", "<u1", "lo"),
        ]
    )


def _table(structure, n, seed=0):
    rng = np.random.default_rng(seed)
    records = np.empty(n, dtype=structure.numpy_dtype())
    records["timestamp"] = np.arange(n)
    records["value_hi"] = rng.normal(size=n)
    records["value_lo"] = records["value_hi"].astype("<f2")
    records["quality"] = rng.integers(0, 4, size=n)
    return records


def test_field_validation():
    with pytest.raises(ConfigurationError):
        FieldSpec("x", "not-a-dtype", "a")
    with pytest.raises(ConfigurationError):
        FieldSpec("", "<f8", "a")
    with pytest.raises(ConfigurationError):
        FieldSpec("x", "<f8", "")


def test_structure_validation():
    with pytest.raises(ConfigurationError):
        RecordStructure([])
    with pytest.raises(ConfigurationError):
        RecordStructure(
            [FieldSpec("x", "<f8", "a"), FieldSpec("x", "<f4", "b")]
        )


def test_record_arithmetic():
    s = _precision_structure()
    assert s.record_nbytes == 8 + 8 + 2 + 1
    assert s.tags == ["hi", "lo"]
    assert s.tag_fraction("hi") == pytest.approx(16 / 19)
    with pytest.raises(ConfigurationError):
        s.fields_for("nope")


def test_structure_file_roundtrip():
    s = _precision_structure()
    loaded = RecordStructure.from_bytes(s.to_bytes())
    assert loaded.numpy_dtype() == s.numpy_dtype()
    with pytest.raises(ConfigurationError):
        RecordStructure.from_bytes(b"not json")


def test_split_partitions_bytes():
    s = _precision_structure()
    records = _table(s, 100)
    pre = GenericPreProcessor(s)
    subsets = pre.split(records.tobytes())
    assert set(subsets) == {"hi", "lo"}
    assert len(subsets["hi"]) == 100 * 16
    assert len(subsets["lo"]) == 100 * 3


def test_split_rejects_torn_table():
    s = _precision_structure()
    with pytest.raises(TopologyError, match="whole number"):
        GenericPreProcessor(s).split(b"\x00" * 20)


def test_merge_roundtrip():
    s = _precision_structure()
    records = _table(s, 64, seed=3)
    pre = GenericPreProcessor(s)
    merged = pre.merge(pre.split(records.tobytes()))
    np.testing.assert_array_equal(
        np.frombuffer(merged, dtype=s.numpy_dtype()), records
    )


def test_merge_validation():
    s = _precision_structure()
    pre = GenericPreProcessor(s)
    subsets = pre.split(_table(s, 10).tobytes())
    with pytest.raises(TopologyError, match="missing subset"):
        pre.merge({"hi": subsets["hi"]})
    bad = dict(subsets)
    bad["lo"] = bad["lo"][:-3]
    with pytest.raises(TopologyError, match="disagree"):
        pre.merge(bad)


def test_project_gives_usable_columns():
    s = _precision_structure()
    records = _table(s, 50, seed=5)
    pre = GenericPreProcessor(s)
    hi = pre.project(pre.split(records.tobytes())["hi"], "hi")
    np.testing.assert_array_equal(hi["timestamp"], records["timestamp"])
    np.testing.assert_array_equal(hi["value_hi"], records["value_hi"])


def test_end_to_end_through_ada_determinator():
    """The generic subsets flow through the same dispatcher/retriever."""
    from repro.core import IODeterminator, PlacementPolicy
    from repro.fs import LocalFS, PLFS
    from repro.sim import Simulator
    from repro.storage import NVME_SSD_256GB, WD_1TB_HDD

    s = _precision_structure()
    records = _table(s, 200, seed=7)
    pre = GenericPreProcessor(s)
    subsets = pre.split(records.tobytes())

    sim = Simulator()
    plfs = PLFS(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        metadata_backend="ssd",
    )
    det = IODeterminator(
        sim,
        plfs,
        PlacementPolicy(
            active_tags=frozenset({"hi"}),
            active_backend="ssd",
            inactive_backend="hdd",
        ),
    )
    sim.run_process(det.store("sensors.dat", subsets))
    # Precision-selective read: just the hi tier.
    obj = sim.run_process(det.fetch("sensors.dat", "hi"))
    hi = pre.project(obj.data, "hi")
    np.testing.assert_array_equal(hi["value_hi"], records["value_hi"])
    # Full reconstruction from both tiers.
    objs = {
        tag: sim.run_process(det.fetch("sensors.dat", tag))
        for tag in plfs.tags("sensors.dat")
    }
    merged = pre.merge({tag: o.data for tag, o in objs.items()})
    np.testing.assert_array_equal(
        np.frombuffer(merged, dtype=s.numpy_dtype()), records
    )


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 500), seed=st.integers(0, 100))
def test_property_split_merge_identity(n, seed):
    s = _precision_structure()
    records = _table(s, n, seed=seed)
    pre = GenericPreProcessor(s)
    merged = pre.merge(pre.split(records.tobytes()))
    assert merged == records.tobytes()
