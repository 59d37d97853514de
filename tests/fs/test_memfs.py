"""Tests for the in-memory object store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileExistsInFSError, FileNotFoundInFSError
from repro.fs import ObjectStore


def test_put_get_roundtrip():
    store = ObjectStore()
    store.put("a/b/file.xtc", data=b"hello")
    assert store.data("a/b/file.xtc") == b"hello"
    assert store.nbytes("a/b/file.xtc") == 5


def test_path_normalization():
    store = ObjectStore()
    store.put("/a//b/./c", data=b"x")
    assert store.exists("a/b/c")
    assert store.data("a/b/c") == b"x"


def test_empty_path_rejected():
    store = ObjectStore()
    with pytest.raises(FileNotFoundInFSError):
        store.put("///", data=b"x")


def test_virtual_object_size_only():
    store = ObjectStore()
    store.put("big.xtc", nbytes=10**12)
    assert store.nbytes("big.xtc") == 10**12
    assert store.is_virtual("big.xtc")
    with pytest.raises(FileNotFoundInFSError, match="virtual"):
        store.data("big.xtc")


def test_entry_resolves_a_path_once():
    store = ObjectStore()
    store.put("/a//log", data=b"ab")
    store.append("a/log", b"cd")
    entry = store.entry("a/./log")
    assert entry.nbytes == 4 and entry.content() == b"abcd"
    assert entry.content() is store.data("a/log")  # joined once, kept
    store.put("v", nbytes=7)
    assert store.entry("v").content() is None
    with pytest.raises(FileNotFoundInFSError):
        store.entry("missing")


def test_put_requires_data_or_size():
    with pytest.raises(ValueError):
        ObjectStore().put("x")


def test_put_inconsistent_size_rejected():
    with pytest.raises(ValueError):
        ObjectStore().put("x", data=b"abc", nbytes=5)


def test_put_consistent_size_ok():
    store = ObjectStore()
    store.put("x", data=b"abc", nbytes=3)
    assert not store.is_virtual("x")


def test_overwrite_control():
    store = ObjectStore()
    store.put("x", data=b"1")
    store.put("x", data=b"22")
    assert store.nbytes("x") == 2
    with pytest.raises(FileExistsInFSError):
        store.put("x", data=b"3", overwrite=False)


def test_delete_returns_size():
    store = ObjectStore()
    store.put("x", data=b"12345")
    assert store.delete("x") == 5
    assert not store.exists("x")
    with pytest.raises(FileNotFoundInFSError):
        store.delete("x")


def test_missing_lookup_raises():
    with pytest.raises(FileNotFoundInFSError):
        ObjectStore().nbytes("nope")


def test_listdir_immediate_children():
    store = ObjectStore()
    store.put("bar.plfs/subset.p/data.0", data=b"p")
    store.put("bar.plfs/subset.m/data.0", data=b"m")
    store.put("bar.plfs/index", data=b"i")
    store.put("other", data=b"o")
    assert store.listdir("bar.plfs") == ["index", "subset.m", "subset.p"]
    assert "bar.plfs" in store.listdir()


def test_walk_recursive():
    store = ObjectStore()
    store.put("c/x", data=b"1")
    store.put("c/d/y", data=b"2")
    assert store.walk("c") == ["c/d/y", "c/x"]


def test_total_bytes_and_len():
    store = ObjectStore()
    store.put("a", data=b"123")
    store.put("b", nbytes=7)
    assert store.total_bytes() == 10
    assert len(store) == 2


@settings(max_examples=30, deadline=None)
@given(
    entries=st.dictionaries(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1,
            max_size=8,
        ),
        st.binary(max_size=64),
        min_size=1,
        max_size=10,
    )
)
def test_property_store_is_a_faithful_map(entries):
    store = ObjectStore()
    for path, data in entries.items():
        store.put(path, data=data)
    for path, data in entries.items():
        assert store.data(path) == data
    assert len(store) == len(entries)
    assert store.total_bytes() == sum(len(d) for d in entries.values())
