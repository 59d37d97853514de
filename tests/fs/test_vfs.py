"""Tests for the POSIX-style VFS and the ADA interposer."""

import pytest

from repro.core import ADA
from repro.errors import ConfigurationError, FileNotFoundInFSError
from repro.fs import LocalFS
from repro.fs.vfs import ADAInterposer, VFS
from repro.sim import Simulator
from repro.storage import NVME_SSD_256GB, WD_1TB_HDD
from repro.workloads import build_workload


def _fs(sim, name):
    spec = NVME_SSD_256GB if name == "ssd" else WD_1TB_HDD
    return LocalFS(sim, spec, name=name)


@pytest.fixture
def vfs():
    sim = Simulator()
    v = VFS(sim)
    v.mount("/mnt/ssd", _fs(sim, "ssd"))
    v.mount("/mnt/hdd", _fs(sim, "hdd"))
    return v


def test_write_then_read_roundtrip(vfs):
    with vfs.open("/mnt/ssd/dir/file.bin", "w") as fh:
        fh.write(b"hello ")
        fh.write(b"world")
    with vfs.open("/mnt/ssd/dir/file.bin", "r") as fh:
        assert fh.read() == b"hello world"
    assert vfs.nbytes("/mnt/ssd/dir/file.bin") == 11


def test_partial_reads_advance_cursor(vfs):
    with vfs.open("/mnt/ssd/f", "w") as fh:
        fh.write(b"abcdef")
    fh = vfs.open("/mnt/ssd/f")
    assert fh.read(2) == b"ab"
    assert fh.read(2) == b"cd"
    assert fh.read() == b"ef"
    fh.close()


def test_longest_prefix_mount_wins():
    sim = Simulator()
    v = VFS(sim)
    outer, inner = _fs(sim, "ssd"), _fs(sim, "hdd")
    v.mount("/mnt", outer)
    v.mount("/mnt/special", inner)
    with v.open("/mnt/special/x", "w") as fh:
        fh.write(b"inner!")
    assert inner.exists("x")
    assert not outer.exists("special/x")


def test_unmounted_path_rejected(vfs):
    with pytest.raises(FileNotFoundInFSError):
        vfs.open("/other/file", "w").close()
    assert not vfs.exists("/other/file")


def test_double_mount_rejected(vfs):
    with pytest.raises(ConfigurationError):
        vfs.mount("/mnt/ssd", _fs(Simulator(), "ssd"))


def test_open_missing_for_read_rejected(vfs):
    with pytest.raises(FileNotFoundInFSError):
        vfs.open("/mnt/ssd/ghost", "r")


def test_mode_enforcement(vfs):
    with pytest.raises(ConfigurationError):
        vfs.open("/mnt/ssd/f", "a")
    fh = vfs.open("/mnt/ssd/f", "w")
    with pytest.raises(ValueError):
        fh.read()
    fh.close()
    with pytest.raises(ValueError):
        fh.write(b"late")


# -- ADA interposition ----------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=1200, nframes=6, seed=95)


@pytest.fixture
def interposer(workload):
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")},
    )
    return ADAInterposer(sim, ada, ada_mount="/mnt/ada")


def test_target_files_are_trapped(interposer, workload):
    with interposer.open("/mnt/ada/run/foo.pdb", "w") as fh:
        fh.write(workload.pdb_text.encode())
    with interposer.open("/mnt/ada/run/bar.xtc", "w") as fh:
        fh.write(workload.xtc_blob)
    assert "run/bar.xtc" in interposer.trapped
    receipt = interposer.trapped["run/bar.xtc"]
    assert set(receipt.subset_sizes) == {"p", "m"}
    assert interposer.ada.tags("run/bar.xtc") == ["m", "p"]


def test_one_structure_guides_several_phases(interposer, workload):
    """One .pdb guides several .xtc files, one per motion phase (paper
    §2.1)."""
    with interposer.open("/mnt/ada/run/foo.pdb", "w") as fh:
        fh.write(workload.pdb_text.encode())
    for phase in ("bar.xtc", "baz.xtc"):
        with interposer.open(f"/mnt/ada/run/{phase}", "w") as fh:
            fh.write(workload.xtc_blob)
    assert set(interposer.trapped) == {"run/bar.xtc", "run/baz.xtc"}
    for logical, receipt in interposer.trapped.items():
        assert set(receipt.subset_sizes) == {"p", "m"}
        assert interposer.ada.tags(logical) == ["m", "p"]
    assert interposer.ada.label_map("run/baz.xtc") == (
        interposer.ada.label_map("run/bar.xtc")
    )


def test_non_target_files_pass_through(interposer):
    with interposer.open("/mnt/ada/notes.txt", "w") as fh:
        fh.write(b"plain data")
    assert not interposer.trapped
    inactive = interposer.ada.plfs.backends[
        interposer.ada.placement.inactive_backend
    ]
    assert inactive.data("notes.txt") == b"plain data"
    # And it reads back through the same handle API.
    with interposer.open("/mnt/ada/notes.txt") as fh:
        assert fh.read() == b"plain data"


def test_target_files_chosen_by_suffix_whatever_case(interposer, workload):
    """Only VMD's files are trapped, and an upper-case suffix counts."""
    with interposer.open("/mnt/ada/run/FOO.PDB", "w") as fh:
        fh.write(workload.pdb_text.encode())
    with interposer.open("/mnt/ada/run/bar.xtc", "w") as fh:
        fh.write(workload.xtc_blob)
    assert set(interposer.trapped) == {"run/bar.xtc"}
    inactive = interposer.ada.plfs.backends[
        interposer.ada.placement.inactive_backend
    ]
    for name in ("results.csv", "checkpoint.chk"):
        with interposer.open(f"/mnt/ada/{name}", "w") as fh:
            fh.write(name.encode())
        assert set(interposer.trapped) == {"run/bar.xtc"}
        assert inactive.data(name) == name.encode()


def test_trajectory_before_structure_rejected(interposer, workload):
    with pytest.raises(ConfigurationError, match="guiding"):
        with interposer.open("/mnt/ada/lonely/bar.xtc", "w") as fh:
            fh.write(workload.xtc_blob)


def test_tag_read_extension(interposer, workload):
    with interposer.open("/mnt/ada/run/foo.pdb", "w") as fh:
        fh.write(workload.pdb_text.encode())
    with interposer.open("/mnt/ada/run/bar.xtc", "w") as fh:
        fh.write(workload.xtc_blob)
    blob = interposer.read_tag("/mnt/ada/run/bar.xtc", "p")
    from repro.formats.xtc import decode_raw

    protein = decode_raw(blob)
    assert protein.nframes == workload.trajectory.nframes


def test_other_mounts_unaffected(interposer, workload):
    sim = interposer.sim
    plain = _fs(sim, "ssd")
    interposer.mount("/mnt/scratch", plain)
    with interposer.open("/mnt/scratch/bar.xtc", "w") as fh:
        fh.write(workload.xtc_blob)
    # Same suffix, different mount: NOT trapped.
    assert "bar.xtc" not in interposer.trapped
    assert plain.exists("bar.xtc")
