"""Tests for the VMD-style command console."""

import pytest

from repro.core import ADA
from repro.errors import ConfigurationError
from repro.fs import ADAInterposer, LocalFS
from repro.sim import Simulator
from repro.storage import NVME_SSD_256GB, WD_1TB_HDD
from repro.vmd import VMDSession
from repro.vmd.console import CommandError, VMDConsole
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=1200, nframes=6, seed=161)


@pytest.fixture
def console(workload):
    sim = Simulator()
    ada = ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
    )
    vfs = ADAInterposer(sim, ada, ada_mount="/mnt/ada")
    with vfs.open("/mnt/ada/run/foo.pdb", "w") as fh:
        fh.write(workload.pdb_text.encode())
    with vfs.open("/mnt/ada/run/bar.xtc", "w") as fh:
        fh.write(workload.xtc_blob)
    session = VMDSession(ada=ada)
    return VMDConsole(session, vfs=vfs)


def test_the_papers_command_sequence(console, workload):
    """The exact §3.4 interaction: mol new, then a tag-selective addfile."""
    out = console.execute("mol new /mnt/ada/run/foo.pdb")
    assert "created molecule 0" in out
    out = console.execute("mol addfile /mnt/ada/run/bar.xtc tag p")
    assert "loaded tag 'p'" in out
    lm = console.session.ada.label_map("run/bar.xtc")
    assert console.session.top.loaded_natoms == lm.atom_count("p")


def test_traditional_addfile_via_vfs(console, workload):
    console.execute("mol new /mnt/ada/run/foo.pdb")
    out = console.execute("mol addfile /mnt/ada/run/bar.xtc")
    assert f"loaded {workload.trajectory.nframes} frames" in out
    assert console.session.top.loaded_natoms == workload.system.natoms


def test_addfile_with_selection(console):
    console.execute("mol new /mnt/ada/run/foo.pdb")
    out = console.execute('mol addfile /mnt/ada/run/bar.xtc sel "protein"')
    assert "sel 'protein'" in out


def test_mol_list(console):
    assert console.execute("mol list") == "no molecules"
    console.execute("mol new /mnt/ada/run/foo.pdb")
    assert "atoms=" in console.execute("mol list")


def test_animate_and_render(console, tmp_path, monkeypatch):
    console.execute("mol new /mnt/ada/run/foo.pdb")
    console.execute("mol addfile /mnt/ada/run/bar.xtc tag p")
    out = console.execute("animate goto 3")
    assert out.startswith("frame 3:")
    assert console.execute("animate next").startswith("frame 4")
    assert console.execute("animate prev").startswith("frame 3")
    out = console.execute("render /mnt/ada/run/shot.pgm frame 2")
    assert "rendered frame 2" in out
    assert console.vfs.exists("/mnt/ada/run/shot.pgm")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "frobnicate",
        "mol",
        "mol new",
        "mol addfile",
        "mol addfile x tag",
        "mol addfile x unexpected y",
        "mol destroy 0",
        "animate goto",
        "animate warp 5",
        "render",
    ],
)
def test_malformed_commands_rejected(console, bad):
    with pytest.raises(CommandError):
        console.execute(bad)


def test_animate_without_frames_rejected(console):
    console.execute("mol new /mnt/ada/run/foo.pdb")
    with pytest.raises(CommandError, match="no frames"):
        console.execute("animate goto 0")


def test_console_without_vfs_cannot_read_paths():
    console = VMDConsole(VMDSession())
    with pytest.raises(ConfigurationError, match="no VFS"):
        console.execute("mol new foo.pdb")
