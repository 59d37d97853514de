"""Fig. 8: the CPU-burst comparison (flame-graph view).

The paper profiles the traditional pipeline and finds decompression taking
more than 50 % of the CPU burst.  We regenerate the per-phase breakdown
both from the calibrated model (paper scale, ``fig8_modeled.txt`` =
``python -m repro fig8``, its bands in ``repro.harness.scorecard.CLAIMS``)
and from the *live* Python pipeline under ``perf_counter`` (real bytes,
``fig8_measured.txt``, wall-clock and checked here).

The timed kernels are the real decompression and the real render phases.
"""

from repro.formats import decode_xtc
from repro.cli import render_profiles
from repro.harness.profilecpu import measured_cpu_profile
from repro.vmd import GeometryBuilder, Molecule


def test_fig8_modeled(run_artifact):
    run_artifact("fig8")


def test_fig8_measured_on_live_code(artifact_sink, small_workload):
    c = measured_cpu_profile(small_workload, pipeline="C-trad")
    ada = measured_cpu_profile(small_workload, pipeline="D-ada-p")
    artifact_sink("fig8_measured.txt", render_profiles(c, ada))
    # The live pipeline shows the same dominance the paper measured.
    assert c.fraction("decompress") > 0.5
    assert ada.total < c.total


def test_bench_decompress_burst(benchmark, small_workload):
    """Timed kernel: the decompression burst itself."""
    traj = benchmark(decode_xtc, small_workload.xtc_blob)
    assert traj.nframes == small_workload.trajectory.nframes


def test_bench_render_burst(benchmark, small_workload):
    """Timed kernel: the geometry-building burst."""
    mol = Molecule(0, "gpcr", small_workload.system.topology)
    mol.add_frames(small_workload.trajectory)
    builder = GeometryBuilder(mol)
    frames = benchmark(builder.render_all)
    assert len(frames) == small_workload.trajectory.nframes
