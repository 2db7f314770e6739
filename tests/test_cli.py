"""Command-line surface: exit codes, determinism, end-to-end wiring."""

import contextlib
import dataclasses
import importlib.util
import io
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    corrupt_plane,
    cut_block,
    gradient,
    monitor_rows,
    physical_grid,
    spread,
    version_1_file,
)

from vslab import cli, estimates, snapshots, spectral
from vslab.cli import cli_dispatch
from vslab.config import RunConfig
from vslab.snapshots import load_field, persist_field
from vslab.spectral import Grid, random_divfree_field, taylor_green_vorticity

HERE = os.path.dirname(__file__)
REPO = os.path.dirname(HERE)
RECOMPUTE = os.path.join(REPO, "scripts", "recompute_ledger.py")


def write_cfg(tmp_path, name="run.cfg", **kv):
    base = {
        "n": 8,
        "T": 0.125,
        "dt": 0.0025,
        "slabs": 2,
        "outdir": str(tmp_path / "out"),
        "field_every": 5,
    }
    base.update(kv)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


def test_unknown_subcommand_usage_error(capsys):
    assert cli_dispatch(["frobnicate", "--config", "x"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


def test_missing_config_flag(capsys):
    assert cli_dispatch(["run-ref"]) == 2
    assert "error:" in capsys.readouterr().err


def test_no_subcommand(capsys):
    assert cli_dispatch([]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_is_runtime_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epsilon0=1.5)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 1
    assert "epsilon0" in capsys.readouterr().err


def test_run_ref_emits_reports_and_snapshots(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("series.csv", "slabs.csv", "summary.csv", "series.svg", "config.echo.cfg"):
        assert (out / name).exists()
    snaps = sorted((out / "snapshots").glob("*.vslb"))
    assert snaps
    n, t, w = load_field(snaps[0], Grid(8))
    assert n == 8 and t == 0.0


def test_run_ref_ledger_recomputes(tmp_path):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    proc = subprocess.run(
        [sys.executable, RECOMPUTE, str(tmp_path / "out")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout


def test_ledger_at_nu_001_fails_its_recursion_on_a_resolved_flow(tg16_nu001_run):
    """A ledger that fails: three recursion rows at nu = 0.01, with global_pass=1 on stdout.

    The enstrophy grows from 186.0 to 208.0, under the global cap of 216.1
    but faster than exp((1 - eps0) dt_k) allows from slab 3 on.  The flow
    is resolved: in the last snapshot the shells round(|k|) >= 7 hold
    1.6e-4 of the peak shell's enstrophy and the shells >= 5 about 1.9%.
    """
    import csv

    outdir, code, stdout = tg16_nu001_run
    assert code == 0
    assert "global_pass=1" in stdout
    with open(outdir / "summary.csv", newline="") as fh:
        summary = {row["quantity"]: row["value"] for row in csv.DictReader(fh)}
    assert summary["global_pass"] == "1"
    assert summary["recursion_violations"] == "3"
    assert summary["slab_rule_violations"] == "6"
    with open(outdir / "slabs.csv", newline="") as fh:
        margins = [float(row["margin"]) for row in csv.DictReader(fh)]
    assert [m < 0.0 for m in margins] == [False] * 3 + [True] * 3
    assert margins[3:] == pytest.approx([-0.0698, -1.889, -3.466], rel=1e-3)
    proc = subprocess.run([sys.executable, RECOMPUTE, str(outdir)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    # resolution: the enstrophy spectrum of the last snapshot, by shells of rounded |k|
    traj = snapshots.load_trajectory(outdir / "snapshots", nu=0.01)
    grid, w = traj.grid, traj.fields[-1]
    assert traj.times[-1] == 1.5
    density = np.sum(w.real**2 + w.imag**2, axis=0) * grid.block_weight
    shells = np.bincount(np.rint(np.sqrt(grid.block_ksq)).astype(int).ravel(), density.ravel())
    peak = np.max(shells)
    assert np.sum(shells[7:]) / peak == pytest.approx(1.61e-4, rel=1e-2)
    assert np.sum(shells[5:]) / peak == pytest.approx(0.0192, rel=1e-2)


def test_run_slab_ledger_recomputes(tmp_path):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-slab", "--config", cfg]) == 0
    proc = subprocess.run(
        [sys.executable, RECOMPUTE, str(tmp_path / "out")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_slab_deterministic_ledger_bytes(tmp_path):
    cfg_a = write_cfg(tmp_path, name="a.cfg", outdir=str(tmp_path / "a"))
    cfg_b = write_cfg(tmp_path, name="b.cfg", outdir=str(tmp_path / "b"))
    assert cli_dispatch(["run-slab", "--config", cfg_a]) == 0
    assert cli_dispatch(["run-slab", "--config", cfg_b]) == 0
    for name in ("slabs.csv", "series.csv", "summary.csv"):
        bytes_a = (tmp_path / "a" / name).read_bytes()
        bytes_b = (tmp_path / "b" / name).read_bytes()
        assert bytes_a == bytes_b


def test_run_slab_random_seed_determinism(tmp_path):
    cfg_a = write_cfg(tmp_path, name="a.cfg", outdir=str(tmp_path / "a"),
                      initial="random-divfree", seed=11)
    cfg_b = write_cfg(tmp_path, name="b.cfg", outdir=str(tmp_path / "b"),
                      initial="random-divfree", seed=11)
    assert cli_dispatch(["run-slab", "--config", cfg_a]) == 0
    assert cli_dispatch(["run-slab", "--config", cfg_b]) == 0
    assert (tmp_path / "a" / "slabs.csv").read_bytes() == (tmp_path / "b" / "slabs.csv").read_bytes()


def test_compare_run_with_itself(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = str(tmp_path / "out" / "snapshots")
    assert cli_dispatch(["compare", "--config", cfg, snap, snap]) == 0
    out = capsys.readouterr().out
    assert "sup_l2_distance=0" in out


def test_compare_slab_vs_reference(tmp_path, capsys):
    cfg_ref = write_cfg(tmp_path, name="r.cfg", outdir=str(tmp_path / "ref"))
    cfg_slab = write_cfg(tmp_path, name="s.cfg", outdir=str(tmp_path / "slab"))
    assert cli_dispatch(["run-ref", "--config", cfg_ref]) == 0
    assert cli_dispatch(["run-slab", "--config", cfg_slab]) == 0
    code = cli_dispatch(
        ["compare", "--config", cfg_ref, str(tmp_path / "ref" / "snapshots"), str(tmp_path / "slab" / "snapshots")]
    )
    assert code == 0
    assert "sup_l2_distance=" in capsys.readouterr().out


def test_run_slab_reference_provider(tmp_path):
    cfg_ref = write_cfg(tmp_path, name="r.cfg", outdir=str(tmp_path / "ref"), field_every=1)
    assert cli_dispatch(["run-ref", "--config", cfg_ref]) == 0
    cfg_slab = write_cfg(
        tmp_path,
        name="s.cfg",
        outdir=str(tmp_path / "slab"),
        provider="reference",
        reference_dir=str(tmp_path / "ref" / "snapshots"),
    )
    assert cli_dispatch(["run-slab", "--config", cfg_slab]) == 0
    assert (tmp_path / "slab" / "slabs.csv").exists()


def test_run_slab_adaptive_policy(tmp_path):
    # unit-L2 random vorticity keeps the slab-load rule satisfiable
    cfg_ref = write_cfg(
        tmp_path, name="r.cfg", outdir=str(tmp_path / "ref"),
        initial="random-divfree", seed=4, T=0.25,
    )
    assert cli_dispatch(["run-ref", "--config", cfg_ref]) == 0
    cfg_slab = write_cfg(
        tmp_path, name="s.cfg", outdir=str(tmp_path / "slab"),
        initial="random-divfree", seed=4, T=0.25,
        policy="adaptive", dt_floor="1e-4",
        reference_dir=str(tmp_path / "ref" / "snapshots"),
    )
    assert cli_dispatch(["run-slab", "--config", cfg_slab]) == 0
    import csv

    with open(tmp_path / "slab" / "slabs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 2
    assert all(4.0 * float(r["kstar"]) <= 0.5 + 1e-9 for r in rows)


def test_run_slab_reference_provider_needs_dir(tmp_path, capsys):
    cfg = write_cfg(tmp_path, provider="reference")
    assert cli_dispatch(["run-slab", "--config", cfg]) == 1
    assert "reference_dir" in capsys.readouterr().err


def test_run_slab_adaptive_policy_needs_dir(tmp_path, capsys):
    cfg = write_cfg(tmp_path, policy="adaptive")
    assert cli_dispatch(["run-slab", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: reference_dir: required for policy = adaptive"]


def test_run_slab_reference_closure_reads_no_norm_series(tmp_path, monkeypatch):
    # only policy = adaptive reads the stored run's norm series
    cfg_ref = write_cfg(tmp_path, name="r.cfg", outdir=str(tmp_path / "ref"))
    assert cli_dispatch(["run-ref", "--config", cfg_ref]) == 0

    def refuse(*args):
        raise AssertionError("norm series of the reference built")

    monkeypatch.setattr(cli, "series_from_samples", refuse)
    cfg_slab = write_cfg(
        tmp_path,
        name="s.cfg",
        outdir=str(tmp_path / "slab"),
        provider="reference",
        reference_dir=str(tmp_path / "ref" / "snapshots"),
    )
    assert cli_dispatch(["run-slab", "--config", cfg_slab]) == 0


def test_inputs_inside_the_output_snapshot_directory_are_refused(tmp_path, capsys):
    cfg = write_cfg(tmp_path, outdir=str(tmp_path / "a"))
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "a" / "snapshots"
    stored = {p.name: p.read_bytes() for p in snap.iterdir()}
    assert len(stored) == 11
    capsys.readouterr()
    runs = [
        ["run-slab", "--set", "provider=reference", "--set", f"reference_dir={snap}"],
        ["run-slab", "--set", "policy=adaptive", "--set", f"reference_dir={snap}/../snapshots"],
        ["run-ref", "--set", "initial=file", "--set", f"initial_path={snap}/snap_000000.vslb"],
        ["run-slab", "--set", "initial=file", "--set", f"initial_path={snap}/snap_000000.vslb"],
    ]
    for command, *overrides in runs:
        assert cli_dispatch([command, "--config", cfg, *overrides]) == 1
        assert "inside the output snapshot directory" in _one_error_line(capsys)
        assert {p.name: p.read_bytes() for p in snap.iterdir()} == stored
    # run-ref reads no reference_dir, so the same setting does not stop it
    over = ["--set", "provider=reference", "--set", f"reference_dir={snap}"]
    assert cli_dispatch(["run-ref", "--config", cfg, *over]) == 0


def test_run_slab_picard_non_convergence(tmp_path, capsys):
    cfg = write_cfg(tmp_path, picard_max_iter=1)
    assert cli_dispatch(["run-slab", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "slab 0" in err[0]
    assert "last change" in err[0]
    assert "()" not in err[0] and " )" not in err[0]


def test_study_reports_rate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, study_levels="2,4,8")
    assert cli_dispatch(["study", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "rate=" in out
    with open(tmp_path / "out" / "study.csv") as fh:
        assert fh.readline().strip() == "slabs,dt_k,sup_l2_error,max_rho,max_iters"
    assert (tmp_path / "out" / "N4" / "slabs.csv").exists()


@pytest.mark.parametrize("levels", ["4,8", "4,4,8"])
def test_study_rejects_levels_before_running(tmp_path, capsys, levels):
    cfg = write_cfg(tmp_path, study_levels=levels)
    assert cli_dispatch(["study", "--config", cfg]) == 1
    assert "study_levels" in _one_error_line(capsys)
    assert not list(tmp_path.glob("out/N*"))


def test_slab_scheme_is_second_order_in_the_slab_width_at_nu_001(tg16_nu001_run, tmp_path, capsys):
    """Halving the slab width cuts the sup-L2 distance to the nu = 0.01 reference fourfold.

    run-slab at 6, 12 and 24 slabs, with the reference run's own settings
    (its ``config.echo.cfg``), against its snapshots through ``vslab
    compare``: errors 5.87e-2, 1.55e-2 and 3.86e-3, ratios 0.264 and 0.249.
    A first-order scheme would give ratios near 0.5.
    """
    refdir, code, _ = tg16_nu001_run
    assert code == 0
    settings = str(refdir / "config.echo.cfg")
    errors = []
    for slabs in (6, 12, 24):
        outdir = tmp_path / f"N{slabs}"
        argv = ["--config", settings, "--set", f"slabs={slabs}", "--set", f"outdir={outdir}"]
        assert cli_dispatch(["run-slab", *argv]) == 0
        capsys.readouterr()
        dirs = [str(refdir / "snapshots"), str(outdir / "snapshots")]
        assert cli_dispatch(["compare", "--config", settings, *dirs]) == 0
        out = capsys.readouterr().out
        errors.append(float(out.split("sup_l2_distance=")[1].split()[0]))
    assert errors == pytest.approx([5.874e-2, 1.553e-2, 3.861e-3], rel=1e-3)
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    assert ratios == pytest.approx([0.2644, 0.2486], rel=1e-3)
    assert max(ratios) <= 0.3


@pytest.mark.parametrize("provider", ["self-consistent", "reference"])
def test_study_measures_second_order_in_the_slab_width(tmp_path, provider):
    # halving the slab width cuts the sup-L2 error about fourfold (ratios 0.26-0.27
    # at 8^3); a closure frozen at slab-start velocities is first order (about 0.5)
    cfg = write_cfg(tmp_path, T=0.25, dt=0.001, field_every=10, study_levels="4,8,16")
    assert cli_dispatch(["study", "--config", cfg, "--set", f"provider={provider}"]) == 0
    with open(tmp_path / "out" / "study.csv") as fh:
        errors = [float(line.split(",")[2]) for line in fh.readlines()[1:]]
    assert len(errors) == 3
    assert errors[2] / errors[1] <= 0.3


def test_monitor_replays_snapshots(tmp_path, capsys):
    cfg = write_cfg(tmp_path, field_every=2)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = str(tmp_path / "out" / "snapshots")
    assert cli_dispatch(["monitor", "--config", cfg, snap]) == 0
    out = capsys.readouterr().out
    assert "energy_identity_residual" in out
    assert "dt_u_min_margin" in out
    assert "ladyzhenskaya_max_ratio" in out
    assert (tmp_path / "out" / "monitors.csv").exists()


def test_monitor_inverts_each_snapshot_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, field_every=2)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    calls = []
    original = Grid.biot_savart

    def counting(self, w):
        calls.append(1)
        return original(self, w)

    monkeypatch.setattr(Grid, "biot_savart", counting)
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    assert len(calls) == len(list(snap.glob("*.vslb")))


def test_monitor_density_passes_per_snapshot(tmp_path, monkeypatch):
    # 11 snapshots; every norm of a field is one pass over its per-mode density
    cfg = write_cfg(tmp_path, field_every=5)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    calls = []
    original = spectral._density

    def counting(c):
        calls.append(1)
        return original(c)

    monkeypatch.setattr(spectral, "_density", counting)
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    # per snapshot: 2 in the solenoidal check, one each for the norms of u and
    # w, 2 in the divergence check of u and 1 for |curl u|^2; one per dt u
    # (9 interior samples and 4 on the stride-2 grid)
    assert len(calls) == 7 * 11 + 9 + 4


def _count_loads(monkeypatch):
    calls = []
    original = snapshots.load_field

    def counting(path, *args, **kwargs):
        calls.append(os.path.basename(path))
        return original(path, *args, **kwargs)

    monkeypatch.setattr(snapshots, "load_field", counting)
    return calls


def test_monitor_loads_each_snapshot_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, field_every=2)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    calls = _count_loads(monkeypatch)
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    assert sorted(calls) == sorted(p.name for p in snap.glob("*.vslb"))


@pytest.mark.parametrize("field_every", [5, 2])  # 11 and 26 snapshots
def test_monitor_matches_list_based_oracle(tmp_path, capsys, field_every):
    cfg = write_cfg(tmp_path, field_every=field_every)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    assert len(list(snap.glob("*.vslb"))) == {5: 11, 2: 26}[field_every]
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    out = capsys.readouterr().out.splitlines()
    printed = [line for line in out if line.startswith("monitor: ")]
    want = monitor_rows(snap, nu=1.0, gamma=0.2, ladyzhenskaya_c=2.0)
    assert printed == [f"monitor: {name}={value}" for name, value in want]
    assert len(want) == 9


def test_monitor_on_a_run_slab_directory_matches_the_oracle(tmp_path, capsys):
    # a run-slab sample is cut like a run-ref state, so every one is replayed as a kept block
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-slab", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    paths = sorted(snap.glob("*.vslb"))
    assert len(paths) == 33
    assert {path.stat().st_size for path in paths} == {24 + 48 * 5 * 5 * 3}
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("monitor: ")]
    want = monitor_rows(snap, nu=1.0, gamma=0.2, ladyzhenskaya_c=2.0)
    assert printed == [f"monitor: {name}={value}" for name, value in want]
    assert len(want) == 9


@pytest.fixture(scope="module")
def monitor16_runs(tmp_path_factory):
    """run-ref snapshot directories at 16^3 with 33 and 65 snapshots: {count: (cfg, snapdir)}."""
    root = tmp_path_factory.mktemp("monitor16")
    runs = {}
    for count, T in ((33, 0.08), (65, 0.16)):
        outdir = root / str(count)
        cfg = write_cfg(root, name=f"{count}.cfg", n=16, T=T, field_every=1, outdir=str(outdir))
        assert cli_dispatch(["run-ref", "--config", cfg]) == 0
        snap = outdir / "snapshots"
        assert len(list(snap.glob("*.vslb"))) == count
        runs[count] = cfg, snap
    return runs


def test_monitor_hgamma_from_chunked_rereads_is_the_in_memory_value(
    monitor16_runs, capsys, monkeypatch
):
    # the lag sums come from the files, re-read a chunk of planes at a time;
    # hgamma_diagnostic reads the same chunks from memory, to the same bits
    cfg, snap = monitor16_runs[33]
    chunks = []
    read_planes = snapshots.read_planes

    def counting(grid, paths, fingerprints, lo, out):
        chunks.append((lo, out.shape[:2]))
        return read_planes(grid, paths, fingerprints, lo, out)

    monkeypatch.setattr(snapshots, "read_planes", counting)
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("monitor: ")]
    # 32 rows, and the 33 planes of the 16^3 block in chunks of 6
    assert [lo for lo, _ in chunks] == list(range(0, 33, 6)), chunks
    assert {shape for _, shape in chunks} == {(32, 6), (32, 3)}, chunks
    traj = snapshots.load_trajectory(snap)
    want = estimates.hgamma_diagnostic(traj.times, traj.fields, 0.2, traj.grid).value
    assert printed[-1] == f"monitor: hgamma_0.2={want}"
    oracle = monitor_rows(snap, nu=1.0, gamma=0.2, ladyzhenskaya_c=2.0)
    assert printed == [f"monitor: {name}={value}" for name, value in oracle]


def test_monitor_memory_does_not_grow_with_the_snapshot_count(monitor16_runs, monkeypatch):
    # At 16^3 the whole trajectory of 65 snapshots as vorticity and velocity
    # lists would hold 130 states, and a stack of the H^gamma rows 64 kept
    # blocks (32% of a state each).  The monitor holds a window of five
    # velocities, the lag sums' chunk buffer (at most the kernel's
    # (6, n, n, n/2+1) stack) and the frequency pass, one phase at a time.
    # The frequency pass holds about 1 MB whatever n: more than the
    # passes over the snapshots here (0.6 MB), less than them at 32^3.  So
    # those passes are also measured on their own, up to its start.
    grid = Grid(16)
    state = 3 * int(np.prod(grid._half_shape)) * 16  # a vector half spectrum
    buffer = 2 * state  # the (6, n, n, n/2+1) stack the chunk buffer stays within
    grid4 = Grid(4)
    w = random_divfree_field(grid4, seed=3)
    frequency_pass = estimates.hgamma_from_lag_sums
    peaks, streamed = {}, {}

    def spy(*args, **kwargs):
        streamed[count] = tracemalloc.get_traced_memory()[1] - base
        return frequency_pass(*args, **kwargs)

    tracemalloc.start()
    try:
        # the frequency-grid work of the diagnostic does not scale with n or M
        base = tracemalloc.get_traced_memory()[0]
        estimates.hgamma_diagnostic(np.linspace(0.0, 1.0, 3), [w, w, w], 0.2, grid4)
        freq = tracemalloc.get_traced_memory()[1] - base
        monkeypatch.setattr(estimates, "hgamma_from_lag_sums", spy)
        for count, (cfg, snap) in monitor16_runs.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert abs(streamed[65] - streamed[33]) < state, streamed
    assert abs(peaks[65] - peaks[33]) < state, peaks
    for count, peak in peaks.items():
        assert streamed[count] < buffer + 10 * state, (count, (streamed[count] - buffer) / state)
        assert peak < freq + buffer + 10 * state, (count, (peak - freq - buffer) / state)


@pytest.mark.parametrize("change", ["replaced", "touched", "extended"])
def test_monitor_refuses_a_snapshot_changed_between_its_passes(
    tmp_path, capsys, monkeypatch, change
):
    # the lag sums re-read the files; one that changed after its first read
    # (a new inode, a later modification time or another size) is refused
    cfg = write_cfg(tmp_path, field_every=2)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    victim = sorted(snap.glob("*.vslb"))[7]
    lag_sums = estimates.lag_sums

    def rewrite_first(grid, count, read_rows):
        st = victim.stat()
        if change == "replaced":
            # the same bytes under a new inode, as a second run's sink writes them
            _, time, block = load_field(victim, grid)
            persist_field(victim, block, time, grid)
            assert victim.stat().st_ino != st.st_ino
        elif change == "touched":
            os.utime(victim, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        else:
            with open(victim, "ab") as fh:
                fh.write(b"\0")
        return lag_sums(grid, count, read_rows)

    monkeypatch.setattr(estimates, "lag_sums", rewrite_first)
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 1
    err = _one_error_line(capsys)
    assert str(victim) in err and "changed since it was checked" in err
    assert not (tmp_path / "out" / "monitors.csv").exists()


def test_run_slab_memory_does_not_grow_with_the_slab_count(tmp_path):
    # 8 slabs of 16 samples at 16^3: collected, the run would hold 129 samples
    # and 8 four-state slab solutions until the snapshots were written; run-ref
    # over 100 steps would hold 101 snapshots.  A state here is a half
    # spectrum; the runs carry kept blocks (32% of one at 16^3).
    state = 3 * int(np.prod(Grid(16)._half_shape)) * 16
    for command, count in (("run-slab", 129), ("run-ref", 101)):
        outdir = tmp_path / command
        cfg = write_cfg(
            tmp_path, n=16, T=0.25, slabs=8, slab_samples=16, field_every=1, outdir=str(outdir)
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert cli_dispatch([command, "--config", cfg]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(list((outdir / "snapshots").glob("*.vslb"))) == count
        assert peak < 16 * state, (command, peak / state)


@pytest.mark.parametrize("count", [3, 4])
def test_monitor_on_three_or_four_snapshots(tmp_path, capsys, count):
    # times[::2] has two samples: no stride-2 band, which reads 0
    cfg = write_cfg(tmp_path, dt=0.001, T=0.001 * (count - 1), field_every=1)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    assert len(list(snap.glob("*.vslb"))) == count
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("monitor: ")]
    want = monitor_rows(snap, nu=1.0, gamma=0.2, ladyzhenskaya_c=2.0)
    assert printed == [f"monitor: {name}={value}" for name, value in want]
    assert len(want) == 9 and ("dt_u_fd_band", 0.0) in want


def test_rerun_into_a_used_outdir_leaves_only_its_own_snapshots(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snap = tmp_path / "out" / "snapshots"
    assert len(list(snap.glob("*.vslb"))) == 11
    (snap / "snap_000011.vslb.tmp").write_bytes(b"partial")  # left by a killed writer
    (snap / "notes.txt").write_text("kept")
    assert cli_dispatch(["run-ref", "--config", cfg, "--set", "T=0.05"]) == 0
    assert sorted(p.name for p in snap.iterdir()) == [
        "notes.txt",
        *(f"snap_{i:06d}.vslb" for i in range(5)),
    ]
    calls = _count_loads(monkeypatch)
    assert cli_dispatch(["monitor", "--config", cfg, str(snap)]) == 0
    assert len(calls) == 5


# scipy subpackages that a command has no use for and that cost start-up time
UNUSED_SCIPY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.spatial")


def _child_env():
    """The environment of a child Python that imports this checkout's ``vslab``."""
    path = filter(None, [os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_commands_import_no_unused_scipy_subpackage(tmp_path):
    """With SciPy's pocketfft extension bound directly a command imports no scipy module.

    On the public ``scipy.fft`` fallback it imports ``scipy.fft`` but still
    none of UNUSED_SCIPY.
    """
    ref = write_cfg(tmp_path, "ref.cfg")
    slab = write_cfg(tmp_path, "slab.cfg", outdir=str(tmp_path / "slab"))
    snap = str(tmp_path / "out" / "snapshots")
    code = (
        "import sys\n"
        "import vslab.cli\n"
        "from vslab import _fft\n"
        f"assert vslab.cli.cli_dispatch(['run-ref', '--config', {ref!r}]) == 0\n"
        f"assert vslab.cli.cli_dispatch(['run-slab', '--config', {slab!r}]) == 0\n"
        f"assert vslab.cli.cli_dispatch(['monitor', '--config', {ref!r}, {snap!r}]) == 0\n"
        "print(_fft.rfftn is not _fft._scipy_rfftn)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    direct, loaded = proc.stdout.splitlines()[-2:]
    if direct == "True":
        assert loaded == "[]"
    else:
        assert not [m for m in UNUSED_SCIPY if repr(m) in loaded]


def test_run_commands_import_no_numpy_fft(tmp_path):
    """run-ref, run-slab and monitor, from Taylor-Green and from a seeded field, leave numpy.fft unimported.

    Their transforms are SciPy's pocketfft extension (``vslab._fft``), the
    grid builds its wavevectors without ``fftfreq``, and the monitor's
    H^gamma frequency pass runs on ``vslab._fft.fft``.  On the public
    ``scipy.fft`` fallback, which imports ``numpy.fft`` itself, there is
    nothing to check.
    """
    runs = []
    for initial in ("taylor-green", "random-divfree"):
        for command in ("run-ref", "run-slab"):
            out = str(tmp_path / f"{command}-{initial}")
            cfg = write_cfg(tmp_path, f"{command}-{initial}.cfg", initial=initial, outdir=out)
            runs.append(f"assert vslab.cli.cli_dispatch([{command!r}, '--config', {cfg!r}]) == 0\n")
        snap = str(tmp_path / f"run-ref-{initial}" / "snapshots")
        cfg = str(tmp_path / f"run-ref-{initial}.cfg")
        runs.append(f"assert vslab.cli.cli_dispatch(['monitor', '--config', {cfg!r}, {snap!r}]) == 0\n")
    code = (
        "import sys\n"
        "import vslab.cli\n"
        "from vslab import _fft\n"
        + "".join(runs)
        + "print(_fft.rfftn is not _fft._scipy_rfftn)\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    direct, loaded = proc.stdout.splitlines()[-2:]
    if direct != "True":
        pytest.skip("the FFTs fall back to scipy.fft, which imports numpy.fft")
    assert loaded == "False"


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    return err[0]


def test_run_ref_blowup_leaves_a_readable_prefix(tmp_path, capsys):
    # at nu = 1e-4 the Taylor-Green enstrophy grows and passes 186.1 near t = 0.06,
    # after the snapshots at t = 0, 0.0125, ..., 0.05
    cfg = write_cfg(tmp_path, nu=1e-4, enstrophy_ceiling=186.1)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 1
    assert "blow-up" in _one_error_line(capsys)
    out = tmp_path / "out"
    assert not list(out.rglob("*.tmp"))
    traj = snapshots.load_trajectory(out / "snapshots", nu=1e-4)
    assert np.allclose(traj.times, 0.0125 * np.arange(5), rtol=0.0, atol=1e-15)
    assert cli_dispatch(["monitor", "--config", cfg, str(out / "snapshots")]) == 0


def test_run_slab_picard_failure_leaves_the_initial_snapshot(tmp_path, capsys):
    cfg = write_cfg(tmp_path, picard_max_iter=1)
    assert cli_dispatch(["run-slab", "--config", cfg]) == 1
    assert "slab 0" in _one_error_line(capsys)
    out = tmp_path / "out"
    assert not list(out.rglob("*.tmp"))
    assert [p.name for p in (out / "snapshots").iterdir()] == ["snap_000000.vslb"]
    grid = Grid(8)
    n, t, w = load_field(out / "snapshots" / "snap_000000.vslb", grid)
    assert (n, t) == (8, 0.0)
    assert w.tobytes() == taylor_green_vorticity(grid).tobytes()


def _monitor_fails_before_reading(tmp_path, capsys, monkeypatch, damage):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snapdir = tmp_path / "out" / "snapshots"
    damage(snapdir)
    calls = _count_loads(monkeypatch)
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snapdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert calls == []
    return err[0]


def test_monitor_rejects_mixed_grid_sizes_before_reading(tmp_path, capsys, monkeypatch):
    def add_4cubed(snapdir):  # named to sort after the 8^3 snap_ files
        grid = Grid(4)
        persist_field(snapdir / "stray.vslb", random_divfree_field(grid, seed=8), 9.0, grid)

    line = _monitor_fails_before_reading(tmp_path, capsys, monkeypatch, add_4cubed)
    assert "stray.vslb" in line and "grid size 4" in line


def test_monitor_rejects_nonuniform_times_before_reading(tmp_path, capsys, monkeypatch):
    def drop_one(snapdir):
        (snapdir / "snap_000003.vslb").unlink()

    line = _monitor_fails_before_reading(tmp_path, capsys, monkeypatch, drop_one)
    assert "samples must be uniformly spaced" in line


def test_run_ref_rejects_divergent_initial_file(tmp_path, capsys):
    # the rejected run must leave the last run's snapshots, which its sink would clear
    assert cli_dispatch(["run-ref", "--config", write_cfg(tmp_path)]) == 0
    snapdir = tmp_path / "out" / "snapshots"
    stored = {p.name: p.read_bytes() for p in snapdir.glob("snap_*.vslb")}
    assert len(stored) == 11
    grid = Grid(8)
    divergent = cut_block(grid, gradient(grid, grid.to_spectral(np.sin(physical_grid(grid)[0]))))
    path = tmp_path / "w0.vslb"
    persist_field(path, divergent, 0.0, grid)
    cfg = write_cfg(tmp_path, initial="file", initial_path=str(path))
    capsys.readouterr()
    assert cli_dispatch(["run-ref", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "divergence" in err[0]
    assert err[0].startswith(f"error: initial_path: {path}: ")
    assert {p.name: p.read_bytes() for p in snapdir.glob("snap_*.vslb")} == stored


def _uncut_field():
    """A divergence-free 16^3 vorticity half spectrum with the modes k = (+-6, 0, 0) of w_2
    outside the cut, which only a version 1 file, the whole cube, can hold."""
    grid = Grid(16)
    w = spread(grid, random_divfree_field(grid, seed=3))
    w[1, 6, 0, 0] = 0.05 - 0.02j
    w[1, -6, 0, 0] = 0.05 + 0.02j
    return w


@pytest.mark.parametrize("command", ["run-ref", "run-slab"])
def test_uncut_initial_file_is_refused(tmp_path, capsys, command):
    path = tmp_path / "w0.vslb"
    version_1_file(path, _uncut_field(), 0.0)
    cfg = write_cfg(tmp_path, n=16, initial="file", initial_path=str(path))
    assert cli_dispatch([command, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: initial_path: {path}: unsupported format version 1"]
    assert not list((tmp_path / "out" / "snapshots").glob("*.vslb"))


@pytest.mark.parametrize("reader", ["monitor", "compare", "reference_dir"])
def test_uncut_snapshot_is_refused_by_name(tmp_path, capsys, reader):
    grid = Grid(16)
    for name in ("good", "bad"):
        (tmp_path / name).mkdir()
        for i, seed in enumerate((1, 4, 2)):
            w = random_divfree_field(grid, seed=seed)
            persist_field(tmp_path / name / snapshots.snapshot_name(i), w, 0.0625 * i, grid)
    version_1_file(tmp_path / "bad" / snapshots.snapshot_name(1), _uncut_field(), 0.0625)
    cfg = write_cfg(tmp_path, n=16)
    bad = str(tmp_path / "bad")
    reference = ["--set", "provider=reference", "--set", f"reference_dir={bad}"]
    argv = {
        "monitor": ["monitor", "--config", cfg, bad],
        "compare": ["compare", "--config", cfg, str(tmp_path / "good"), bad],
        "reference_dir": ["run-slab", "--config", cfg, *reference],
    }[reader]
    assert cli_dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert err[0].endswith("snap_000001.vslb: unsupported format version 1")


def test_run_ref_keeps_the_initial_file_as_its_first_snapshot(tmp_path):
    path = tmp_path / "w0.vslb"
    grid = Grid(8)
    persist_field(path, random_divfree_field(grid, seed=7), 0.5, grid)
    cfg = write_cfg(tmp_path, initial="file", initial_path=str(path))
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    first = tmp_path / "out" / "snapshots" / "snap_000000.vslb"
    assert first.read_bytes()[24:] == path.read_bytes()[24:]


def test_monitor_rejects_nonzero_mean_snapshot(tmp_path, capsys):
    grid = Grid(8)
    w = random_divfree_field(grid, seed=29)
    w[0, 0, 0, 0] = 0.1
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    persist_field(snapdir / "snap_000000.vslb", w, 0.0, grid)
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["monitor", "--config", cfg, str(snapdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "mean vorticity" in err[0]


def test_monitor_rejects_duplicate_snapshot_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snapdir = tmp_path / "out" / "snapshots"
    (snapdir / "copy.vslb").write_bytes((snapdir / "snap_000001.vslb").read_bytes())
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snapdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "copy.vslb" in err[0] and "snap_000001.vslb" in err[0]


def _nan_snapshot(path):
    grid = Grid(8)
    w = random_divfree_field(grid, seed=29)
    w[1, 2, 3, 1] = np.nan  # k = (2, -2, 1)
    persist_field(path, w, 0.0, grid)


def test_monitor_rejects_nan_snapshot(tmp_path, capsys):
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    _nan_snapshot(snapdir / "snap_000000.vslb")
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["monitor", "--config", cfg, str(snapdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "snap_000000.vslb" in err[0] and "non-finite" in err[0]


def test_run_ref_rejects_nan_initial_file(tmp_path, capsys):
    path = tmp_path / "w0.vslb"
    _nan_snapshot(path)
    cfg = write_cfg(tmp_path, initial="file", initial_path=str(path))
    assert cli_dispatch(["run-ref", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
    assert err[0].startswith(f"error: initial_path: {path}: ")


def test_run_ref_refuses_an_initial_file_of_another_grid_size(tmp_path, capsys):
    grid = Grid(16)
    path = tmp_path / "w0.vslb"
    persist_field(path, random_divfree_field(grid, seed=3), 0.0, grid)
    cfg = write_cfg(tmp_path, initial="file", initial_path=str(path))
    assert cli_dispatch(["run-ref", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: initial_path: {path}: grid size 16 differs from 8"]
    assert not (tmp_path / "out" / "snapshots").exists()


def _monitor_one_error(tmp_path, capsys, damage):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snapdir = tmp_path / "out" / "snapshots"
    damage(snapdir / "snap_000001.vslb")
    capsys.readouterr()
    assert cli_dispatch(["monitor", "--config", cfg, str(snapdir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "snap_000001.vslb" in err[0]
    return err[0]


def test_monitor_rejects_truncated_snapshot(tmp_path, capsys):
    def truncate(path):
        path.write_bytes(path.read_bytes()[:-16])

    assert "truncated payload" in _monitor_one_error(tmp_path, capsys, truncate)


def test_monitor_rejects_snapshot_with_a_hermitian_defect(tmp_path, capsys):
    line = _monitor_one_error(tmp_path, capsys, corrupt_plane)
    assert "Hermitian symmetry violated" in line


def test_set_override_changes_run(tmp_path):
    cfg = write_cfg(tmp_path)
    out2 = str(tmp_path / "out2")
    assert cli_dispatch(["run-ref", "--config", cfg, "--set", f"outdir={out2}", "--set", "slabs=4"]) == 0
    import csv

    with open(os.path.join(out2, "slabs.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "vslab.cli"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def _set_header_time(path, value):
    blob = bytearray(path.read_bytes())
    blob[16:24] = np.float64(value).tobytes()
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("reader", ["monitor", "compare"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_header_time_is_refused(tmp_path, capsys, reader, value):
    # a NaN time sorted last and passed the duplicate check; compare printed "over [0, nan]"
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snapdir = tmp_path / "out" / "snapshots"
    _set_header_time(snapdir / "snap_000004.vslb", value)
    argv = {
        "monitor": ["monitor", "--config", cfg, str(snapdir)],
        "compare": ["compare", "--config", cfg, str(snapdir), str(snapdir)],
    }[reader]
    capsys.readouterr()
    assert cli_dispatch(argv) == 1
    line = _one_error_line(capsys)
    assert "snap_000004.vslb" in line and "non-finite sample time" in line


@pytest.mark.parametrize("reader", ["monitor", "compare"])
def test_overlong_snapshot_is_a_size_mismatch(tmp_path, capsys, reader):
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg]) == 0
    snapdir = tmp_path / "out" / "snapshots"
    path = snapdir / "snap_000002.vslb"
    path.write_bytes(path.read_bytes() + bytes(16))
    argv = {
        "monitor": ["monitor", "--config", cfg, str(snapdir)],
        "compare": ["compare", "--config", cfg, str(snapdir), str(snapdir)],
    }[reader]
    capsys.readouterr()
    assert cli_dispatch(argv) == 1
    line = _one_error_line(capsys)
    assert "snap_000002.vslb: payload size mismatch" in line and "truncated" not in line


def test_infinite_span_is_one_error_line(tmp_path, capsys):
    # refused with the config, before the step count int(T / dt) could overflow
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg, "--set", "T=inf"]) == 1
    assert "T: must be positive and finite" in _one_error_line(capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key",
    ["nu", "T", "dt", "sobolev_c", "dt_floor", "picard_tol", "enstrophy_ceiling", "ladyzhenskaya_c"],
)
def test_non_finite_positive_value_is_refused_by_key(tmp_path, capsys, key, value):
    # NaN fails every comparison, so a test of ``value <= 0`` alone passes it
    cfg = write_cfg(tmp_path)
    assert cli_dispatch(["run-ref", "--config", cfg, "--set", f"{key}={value}"]) == 1
    assert f"{key}: must be positive and finite, got {float(value)}" in _one_error_line(capsys)


# --set values that mean nothing: refused, or harmless at n <= 8 and T <= 0.05
ODD_VALUES = ["nan", "inf", "-inf", "0", "-1", "-1e300", "1e300", "", "abc", "1e", "0x10", "1,2"]
# per key, valid values that keep a run short and edges just outside the valid
# range; no key may draw a valid large n, slab or sample count, or a T/dt that
# is valid and huge
SHORT_RUN_VALUES = {
    "n": ["4", "6", "1000001"],  # the last is odd
    "nu": ["1e-3", "1e160"],
    "T": ["0.01"],
    "dt": ["0.01"],
    "initial": ["abc-beltrami", "random-divfree", "file"],
    "seed": ["7", "-3"],
    "policy": ["adaptive"],
    "slabs": ["1", "3"],
    "epsilon0": ["0.9", "1"],
    "provider": ["reference"],
    "picard_tol": ["1e-300"],
    "picard_max_iter": ["1"],
    "field_every": ["3"],
    "slab_samples": ["2"],
    "enstrophy_ceiling": ["1e-3"],
    "gamma": ["0.1", "0.25"],
    "study_levels": ["2,4,8", "4,4,8"],
}
SET_KEYS = sorted(f.name for f in dataclasses.fields(RunConfig))


@st.composite
def set_overrides(draw):
    key = draw(st.sampled_from(SET_KEYS))
    value = draw(st.sampled_from([None, *ODD_VALUES, *SHORT_RUN_VALUES.get(key, [])]))
    return key if value is None else f"{key}={value}"  # a bare key is malformed


@pytest.fixture(scope="module")
def override_dir(tmp_path_factory):
    """A working directory for the property runs, whose outdirs are relative."""
    path = tmp_path_factory.mktemp("overrides")
    (path / "run.cfg").write_text("n = 8\nT = 0.05\ndt = 0.0025\nslabs = 2\nslab_samples = 4\n")
    return path


def _exits_cleanly_or_in_one_error_line(directory, argv):
    """Run the CLI in process from ``directory``; returns its exit code.

    Exit 0 with nothing on stderr, or exit 1 or 2 with one ``error:`` line;
    no warning either way.  An exception that escapes fails the caller.
    """
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(directory)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli_dispatch(argv)
    finally:
        os.chdir(cwd)
    assert not caught, [str(w.message) for w in caught]
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    return code


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["run-ref", "run-slab"]), item=set_overrides())
def test_any_set_override_exits_cleanly_or_in_one_error_line(override_dir, command, item):
    argv = [command, "--config", "run.cfg", "--set", item]
    _exits_cleanly_or_in_one_error_line(override_dir, argv)


# one word of a snapshot file: (offset, struct format, values) of each header
# field; a payload word is a float64 of the (3, K, K, kmax + 1, 2) words after
# them, (3, 5, 5, 3, 2) at 8^3
HEADER_WORDS = {
    "magic": (0, "4s", [b"XXXX", b"vslb", bytes(4)]),
    "version": (4, "<I", [0, 1, 3, 2**32 - 1]),
    "n": (8, "<I", [0, 4, 7, 16, 2**32 - 1]),
    "components": (12, "<I", [0, 1, 4]),
    "time": (16, "<d", [np.nan, np.inf, -np.inf, -0.0, 1e300, -1e300, 0.125]),
}
PAYLOAD_VALUES = [np.nan, np.inf, -0.0, 1e300]


@st.composite
def corrupt_words(draw):
    """(file index, byte offset, struct format, value) of one corrupt word of an 8^3 snapshot."""
    snap = draw(st.integers(0, 5))
    field = draw(st.sampled_from([*HEADER_WORDS, "payload"]))
    if field != "payload":
        return (snap, *HEADER_WORDS[field][:2], draw(st.sampled_from(HEADER_WORDS[field][2])))
    k3 = st.integers(0, 2) | st.just(0)  # anywhere, or on the plane k_3 = 0 that holds its mirror
    row = st.integers(0, 4)
    index = (draw(st.integers(0, 2)), draw(row), draw(row), draw(k3), draw(st.integers(0, 1)))
    offset = 24 + 8 * int(np.ravel_multi_index(index, (3, 5, 5, 3, 2)))
    return snap, offset, "<d", draw(st.sampled_from(PAYLOAD_VALUES))


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory):
    """A working directory with six 8^3 snapshots in ``pristine`` and a copy in ``corrupt``."""
    path = tmp_path_factory.mktemp("corrupt")
    (path / "run.cfg").write_text("n = 8\nT = 0.05\ndt = 0.0025\nfield_every = 4\noutdir = runs\n")
    argv = ["run-ref", "--config", "run.cfg", "--set", "outdir=made"]
    assert _exits_cleanly_or_in_one_error_line(path, argv) == 0
    (path / "made" / "snapshots").rename(path / "pristine")
    shutil.copytree(path / "pristine", path / "corrupt")
    return path


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["monitor", "compare", "initial=file"]), word=corrupt_words())
def test_any_corrupt_snapshot_word_exits_cleanly_or_in_one_error_line(corrupt_dir, command, word):
    snap, offset, fmt, value = word
    path = corrupt_dir / "corrupt" / snapshots.snapshot_name(snap)
    pristine = path.read_bytes()
    blob = bytearray(pristine)
    struct.pack_into(fmt, blob, offset, value)
    path.write_bytes(bytes(blob))
    initial = ["--set", "T=0.01", "--set", "initial=file", "--set", f"initial_path={path}"]
    argv = {
        "monitor": ["monitor", "--config", "run.cfg", "corrupt"],
        "compare": ["compare", "--config", "run.cfg", "pristine", "corrupt"],
        "initial=file": ["run-ref", "--config", "run.cfg", *initial],
    }[command]
    try:
        code = _exits_cleanly_or_in_one_error_line(corrupt_dir, argv)
    finally:
        path.write_bytes(pristine)
    if offset == 16:
        # a non-finite time is refused by every reader; a finite one that
        # moves a sample breaks the uniform spacing that monitor needs, and
        # one that leaves name order is refused by both directory readers
        old = struct.unpack_from("<d", pristine, 16)[0]
        times = [
            struct.unpack_from("<d", p.read_bytes(), 16)[0]
            for p in sorted((corrupt_dir / "pristine").iterdir())
        ]
        times[snap] = value
        out_of_order = any(b <= a for a, b in zip(times, times[1:]))
        if not np.isfinite(value) or (command == "monitor" and value != old):
            assert code == 1
        if command in ("monitor", "compare") and out_of_order:
            assert code == 1


def _run_child(*argv):
    """``python -m vslab.cli`` in a child process, whose stderr shows numpy's warnings too."""
    return subprocess.run(
        [sys.executable, "-m", "vslab.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=300,
    )


def test_run_slab_picard_overflow_is_one_error_line(tmp_path):
    # at nu = 0.01 one slab over (0, 1.5) is far too wide: the Picard change
    # overflows at iteration 23, and the iterations after it would run on NaN
    argv = ["--set", f"outdir={tmp_path}", "--set", "nu=0.01", "--set", "slabs=1", "--set", "T=1.5"]
    proc = _run_child("run-slab", "--config", os.path.join(REPO, "configs", "tg16-slab.cfg"), *argv)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), proc.stderr
    assert "slab 0: non-finite change at iteration 23" in err[0]


def test_run_slab_huge_span_is_one_error_line(tmp_path):
    # refused with the config: the ledger's exp((1 - epsilon0) * T) would
    # overflow after the whole run, which _psi's squares overflow on the way
    argv = ["--set", f"outdir={tmp_path}", "--set", "n=8", "--set", "T=1e300"]
    proc = _run_child("run-slab", "--config", os.path.join(REPO, "configs", "tg16-slab.cfg"), *argv)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), proc.stderr
    assert "T: the Gronwall bound exp((1 - epsilon0) * T) overflows at epsilon0 = 0.5" in err[0]


def test_run_slab_at_a_huge_viscosity_warns_nothing(tmp_path):
    # nu |k|^2 times the slab width passes 1.3e154, where _psi's x^2 would overflow
    argv = ["--set", f"outdir={tmp_path}", "--set", "n=8", "--set", "nu=1e160"]
    proc = _run_child("run-slab", "--config", os.path.join(REPO, "configs", "tg16-slab.cfg"), *argv)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_monitor_refuses_an_infinite_amplitude_in_one_line(tmp_path):
    # refused before the Hermitian check, which would form inf - inf
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    grid = Grid(8)
    for i in range(3):
        w = random_divfree_field(grid, seed=i + 1)
        if i == 1:
            w[0, 1, 1, 1] = np.inf
        persist_field(snapdir / snapshots.snapshot_name(i), w, 0.1 * i, grid)
    proc = _run_child("monitor", "--config", write_cfg(tmp_path), str(snapdir))
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), proc.stderr
    assert "snap_000001.vslb: non-finite coefficients (max |w| = inf)" in err[0]


def _has_mallopt():
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not _has_mallopt(), reason="glibc's mallopt only"
)
@pytest.mark.parametrize(
    "argv",
    [
        # 65 snapshots; glibc's own thresholds made 4.6k faults here
        ("run-slab", "configs/tg16-slab.cfg", "T=0.125", "slabs=4"),
        # 100 RK4 steps at 16^3; glibc's own thresholds made 18k faults here
        ("run-ref", "configs/tg32-ref.cfg", "n=16", "T=0.1"),
    ],
    ids=["run-slab", "run-ref"],
)
def test_commands_reuse_their_heap(tmp_path, argv):
    """The per-call arrays of the kernel and the codec come back from the heap.

    With the allocator thresholds fixed (``cli._pin_malloc_thresholds``) a
    run makes about 250 minor page faults, whatever its length.
    """
    command, config, *overrides = argv
    args = [command, "--config", os.path.join(REPO, config), "--set", f"outdir={tmp_path}"]
    for item in overrides:
        args += ["--set", item]
    code = (
        "import resource, sys\n"
        "import vslab.cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"assert vslab.cli.cli_dispatch({args!r}) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.splitlines()[-1])
    assert faults < 1000, faults


def test_monitor_refuses_a_row_that_is_not_finite_in_one_line(tmp_path):
    # amplitudes near 1e150 overflow the squares of the norms, with no warning
    snapdir = tmp_path / "snaps"
    snapdir.mkdir()
    grid = Grid(8)
    for i in range(5):
        w = random_divfree_field(grid, seed=i + 1)
        w *= 1e150 / np.max(np.abs(w))
        persist_field(snapdir / snapshots.snapshot_name(i), w, 0.01 * i, grid)
    proc = _run_child("monitor", "--config", write_cfg(tmp_path), str(snapdir))
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: monitor: "), proc.stderr
    assert "is not finite" in err[0]
    assert not (tmp_path / "out" / "monitors.csv").exists()


def test_a_command_leaves_openblas_on_one_thread(tmp_path):
    """``cli._pin_blas_threads`` runs numpy's OpenBLAS on the calling thread."""
    if cli._openblas() is None:
        pytest.skip("no OpenBLAS with a thread-count setter in this process")
    code = (
        "import vslab.cli\n"
        "lib, name = vslab.cli._openblas()\n"
        "getattr(lib, name)(2)\n"
        f"assert vslab.cli.cli_dispatch(['run-ref', '--config', {write_cfg(tmp_path)!r}]) == 0\n"
        "print(getattr(lib, name.replace('_set_', '_get_'))())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


def test_every_name_the_bench_tracer_wraps_resolves(monkeypatch):
    # ``--trace 1`` installs bench/tracer.py, which looks each target up with
    # getattr: a name deleted from the program fails every traced sample
    path = os.path.join(HERE, os.pardir, "bench", "tracer.py")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing is written under bench/
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    assert [(name, attr) for name, owner, attr, _ in targets if not hasattr(owner, attr)] == []
