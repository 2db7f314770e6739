"""Command-line surface tying the solvers, the slab scheme, and the monitors.

Subcommands: run-ref, run-slab, compare, study, monitor.  Every command takes
``--config PATH`` plus optional ``--set key=value`` overrides.  Exit codes:
0 success, 1 runtime failure, 2 usage error; failures print one line
starting with ``error:``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import deque

import numpy as np

from vslab import estimates, reports, slabs, snapshots
from vslab.config import ConfigError, load_config
from vslab.reference import BlowUpError, StepperConfig, run_reference
from vslab.spectral import Grid, initial_vorticity
from vslab.trajectory import Trajectory, scalar_record, series_from_records, series_from_samples


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="vslab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key",
        )

    common(sub.add_parser("run-ref", help="direct reference integration"))
    common(sub.add_parser("run-slab", help="time-slab averaged scheme"))
    p = sub.add_parser("compare", help="sup-in-time L2 distance of two snapshot dirs")
    common(p)
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    common(sub.add_parser("study", help="slab-vs-reference refinement study"))
    p = sub.add_parser("monitor", help="replay stored snapshots through the monitors")
    common(p)
    p.add_argument("snapdir")
    return parser


def _initial(grid, cfg):
    """The kept block a run starts from; a file is read as every snapshot directory is."""
    if cfg.initial != "file":
        return grid.require_solenoidal(initial_vorticity(grid, cfg.initial, seed=cfg.seed))
    try:
        (w,) = snapshots.read_snapshots(grid, [cfg.initial_path])
    except (OSError, snapshots.SnapshotError) as exc:
        raise ConfigError(f"initial_path: {exc}") from None
    return w


def _partition_for(cfg, trajectory):
    if cfg.policy == "uniform":
        return slabs.uniform_partition(cfg.T, cfg.slabs)
    series = series_from_samples(trajectory.grid, trajectory.times, trajectory.fields)
    return slabs.adaptive_partition(cfg.T, cfg.epsilon0, cfg.sobolev_c, series, cfg.dt_floor)


def _reads_reference(cfg):
    return cfg.provider == "reference" or cfg.policy == "adaptive"


def _reference_trajectory(cfg, grid):
    """The run stored in reference_dir, or None when no setting needs one."""
    if not _reads_reference(cfg):
        return None
    if not cfg.reference_dir:
        need = "provider = reference" if cfg.provider == "reference" else "policy = adaptive"
        raise ConfigError(f"reference_dir: required for {need}")
    traj = snapshots.load_trajectory(cfg.reference_dir, nu=cfg.nu)
    if traj.grid != grid:
        raise ConfigError(
            f"reference_dir: snapshot grid {traj.grid.n} does not match configured n={grid.n}"
        )
    return traj


def _snapshot_dir(cfg, reads_reference=False):
    """OUTDIR/snapshots, which the run's sink clears, checked against the run's inputs.

    An ``initial_path`` (with ``initial = file``) or a ``reference_dir`` the
    command reads that resolves inside it is refused before anything runs.
    """
    snapdir = os.path.join(cfg.outdir, "snapshots")
    inside = os.path.join(os.path.realpath(snapdir), "")
    inputs = [("initial_path", cfg.initial == "file"), ("reference_dir", reads_reference)]
    for key, read in inputs:
        path = getattr(cfg, key)
        if read and path and os.path.join(os.path.realpath(path), "").startswith(inside):
            raise ConfigError(
                f"{key}: {path!r} lies inside the output snapshot directory {snapdir!r}, "
                "which the run clears"
            )
    return snapdir


def cmd_run_ref(cfg):
    snapdir = _snapshot_dir(cfg)
    grid = Grid(cfg.n)
    w0 = _initial(grid, cfg)
    series = run_reference(
        grid,
        w0,
        cfg.T,
        StepperConfig(dt=cfg.dt, nu=cfg.nu, enstrophy_ceiling=cfg.enstrophy_ceiling),
        snapshots.snapshot_sink(snapdir, grid),
        scalar_every=cfg.scalar_every,
        field_every=cfg.field_every,
    )
    partition = slabs.uniform_partition(cfg.T, cfg.slabs)
    ledger = estimates.enstrophy_ledger(series, partition, cfg.epsilon0, cfg.sobolev_c)
    reports.emit_reports(cfg.outdir, ledger)
    print(
        f"run-ref: T={cfg.T} steps_dt={cfg.dt} sup_enstrophy={ledger.sup_enstrophy:.6g} "
        f"bound={ledger.global_bound:.6g} global_pass={int(ledger.global_ok)}"
    )
    return 0


def cmd_run_slab(cfg):
    snapdir = _snapshot_dir(cfg, reads_reference=_reads_reference(cfg))
    grid = Grid(cfg.n)
    w0 = _initial(grid, cfg)
    stored = _reference_trajectory(cfg, grid)
    partition = _partition_for(cfg, stored)
    result = slabs.run_slab_scheme(
        grid,
        w0,
        partition,
        snapshots.snapshot_sink(snapdir, grid),
        nu=cfg.nu,
        tol=cfg.picard_tol,
        max_iter=cfg.picard_max_iter,
        slab_samples=cfg.slab_samples,
        reference=stored if cfg.provider == "reference" else None,
    )
    ledger = estimates.enstrophy_ledger(
        result.series, partition, cfg.epsilon0, cfg.sobolev_c, records=result.records
    )
    extra = [("provider", cfg.provider), ("slabs", partition.n_slabs)]
    reports.emit_reports(cfg.outdir, ledger, extra_summary=extra)
    worst = max((r.max_ratio for r in result.records), default=0.0)
    print(
        f"run-slab: slabs={partition.n_slabs} provider={cfg.provider} "
        f"max_rho={worst:.6g} sup_enstrophy={ledger.sup_enstrophy:.6g} "
        f"global_pass={int(ledger.global_ok)}"
    )
    return 0


def cmd_compare(cfg, dir_a, dir_b):
    traj_a = snapshots.load_trajectory(dir_a, nu=cfg.nu)
    traj_b = snapshots.load_trajectory(dir_b, nu=cfg.nu)
    if traj_a.grid != traj_b.grid:
        raise ConfigError(
            f"compare: grid sizes differ ({traj_a.grid.n} vs {traj_b.grid.n})"
        )
    t_lo = max(traj_a.times[0], traj_b.times[0])
    t_hi = min(traj_a.times[-1], traj_b.times[-1])
    if t_hi < t_lo:
        raise ConfigError("compare: trajectories do not overlap in time")
    times = sorted(
        set(float(t) for t in traj_a.times if t_lo <= t <= t_hi)
        | set(float(t) for t in traj_b.times if t_lo <= t <= t_hi)
    )
    dist = estimates.sup_l2_distance(traj_a.grid, traj_a, traj_b, times)
    print(f"compare: sup_l2_distance={dist:.17g} over [{t_lo:.6g}, {t_hi:.6g}]")
    return 0


def cmd_study(cfg):
    grid = Grid(cfg.n)
    w0 = _initial(grid, cfg)
    stepper = StepperConfig(dt=cfg.dt, nu=cfg.nu, enstrophy_ceiling=cfg.enstrophy_ceiling)
    reference = Trajectory(grid, cfg.nu)
    run_reference(grid, w0, cfg.T, stepper, reference.append, cfg.scalar_every, cfg.field_every)
    closure = reference if cfg.provider == "reference" else None
    levels = cfg.parsed_levels()
    rows = []
    for n_slabs in levels:
        partition = slabs.uniform_partition(cfg.T, n_slabs)
        samples = Trajectory(grid, cfg.nu)
        result = slabs.run_slab_scheme(
            grid,
            w0,
            partition,
            samples.append,
            nu=cfg.nu,
            tol=cfg.picard_tol,
            max_iter=cfg.picard_max_iter,
            slab_samples=cfg.slab_samples,
            reference=closure,
        )
        err = estimates.sup_l2_distance(grid, samples, reference, reference.times)
        worst_rho = max(r.max_ratio for r in result.records)
        worst_iters = max(r.iterations for r in result.records)
        rows.append((n_slabs, cfg.T / n_slabs, err, worst_rho, worst_iters))
        subdir = os.path.join(cfg.outdir, f"N{n_slabs}")
        ledger = estimates.enstrophy_ledger(
            result.series, partition, cfg.epsilon0, cfg.sobolev_c, records=result.records
        )
        reports.emit_reports(subdir, ledger)
    _, widths, errors, _, _ = zip(*rows)
    fit = estimates.convergence_study(widths, errors)
    os.makedirs(cfg.outdir, exist_ok=True)
    reports.write_csv(
        os.path.join(cfg.outdir, "study.csv"),
        ("slabs", "dt_k", "sup_l2_error", "max_rho", "max_iters"),
        rows,
    )
    print(
        f"study: levels={levels} rate={fit.rate:.4f} monotone={int(fit.monotone)} "
        f"errors={[format(e, '.3e') for e in fit.errors]}"
    )
    return 0


def cmd_monitor(cfg, snapdir):
    """Write monitors.csv and print its rows; a row that is not finite is refused.

    Snapshots of huge amplitude overflow the norms, so the rows are
    computed with numpy's floating-point warnings off and checked instead.
    """
    with np.errstate(all="ignore"):
        rows = _monitor_rows(cfg, snapdir)
    for name, value in rows:
        if not math.isfinite(value):
            raise ValueError(f"monitor: {name} is not finite ({value}) on these snapshots")
    os.makedirs(cfg.outdir, exist_ok=True)
    reports.write_csv(os.path.join(cfg.outdir, "monitors.csv"), ("quantity", "value"), rows)
    for name, value in rows:
        print(f"monitor: {name}={value}")
    return 0


def _monitor_rows(cfg, snapdir):
    """The (quantity, value) rows of two passes over the snapshots in time order.

    The first pass loads and checks each snapshot once, as its kept block
    (a file holds nothing outside the 2/3 cut; see ``vslab.spectral``), and
    forms its velocity, norms and checks on the block.  The centered
    differences need a window of the last five velocities: dt u at t_{m-1}
    from u_m - u_{m-2}, and at t_{m-2} on the every-other-sample grid of the
    finite-difference band from u_m - u_{m-4} when m is even.  The second
    pass forms the H^gamma lag sums (``estimates.lag_sums``) from the files
    of every snapshot but the last, re-read a chunk of planes at a time
    (``snapshots.read_planes``); a file that changed after its first read
    is refused.  Neither pass holds more than a few snapshots, whatever
    their count.
    """
    n, times, paths = snapshots.scan_snapshots(snapdir)
    grid = Grid(n)
    fingerprints = []
    rows = _streamed_rows(cfg, grid, times, snapshots.read_snapshots(grid, paths, fingerprints))
    held = len(times) - 1

    def read_rows(lo, hi, out):
        snapshots.read_planes(grid, paths[:held], fingerprints[:held], lo, out)

    lags = estimates.lag_sums(grid, held, read_rows)
    hg = estimates.hgamma_from_lag_sums(times, lags, cfg.gamma)
    rows.append((f"hgamma_{cfg.gamma}", hg.value))
    return rows


def _streamed_rows(cfg, grid, times, blocks):
    """The rows of every monitor but H^gamma, from one pass over the kept ``blocks``."""
    # a lone snapshot is still loaded and checked before the energy identity rejects it
    h = estimates.uniform_step(times) if len(times) > 1 else None
    h2 = times[2] - times[0] if len(times) > 2 else None  # spacing of times[::2]
    records, gaps, ratios = [], [], []
    fine_l2, fine_h1, coarse_l2, coarse_h1 = [], [], [], []
    window = deque(maxlen=5)
    for m, w in enumerate(blocks):
        u = grid.biot_savart(w)
        window.append(u)
        records.append(scalar_record(grid, w, u))
        # the record's dissipation is h1sq(u)
        gaps.append(estimates.grad_vorticity_check(grid, u, h1sq=records[-1][2]))
        if m >= 2:
            dtu = u - window[-3]
            dtu /= 2.0 * h
            l2, h1 = grid.l2sq_h1sq(dtu)
            fine_l2.append(l2)
            fine_h1.append(h1)
            try:
                ratios.append(estimates.ladyzhenskaya_ratio(grid, dtu, (l2, h1)))
            except ValueError:
                pass
        if m >= 4 and m % 2 == 0:
            dtu = u - window[-5]
            dtu /= 2.0 * h2
            l2, h1 = grid.l2sq_h1sq(dtu)
            coarse_l2.append(l2)
            coarse_h1.append(h1)
    s = series_from_records(times, records)
    residual = estimates.energy_identity_residual(s.times, s.energy, s.dissipation, nu=cfg.nu)
    # np.max, unlike max, keeps a NaN whatever its place
    rows = [("energy_identity_residual", residual), ("grad_vorticity_max_gap", float(np.max(gaps)))]
    if len(times) >= 3:
        monitor = estimates.dt_u_margins(times, fine_l2, fine_h1, s.enstrophy)
        band = 0.0  # the stride-2 monitor needs three samples of times[::2]
        if len(times) >= 5:
            half = estimates.dt_u_margins(times[::2], coarse_l2, coarse_h1, s.enstrophy[::2])
            # on uniform times the interior of times[::2] is every other interior sample
            common = monitor.margins[1::2][: len(half.margins)]
            band = float(np.max(np.abs(common - half.margins)))
        rows += [
            ("dt_u_min_margin", monitor.min_margin),
            ("dt_u_fd_band", band),
            ("dt_u_pass", int(monitor.min_margin >= -band)),
        ]
        if ratios:
            worst = float(np.max(ratios))
            rows += [
                ("ladyzhenskaya_max_ratio", worst),
                ("ladyzhenskaya_constant", cfg.ladyzhenskaya_c),
                ("ladyzhenskaya_pass", int(worst <= cfg.ladyzhenskaya_c)),
            ]
    return rows


def _pin_malloc_thresholds(n):
    """Fix glibc's mmap and trim thresholds for a run on an n^3 grid; elsewhere do nothing.

    Left alone, glibc raises its mmap threshold to the size of whichever
    large array was freed last and trims the heap above twice that, so the
    arrays each call of the kernel and of the snapshot codec makes are
    mapped or faulted in afresh.  The threshold is the kernel's (6, n, n,
    n/2+1) transform stack rounded up to a power of two, capped at glibc's
    largest on 64-bit systems, 32 MiB; the heap is trimmed only above 32
    times that.
    """
    import ctypes

    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # from glibc's malloc.h
    try:
        mallopt = ctypes.CDLL(None).mallopt
        stack = 6 * n * n * (n // 2 + 1) * 16
        threshold = min(1 << (stack - 1).bit_length(), 32 << 20)
        mallopt(M_MMAP_THRESHOLD, threshold)
        mallopt(M_TRIM_THRESHOLD, 32 * threshold)
    except (OSError, AttributeError, TypeError):
        pass


# OpenBLAS's thread-count setter under its plain, 64-bit-interface and
# scipy-openblas names (numpy's wheels ship the last)
_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)


def _openblas():
    """(library, setter name) of the OpenBLAS mapped into this process, or None.

    The library is found by its file name in ``/proc/self/maps``: the one
    numpy loaded, since a command imports no other BLAS user.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = [line.split(None, 5)[-1].strip() for line in fh if "openblas" in line]
    except OSError:
        return None
    for path in dict.fromkeys(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SETTERS:
            if hasattr(lib, name):
                return lib, name
    return None


def _pin_blas_threads():
    """Run OpenBLAS on the calling thread; where it or its setter is not found, do nothing.

    Left at its default, OpenBLAS splits the H^gamma Gram products over one
    thread per core, and the idle workers then spin: after the 32 block
    products of 100 rows at 32^3 (16 chunks of at most 1,848 numbers a
    row, each in blocks of 64 and 36 rows) they burn 0.13 s of CPU on a
    two-core host in the next half second, against 0.0001 s on one thread.
    The split can also move entries of a product in their last bit, so one
    thread makes them the same on every host.
    """
    import ctypes

    found = _openblas()
    if found is not None:
        lib, name = found
        setter = getattr(lib, name)
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def cli_dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
    except UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, overrides=args.overrides)
        _pin_malloc_thresholds(cfg.n)
        _pin_blas_threads()
        if args.command == "run-ref":
            return cmd_run_ref(cfg)
        if args.command == "run-slab":
            return cmd_run_slab(cfg)
        if args.command == "compare":
            return cmd_compare(cfg, args.dir_a, args.dir_b)
        if args.command == "study":
            return cmd_study(cfg)
        if args.command == "monitor":
            return cmd_monitor(cfg, args.snapdir)
        raise UsageError(f"unknown subcommand {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, OverflowError, slabs.PicardError, BlowUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
