"""Slab scheme: partitions, closed-form solves, averaging, Picard iteration."""

import warnings

import numpy as np
import pytest
from oracles import (
    collect_reference,
    collect_slabs,
    coupling_block,
    full_spectrum,
    half_tables,
    kept,
    spread,
)
from scipy.integrate import simpson

from vslab.reference import StepperConfig, rk4_step
from vslab.slabs import (
    PartitionError,
    PicardError,
    SlabAverages,
    SlabSolution,
    TimePartition,
    adaptive_partition,
    compute_kstar,
    contraction_diagnostic,
    linear_slab_solve,
    picard_solve_slab,
    run_slab_scheme,
    slab_forcing,
    uniform_partition,
)
from vslab.slabs import _coupling_block, _phi, _psi
from vslab.spectral import (
    BOX_VOLUME,
    Grid,
    abc_vorticity,
    random_divfree_field,
    taylor_green_vorticity,
)
from vslab.trajectory import Trajectory


def zero_trajectory(grid, T):
    zeros = kept(grid, np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex))
    times = np.array([0.0, T])
    fields = [zeros, zeros.copy()]
    return Trajectory(grid=grid, nu=1.0, times=times, fields=fields)


# -- partitions -----------------------------------------------------------------


def test_uniform_partition_quarters():
    part = uniform_partition(1.0, 4)
    assert np.allclose(part.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert part.n_slabs == 4


def test_single_slab_partition():
    part = uniform_partition(0.7, 1)
    assert part.n_slabs == 1
    assert part.slab(0) == (0.0, 0.7)


@pytest.mark.parametrize(
    "points", [[0.0], [0.1, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.2]]
)
def test_partition_rejects_bad_breakpoints(points):
    with pytest.raises(PartitionError):
        TimePartition(np.array(points))


# -- kstar ----------------------------------------------------------------------


def test_kstar_zero_velocity():
    times = np.linspace(0.0, 1.0, 11)
    assert compute_kstar(times, np.zeros(11), np.zeros(11), 0.0, 1.0) == 0.0


def test_kstar_constant_single_mode():
    # u = (0,0,sin x1) frozen in time: |u|^2 = |grad u|^2 = (2 pi)^3 / 2
    value = BOX_VOLUME / 2.0
    times = np.linspace(0.0, 0.1, 17)
    got = compute_kstar(times, np.full(17, value), np.full(17, value), 0.0, 0.1)
    assert got == pytest.approx(0.1 * value + 0.1 * value, rel=1e-12)


def test_kstar_against_simpson_oracle(grid8):
    # dense samples so the trapezoid/Simpson gap sits far below the tolerance
    w0 = taylor_green_vorticity(grid8)
    traj = collect_reference(grid8, w0, 0.125, StepperConfig(dt=2.5e-4), field_every=1000)
    s = traj.series
    got = compute_kstar(s.times, s.energy, s.dissipation, 0.0, 0.125)
    want = 0.125 * np.max(s.energy) + simpson(s.dissipation, x=s.times)
    assert abs(got - want) / want < 1e-6


def test_kstar_empty_samples():
    with pytest.raises(ValueError):
        compute_kstar(np.array([]), np.array([]), np.array([]), 0.0, 1.0)


def test_adaptive_partition_on_scaled_taylor_green(grid8):
    # amplitude chosen so the slab rule is satisfiable at the sampling cadence
    w0 = 0.05 * taylor_green_vorticity(grid8)
    traj = collect_reference(grid8, w0, 0.5, StepperConfig(dt=1e-3), field_every=1000)
    s = traj.series
    eps0, C = 0.5, 1.0
    part = adaptive_partition(0.5, eps0, C, s, dt_floor=1e-4)
    assert part.T == pytest.approx(0.5)
    for k, t_lo, t_hi in part:
        # independent recomputation: sup + explicit summed trapezoid
        sel = (s.times >= t_lo - 1e-12) & (s.times <= t_hi + 1e-12)
        ts, es, ds = s.times[sel], s.energy[sel], s.dissipation[sel]
        integral = sum(
            0.5 * (ds[i] + ds[i + 1]) * (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)
        )
        kstar = (t_hi - t_lo) * max(es) + integral
        assert 4.0 * C * kstar <= (1.0 - eps0) * (1.0 + 1e-9)


def test_adaptive_partition_reports_unsatisfiable_rule(grid8):
    # full-amplitude Taylor-Green: the rule would need slabs below the sampling
    w0 = taylor_green_vorticity(grid8)
    traj = collect_reference(grid8, w0, 0.05, StepperConfig(dt=1e-3), field_every=1000)
    with pytest.raises(PartitionError):
        adaptive_partition(0.05, 0.5, 1.0, traj.series, dt_floor=1e-4)


# -- linear slab solve ------------------------------------------------------------


def _zero_averages(grid):
    zeros = kept(grid, np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex))
    return SlabAverages(omega_bar=zeros, u_bar=zeros.copy())


def test_slab_solve_pure_diffusion(grid8):
    w0 = spread(grid8, random_divfree_field(grid8, seed=71))
    sol = linear_slab_solve(grid8, kept(grid8, w0), _zero_averages(grid8), 0.0, 0.05, nu=1.0)
    assert np.all(sol.forcing == 0.0)
    want = np.exp(-half_tables(8).ksq * 0.03) * w0
    assert np.max(np.abs(spread(grid8, sol.at(0.03)) - want)) < 1e-15


def test_slab_solve_duhamel_from_rest(grid8):
    w_bar = random_divfree_field(grid8, seed=73)
    u_bar = grid8.biot_savart(w_bar)
    averages = SlabAverages(w_bar, u_bar)
    zeros = np.zeros_like(w_bar)
    sol = linear_slab_solve(grid8, zeros, averages, 0.0, 0.05, nu=1.0)
    a = half_tables(8).ksq.copy()
    a[0, 0, 0] = 1.0  # forcing is pinned to zero at k=0
    want = spread(grid8, sol.forcing) * (1.0 - np.exp(-a * 0.05)) / a
    assert np.max(np.abs(spread(grid8, sol.endpoint()) - want)) < 1e-15


def test_slab_solve_against_fine_stepper_oracle(grid8):
    """Closed form vs a dt=1e-5 integrating-factor stepper on the same ODEs."""
    w0 = random_divfree_field(grid8, seed=79)
    w_bar = random_divfree_field(grid8, seed=83)
    averages = SlabAverages(w_bar, grid8.biot_savart(w_bar))
    sol = linear_slab_solve(grid8, w0, averages, 0.0, 0.05, nu=1.0)
    forcing = sol.forcing
    cfg = StepperConfig(dt=1e-5, nu=1.0)
    w = w0.copy()
    for _ in range(5000):
        w = rk4_step(grid8, w, cfg, rhs=lambda grid, state: forcing)
    rel = np.sqrt(grid8.l2sq(w - sol.endpoint()) / grid8.l2sq(sol.endpoint()))
    assert rel < 1e-10


def test_slab_at_matches_decay_plus_duhamel_formula(grid8):
    w0 = random_divfree_field(grid8, seed=61)
    forcing = random_divfree_field(grid8, seed=67)
    forcing[:, 0, 0, 0] = [0.5, -0.25, 0.125]  # exercise the k=0 limit
    t_lo, t_hi, nu = 0.3, 0.35, 0.7
    sol = SlabSolution(grid8, 0, t_lo, t_hi, nu, w0, forcing)
    a = nu * grid8.block_ksq
    for t in (t_lo, 0.5 * (t_lo + t_hi), t_hi):
        tau = t - t_lo
        want = np.exp(-a * tau) * w0 + tau * _phi(a * tau) * forcing
        got = sol.at(t)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got[:, 0, 0, 0], w0[:, 0, 0, 0] + tau * forcing[:, 0, 0, 0])
    assert np.array_equal(sol.at(t_lo), w0)


@pytest.mark.parametrize("x", [1e150, 1e154, 1e200, 1e300])
def test_psi_is_one_over_x_at_huge_x(x):
    # x^2 overflows past about 1.3e154; (x - 1 + exp(-x))/x^2 rounds to 1/x long before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _psi(np.array([x]))
    assert got[0] == pytest.approx(1.0 / x, rel=1e-15)


def test_slab_average_constant_trajectory(grid8):
    # forcing balancing diffusion exactly freezes the state
    w0 = spread(grid8, random_divfree_field(grid8, seed=89))
    sol = linear_slab_solve(grid8, kept(grid8, w0), _zero_averages(grid8), 0.0, 0.1, nu=1.0)
    sol.forcing = kept(grid8, half_tables(8).ksq * w0)
    assert np.max(np.abs(spread(grid8, sol.at(0.07)) - w0)) < 1e-14
    assert np.max(np.abs(spread(grid8, sol.average()) - w0)) < 1e-14


def test_slab_average_pure_decay(grid8):
    w0 = spread(grid8, random_divfree_field(grid8, seed=97))
    width = 0.2
    sol = linear_slab_solve(grid8, kept(grid8, w0), _zero_averages(grid8), 0.0, width, nu=1.0)
    a = half_tables(8).ksq.copy()
    a[0, 0, 0] = 1.0
    want = w0 * (1.0 - np.exp(-a * width)) / (a * width)
    want[:, 0, 0, 0] = w0[:, 0, 0, 0]
    assert np.max(np.abs(spread(grid8, sol.average()) - want)) < 1e-14


def test_slab_average_against_simpson(grid8):
    w0 = random_divfree_field(grid8, seed=101)
    w_bar = random_divfree_field(grid8, seed=103)
    averages = SlabAverages(w_bar, grid8.biot_savart(w_bar))
    sol = linear_slab_solve(grid8, w0, averages, 0.0, 0.08, nu=1.0)
    ts = np.linspace(0.0, 0.08, 257)
    states = np.stack([sol.at(t) for t in ts])
    quad = simpson(states, x=ts, axis=0) / 0.08
    assert np.max(np.abs(quad - sol.average())) < 1e-10


# -- Picard ---------------------------------------------------------------------------


def test_picard_zero_initial_one_iteration(grid8):
    zeros = kept(grid8, np.zeros((3, 8, 8, 5), dtype=complex))
    sol = picard_solve_slab(grid8, zeros, 0.0, 0.1)
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterations == 1
    assert np.all(sol.endpoint() == 0.0)


def test_picard_zero_reference_two_iterations(grid8):
    w0 = spread(grid8, random_divfree_field(grid8, seed=107))
    zero_ref = zero_trajectory(grid8, 1.0)
    sol = picard_solve_slab(grid8, kept(grid8, w0), 0.0, 0.9, reference=zero_ref)
    assert sol.diagnostics.converged
    assert sol.diagnostics.iterations <= 2
    want = np.exp(-half_tables(8).ksq * 0.9) * w0
    assert np.max(np.abs(spread(grid8, sol.endpoint()) - want)) < 1e-14


def test_picard_taylor_green_contracts(grid16, tg16_run):
    w0 = taylor_green_vorticity(grid16)
    width = 1.0 / 32.0
    sol = picard_solve_slab(grid16, w0, 0.0, width, tol=1e-10, max_iter=20)
    diag = sol.diagnostics
    assert diag.converged and diag.iterations <= 20
    assert all(r < 1.0 for r in diag.ratios)
    gap = np.sqrt(grid16.l2sq(sol.endpoint() - tg16_run.field_at(width)))
    assert gap < width  # within O(dt) of the reference


def test_picard_failure_carries_ratio_history(grid8):
    w0 = 50.0 * taylor_green_vorticity(grid8)
    with pytest.raises(PicardError) as err:
        picard_solve_slab(grid8, w0, 0.0, 0.5, max_iter=8)
    assert err.value.diagnostics.iterations == 8
    assert len(err.value.diagnostics.ratios) > 0


def test_picard_stops_at_the_first_non_finite_change(grid16):
    # at nu = 0.01 one slab over (0, 1.5) is far too wide: the iterates grow
    # until the change overflows, 22 finite changes in
    w0 = taylor_green_vorticity(grid16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PicardError, match="non-finite change") as err:
            picard_solve_slab(grid16, w0, 0.0, 1.5, nu=0.01)
    diag = err.value.diagnostics
    assert diag.iterations == 23 and len(diag.changes) == 23
    assert np.all(np.isfinite(diag.changes[:-1])) and not np.isfinite(diag.changes[-1])
    assert len(diag.ratios) == 22 and not np.isfinite(diag.ratios[-1])


def test_fixed_point_residual(grid8):
    w0 = taylor_green_vorticity(grid8)
    tol = 1e-10
    sol = picard_solve_slab(grid8, w0, 0.0, 0.0625, tol=tol)
    rerun = linear_slab_solve(
        grid8, w0, sol.averages, sol.t_lo, sol.t_hi, sol.nu
    )
    change = np.sqrt(grid8.l2sq(rerun.average() - sol.averages.omega_bar))
    assert change <= tol


# -- whole runs --------------------------------------------------------------------------


def test_run_zero_initial(grid8):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)  # the kept block of 8^3
    result, traj, _ = collect_slabs(grid8, zeros, uniform_partition(0.5, 4))
    assert all(np.all(f == 0.0) for f in traj.fields)
    assert all(r.iterations == 1 for r in result.records)
    assert all(r.kstar == 0.0 for r in result.records)


def test_run_beltrami_cancellation(grid16):
    w0 = abc_vorticity(grid16)
    _, traj, solutions = collect_slabs(grid16, w0, uniform_partition(0.5, 4))
    want = np.exp(-0.5) * w0
    rel = np.sqrt(grid16.l2sq(traj.fields[-1] - want) / grid16.l2sq(w0))
    assert rel < 1e-10
    # transport and stretching cancel; only transform roundoff survives
    assert all(np.sqrt(grid16.l2sq(sol.forcing)) < 1e-12 for sol in solutions)


def test_run_chains_endpoints_exactly(grid8):
    w0 = taylor_green_vorticity(grid8)
    _, _, solutions = collect_slabs(grid8, w0, uniform_partition(0.25, 4))
    assert len(solutions) == 4
    for prev, nxt in zip(solutions[:-1], solutions[1:]):
        assert np.array_equal(prev.endpoint(), nxt.omega_init)


def test_run_states_are_kept_blocks(grid8):
    w0 = taylor_green_vorticity(grid8)
    ref = collect_reference(grid8, w0, 0.02, StepperConfig(dt=0.01), field_every=1)
    _, slab, _ = collect_slabs(grid8, w0, uniform_partition(0.02, 2), slab_samples=2)
    for f in ref.fields + slab.fields:
        assert f.shape == (3, 5, 5, 3)  # |k_i| <= 2 on each axis, k_3 = 0 .. 2


def test_run_preserves_field_invariants(grid8):
    w0 = taylor_green_vorticity(grid8)
    _, traj, _ = collect_slabs(grid8, w0, uniform_partition(0.25, 4))
    for f in traj.fields:
        assert grid8.divergence_rel(f) < 1e-10
        assert np.max(np.abs(f[:, 0, 0, 0])) == 0.0


def test_picard_monotone_under_slab_halving(grid8):
    w0 = taylor_green_vorticity(grid8)
    worst = {}
    for n_slabs in (4, 8):
        result, _, _ = collect_slabs(grid8, w0, uniform_partition(0.25, n_slabs))
        worst[n_slabs] = max(r.max_ratio for r in result.records)
    assert worst[8] <= worst[4] + 1e-12


def test_degenerate_coupling_converges_fast_regardless_of_width(grid8):
    w0 = random_divfree_field(grid8, seed=109)
    result, _, _ = collect_slabs(
        grid8, w0, uniform_partition(2.0, 1), reference=zero_trajectory(grid8, 2.0)
    )
    assert all(r.iterations <= 2 for r in result.records)


@pytest.mark.parametrize("closure", ["self-consistent", "reference"])
def test_run_hands_the_sink_each_sample_with_its_series_and_records(grid8, closure):
    w0 = taylor_green_vorticity(grid8)
    partition = uniform_partition(0.1, 3)
    ref = None
    if closure == "reference":
        ref = collect_reference(grid8, w0, 0.1, StepperConfig(dt=2.5e-3), field_every=4)
    seen = []
    result = run_slab_scheme(
        grid8, w0, partition, lambda t, w: seen.append((t, w)), slab_samples=4, reference=ref
    )
    times = [t for t, _ in seen]
    assert len(times) == 13 and times[0] == 0.0 and np.all(np.diff(times) > 0)
    assert all(t in times for t in partition.breakpoints)
    # one norm row per sample, of the state the sink kept uncopied
    assert list(result.series.times) == times
    assert [grid8.l2sq(w) for _, w in seen] == list(result.series.enstrophy)
    assert [(r.index, r.t_lo, r.t_hi) for r in result.records] == list(partition)
    assert all(1 <= r.iterations and 0.0 <= r.max_ratio < 1.0 for r in result.records)
    # kstar comes from the velocity the closure uses: the samples', or the reference's
    if ref is None:
        s = result.series
        kstar = compute_kstar(s.times[:5], s.energy[:5], s.dissipation[:5], *partition.slab(0))
    else:
        ts = np.linspace(*partition.slab(0), 5)
        loads = [(grid8.l2sq(u), grid8.h1sq(u)) for u in map(ref.velocity_at, ts)]
        kstar = compute_kstar(ts, *zip(*loads), *partition.slab(0))
    assert result.records[0].kstar == kstar


def test_run_sink_has_the_samples_before_a_picard_failure(grid8):
    w0 = taylor_green_vorticity(grid8)
    seen = []
    with pytest.raises(PicardError) as err:
        run_slab_scheme(
            grid8, w0, uniform_partition(0.25, 2), lambda t, w: seen.append(t), max_iter=1
        )
    assert err.value.slab_index == 0 and seen == [0.0]


# -- contraction diagnostic -----------------------------------------------------------------


def test_contraction_diagnostic_degenerate_case(grid8):
    averages = _zero_averages(grid8)
    delta_star, delta = contraction_diagnostic(grid8, averages, nu=1.0)
    assert delta_star == 1.0  # identical row maxima when the coupling vanishes
    assert delta == pytest.approx(1.0 / 12.0)  # largest retained nu |k|^2 is 12


def test_contraction_diagnostic_bounds_measured_ratio(grid8):
    w0 = taylor_green_vorticity(grid8)
    ref = collect_reference(grid8, w0, 0.25, StepperConfig(dt=1e-3), field_every=25)
    _, _, solutions = collect_slabs(grid8, w0, uniform_partition(0.25, 8), reference=ref)
    for sol in solutions:
        delta_star, _ = contraction_diagnostic(grid8, sol.averages, nu=1.0)
        assert 0.0 < delta_star < 1.0
        assert sol.diagnostics.max_ratio <= delta_star + 0.05


@pytest.mark.parametrize("n_slabs", [12, 6])
def test_contraction_factor_bounds_the_ratio_on_slabs_narrower_than_delta(grid8, n_slabs):
    # at nu = 0.01 delta* is about 0.505, far from 1, so the bound is held with no slack
    w0 = taylor_green_vorticity(grid8)
    _, _, solutions = collect_slabs(grid8, w0, uniform_partition(1.5, n_slabs), nu=0.01)
    for sol in solutions:
        delta_star, delta = contraction_diagnostic(grid8, sol.averages, nu=0.01)
        assert sol.t_hi - sol.t_lo < delta  # the paper's slab-width hypothesis
        assert sol.diagnostics.max_ratio <= delta_star


def test_contraction_factor_is_exceeded_on_a_slab_wider_than_delta(grid8):
    # the counter-example outside the hypothesis: one slab of width 1.5 at nu = 0.01
    sol = picard_solve_slab(grid8, taylor_green_vorticity(grid8), 0.0, 1.5, nu=0.01)
    delta_star, delta = contraction_diagnostic(grid8, sol.averages, nu=0.01)
    want = (0.5047250508370635, 0.46808166438611304)
    assert (delta_star, delta) == pytest.approx(want, rel=1e-10)
    assert sol.diagnostics.max_ratio == pytest.approx(0.5308279498342282, rel=1e-10)
    assert 1.5 > 3.0 * delta and sol.diagnostics.max_ratio > delta_star


@pytest.mark.parametrize("which", ["taylor-green", "random-5"])
def test_coupling_block_is_the_slab_forcing_kernel(grid8, which):
    w = taylor_green_vorticity(grid8) if which == "taylor-green" else random_divfree_field(grid8, 5)
    u_bar = grid8.biot_savart(w)
    pick, pol, block = _coupling_block(grid8, u_bar)

    def components(f):  # e_r(q).f(q) of a kept block at the retained modes, row r*m + q
        full = full_spectrum(spread(grid8, f))
        return np.einsum("qrc,cq->rq", pol, full[(slice(None),) + pick]).ravel()

    for seed in (1, 2, 3):
        v = random_divfree_field(grid8, seed)
        want = components(slab_forcing(grid8, SlabAverages(v, u_bar)))
        got = block @ components(v)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_coupling_block_is_the_whole_cube_construction_bit_for_bit(n):
    # modes listed from the block's rows and ubar placed on the cube from the
    # block give the bits of the construction from the cube's cut and spectrum
    grid = Grid(n)
    for seed in (0, 1, 7):
        w = random_divfree_field(grid, seed)
        for u_bar in (w, grid.biot_savart(w)):
            (pick, pol, block), (want_pick, want_pol, want_block) = (
                build(grid, u_bar) for build in (_coupling_block, coupling_block)
            )
            assert len(pick) == 3
            for got, want in zip((*pick, pol, block), (*want_pick, want_pol, want_block)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_contraction_diagnostic_pinned_pairs(grid8):
    w = random_divfree_field(grid8, 5)
    frozen = contraction_diagnostic(grid8, SlabAverages(w, grid8.biot_savart(w)), nu=1.0)
    assert frozen == pytest.approx((0.9788975345450147, 0.08153688505774054), rel=1e-13)
    sol = picard_solve_slab(grid8, taylor_green_vorticity(grid8), 0.0, 1.0 / 32.0)
    converged = contraction_diagnostic(grid8, sol.averages, nu=1.0)
    assert converged == pytest.approx((0.9997102324635988, 0.08330917903950304), rel=1e-13)


def test_contraction_diagnostic_rejects_large_grids(grid16):
    averages = SlabAverages(
        np.zeros((3, 16, 16, 9), dtype=complex), np.zeros((3, 16, 16, 9), dtype=complex)
    )
    with pytest.raises(ValueError):
        contraction_diagnostic(grid16, averages, nu=1.0)
