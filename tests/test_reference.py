"""Direct solver: RHS correctness, integrating-factor exactness, order, invariants."""

import numpy as np
import pytest
import sympy as sp
from oracles import (
    collect_reference,
    cut_block,
    full_spectrum,
    gradient,
    hermitian_defect,
    kept,
    physical_grid,
    run_reference_velocity,
    spread,
    velocity_rhs,
)

from vslab import _fft
from vslab.estimates import hgamma_diagnostic
from vslab.reference import (
    BlowUpError,
    StepperConfig,
    nonlinear_term,
    rk4_step,
    run_reference,
    vorticity_rhs,
)
from vslab.slabs import (
    SlabAverages,
    contraction_diagnostic,
    run_slab_scheme,
    slab_forcing,
    uniform_partition,
)
from vslab.spectral import (
    DivergenceError,
    FieldShapeError,
    Grid,
    MeanModeError,
    abc_vorticity,
    random_divfree_field,
    taylor_green_velocity,
    taylor_green_vorticity,
)


def test_rhs_zero_field(grid16):
    w = kept(grid16, np.zeros((3, 16, 16, 9), dtype=complex))
    assert np.all(vorticity_rhs(grid16, w) == 0.0)


def test_rhs_vanishes_on_beltrami(grid16):
    w = abc_vorticity(grid16)
    rhs = vorticity_rhs(grid16, w)
    assert np.sqrt(grid16.l2sq(rhs)) < 1e-13


def test_rhs_taylor_green_symbolic_oracle(grid16):
    x1, x2, x3 = sp.symbols("x1 x2 x3")
    u = (
        sp.sin(x1) * sp.cos(x2) * sp.cos(x3),
        -sp.cos(x1) * sp.sin(x2) * sp.cos(x3),
        sp.Integer(0),
    )
    w = (
        sp.diff(u[2], x2) - sp.diff(u[1], x3),
        sp.diff(u[0], x3) - sp.diff(u[2], x1),
        sp.diff(u[1], x1) - sp.diff(u[0], x2),
    )
    xs = (x1, x2, x3)
    rhs_sym = [
        sum(w[j] * sp.diff(u[i], xs[j]) - u[j] * sp.diff(w[i], xs[j]) for j in range(3))
        for i in range(3)
    ]
    fns = [sp.lambdify(xs, sp.expand(e), "numpy") for e in rhs_sym]
    x = physical_grid(grid16)
    want = np.stack([np.broadcast_to(f(*x), x[0].shape) for f in fns])
    rhs = vorticity_rhs(grid16, taylor_green_vorticity(grid16))
    got = grid16.to_physical(spread(grid16, rhs))
    assert np.max(np.abs(got - want)) < 1e-10


def test_rhs_postconditions():
    # the kernel does not project: the 2/3 cut before the curl must keep it solenoidal
    for n in (8, 16, 24, 32):
        grid = Grid(n)
        for w in (random_divfree_field(grid, seed=101), taylor_green_vorticity(grid)):
            rhs = vorticity_rhs(grid, w)
            assert grid.divergence_rel(rhs) < 1e-14
            assert np.max(np.abs(rhs[:, 0, 0, 0])) == 0.0  # the block starts at k = 0
            assert hermitian_defect(full_spectrum(spread(grid, rhs))) < 1e-13


@pytest.mark.parametrize("seed, n", [(1, 8), (1, 16), (5, 8), (5, 16), (5, 24)])
def test_rhs_matches_curl_of_convective_velocity_rhs(n, seed):
    """Rotational-form vorticity RHS vs curl of the convective velocity RHS.

    At n = 24 the cut n/3 is a wavenumber: the two forms agree only if the
    2/3 rule drops |k_i| = n/3, whose products alias onto kept modes.
    """
    grid = Grid(n)
    u = random_divfree_field(grid, seed=seed)
    want = grid.curl(velocity_rhs(grid, u))
    got = vorticity_rhs(grid, grid.curl(u))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_slab_forcing_is_the_rhs_kernel(grid8):
    w = random_divfree_field(grid8, seed=11)
    forcing = slab_forcing(grid8, SlabAverages(w, grid8.biot_savart(w)))
    assert np.array_equal(forcing, vorticity_rhs(grid8, w))


def test_kernel_output_is_hermitian(grid16):
    w = random_divfree_field(grid16, seed=13)
    out = full_spectrum(spread(grid16, nonlinear_term(grid16, grid16.biot_savart(w), w)))
    assert hermitian_defect(out) <= 1e-15 * np.max(np.abs(out))


@pytest.mark.parametrize(
    "solver",
    [
        vorticity_rhs,
        lambda grid, w: rk4_step(grid, w, StepperConfig(dt=0.01)),
        lambda grid, w: slab_forcing(grid, SlabAverages(w, w)),
        lambda grid, w: contraction_diagnostic(grid, SlabAverages(w, w), 1.0),
        lambda grid, w: grid.curl(w),
        lambda grid, w: grid.divergence(w),
        lambda grid, w: grid.biot_savart(w),
        lambda grid, w: grid.divergence_rel(w),
        lambda grid, w: grid.l2sq(w),
        lambda grid, w: grid.h1sq(w),
        lambda grid, w: grid.l2sq_h1sq(w),
        lambda grid, w: grid.l4(w),
        lambda grid, w: hgamma_diagnostic(np.linspace(0.0, 1.0, 2), [w, w], 0.2, grid),
        lambda grid, w: grid.require_solenoidal(w),
    ],
    ids=[
        "vorticity_rhs",
        "rk4_step",
        "slab_forcing",
        "contraction_diagnostic",
        "curl",
        "divergence",
        "biot_savart",
        "divergence_rel",
        "l2sq",
        "h1sq",
        "l2sq_h1sq",
        "l4",
        "hgamma_diagnostic",
        "require_solenoidal",
    ],
)
def test_solvers_refuse_a_half_spectrum(grid8, solver):
    # kept blocks are the one layout of the solver states, of the operators
    # and norms (see ``vslab.spectral``) and of a field entering a run
    with pytest.raises(FieldShapeError):
        solver(grid8, spread(grid8, random_divfree_field(grid8, seed=19)))


def test_rhs_transform_count(grid8, monkeypatch):
    """One RHS transforms, pass by pass, only the lines the 2/3 cut leaves nonzero.

    At 8^3 the cut keeps k_i = -2 .. 2 on the axes -3 and -2 (5 of 8 rows)
    and k_3 = 0 .. 2 (3 of the 5 stored planes).  The six inverse fields go
    along k_1 on the kept (k_2, k_3) lines only, then along k_2 on the kept
    k_3 planes, then along k_3 on all n^2 lines; the three forward fields
    go back the same way, the last pass on the kept k_1 rows in their two
    runs, 0 .. 2 and -2 .. -1.  The whole-cube transforms would make
    240, 240 and 384 inverse and 192, 120 and 120 forward lines.
    """
    done = []

    def counting(name, axis_of):
        original = getattr(_fft, name)

        def wrapper(x, *args, **kwargs):
            done.append((name, axis_of(*args), x.shape))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(_fft, name, wrapper)

    counting("fft", lambda axis, *rest: axis)
    counting("rfftn", lambda axes, workers: axes)
    counting("irfftn", lambda s, axes, workers: axes)
    vorticity_rhs(grid8, random_divfree_field(grid8, seed=17))
    # (function, axis, input shape): the lines are the size over the axis length
    assert done == [
        ("fft", -3, (6, 8, 5, 3)),
        ("fft", -2, (6, 8, 8, 3)),
        ("irfftn", (-1,), (6, 8, 8, 5)),
        ("rfftn", (-1,), (3, 8, 8, 8)),
        ("fft", -3, (3, 8, 8, 3)),
        ("fft", -2, (3, 3, 8, 3)),
        ("fft", -2, (3, 2, 8, 3)),
    ]


def test_step_pure_diffusion_is_exact(grid8):
    w = np.zeros((3, 5, 5, 3), dtype=complex)  # a kept block: k_1 = 1 and -1 are rows 1 and -1
    w[2, 1, 0, 0] = -0.5j
    w[2, -1, 0, 0] = 0.5j
    cfg = StepperConfig(dt=0.01, nu=1.0)
    no_nonlinearity = lambda grid, state: np.zeros_like(state)
    stepped = rk4_step(grid8, w, cfg, rhs=no_nonlinearity)
    assert np.max(np.abs(stepped - np.exp(-cfg.dt) * w)) < 1e-14


def test_step_beltrami_single_step(grid16):
    w = abc_vorticity(grid16)
    cfg = StepperConfig(dt=0.01, nu=1.0)
    stepped = rk4_step(grid16, w, cfg)
    rel = np.sqrt(grid16.l2sq(stepped - np.exp(-cfg.dt) * w) / grid16.l2sq(w))
    assert rel < 1e-12


def test_step_order_four_richardson(grid16):
    # generic smooth data: evolve Taylor-Green off its initial symmetry first
    cfg0 = StepperConfig(dt=1e-3, nu=1.0)
    w = taylor_green_vorticity(grid16)
    start = collect_reference(grid16, w, 0.02, cfg0, field_every=1000).fields[-1]
    T = 0.05
    finals = {}
    for dt in (5e-3, 2.5e-3, 6.25e-4):
        run = collect_reference(grid16, start, T, StepperConfig(dt=dt), field_every=1000)
        finals[dt] = run.fields[-1]
    err1 = np.sqrt(grid16.l2sq(finals[5e-3] - finals[6.25e-4]))
    err2 = np.sqrt(grid16.l2sq(finals[2.5e-3] - finals[6.25e-4]))
    assert 12.0 <= err1 / err2 <= 20.0


def test_run_zero_initial_data(grid8):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)  # the kept block of 8^3
    traj = collect_reference(grid8, zeros, 0.05, StepperConfig(dt=0.01))
    assert all(np.all(f == 0.0) for f in traj.fields)
    assert np.all(traj.series.enstrophy == 0.0)


def test_run_beltrami_exact_decay(grid16):
    w0 = abc_vorticity(grid16)
    traj = collect_reference(grid16, w0, 0.1, StepperConfig(dt=1e-3), field_every=100)
    want = np.exp(-0.1) * w0
    rel = np.sqrt(grid16.l2sq(traj.fields[-1] - want) / grid16.l2sq(w0))
    assert rel < 1e-10


def test_run_invariants_on_taylor_green(tg16_run, grid16):
    # the step re-imposes no invariant: every operation must keep them
    seeded = collect_reference(
        grid16, random_divfree_field(grid16, seed=7), 0.5, StepperConfig(dt=1e-3), field_every=10
    )
    for run in (tg16_run, seeded):
        worst_div = max(grid16.divergence_rel(f) for f in run.fields)
        assert worst_div < 1e-10
        assert worst_div <= 1e-14
        assert all(np.max(np.abs(f[:, 0, 0, 0])) == 0.0 for f in run.fields)
        for f in run.fields:
            assert hermitian_defect(full_spectrum(spread(grid16, f))) <= 1e-14 * np.max(np.abs(f))
        # low-Reynolds regime: enstrophy decays monotonically
        assert np.all(np.diff(run.series.enstrophy) <= 0.0)


def test_blowup_report(grid8):
    w = random_divfree_field(grid8, seed=7)
    cfg = StepperConfig(dt=0.01, nu=1.0, enstrophy_ceiling=grid8.l2sq(w) * 0.5)
    with pytest.raises(BlowUpError) as err:
        run_reference(grid8, w, 0.05, cfg, lambda t, w: None)
    assert err.value.time > 0.0
    assert np.isfinite(err.value.enstrophy)


def test_velocity_form_cross_check(grid16):
    """Curl of the velocity-form solution tracks the vorticity-form solution."""
    u0 = taylor_green_velocity(grid16)
    w0 = grid16.curl(u0)
    T = 0.1
    cfg = StepperConfig(dt=1e-3)
    times, snaps = run_reference_velocity(grid16, spread(grid16, u0), T, cfg, field_every=100)
    traj = collect_reference(grid16, w0, T, cfg, field_every=100)
    w = traj.fields[-1]
    rel = np.sqrt(grid16.l2sq(grid16.curl(snaps[-1]) - w) / grid16.l2sq(w))
    assert rel < 1e-8


def test_velocity_rhs_is_projected(grid8):
    u = grid8.biot_savart(random_divfree_field(grid8, seed=55))
    rhs = velocity_rhs(grid8, u)
    assert grid8.divergence_rel(rhs) < 1e-12
    assert np.max(np.abs(rhs[:, 0, 0, 0])) == 0.0


def test_run_hands_the_sink_each_snapshot_and_the_last_off_the_cadence(grid8):
    w0 = random_divfree_field(grid8, seed=3)
    cfg = StepperConfig(dt=0.01, nu=0.1)
    seen = []
    # field_every=3 does not divide the 10 steps: the last snapshot is off the cadence
    series = run_reference(
        grid8, w0, 0.1, cfg, lambda t, w: seen.append((t, w)), scalar_every=2, field_every=3
    )
    assert np.allclose([t for t, _ in seen], [0.0, 0.03, 0.06, 0.09, 0.1], rtol=0, atol=1e-15)
    assert seen[-1][0] == 0.1
    assert np.allclose(series.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1], rtol=0, atol=1e-15)
    # the states the sink kept, uncopied, are the ones the norm series measured
    norms = dict(zip(series.times, series.enstrophy))
    assert [t for t, _ in seen if t in norms] == [0.0, seen[2][0], 0.1]
    assert all(norms[t] == grid8.l2sq(w) for t, w in seen if t in norms)


def test_run_sink_has_every_snapshot_before_a_blowup(grid8):
    w0 = taylor_green_vorticity(grid8)
    # at nu = 1e-4 the Taylor-Green enstrophy grows; it passes 186.1 near t = 0.06
    cfg = StepperConfig(dt=0.0025, nu=1e-4, enstrophy_ceiling=186.1)
    seen = []
    with pytest.raises(BlowUpError) as err:
        run_reference(grid8, w0, 0.125, cfg, lambda t, w: seen.append(t), field_every=5)
    assert len(seen) == 5 and seen[-1] < err.value.time <= seen[-1] + 5 * 0.0025


def _reference_entry(grid, w0, sink):
    run_reference(grid, w0, 0.02, StepperConfig(dt=0.01), sink)


def _slab_entry(grid, w0, sink):
    run_slab_scheme(grid, w0, uniform_partition(0.02, 1), sink, slab_samples=2)


RUNNERS = pytest.mark.parametrize(
    "runner", [_reference_entry, _slab_entry], ids=["reference", "slabs"]
)


@RUNNERS
@pytest.mark.parametrize(
    "make", [taylor_green_vorticity, lambda g: random_divfree_field(g, 7)], ids=["tg", "seed7"]
)
def test_runner_hands_the_sink_the_callers_field_first(grid8, runner, make):
    w0 = make(grid8)
    before = w0.tobytes()
    seen = []
    runner(grid8, w0, lambda t, w: seen.append((t, w.tobytes())))
    # the runs carry kept blocks: the first is the caller's field, bit for bit
    assert seen[0] == (0.0, w0.tobytes())
    assert w0.tobytes() == before


def _with_mean(grid, w):
    w[0, 0, 0, 0] = 0.1


def _with_divergence(grid, w):
    w += cut_block(grid, gradient(grid, grid.to_spectral(np.sin(physical_grid(grid)[0]))))


def _with_nan(grid, w):
    w[1, 2, 3, 1] = np.nan


@RUNNERS
@pytest.mark.parametrize(
    "damage, error, match",
    [
        (_with_mean, MeanModeError, "mean vorticity"),
        (_with_divergence, DivergenceError, "relative divergence"),
        (_with_nan, ValueError, "non-finite"),
    ],
    ids=["mean", "divergence", "nan"],
)
def test_runner_rejects_its_initial_field_before_the_sink(grid8, runner, damage, error, match):
    w0 = random_divfree_field(grid8, seed=29).copy()
    damage(grid8, w0)
    seen = []
    with pytest.raises(error, match=match):
        runner(grid8, w0, lambda t, w: seen.append(t))
    assert seen == []
