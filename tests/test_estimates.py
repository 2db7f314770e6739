"""Monitors and studies: identities, ledger arithmetic, diagnostics, rate fits."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    collect_reference,
    cut_block,
    full_spectrum,
    gradient,
    half_tables,
    kept,
    physical_grid,
    spread,
    stack_lag_sums,
)
from scipy.integrate import quad

from vslab import cli
from vslab.estimates import (
    _weighted_linear_integral,
    average_cs_check,
    convergence_study,
    dt_u_margins,
    dt_u_monitor,
    energy_identity_residual,
    enstrophy_ledger,
    grad_vorticity_check,
    hgamma_diagnostic,
    hgamma_from_lag_sums,
    lag_sums,
    ladyzhenskaya_ratio,
    piecewise_average_distance,
    simpson,
    sup_l2_distance,
)
from vslab.reference import StepperConfig
from vslab.slabs import (
    SlabAverages,
    linear_slab_solve,
    picard_solve_slab,
    trapezoid,
    uniform_partition,
)
from vslab.spectral import (
    BOX_VOLUME,
    FieldShapeError,
    Grid,
    abc_velocity,
    random_divfree_field,
    taylor_green_vorticity,
)
from vslab.trajectory import ScalarSeries, Trajectory


def single_mode_vorticity(grid):
    """w = (0, -cos x1, 0), the vorticity of u = (0, 0, sin x1), from its exact amplitudes.

    A kept block: its rows k_1 = 1 and -1 are the second and the last.
    """
    w = np.zeros((3, *grid._block_shape), dtype=np.complex128)
    w[1, 1, 0, 0] = w[1, -1, 0, 0] = -0.5
    return w


def synthetic_series(times, energy, enstrophy, dissipation, enstrophy_dissipation):
    return ScalarSeries(
        times=np.asarray(times, dtype=np.float64),
        energy=np.asarray(energy, dtype=np.float64),
        enstrophy=np.asarray(enstrophy, dtype=np.float64),
        dissipation=np.asarray(dissipation, dtype=np.float64),
        enstrophy_dissipation=np.asarray(enstrophy_dissipation, dtype=np.float64),
    )


# -- quadrature ---------------------------------------------------------------------


def quadrature_grids(n):
    """Uniform, sorted random, and uniform with a short last interval (the grid
    of a run whose last sample falls off the cadence)."""
    rng = np.random.default_rng(n)
    uniform = np.linspace(0.0, 0.5, n)
    short_last = uniform.copy()
    short_last[-1] = short_last[-2] + 0.3 * (uniform[1] - uniform[0])
    return {
        "uniform": uniform,
        "sorted_random": np.sort(rng.uniform(0.0, 2.0, n)),
        "short_last": short_last,
    }


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("n", range(2, 65))
def test_quadrature_matches_scipy_bitwise(n):
    rng = np.random.default_rng(1000 + n)
    for name, x in quadrature_grids(n).items():
        y = rng.standard_normal(n)
        assert same_bits(simpson(y, x), scipy.integrate.simpson(y, x=x)), name
        assert same_bits(trapezoid(y, x), scipy.integrate.trapezoid(y, x)), name


@pytest.mark.parametrize("n", range(3, 64, 2))
def test_simpson_exact_for_cubics_on_odd_uniform_grids(n):
    x = np.linspace(-0.5, 1.5, n)
    got = simpson(2.0 * x**3 - x**2 + 3.0 * x - 1.0, x)
    want = 0.5 * (1.5**4 - 0.5**4) - (1.5**3 + 0.5**3) / 3.0 + 1.5 * (1.5**2 - 0.5**2) - 2.0
    assert abs(got - want) < 1e-13


@pytest.mark.parametrize("n", range(3, 65))
def test_simpson_exact_for_quadratics_on_irregular_grids(n):
    for name, x in quadrature_grids(n).items():
        if name == "uniform":
            continue
        a, b = x[0], x[-1]
        got = simpson(3.0 * x**2 - 2.0 * x + 0.5, x)
        want = (b**3 - a**3) - (b**2 - a**2) + 0.5 * (b - a)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want)), name


# -- energy identity ---------------------------------------------------------------


def test_energy_identity_zero_trajectory():
    times = np.linspace(0.0, 1.0, 5)
    assert energy_identity_residual(times, np.zeros(5), np.zeros(5)) == 0.0


def test_energy_identity_beltrami_closed_form(grid8):
    # u(t) = e^{-t} u0 with lambda = 1: energy 2t-decay balances dissipation
    e0 = grid8.l2sq(abc_velocity(grid8))
    times = np.linspace(0.0, 1.0, 1001)
    energy = e0 * np.exp(-2.0 * times)
    dissipation = energy  # |grad u|^2 = lambda^2 |u|^2
    assert energy_identity_residual(times, energy, dissipation, nu=1.0) < 1e-10


def test_energy_identity_converges_with_step(grid8):
    w0 = taylor_green_vorticity(grid8)
    residuals = []
    for dt in (8e-3, 4e-3):
        traj = collect_reference(grid8, w0, 0.2, StepperConfig(dt=dt), field_every=1000)
        s = traj.series
        residuals.append(energy_identity_residual(s.times, s.energy, s.dissipation))
    assert residuals[1] < residuals[0] / 4.0  # observed order >= 2


def test_energy_identity_needs_two_samples():
    with pytest.raises(ValueError):
        energy_identity_residual(np.array([0.0]), np.array([1.0]), np.array([0.0]))


# -- pointwise identities ----------------------------------------------------------------


def test_grad_vorticity_single_mode(grid8):
    u = np.zeros((3, 8, 8, 8))
    u[2] = np.sin(physical_grid(grid8)[0])
    uc = cut_block(grid8, grid8.to_spectral(u))
    assert grad_vorticity_check(grid8, uc) < 1e-12
    assert grid8.h1sq(uc) == pytest.approx(BOX_VOLUME / 2.0, rel=1e-13)


def test_grad_vorticity_constant_field(grid8):
    uc = cut_block(grid8, grid8.to_spectral(np.ones((3, 8, 8, 8))))
    assert grad_vorticity_check(grid8, uc) == 0.0


def test_grad_vorticity_random_fields(grid8):
    for seed in range(10):
        u = grid8.biot_savart(random_divfree_field(grid8, seed=seed))
        assert grad_vorticity_check(grid8, u) < 1e-12


def test_grad_vorticity_rejects_divergent_field(grid8):
    v = cut_block(grid8, gradient(grid8, grid8.to_spectral(np.sin(physical_grid(grid8)[0]))))
    with pytest.raises(ValueError, match="must be divergence-free"):
        grad_vorticity_check(grid8, v)


# -- Ladyzhenskaya ratio --------------------------------------------------------------------


def test_ladyzhenskaya_rejects_constant_and_zero(grid8):
    with pytest.raises(ValueError, match="undefined for zero or constant"):
        ladyzhenskaya_ratio(grid8, cut_block(grid8, grid8.to_spectral(np.ones((8, 8, 8)))))
    with pytest.raises(ValueError, match="undefined for zero or constant"):
        ladyzhenskaya_ratio(grid8, np.zeros((5, 5, 3), dtype=complex))


def test_ladyzhenskaya_sine_calibration(grid8, grid32):
    # calibration fixture: for v = sin x1 the ratio is sqrt(3 / (2 (2 pi)^3))
    sine = cut_block(grid8, grid8.to_spectral(np.sin(physical_grid(grid8)[0])))
    got = ladyzhenskaya_ratio(grid8, sine)
    assert got == pytest.approx(math.sqrt(3.0 / (2.0 * BOX_VOLUME)), rel=1e-12)
    sine = cut_block(grid32, grid32.to_spectral(np.sin(physical_grid(grid32)[0])))
    refined = ladyzhenskaya_ratio(grid32, sine)
    assert abs(got - refined) / refined < 1e-8
    assert got < 2.0  # comfortably below the monitor's default constant


# -- enstrophy ledger ------------------------------------------------------------------------


def test_ledger_constant_enstrophy():
    times = np.linspace(0.0, 1.0, 21)
    series = synthetic_series(times, np.full(21, 2.0), np.full(21, 2.0), np.zeros(21), np.zeros(21))
    ledger = enstrophy_ledger(series, uniform_partition(1.0, 4), eps0=0.5, C=1.0)
    assert ledger.K0 == 2.0
    assert all(r.M_k == 2.0 for r in ledger.rows)
    assert all(r.recursion_ok for r in ledger.rows)
    assert ledger.global_ok
    assert ledger.global_bound == pytest.approx(2.0 * math.exp(0.5), rel=1e-15)
    assert ledger.global_bound == pytest.approx(3.2974425414002564, rel=1e-12)


def test_ledger_row_arithmetic_by_hand():
    times = np.array([0.0, 0.25, 0.5])
    series = synthetic_series(
        times,
        energy=[4.0, 3.0, 2.5],
        enstrophy=[2.0, 1.5, 1.25],
        dissipation=[1.0, 0.5, 0.25],
        enstrophy_dissipation=[0.8, 0.4, 0.2],
    )
    ledger = enstrophy_ledger(series, uniform_partition(0.5, 2), eps0=0.5, C=1.0)
    r0, r1 = ledger.rows
    assert r0.M_k == 2.0
    assert r0.f_k == pytest.approx(2.0 + 0.5 * (0.25 * (0.8 + 0.4) / 2.0), rel=1e-15)
    assert r0.kstar == pytest.approx(0.25 * 4.0 + 0.25 * 1.5 / 2.0, rel=1e-15)
    assert r0.gronwall_bound == pytest.approx(2.0 * math.exp(0.5 * 0.25), rel=1e-15)
    assert r1.M_k == 1.5
    assert r1.gronwall_bound == pytest.approx(2.0 * math.exp(0.5 * 0.25), rel=1e-15)
    assert not r0.slab_rule_ok  # 4 * kstar = 4.75 > 0.5
    assert ledger.sup_enstrophy == 2.0


def test_ledger_flags_violations():
    # artificially growing enstrophy defeats the recursion and the global cap
    times = np.linspace(0.0, 1.0, 11)
    growth = 0.01 * np.exp(4.0 * times)
    series = synthetic_series(times, growth, growth, np.zeros(11), np.zeros(11))
    ledger = enstrophy_ledger(series, uniform_partition(1.0, 5), eps0=0.5, C=1.0)
    assert not all(r.recursion_ok for r in ledger.rows)
    assert not ledger.global_ok
    assert any(r.margin < 0 for r in ledger.rows)


def test_ledger_taylor_green_small(grid8):
    w0 = taylor_green_vorticity(grid8)
    traj = collect_reference(grid8, w0, 0.25, StepperConfig(dt=1e-3), field_every=1000)
    ledger = enstrophy_ledger(traj.series, uniform_partition(0.25, 4), eps0=0.5, C=1.0)
    assert all(r.recursion_ok for r in ledger.rows)
    assert ledger.global_ok
    assert ledger.all_rows_ok


# -- slab average consistency ------------------------------------------------------------------


def _zero_averages(grid):
    zeros = kept(grid, np.zeros((3, grid.n, grid.n, grid.n // 2 + 1), dtype=complex))
    return SlabAverages(zeros, zeros.copy())


def test_average_cs_zero_trajectory(grid8):
    zeros = kept(grid8, np.zeros((3, 8, 8, 5), dtype=complex))
    sol = linear_slab_solve(grid8, zeros, _zero_averages(grid8), 0.0, 0.1, nu=1.0)
    assert abs(average_cs_check(sol)) < 1e-14


def test_average_cs_equality_for_constant_trajectory(grid8):
    w0 = spread(grid8, random_divfree_field(grid8, seed=11))
    sol = linear_slab_solve(grid8, kept(grid8, w0), _zero_averages(grid8), 0.0, 0.1, nu=1.0)
    sol.forcing = kept(grid8, half_tables(8).ksq * w0)  # freezes the state
    assert abs(average_cs_check(sol)) < 1e-12


def test_average_cs_single_decaying_mode(grid8):
    w0 = single_mode_vorticity(grid8)
    width = 0.3
    sol = linear_slab_solve(grid8, w0, _zero_averages(grid8), 0.0, width, nu=1.0)
    # |k|^2 = 1: margin = |w0|^2 [ (1-e^{-2D})/(2D) - ((1-e^{-D})/D)^2 ]
    e0 = grid8.l2sq(w0)
    want = e0 * (
        (1.0 - math.exp(-2.0 * width)) / (2.0 * width)
        - ((1.0 - math.exp(-width)) / width) ** 2
    )
    assert average_cs_check(sol) == pytest.approx(want, abs=1e-10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), width=st.floats(min_value=0.01, max_value=0.5))
def test_average_cs_margin_nonnegative(seed, width):
    grid = Grid(8)
    w0 = random_divfree_field(grid, seed=seed)
    sol = picard_solve_slab(grid, w0, 0.0, width)
    assert average_cs_check(sol) >= -1e-12


# -- H^gamma diagnostic ----------------------------------------------------------------------------


def test_hgamma_zero_trajectory(grid8):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)
    times = np.linspace(0.0, 1.0, 17)
    diag = hgamma_diagnostic(times, [zeros] * 17, 0.2, grid8)
    assert diag.value == 0.0


@pytest.mark.parametrize("gamma", [0.3, 0.25, 0.0, -0.1])
def test_hgamma_rejects_gamma_out_of_range(grid8, gamma):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)
    with pytest.raises(ValueError, match="gamma must lie in"):
        hgamma_diagnostic(np.linspace(0, 1, 5), [zeros] * 5, gamma, grid8)


def test_hgamma_needs_two_frequency_points(grid8):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)
    with pytest.raises(ValueError, match="two frequency points"):
        hgamma_diagnostic(np.linspace(0, 1, 5), [zeros] * 5, 0.2, grid8, freq_points=1)


def test_hgamma_constant_mode_against_quadrature_oracle(grid8):
    w = single_mode_vorticity(grid8)
    times = np.linspace(0.0, 1.0, 65)
    fields = [w] * 65
    diag = hgamma_diagnostic(times, fields, 0.2, grid8)
    h = times[1] - times[0]
    # hold interpolant of a constant is the constant: spectrum is exactly
    # |w|^2 (2 - 2 cos sigma) / sigma^2 for the unit time window
    integrand = lambda s: s**0.4 * (2.0 - 2.0 * np.cos(s)) / s**2
    oracle, quad_err = quad(integrand, 0.0, np.pi / h, limit=4000)
    want = 2.0 * grid8.l2sq(w) * oracle
    assert abs(diag.value - want) / want < 1e-6
    assert quad_err / want < 1e-8


def direct_hgamma(times, fields, gamma, freq_points):
    """The diagnostic from its definition: complex Gram matrix of the full
    spectra, lag sums, and the direct sum of their Fourier phases."""
    data = np.stack([np.ravel(full_spectrum(f)) for f in fields[:-1]])  # half spectra
    gram = BOX_VOLUME * (data @ data.conj().T)
    offsets = np.array([np.trace(gram, offset=d) for d in range(len(data))])
    h = times[1] - times[0]
    sigma = np.linspace(0.0, np.pi / h, freq_points)
    lags = np.arange(len(offsets)) * h
    spectrum = np.empty(freq_points)
    for lo in range(0, freq_points, 16384):
        phase = np.exp(1j * np.outer(sigma[lo : lo + 16384], lags))
        spectrum[lo : lo + 16384] = 2.0 * (phase @ offsets).real - offsets[0].real
    kernel = np.full_like(sigma, h**2)
    kernel[1:] = (2.0 - 2.0 * np.cos(sigma[1:] * h)) / sigma[1:] ** 2
    return 2.0 * _weighted_linear_integral(sigma, spectrum * kernel, 2.0 * gamma)


# (frequency points, held samples): the frequency pass folds the lags mod 2L
# into P = 2p points, p the smallest divisor of L = freq_points - 1 at least
# half the folded count, and takes the 2L bins in runs of R = 2L / P
@pytest.mark.parametrize(
    "freq_points, held",
    [
        (131073, 16),  # P = 16, R = 16384
        (1001, 16),  # P = 16, R = 125
        (9, 16),  # 2L = 16 lags, P = 16, R = 1
        (5, 16),  # 2L = 8 is fewer than the lags: folded, P = 8, R = 1
        (131073, 1),  # one held sample: P = 2
        (2, 16),  # L = 1: P = 2, R = 1
        (1001, 17),  # 17 does not divide 2000: P = 20, R = 100
        (76, 16),  # L = 75: P = 30, R = 5
    ],
    ids=["131073", "1001", "9", "5-16", "131073-1", "2-16", "1001-17", "76-16"],
)
@pytest.mark.parametrize("seed", [3, 41])
def test_hgamma_matches_direct_formula(grid8, seed, freq_points, held):
    blocks = [random_divfree_field(grid8, seed + m) for m in range(held + 1)]
    fields = [spread(grid8, b) for b in blocks]
    times = np.linspace(0.0, 0.5, held + 1)
    got = hgamma_diagnostic(times, blocks, 0.2, grid8, freq_points=freq_points).value
    want = direct_hgamma(times, fields, 0.2, freq_points)
    assert abs(got - want) / want < 1e-12
    # a half spectrum on some rows only is refused wherever it is stacked
    for rows in ({0}, {held // 4, held // 2 + 1}, {held - 1, held}, set(range(held + 1))):
        mixed = [fields[m] if m in rows else b for m, b in enumerate(blocks)]
        with pytest.raises(FieldShapeError):
            hgamma_diagnostic(times, mixed, 0.2, grid8, freq_points=freq_points)


def memory_rows(fields):
    """A ``read_rows`` for ``lag_sums`` over kept blocks held in memory."""

    def read_rows(lo, hi, out):
        for row, w in zip(out, fields, strict=True):
            row[...] = w.reshape(-1, *w.shape[2:])[lo:hi]

    return read_rows


def test_hgamma_rows_are_the_same_from_either_layout(grid8):
    # a row is the kept modes of the half spectrum weighted plane by plane
    w, v = (spread(grid8, random_divfree_field(grid8, seed=s)) for s in (5, 6))
    got = lag_sums(grid8, 2, memory_rows([kept(grid8, w), kept(grid8, v)]))
    a, b = (kept(grid8, f * np.sqrt(half_tables(8).plane_weight)).ravel() for f in (w, v))
    want = BOX_VOLUME * np.array([np.vdot(a, a) + np.vdot(b, b), np.vdot(a, b)]).real
    assert np.max(np.abs(got - want)) <= 1e-14 * want[0]
    # the in-memory reader takes kept blocks only, on any held row
    zeros = [np.zeros((3, 5, 5, 3), dtype=complex)] * 3
    for other in (w, full_spectrum(w), kept(grid8, w)[1]):
        for m in (0, 1):
            fields = zeros[:m] + [other] + zeros[m + 1 :]
            with pytest.raises(FieldShapeError, match="expected a kept block"):
                hgamma_diagnostic(np.linspace(0.0, 1.0, 3), fields, 0.2, grid8)


@pytest.mark.parametrize("count", [1, 2, 3, 17, 33])  # snapshots M; M - 1 rows
@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_chunked_lag_sums_match_the_whole_stack(n, count):
    """The chunked lag sums agree with one dense Gram of the stack to 1e-14 of G_0.

    The chunks are whole (component, k_1) planes that tile the block in
    order; at these sizes the last one is short on 6^3, 8^3 and 16^3 with
    17 or 33 snapshots (8^3 with 17: chunks of 8 and 7 of the 15 planes).
    """
    grid = Grid(n)
    fields = [random_divfree_field(grid, seed=100 * n + m) for m in range(count)]
    bounds = []
    read = memory_rows(fields[:-1])

    def read_rows(lo, hi, out):
        bounds.append((lo, hi))
        read(lo, hi, out)

    got = lag_sums(grid, count - 1, read_rows)
    want = stack_lag_sums(grid, fields)
    assert got.shape == want.shape == (count - 1,)
    if count > 1:
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]
    planes = 3 * grid._block_shape[0]
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
    assert bounds[-1][1] == planes
    widths = [hi - lo for lo, hi in bounds]
    short = widths[-1] < widths[0]
    assert short == ((n, count) in {(6, 33), (8, 17), (8, 33), (16, 17), (16, 33)}), widths


def test_hgamma_gram_on_two_blas_threads_differs_from_one_by_rounding_only():
    """The Gram's bits depend on OpenBLAS's thread count, which commands pin to one.

    On 100 rows of the monitor32 shape (32^3), summed over 16 chunks of at
    most 1,848 real numbers a row, one thread gives the same bits on every
    call and two threads agree with it to rounding.
    """
    found = cli._openblas()
    if found is None:
        pytest.skip("no OpenBLAS with a thread-count setter in this process")
    lib, name = found
    get, set_threads = getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name)

    def read_rows(lo, hi, out):
        real = out.view(np.float64)
        real[...] = np.random.default_rng(lo).standard_normal(real.shape)

    before = get()
    try:
        lags = []
        for threads in (1, 2, 1):
            set_threads(threads)
            lags.append(lag_sums(Grid(32), 100, read_rows))
    finally:
        set_threads(before)
    one, two, again = lags
    assert one.tobytes() == again.tobytes()
    assert np.max(np.abs(two - one)) <= 1e-14 * np.max(np.abs(one))


def test_hgamma_monotone_in_gamma(grid8):
    w0 = taylor_green_vorticity(grid8)
    traj = collect_reference(grid8, w0, 0.25, StepperConfig(dt=2.5e-3), field_every=2)
    values = [
        hgamma_diagnostic(traj.times, traj.fields, g, grid8).value
        for g in (0.05, 0.1, 0.15, 0.2, 0.24)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_hgamma_frequency_grid_transients_are_bounded():
    # three 4^3 snapshots: nearly all the memory is one batch of the frequency pass
    grid = Grid(4)
    w = random_divfree_field(grid, seed=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hgamma_diagnostic(np.linspace(0.0, 1.0, 3), [w, w, w], 0.2, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("freq_points", [131073, 524289])
def test_hgamma_frequency_pass_memory_does_not_grow_with_the_grid(freq_points):
    # 100 lag sums, as from the 101 snapshots of the bench's monitor run: the
    # pass holds one batch of short FFTs, never an array of the grid's length
    lags = np.random.default_rng(5).standard_normal(100)
    lags[0] = 200.0
    times = np.linspace(0.0, 0.1, 101)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = hgamma_from_lag_sums(times, lags, 0.2, freq_points).value
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 2e6, peak


def test_hgamma_needs_uniform_samples(grid8):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)
    with pytest.raises(ValueError, match="uniformly spaced"):
        hgamma_diagnostic(np.array([0.0, 0.1, 0.5]), [zeros] * 3, 0.2, grid8)


def test_hgamma_from_lag_sums_needs_one_row_per_held_sample(grid8):
    lags = lag_sums(grid8, 5, memory_rows([np.zeros((3, 5, 5, 3), dtype=complex)] * 5))
    with pytest.raises(ValueError, match="one stack row per sample but the last, got 5 for 5"):
        hgamma_from_lag_sums(np.linspace(0, 1, 5), lags, 0.2)


# -- time-derivative monitor ---------------------------------------------------------------------------


def test_dt_monitor_zero_trajectory(grid8):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)
    mon = dt_u_monitor(np.linspace(0, 1, 9), [zeros] * 9, np.zeros(9), grid8)
    assert np.all(mon.margins == 0.0)
    assert mon.min_margin == 0.0


def test_dt_monitor_beltrami_analytic(grid8):
    u0 = abc_velocity(grid8)
    times = np.linspace(0.0, 0.1, 11)
    fields = [np.exp(-t) * u0 for t in times]
    enstrophy = [grid8.l2sq(grid8.curl(u)) for u in fields]
    mon = dt_u_monitor(times, fields, enstrophy, grid8)
    interior = times[1:-1]
    phi = 27.0 * np.array([grid8.l2sq(grid8.curl(np.exp(-t) * u0)) ** 2 for t in interior])
    dtu = np.array([grid8.l2sq(np.exp(-t) * u0) for t in interior])
    want = (phi + 1.0) * dtu  # nu = lambda = 1
    assert np.max(np.abs(mon.margins - want) / want) < 1e-3  # finite-difference band
    assert mon.min_margin > 0.0


def test_dt_monitor_phi_is_the_enstrophy_series(grid8):
    u0 = abc_velocity(grid8)
    times = np.linspace(0.0, 0.1, 11)
    enstrophy = np.linspace(3.0, 1.0, 11)
    mon = dt_u_monitor(times, [np.exp(-t) * u0 for t in times], enstrophy, grid8)
    assert np.array_equal(mon.phi, 27 * enstrophy[1:-1] ** 2)


def test_dt_u_margins_need_one_norm_per_interior_sample():
    times = np.linspace(0.0, 1.0, 6)
    with pytest.raises(ValueError, match="one dt u norm per interior sample"):
        dt_u_margins(times, np.ones(3), np.ones(4), np.ones(6))


def test_dt_monitor_needs_three_samples(grid8):
    zeros = np.zeros((3, 5, 5, 3), dtype=complex)
    with pytest.raises(ValueError, match="at least three"):
        dt_u_monitor(np.array([0.0, 0.1]), [zeros] * 2, np.zeros(2), grid8)


# -- convergence studies ----------------------------------------------------------------------------------


def test_convergence_exact_halving():
    fit = convergence_study([0.1, 0.05, 0.025], [0.1, 0.05, 0.025])
    assert fit.rate == pytest.approx(1.0, abs=1e-12)
    assert fit.monotone


def test_convergence_flags_non_monotone():
    fit = convergence_study([0.1, 0.05, 0.025], [0.1, 0.2, 0.05])
    assert not fit.monotone
    assert np.isfinite(fit.rate)


def test_convergence_needs_three_levels():
    with pytest.raises(ValueError):
        convergence_study([0.1, 0.05], [1.0, 0.5])


def test_cosine_average_study_rate(grid8):
    """Piecewise slab averages of cos(t) lose first order in L2(Q)."""
    w_unit = single_mode_vorticity(grid8)
    times = np.linspace(0.0, 1.0, 1001)
    fields = [np.cos(t) * w_unit for t in times]
    traj = Trajectory(grid=grid8, nu=1.0, times=times, fields=fields)
    u_norm_sq = grid8.l2sq(grid8.biot_savart(w_unit))

    def closed_form(n_slabs):
        total = 0.0
        for k in range(n_slabs):
            a, b = k / n_slabs, (k + 1) / n_slabs
            width = b - a
            mean = (math.sin(b) - math.sin(a)) / width
            int_cos_sq = width / 2.0 + (math.sin(2 * b) - math.sin(2 * a)) / 4.0
            total += int_cos_sq - width * mean**2
        return math.sqrt(u_norm_sq * total)

    widths, errors = [], []
    for n_slabs in (4, 8, 16):
        part = uniform_partition(1.0, n_slabs)
        got = piecewise_average_distance(grid8, traj, part)
        assert abs(got - closed_form(n_slabs)) / closed_form(n_slabs) < 1e-6
        widths.append(1.0 / n_slabs)
        errors.append(got)
    fit = convergence_study(widths, errors)
    assert fit.rate == pytest.approx(1.0, abs=0.05)


def test_sup_l2_distance_self_is_zero(grid8):
    w0 = random_divfree_field(grid8, seed=5)
    times = np.array([0.0, 1.0])
    traj = Trajectory(grid=grid8, nu=1.0, times=times, fields=[w0, 0.5 * w0])
    assert sup_l2_distance(grid8, traj, traj, [0.0, 0.5, 1.0]) == 0.0
