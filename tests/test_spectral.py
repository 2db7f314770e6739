"""Spectral core: transforms, operators, norms, and their invariants."""

import numpy as np
import pytest
import scipy.fft
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    conjugate_reflection,
    cut_block,
    full_spectrum,
    full_tables,
    gradient,
    half_tables,
    hermitian_defect,
    kept,
    kept_modes,
    norm_suite,
    physical_grid,
    physical_l2sq,
    plane_weights,
    random_divfree_half,
    spread,
    stacked_curl,
)

from vslab import _fft, spectral
from vslab.reference import nonlinear_term
from vslab.snapshots import SnapshotError, persist_field
from vslab.spectral import (
    _FFT_WORKERS,
    BOX_VOLUME,
    DivergenceError,
    FieldShapeError,
    Grid,
    MeanModeError,
    abc_velocity,
    abc_vorticity,
    initial_vorticity,
    random_divfree_field,
    splitmix64,
    splitmix64_uniform,
    taylor_green_velocity,
    taylor_green_vorticity,
)

TWO_PI = 2.0 * np.pi


# -- oracles -------------------------------------------------------------------


def naive_dft(vals):
    """O(N^2) summation DFT with the package's amplitude normalization."""
    n = vals.shape[0]
    ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    out = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    for a, k1 in enumerate(ks):
        for b, k2 in enumerate(ks):
            for c, k3 in enumerate(ks):
                phase = np.exp(
                    -2j
                    * np.pi
                    * (
                        k1 * idx[:, None, None]
                        + k2 * idx[None, :, None]
                        + k3 * idx[None, None, :]
                    )
                    / n
                )
                out[a, b, c] = np.sum(vals * phase) / n**3
    return out


def padded_product(grid, a_coeffs, b_coeffs):
    """Alias-free pointwise product via 3/2 zero padding, back on the base grid.

    Works on full cubes with complex transforms; takes and returns half spectra.
    """
    n = grid.n
    m = 3 * n // 2
    ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)

    def physical(coeffs):
        full = full_spectrum(coeffs)
        out = np.zeros((m, m, m), dtype=complex)
        for a, k1 in enumerate(ks):
            for b, k2 in enumerate(ks):
                for c, k3 in enumerate(ks):
                    out[k1 % m, k2 % m, k3 % m] = full[a, b, c]
        return np.fft.ifftn(out * m**3).real

    prod = np.fft.fftn(physical(a_coeffs) * physical(b_coeffs)) / m**3
    out = np.zeros((n, n, n // 2 + 1), dtype=complex)
    for a, k1 in enumerate(ks):
        for b, k2 in enumerate(ks):
            for c, k3 in enumerate(ks[: n // 2 + 1]):
                out[a, b, c] = prod[k1 % m, k2 % m, k3 % m]
    return out


# -- grid ------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [3, 5, 7, 2, 0, -4])
def test_grid_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        Grid(bad)


def test_block_tables_are_the_gather_of_the_whole_cube_tables():
    # built from the block's rows, bit for bit the kept modes of the cube's tables
    for n in range(4, 130, 2):
        grid = Grid(n)
        k = full_tables(n)[0]
        ksq = np.sum(k**2, axis=0)
        with np.errstate(divide="ignore"):
            inv_ksq = 1.0 / ksq
        inv_ksq[0, 0, 0] = 0.0
        assert same_bits(grid.block_kd, kept_modes(k)), n
        assert same_bits(grid.block_ksq, kept_modes(ksq)), n
        assert same_bits(grid.block_inv_ksq, kept_modes(inv_ksq)), n
        weight = kept_modes(np.broadcast_to(plane_weights(n), (n, n, n)))[0, 0]
        assert same_bits(grid.block_weight, weight), n


# -- transforms -------------------------------------------------------------------


def test_transform_zero_field(grid8):
    zero = np.zeros((8, 8, 8))
    assert np.all(grid8.to_spectral(zero) == 0.0)


def test_transform_single_mode_amplitudes(grid8):
    coeffs = grid8.to_spectral(np.sin(physical_grid(grid8)[0]))
    assert coeffs[1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
    assert coeffs[-1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
    mask = np.ones_like(coeffs, dtype=bool)
    mask[1, 0, 0] = mask[-1, 0, 0] = False
    assert np.max(np.abs(coeffs[mask])) < 1e-14


def test_transform_matches_naive_dft(grid4):
    vals = splitmix64_uniform(2024, 4**3).reshape(4, 4, 4) - 0.5
    got = grid4.to_spectral(vals)
    want = naive_dft(vals)[..., :3]
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(grid4.to_physical(got) - vals)) < 1e-12


def test_transform_round_trip_relative(grid8):
    vals = splitmix64_uniform(99, 8**3).reshape(8, 8, 8) - 0.5
    back = grid8.to_physical(grid8.to_spectral(vals))
    assert np.max(np.abs(back - vals)) / np.max(np.abs(vals)) < 1e-12


def test_transform_shape_mismatch(grid8):
    with pytest.raises(ValueError):
        grid8.to_spectral(np.zeros((4, 4, 4)))


# -- FFT binding -------------------------------------------------------------------

AXES = (-3, -2, -1)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def samples(n, fields, seed):
    shape = (n, n, n) if fields == 1 else (fields, n, n, n)
    return splitmix64_uniform(seed, int(np.prod(shape))).reshape(shape) - 0.5


@pytest.mark.parametrize("fields", [1, 6])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_fft_binding_matches_scipy_fft_bit_for_bit(n, fields):
    vals = samples(n, fields, seed=n + fields)
    # the program's one worker, and two, which the binding passes on as well
    for workers in (1, 2):
        half = scipy.fft.rfftn(vals, axes=AXES, workers=workers)
        assert same_bits(_fft.rfftn(vals, AXES, workers), half)
        half = half * (1.0 + 0.25j)  # not Hermitian on the self-conjugate planes
        want = scipy.fft.irfftn(half, s=(n, n, n), axes=AXES, workers=workers)
        assert same_bits(_fft.irfftn(half, (n, n, n), AXES, workers), want)
        want = scipy.fft.irfft(half, n=n, norm="forward", workers=workers)
        assert same_bits(_fft.irfftn(half, (n,), (-1,), workers, norm="forward"), want)
        for axis in (-3, -2):
            want = scipy.fft.fft(half, axis=axis, workers=workers)
            assert same_bits(_fft.fft(half, axis, True, workers), want)
            want = scipy.fft.ifft(half, axis=axis, norm="forward", workers=workers)
            got = half.copy()
            assert _fft.fft(got, axis, False, workers, out=got) is got
            assert same_bits(got, want)


def test_fft_binding_is_the_extension_where_it_exists():
    if _fft.extension_path() is None:
        pytest.skip("the installed SciPy has no pocketfft extension file")
    assert _fft.rfftn is not _fft._scipy_rfftn
    assert _fft.irfftn is not _fft._scipy_irfftn
    assert _fft.fft is not _fft._scipy_fft


_EXTENSION = "from scipy.fft._pocketfft.pypocketfft import r2c, c2r, c2c as _c2c\n"


@pytest.mark.parametrize(
    "source",
    [
        None,  # a missing file
        "c2r = None\n",  # a module without r2c
        "def r2c(x, axes):\n    return x\n\ndef c2r(x, axes):\n    return x\n",  # changed signatures
        "def r2c(*args):\n    return 0.0\n\ndef c2r(*args):\n    return 0.0\n",  # wrong numbers
        # the real r2c and c2r with a complex transform that is
        "from scipy.fft._pocketfft.pypocketfft import r2c, c2r\n",  # missing,
        _EXTENSION + "def c2c(x, axes):\n    return x\n",  # of another signature,
        _EXTENSION + "def c2c(*args):\n    return 0.0\n",  # wrong,
        _EXTENSION  # scaled by 1/n,
        + "def c2c(a, axes, forward, inorm, out, nthreads):\n"
        "    return _c2c(a, axes, forward, 2, out, nthreads)\n",
        _EXTENSION  # or not written into ``out``
        + "def c2c(a, axes, forward, inorm, out, nthreads):\n"
        "    return _c2c(a, axes, forward, inorm, None, nthreads)\n",
    ],
)
def test_fft_binding_falls_back_to_public_scipy_fft(tmp_path, source):
    path = tmp_path / "pypocketfft.py"
    if source is not None:
        path.write_text(source)
    rfftn, irfftn, fft = _fft.bind(str(path))
    assert (rfftn, irfftn, fft) == (_fft._scipy_rfftn, _fft._scipy_irfftn, _fft._scipy_fft)
    vals = samples(8, 6, seed=3)
    half = rfftn(vals, AXES, _FFT_WORKERS)
    assert same_bits(half, _fft.rfftn(vals, AXES, _FFT_WORKERS))
    assert same_bits(
        irfftn(half, (8, 8, 8), AXES, _FFT_WORKERS), _fft.irfftn(half, (8, 8, 8), AXES, _FFT_WORKERS)
    )
    assert same_bits(
        irfftn(half, (8,), (-1,), _FFT_WORKERS, norm="forward"),
        _fft.irfftn(half, (8,), (-1,), _FFT_WORKERS, norm="forward"),
    )
    for forward in (True, False):
        got = half.copy()
        assert fft(got, -2, forward, _FFT_WORKERS, out=got) is got
        assert same_bits(got, _fft.fft(half, -2, forward, _FFT_WORKERS))


# -- transforms pruned to the 2/3 cut ------------------------------------------


def _whole_cube_samples(grid, blocks):
    """The samples of kept blocks through the spread and the whole-cube irfftn."""
    n = grid.n
    half = [spread(grid, b * float(n**3)) for b in blocks]
    half = half[0] if len(half) == 1 else np.concatenate(half)
    return _fft.irfftn(half, (n, n, n), AXES, _FFT_WORKERS)


@pytest.mark.parametrize("n", [6, 8, 16, 24, 32])
def test_pruned_transforms_are_the_whole_cube_ones_bit_for_bit(n):
    grid = Grid(n)
    u, w = (random_divfree_field(grid, seed=n + i) for i in range(2))
    # twice each, and the buffer of each leading shape shared in between
    for blocks in ((u, w), (w, u), (u,), (u[2],), (w,), (w[0],), (u, w)):
        assert same_bits(grid.block_to_physical(*blocks), _whole_cube_samples(grid, blocks))
    for fields in (3, 1):
        vals = samples(n, fields, seed=n)
        want = grid._gather(_fft.rfftn(vals, AXES, _FFT_WORKERS))
        want *= 1.0 / n**3
        assert same_bits(grid.physical_to_block(vals), want)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_transforms_and_kernel_have_the_same_bits_on_one_and_two_fft_workers(n, monkeypatch):
    grid = Grid(n)
    u, w = (random_divfree_field(grid, seed=n + i) for i in range(2))
    vals = samples(n, 3, seed=n)
    results = []
    for workers in (1, 2):
        monkeypatch.setattr(spectral, "_FFT_WORKERS", workers)
        results.append(
            (grid.block_to_physical(u, w), grid.physical_to_block(vals), nonlinear_term(grid, u, w))
        )
    for one, two in zip(*results):
        assert same_bits(one, two)


def test_pruned_transforms_refuse_other_layouts(grid8):
    u = random_divfree_field(grid8, seed=4)
    before = grid8.block_to_physical(u, u)
    half = spread(grid8, u)
    for blocks in ((half,), (u, half), (half, u), (u, u[0]), (u[..., :2],)):
        with pytest.raises(FieldShapeError):
            grid8.block_to_physical(*blocks)
    with pytest.raises(FieldShapeError):
        grid8.physical_to_block(np.zeros((3, 8, 8, 5)))
    # a refused call writes nothing the next one would see
    assert same_bits(grid8.block_to_physical(u, u), before)


# -- curl --------------------------------------------------------------------------


def test_curl_single_mode(grid8):
    v = np.zeros((3, 8, 8, 8))
    v[2] = np.sin(physical_grid(grid8)[0])
    got = grid8.to_physical(spread(grid8, grid8.curl(cut_block(grid8, grid8.to_spectral(v)))))
    want = np.zeros_like(v)
    want[1] = -np.cos(physical_grid(grid8)[0])
    assert np.max(np.abs(got - want)) < 1e-13


def test_curl_of_gradient_vanishes(grid8):
    s = grid8.to_spectral(np.sin(physical_grid(grid8)[0]) * np.sin(physical_grid(grid8)[1]))
    assert np.max(np.abs(grid8.curl(cut_block(grid8, gradient(grid8, s))))) < 1e-14


def _layouts(v):
    """v as a C-contiguous array, with its leading axis innermost in memory, and as a strided view."""
    inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(v, 0, -1)), -1, 0)
    wide = np.zeros(v.shape[:-1] + (2 * v.shape[-1],), dtype=v.dtype)
    wide[..., ::2] = v
    return [np.ascontiguousarray(v), inner, wide[..., ::2]]


@pytest.mark.parametrize("n", [8, 16])
def test_curl_is_the_stacked_formula_bit_for_bit(n):
    grid = Grid(n)
    v = spread(grid, random_divfree_field(grid, seed=n))
    v += 0.5 * gradient(grid, spread(grid, random_divfree_field(grid, 3))[0])
    for layout in _layouts(kept(grid, v)):
        got = grid.curl(layout)
        assert got.flags.c_contiguous
        assert got.tobytes() == stacked_curl(grid, layout).tobytes()


def test_curl_taylor_green_symbolic_oracle(grid16):
    x1, x2, x3 = sp.symbols("x1 x2 x3")
    u_sym = (
        sp.sin(x1) * sp.cos(x2) * sp.cos(x3),
        -sp.cos(x1) * sp.sin(x2) * sp.cos(x3),
        sp.Integer(0),
    )
    curl_sym = (
        sp.diff(u_sym[2], x2) - sp.diff(u_sym[1], x3),
        sp.diff(u_sym[0], x3) - sp.diff(u_sym[2], x1),
        sp.diff(u_sym[1], x1) - sp.diff(u_sym[0], x2),
    )
    fns = [sp.lambdify((x1, x2, x3), expr, "numpy") for expr in curl_sym]
    x = physical_grid(grid16)
    want = np.stack([np.broadcast_to(f(*x), x[0].shape) for f in fns])
    got = grid16.to_physical(spread(grid16, grid16.curl(taylor_green_velocity(grid16))))
    assert np.max(np.abs(got - want)) < 1e-12


# -- divergence ----------------------------------------------------------------------


def test_divergence_single_mode(grid8):
    v = np.zeros((3, 8, 8, 8))
    v[0] = np.sin(physical_grid(grid8)[0])
    got = grid8.to_physical(spread(grid8, grid8.divergence(cut_block(grid8, grid8.to_spectral(v)))))
    assert np.max(np.abs(got - np.cos(physical_grid(grid8)[0]))) < 1e-13


def test_divergence_of_curl_vanishes(grid8):
    v = spread(grid8, random_divfree_field(grid8, seed=3)) + 0.3 * gradient(grid8, 
        grid8.to_spectral(np.sin(physical_grid(grid8)[1]))
    )
    assert np.max(np.abs(grid8.divergence(grid8.curl(cut_block(grid8, v))))) < 1e-14


def test_divergence_matches_modewise_loop(grid4):
    v = spread(grid4, random_divfree_field(grid4, seed=5)) + 0.2 * gradient(grid4, 
        grid4.to_spectral(np.sin(physical_grid(grid4)[0]))
    )
    got = spread(grid4, grid4.divergence(cut_block(grid4, v)))
    want = np.zeros_like(got)
    ks = np.fft.fftfreq(4, d=1.0 / 4).astype(int)
    kd = [0 if abs(k) == 2 else k for k in ks]
    for a in range(4):
        for b in range(4):
            for c in range(3):
                want[a, b, c] = 1j * (
                    kd[a] * v[0, a, b, c] + kd[b] * v[1, a, b, c] + kd[c] * v[2, a, b, c]
                )
    assert np.max(np.abs(got - want)) < 1e-14


# -- Leray projection -------------------------------------------------------------------


def test_leray_keeps_divergence_free_fields(grid8):
    v = spread(grid8, random_divfree_field(grid8, seed=11))
    assert np.max(np.abs(grid8.leray_project(v) - v)) < 1e-14


def test_leray_kills_gradients(grid8):
    v = gradient(grid8, grid8.to_spectral(np.sin(physical_grid(grid8)[0])))
    assert np.max(np.abs(grid8.leray_project(v))) < 1e-14


def test_leray_mixed_field_structure(grid8):
    v = spread(grid8, random_divfree_field(grid8, seed=13)) + gradient(grid8, 
        grid8.to_spectral(np.sin(physical_grid(grid8)[0]) * np.cos(physical_grid(grid8)[2]))
    )
    proj = grid8.leray_project(v)
    assert grid8.divergence_rel(cut_block(grid8, proj)) < 1e-12
    residue = v - proj
    cross = grid8.curl(cut_block(grid8, residue))  # gradient fields are curl-free modewise
    assert np.max(np.abs(cross)) < 1e-13


def test_leray_idempotent(grid8):
    v = spread(grid8, random_divfree_field(grid8, seed=17)) + gradient(grid8, 
        grid8.to_spectral(np.cos(physical_grid(grid8)[1]))
    )
    once = grid8.leray_project(v)
    twice = grid8.leray_project(once)
    assert np.max(np.abs(twice - once)) < 1e-14


# -- Biot-Savart -------------------------------------------------------------------------


def test_biot_savart_zero(grid8):
    assert np.all(grid8.biot_savart(np.zeros((3, 5, 5, 3), dtype=complex)) == 0.0)


def test_biot_savart_single_mode(grid8):
    w = np.zeros((3, 8, 8, 8))
    w[1] = -np.cos(physical_grid(grid8)[0])
    u = grid8.biot_savart(cut_block(grid8, grid8.to_spectral(w)))
    got = grid8.to_physical(spread(grid8, u))
    want = np.zeros_like(w)
    want[2] = np.sin(physical_grid(grid8)[0])
    assert np.max(np.abs(got - want)) < 1e-13


def test_biot_savart_round_trip(grid8):
    w = random_divfree_field(grid8, seed=23)
    u = grid8.biot_savart(w)
    assert grid8.divergence_rel(u) < 1e-12
    assert np.max(np.abs(u[:, 0, 0, 0])) == 0.0
    rel = np.sqrt(grid8.l2sq(grid8.curl(u) - w) / grid8.l2sq(w))
    assert rel < 1e-12


def test_require_solenoidal_rejects_mean_vorticity(grid8):
    w = random_divfree_field(grid8, seed=29).copy()
    w[0, 0, 0, 0] = 0.1
    with pytest.raises(MeanModeError):
        grid8.require_solenoidal(w)


def test_require_solenoidal_rejects_divergent_input(grid8):
    w = cut_block(grid8, gradient(grid8, grid8.to_spectral(np.sin(physical_grid(grid8)[0]))))
    with pytest.raises(DivergenceError):
        grid8.require_solenoidal(w)


def test_require_solenoidal_rejects_a_field_whose_squares_overflow(grid8):
    # divergence-free and zero-mean, but no norm of it is finite
    w = random_divfree_field(grid8, seed=29)
    w[0, 0, 0, 1] = 1e300  # w_1 at k = (0, 0, 1)
    refusal = r"^squared H1 norm overflows \(max \|w\| = 1.000e\+300\)$"
    with np.errstate(all="raise"), pytest.raises(ValueError, match=refusal):
        grid8.require_solenoidal(w)


# -- dealiasing ----------------------------------------------------------------------------


def test_dealias_keeps_low_mode(grid8):
    c = np.zeros((8, 8, 5), dtype=complex)
    c[1, 0, 0] = 1.0 - 2.0j
    assert np.array_equal(grid8.dealias(c), c)


def test_dealias_zeroes_nyquist(grid8):
    c = np.zeros((8, 8, 5), dtype=complex)
    c[4, 0, 0] = 3.0
    assert np.all(grid8.dealias(c) == 0.0)


def test_dealias_pipeline_matches_padded_convolution(grid8):
    a = grid8.to_spectral(np.sin(physical_grid(grid8)[0]))
    product = grid8.dealias(grid8.to_spectral(grid8.to_physical(a) * grid8.to_physical(a)))
    want = grid8.dealias(padded_product(grid8, a, a))
    assert np.max(np.abs(product - want)) < 1e-12


def test_dealias_pipeline_matches_padded_convolution_generic(grid8):
    a = grid8.dealias(grid8.to_spectral(splitmix64_uniform(41, 8**3).reshape(8, 8, 8) - 0.5))
    b = grid8.dealias(grid8.to_spectral(splitmix64_uniform(43, 8**3).reshape(8, 8, 8) - 0.5))
    product = grid8.dealias(grid8.to_spectral(grid8.to_physical(a) * grid8.to_physical(b)))
    want = grid8.dealias(padded_product(grid8, a, b))
    assert np.max(np.abs(product - want)) < 1e-12


# -- norms ------------------------------------------------------------------------------------


def test_norms_single_mode(grid8):
    suite = norm_suite(grid8, cut_block(grid8, grid8.to_spectral(np.sin(physical_grid(grid8)[0]))))
    assert suite["l2_sq"] == pytest.approx(BOX_VOLUME / 2.0, rel=1e-13)
    assert suite["h1_semi_sq"] == pytest.approx(BOX_VOLUME / 2.0, rel=1e-13)


def test_norms_constant_field(grid8):
    suite = norm_suite(grid8, cut_block(grid8, grid8.to_spectral(np.ones((8, 8, 8)))))
    assert suite["l4"] == pytest.approx(TWO_PI**0.75, rel=1e-13)
    assert suite["h1_semi_sq"] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "n, seed, component",
    [(8, 3, None), (16, 7, None), (16, 11, 1)],
    ids=["vector8", "vector16", "scalar16"],
)
def test_l4_matches_full_spectrum_quadrature(n, seed, component):
    grid = Grid(n)
    v = spread(grid, random_divfree_field(grid, seed))
    if component is not None:
        v = v[component]
    phys = np.fft.ifftn(full_spectrum(v) * n**3, axes=(-3, -2, -1)).real
    mag_sq = np.sum(phys**2, axis=0) if phys.ndim == 4 else phys**2
    want = (np.sum(mag_sq**2) * grid.cell_volume) ** 0.25
    assert abs(grid.l4(kept(grid, v)) - want) / want < 1e-13


@pytest.mark.parametrize("n", [8, 16])
def test_l2sq_h1sq_is_the_two_norms_bit_for_bit(n):
    grid = Grid(n)
    v = spread(grid, random_divfree_field(grid, seed=n + 1)) * 1e3
    v += gradient(grid, spread(grid, random_divfree_field(grid, seed=5))[2])
    v = kept(grid, v)
    for field in (v, v[1]):
        for layout in _layouts(field):
            assert grid.l2sq_h1sq(layout) == (grid.l2sq(layout), grid.h1sq(layout))


def test_h1_equals_enstrophy_of_curl(grid8):
    u = grid8.biot_savart(random_divfree_field(grid8, seed=31))
    h1 = grid8.h1sq(u)
    enstrophy = grid8.l2sq(grid8.curl(u))
    assert abs(h1 - enstrophy) / h1 < 1e-12


def test_parseval(grid8):
    v = random_divfree_field(grid8, seed=37)
    phys = grid8.to_physical(spread(grid8, v))
    assert abs(physical_l2sq(grid8, phys) - grid8.l2sq(v)) / grid8.l2sq(v) < 1e-12


@pytest.mark.parametrize("n, seed", [(8, 3), (8, 19), (16, 7), (16, 23)])
def test_half_spectrum_sums_match_full_cube(n, seed):
    grid = Grid(n)
    x = physical_grid(grid)
    v = grid.dealias(
        spread(grid, random_divfree_field(grid, seed))
        + 0.3 * gradient(grid, grid.to_spectral(np.sin(x[0]) * np.cos(x[2])))
    )
    full = full_spectrum(v)
    v = kept(grid, v)
    k, kd = full_tables(n)
    ksq = np.sum(k**2, axis=0)
    mag_sq = np.sum(np.abs(full) ** 2, axis=0)
    div_sq = np.abs(np.sum(kd * full, axis=0)) ** 2
    assert grid.l2sq(v) == pytest.approx(BOX_VOLUME * np.sum(mag_sq), rel=1e-14)
    assert grid.h1sq(v) == pytest.approx(BOX_VOLUME * np.sum(ksq * mag_sq), rel=1e-14)
    want_div = np.sqrt(np.sum(div_sq) / np.sum(ksq * mag_sq))
    assert grid.divergence_rel(v) == pytest.approx(want_div, rel=1e-14)


# -- the kept block ------------------------------------------------------------------


def _one_mode_outside(grid, w):
    """w plus a divergence-free, Hermitian mode at k = (k_1, 0, 0) on the first row past the cut."""
    out = w.copy()
    row = grid._cut_rows.start
    out[1, row, 0, 0] += 0.3  # real, so its mirror at -k_1 (the same row at n = 4) matches
    out[1, -row, 0, 0] += 0.3 if row != grid.n - row else 0.0
    return out


def _fields(grid):
    """Seeded cut half spectra, built on the whole cube: solenoidal, divergent, with a mean."""
    for seed in (1, 5, 12):
        w = random_divfree_half(grid, seed)
        divergent = w.copy()
        divergent[0] += w[1]
        mean = w.copy()
        mean[:, 0, 0, 0] = 0.25
        yield from (w, divergent, mean)


def _without_signed_zeros(a):
    return a + 0.0  # -0.0 + 0.0 is +0.0; nonzero values keep their bits


def _solenoidal_error(grid, w):
    try:
        grid.require_solenoidal(w)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_kept_block_and_half_spectrum_agree_bit_for_bit(n):
    grid = Grid(n)
    order = np.flatnonzero(np.broadcast_to(half_tables(n).keep, (3, *grid._half_shape)))
    verdicts = []
    for w in _fields(grid):
        b = kept(grid, w)
        assert b is not None and b.shape == (3, *grid._block_shape)
        assert same_bits(b.ravel(), w.ravel()[order])
        assert same_bits(kept(grid, w[1]), b[1])
        # the sign of a zero outside the cut is the one thing spread does not keep
        assert same_bits(_without_signed_zeros(spread(grid, b)), _without_signed_zeros(w))
        # a field enters as a kept block only
        assert _solenoidal_error(grid, w)[0] is FieldShapeError
        verdicts.append(_solenoidal_error(grid, b))
    assert [v and v[0] for v in verdicts] == [None, DivergenceError, MeanModeError] * 3


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_fields_with_content_outside_the_cut_are_refused(n, tmp_path):
    grid = Grid(n)
    for i, w in enumerate(_fields(grid)):
        v = _one_mode_outside(grid, w)
        assert kept(grid, v) is None
        assert kept(grid, v[1]) is None
        assert _solenoidal_error(grid, v)[0] is FieldShapeError
        # nor can a file hold it: a snapshot is a kept block
        with pytest.raises(SnapshotError, match="expected a kept block"):
            persist_field(tmp_path / f"{i}.vslb", v, 0.0, grid)
        for norm in (grid.l2sq, grid.h1sq, grid.l2sq_h1sq, grid.l4):
            with pytest.raises(FieldShapeError):
                norm(v)


def test_kept_block_shapes_are_checked(grid8):
    w = random_divfree_field(grid8, seed=2)
    with pytest.raises(ValueError):
        spread(grid8, spread(grid8, w))
    with pytest.raises(ValueError):
        kept(grid8, w)
    with pytest.raises(ValueError):
        grid8.l2sq(w[..., :2])
    with pytest.raises(ValueError):
        grid8.h1sq(w[:2])
    with pytest.raises(ValueError):
        grid8.l4(w[:2])


def test_full_spectrum_of_real_transform_is_complex_transform(grid8):
    vals = splitmix64_uniform(7, 3 * 8**3).reshape(3, 8, 8, 8) - 0.5
    want = np.fft.fftn(vals, axes=(-3, -2, -1)) / 8**3
    assert np.max(np.abs(full_spectrum(grid8.to_spectral(vals)) - want)) < 1e-16


def test_symmetrize_is_the_full_cube_average_on_the_half(grid8):
    amp = splitmix64_uniform(5, 2 * 3 * 8 * 8 * 5).reshape(2, 3, 8, 8, 5) - 0.5
    half = amp[0] + 1j * amp[1]  # not Hermitian on the planes k_3 = 0 and -4
    full = full_spectrum(half)
    want = (0.5 * (full + conjugate_reflection(full)))[..., :5]
    got = grid8.symmetrize(half)
    assert np.array_equal(got, want)
    assert hermitian_defect(full_spectrum(got)) == 0.0
    assert not np.array_equal(got[..., 0], half[..., 0])


@pytest.mark.parametrize("name", ["taylor-green", "abc-beltrami", "random-divfree"])
def test_initial_vorticity_is_a_kept_block(grid8, name):
    assert initial_vorticity(grid8, name, seed=3).shape == (3, 5, 5, 3)


# -- property tests -----------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_operations_preserve_hermitian_symmetry(seed):
    grid = Grid(8)
    v = random_divfree_field(grid, seed=seed)
    half = spread(grid, v)
    for out in (
        spread(grid, grid.curl(v)),
        grid.leray_project(half),
        spread(grid, grid.biot_savart(v)),
        grid.dealias(half),
    ):
        assert hermitian_defect(full_spectrum(out)) < 1e-13


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_round_trip_property(seed):
    grid = Grid(8)
    vals = splitmix64_uniform(seed, 8**3).reshape(8, 8, 8) - 0.5
    back = grid.to_physical(grid.to_spectral(vals))
    assert np.max(np.abs(back - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_curl_biot_savart_identity_property(seed):
    grid = Grid(8)
    w = random_divfree_field(grid, seed=seed)
    u = grid.biot_savart(w)
    assert np.sqrt(grid.l2sq(grid.curl(u) - w) / grid.l2sq(w)) < 1e-12


# -- deterministic generator -----------------------------------------------------------------------


def test_splitmix64_against_integer_reference():
    # independent scalar implementation in plain Python integers
    def ref_stream(seed, count):
        mask = (1 << 64) - 1
        out = []
        state = seed & mask
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            out.append(z ^ (z >> 31))
        return out

    got = splitmix64(12345, 6)
    want = ref_stream(12345, 6)
    assert [int(v) for v in got] == want


def test_random_field_is_deterministic(grid8):
    a = random_divfree_field(grid8, seed=2)
    b = random_divfree_field(grid8, seed=2)
    c = random_divfree_field(grid8, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [4, 6, 8, 16, 24, 32])
def test_random_field_is_the_whole_cube_construction(n):
    # at n = 6 and 24 the draws cover a box one row wider than the cut
    grid = Grid(n)
    for seed in (0, 1, 3, 123):
        want = kept(grid, random_divfree_half(grid, seed))
        assert same_bits(random_divfree_field(grid, seed), want)


# -- canonical fields ------------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_taylor_green_is_divergence_free(n):
    grid = Grid(n)
    x1, x2, x3 = physical_grid(grid)
    sampled = np.stack(
        [np.sin(x1) * np.cos(x2) * np.cos(x3), -np.cos(x1) * np.sin(x2) * np.cos(x3), 0.0 * x1]
    )
    u = taylor_green_velocity(grid)
    assert np.max(np.abs(spread(grid, u) - grid.to_spectral(sampled))) < 1e-15
    assert grid.divergence_rel(u) < 1e-13
    w = taylor_green_vorticity(grid)
    assert grid.divergence_rel(w) < 1e-13
    assert np.max(np.abs(w[:, 0, 0, 0])) == 0.0


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_abc_flow_is_curl_eigenfield(n):
    grid = Grid(n)
    x1, x2, x3 = physical_grid(grid)
    a, b, c = 1.0, 0.7, 0.4
    sampled = np.stack(
        [
            a * np.sin(x3) + c * np.cos(x2),
            b * np.sin(x1) + a * np.cos(x3),
            c * np.sin(x2) + b * np.cos(x1),
        ]
    )
    u = abc_velocity(grid, a, b, c)
    assert np.max(np.abs(spread(grid, u) - grid.to_spectral(sampled))) < 1e-15
    w = abc_vorticity(grid, a, b, c)
    assert np.max(np.abs(grid.curl(u) - u)) < 1e-13
    assert np.max(np.abs(w - u)) < 1e-13
