"""Spectral calculus on the periodic box [0, 2pi)^3.

Fields are real and carried by their Fourier amplitudes

    f(x) = sum_k  fhat[k] * exp(i k.x),

which are Hermitian-symmetric, fhat[-k] == conj(fhat[k]), so the modes with
k_3 >= 0 hold them all.  Every field the program holds is zero outside the
2/3 cut, and is carried as its kept block: the dense array of the kept modes
with k_3 >= 0, shape (K, K, kmax + 1) for a scalar field and (3, K, K,
kmax + 1) for a vector field, K = 2 kmax + 1 (``kept_block_shape``).  On the
axes -3 and -2 the rows are k_i = 0 .. kmax and then -kmax .. -1, as numpy's
``fftfreq`` orders them; on the last axis k_3 = 0 .. kmax.  Hermitian
symmetry then constrains only the plane k_3 = 0.  Sums over modes weight
every plane by 2 for its conjugate mirror, except k_3 = 0, which stands for
itself (``Grid.block_weight``).

The kept block is the layout every field is born in: the builders below
write their amplitudes into one, the snapshot reader decodes one, and
``Grid.require_solenoidal`` takes nothing else.  Every solver state is one,
and the curl, divergence, Biot-Savart inversion and the norms take no other
layout.  A kept block goes to physical samples and back
(``Grid.block_to_physical`` and ``physical_to_block``): the transforms run
axis by axis on the lines the cut leaves nonzero, with the bits of the
whole-cube ``irfftn`` and ``rfftn``.  Their working array, which the real
transform along k_3 needs, is the one half spectrum, the (n, n, n//2+1)
layout of ``rfftn``, that a command makes.  The whole-cube methods
``to_spectral``, ``to_physical``, ``leray_project``, ``dealias`` and
``symmetrize`` take half spectra too; no command calls them, and they
remain as references for the tests and as names the bench tracer wraps.

All differential operators act modewise and are exact for band-limited
fields.  Quadratic products go through physical space and are kept
alias-free by the 2/3 truncation rule, so the discrete counterparts of the
integration-by-parts identities used by the estimate monitors hold to
rounding error.

Conventions fixed here and relied on everywhere else:

* the box edge is 2*pi, so ``l2sq`` carries the volume factor (2*pi)**3;
* the 2/3 rule keeps the modes with every |k_i| < n/3;
* the kept block holds no Nyquist row, so the derivative wavenumbers of
  the odd-derivative operators (curl, divergence) are k itself;
* the mean mode k=0 of velocities and vorticities is zero, checked where a
  field enters (``Grid.require_solenoidal``), and every field the program
  holds is zero outside the 2/3 cut, by its layout; every operation after
  keeps both.
"""

from __future__ import annotations

import numpy as np

from vslab import _fft

TWO_PI = 2.0 * np.pi
BOX_VOLUME = TWO_PI**3

# pocketfft runs on the calling thread; a second worker adds CPU time and
# gives the same bits (see ``cli._pin_blas_threads`` for the BLAS half)
_FFT_WORKERS = 1
_AXES = (-3, -2, -1)

# tolerances of the solenoidal check applied where fields enter the program
DIV_TOL = 1e-8
MEAN_TOL = 1e-13


class FieldShapeError(ValueError):
    pass


class MeanModeError(ValueError):
    """Raised when an operation needs a zero-mean field and gets one with mass at k=0."""


class DivergenceError(ValueError):
    """Raised when an operation needs a divergence-free field beyond tolerance."""


def _mirror(a, out=None):
    """conj(a) at (-k_1, -k_2), the reflection i -> -i mod n of the axes -3 and -2.

    The index map is the same in ``fftfreq`` order and in ``fftshift`` order.
    """
    return np.conjugate(np.roll(np.flip(a, axis=(-3, -2)), 1, axis=(-3, -2)), out=out)


def _density(c):
    """|c|^2 per amplitude, without the hypot that np.abs would take."""
    density = c.real**2
    density += c.imag**2
    return density


def _cross(a, b, out):
    """Pointwise a x b over the leading axis of length 3, written to ``out``.

    One temporary of a component's shape holds the subtracted products.
    """
    tmp = np.empty_like(out[0])
    for i in range(3):
        j, l = (i + 1) % 3, (i + 2) % 3
        np.multiply(a[j], b[l], out=out[i])
        out[i] -= np.multiply(a[l], b[j], out=tmp)
    return out


def kept_block_shape(n):
    """(K, K, kmax + 1) of the kept block of the 2/3 cut on a grid of size n, K = 2 kmax + 1.

    kmax = (n - 1) // 3 is the largest integer below n/3.  The cut is strict:
    products of two |k_i| = n/3 modes would alias onto kept modes.
    """
    kmax = (n - 1) // 3
    return 2 * kmax + 1, 2 * kmax + 1, kmax + 1


class Grid:
    """Cubic periodic grid with n modes per axis and the operator tables of its kept block.

    ``block_kd`` holds the wavevectors of the kept block, ``block_ksq`` and
    ``block_inv_ksq`` |k|^2 and 1/|k|^2 (0 at k = 0), and ``block_weight``
    the weight of each k_3 plane in a sum over the full spectrum.
    """

    def __init__(self, n: int):
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {n}")
        self.n = int(n)
        self._block_shape = kept_block_shape(n)
        kb, _, kk = self._block_shape  # kk = kmax + 1
        # the rows of the kept block: on the axes -3 and -2 k_i = 0 .. kmax and
        # then -kmax .. -1, on the last axis k_3 = 0 .. kmax
        k1 = np.fft.fftfreq(n, d=1.0 / n)  # integers 0..n/2-1, -n/2..-1
        rows = np.concatenate((k1[:kk], k1[n - kk + 1 :]))
        # the cut holds no Nyquist row, so the derivative wavenumbers are k itself
        self.block_kd = np.array(np.meshgrid(rows, rows, k1[:kk], indexing="ij"))
        self.block_ksq = np.sum(self.block_kd**2, axis=0)
        with np.errstate(divide="ignore"):
            inv = 1.0 / self.block_ksq
        inv[0, 0, 0] = 0.0
        self.block_inv_ksq = inv
        # each plane also stands for its conjugate mirror, except k_3 = 0
        self.block_weight = np.full(kk, 2.0)
        self.block_weight[0] = 1.0
        # each entry of _runs pairs a range of block rows with the half-spectrum rows it holds
        self._runs = ((slice(0, kk), slice(0, kk)), (slice(kk, kb), slice(n - kk + 1, n)))
        self._cut_rows = slice(kk, n - kk + 1)  # the rows of an axis outside the cut
        self._half_shape = (n, n, n // 2 + 1)
        self._spread_buffers = {}  # block_to_physical's half spectrum per leading shape
        self.cell_volume = (TWO_PI / n) ** 3

    def __repr__(self):
        return f"Grid(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    # -- shapes and layouts -----------------------------------------------------

    def _check_shape(self, arr, shape=None):
        """Raise unless ``arr`` is a scalar or 3-vector field of ``shape`` (the half spectrum)."""
        shape = self._half_shape if shape is None else shape
        if arr.shape not in (shape, (3, *shape)):
            raise FieldShapeError(f"expected shape {shape} or {(3, *shape)}, got {arr.shape}")

    def _gather(self, arr):
        """The kept block of a half-spectrum array, copied with 2x2 slices."""
        kk = self._block_shape[-1]
        out = np.empty(arr.shape[:-3] + self._block_shape, dtype=arr.dtype)
        for block1, half1 in self._runs:
            for block2, half2 in self._runs:
                out[..., block1, block2, :] = arr[..., half1, half2, :kk]
        return out

    def _spread_buffer(self, lead):
        """A half spectrum with leading shape ``lead``, kept by the grid and reused.

        Only ``block_to_physical`` writes it, and only on k_3 = 0 .. kmax,
        each entry before it reads it, so it stays zero for k_3 > kmax.
        """
        if lead not in self._spread_buffers:
            self._spread_buffers[lead] = np.zeros(lead + self._half_shape, dtype=np.complex128)
        return self._spread_buffers[lead]

    # -- transforms ---------------------------------------------------------

    def block_to_physical(self, *blocks):
        """Physical samples of kept blocks, stacked on a leading axis when there are several.

        Each block is pre-scaled by n^3 as it is spread along k_1, and the
        complex pass along the axis -3 runs on the kept k_2 rows only.  They
        are then spread along k_2, a pass along the axis -2 runs on k_3 = 0 ..
        kmax, and one c2r along the last axis, scaled by 1/n^3, gives the
        samples.  That is the order of pocketfft's own passes, with the
        scale where the whole-cube ``irfftn`` applies it, so the samples are
        its bits.  The passes run in a half spectrum the grid keeps
        (``_spread_buffer``), one per leading shape.  Several blocks must be
        vector fields; a half spectrum raises ``FieldShapeError``.
        """
        for block in blocks:
            self._check_shape(block, self._block_shape)
        if len(blocks) > 1 and any(block.ndim == 3 for block in blocks):
            raise FieldShapeError("only vector blocks are stacked")
        n, scale = self.n, float(self.n**3)
        kb, _, kk = self._block_shape
        lead = blocks[0].shape[:-3] if len(blocks) == 1 else (3 * len(blocks),)
        buf = self._spread_buffer(lead)
        planes = buf.reshape(-1, *self._half_shape)[..., :kk]  # k_3 > kmax stays zero
        # spread along k_1 only: k_2 stays in block order, on the rows 0 .. kb-1
        part = planes[:, :, :kb]
        part[:, self._cut_rows] = 0
        for i, block in enumerate(blocks):
            for block1, half1 in self._runs:
                out = part[3 * i : 3 * i + 3, half1]
                np.multiply(block[..., block1, :, :], scale, out=out)
        _fft.fft(part, -3, False, _FFT_WORKERS, out=part)
        # spread along k_2: the rows 0 .. kmax are in place, -kmax .. -1 move up
        # to rows past kb, so the copy does not overlap
        (_, _), (block2, half2) = self._runs
        planes[:, :, half2] = planes[:, :, block2]
        planes[:, :, self._cut_rows] = 0
        _fft.fft(planes, -2, False, _FFT_WORKERS, out=planes)
        phys = _fft.irfftn(buf, (n,), (-1,), _FFT_WORKERS, norm="forward")
        phys *= 1.0 / scale
        return phys

    def physical_to_block(self, values):
        """The kept block of the amplitudes of physical samples.

        One r2c along the last axis, a complex pass along the axis -3 on
        k_3 = 0 .. kmax and one along the axis -2 on the kept k_1 rows, in
        pocketfft's order, then the gather and a multiplication by 1/n^3:
        the bits of the kept block of ``rfftn`` times 1/n^3 (``to_spectral``
        divides instead, which may differ in the last bit).
        """
        self._check_shape(values, (self.n,) * 3)
        kk = self._block_shape[-1]
        half = _fft.rfftn(values, (-1,), _FFT_WORKERS)
        planes = half[..., :kk]
        _fft.fft(planes, -3, True, _FFT_WORKERS, out=planes)
        for _, half1 in self._runs:
            rows = planes[..., half1, :, :]
            _fft.fft(rows, -2, True, _FFT_WORKERS, out=rows)
        block = self._gather(half)
        block *= 1.0 / self.n**3
        return block

    # -- differential operators ----------------------------------------------

    def divergence(self, v):
        """Vector block -> scalar block, modewise i*k.vhat."""
        self._check_shape(v, self._block_shape)
        kd = self.block_kd
        return 1j * (kd[0] * v[0] + kd[1] * v[1] + kd[2] * v[2])

    def curl(self, v):
        """Vector block -> vector block, modewise i*k x vhat."""
        self._check_shape(v, self._block_shape)
        out = _cross(self.block_kd, v, np.empty(v.shape, dtype=np.complex128))
        out *= 1j
        return out

    def divergence_rel(self, v):
        """Dimensionless divergence residual |k.vhat| / |k||vhat| in L2 of a vector block.

        NaN when the squared L2 norm of |k||vhat| overflows.
        """
        num = self._mode_sum(_density(self.divergence(v)))
        den = self._mode_sum(self.block_ksq * np.sum(_density(v), axis=0))
        if den == 0.0:
            return 0.0
        return float(np.sqrt(num / den)) if np.isfinite(den) else float("nan")

    def require_solenoidal(self, w):
        """Raise unless the kept vector block w is zero-mean and divergence-free; returns w.

        Zero mean and a relative divergence at most DIV_TOL.  Biot-Savart
        inversion needs both: no periodic vector potential exists for mass
        at k=0, and the inversion would silently drop a gradient part.
        Called where fields enter the program; the solvers preserve both
        properties by construction.  A field is cut by its layout: anything
        but a kept vector block raises ``FieldShapeError``.  Non-finite
        coefficients are rejected first, since NaN passes every comparison,
        and so are coefficients so large that the squared H1 norm overflows,
        which the divergence test and every monitor need.
        """
        shape = (3, *self._block_shape)
        if w.shape != shape:
            raise FieldShapeError(f"expected a kept vector block {shape}, got {w.shape}")
        scale = float(np.max(np.abs(w)))
        if not np.isfinite(scale):
            raise ValueError(f"non-finite coefficients (max |w| = {scale})")
        mean = float(np.max(np.abs(w[:, 0, 0, 0])))
        if mean > MEAN_TOL * max(scale, 1.0):
            raise MeanModeError(f"mean vorticity {mean:.3e} is not zero")
        with np.errstate(over="ignore"):  # the squares of amplitudes near the float64 limit
            rel = self.divergence_rel(w)
        if np.isnan(rel):
            raise ValueError(f"squared H1 norm overflows (max |w| = {scale:.3e})")
        if rel > DIV_TOL:
            raise DivergenceError(f"relative divergence {rel:.3e} exceeds {DIV_TOL:.1e}")
        return w

    def biot_savart(self, w):
        """Velocity with curl u = w: uhat = i k x what / |k|^2, zero mean.

        Meaningful for zero-mean divergence-free w; see ``require_solenoidal``.
        """
        u = self.curl(w)
        u *= self.block_inv_ksq
        return u

    # -- norms ----------------------------------------------------------------

    def _mode_sum(self, density):
        """Sum over the full spectrum of a per-mode density on the kept block.

        The gemv runs over rows of the last axis, in C order.
        """
        return float(np.sum(density.reshape(-1, density.shape[-1]) @ self.block_weight))

    def l2sq(self, coeffs):
        """Squared L2 norm over the box, components summed (Parseval)."""
        self._check_shape(coeffs, self._block_shape)
        return BOX_VOLUME * self._mode_sum(_density(coeffs))

    def h1sq(self, coeffs):
        """Squared L2 norm of the gradient, components summed."""
        self._check_shape(coeffs, self._block_shape)
        return self._gradient_sum(_density(coeffs))

    def l2sq_h1sq(self, coeffs):
        """(l2sq, h1sq) of one field from a single density pass, bit for bit the two methods."""
        self._check_shape(coeffs, self._block_shape)
        density = _density(coeffs)
        return BOX_VOLUME * self._mode_sum(density), self._gradient_sum(density)

    def _gradient_sum(self, density):
        """h1sq from the per-mode density of the field."""
        if density.ndim == 4:
            density = np.sum(density, axis=0)
        return BOX_VOLUME * self._mode_sum(self.block_ksq * density)

    def l4(self, coeffs):
        """L4 norm of |field| evaluated on the physical grid quadrature.

        The block is sampled with ``block_to_physical``, which gives the bits
        of the whole-cube inverse transform of its half spectrum.
        """
        mag_sq = self.block_to_physical(coeffs)
        # squared in place: the same bits as the sums of the squares
        np.square(mag_sq, out=mag_sq)
        if mag_sq.ndim == 4:
            mag_sq = np.sum(mag_sq, axis=0)
        np.square(mag_sq, out=mag_sq)
        return float((np.sum(mag_sq) * self.cell_volume) ** 0.25)

    # -- whole-cube references ---------------------------------------------------
    #
    # Half-spectrum methods that no command calls.  The tests use them as
    # references, and bench/tracer.py wraps them by name.

    def _half_wavevectors(self):
        """The wavevectors (3, n, n, n//2+1) of the half spectrum, built on each call."""
        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return np.array(np.meshgrid(k1, k1, k1[: self.n // 2 + 1], indexing="ij"))

    def to_spectral(self, values):
        """Forward real transform of physical samples to half-spectrum amplitudes."""
        vals = np.asarray(values, dtype=np.float64)
        self._check_shape(vals, (self.n,) * 3)
        return _fft.rfftn(vals, _AXES, _FFT_WORKERS) / self.n**3

    def to_physical(self, coeffs):
        """Inverse real transform of half-spectrum amplitudes to physical samples."""
        self._check_shape(coeffs)
        n = self.n
        return _fft.irfftn(coeffs * n**3, (n, n, n), _AXES, _FFT_WORKERS)

    def symmetrize(self, coeffs):
        """Hermitian fix-up of the self-conjugate planes k_3 = 0 and k_3 = -n/2.

        On each of them the amplitude at (k_1, k_2) is averaged with the
        conjugate of the one at (-k_1, -k_2); the other planes have their
        mirrors outside the stored half and are returned unchanged.
        """
        out = np.array(coeffs, dtype=np.complex128)
        planes = [0, self.n // 2]
        edge = out[..., planes]
        out[..., planes] = 0.5 * (edge + _mirror(edge))
        return out

    def leray_project(self, v):
        """Remove the gradient part of a half spectrum: vhat - k (k.vhat)/|k|^2, identity at k=0."""
        self._check_shape(v)
        k = self._half_wavevectors()
        with np.errstate(divide="ignore"):
            inv_ksq = 1.0 / np.sum(k**2, axis=0)
        inv_ksq[0, 0, 0] = 0.0
        kdotv = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
        return v - k * (kdotv * inv_ksq)[np.newaxis]

    def dealias(self, coeffs):
        """Zero every mode of a half spectrum with any |k_i| >= n/3 (2/3 rule)."""
        self._check_shape(coeffs)
        keep = np.all(np.abs(self._half_wavevectors()) < self._block_shape[-1], axis=0)
        return coeffs * keep


# -- canonical initial fields ----------------------------------------------


def taylor_green_velocity(grid: Grid):
    """Classic Taylor-Green vortex velocity, amplitude 1, as a kept block of its exact amplitudes.

    u = (sin x1 cos x2 cos x3, -cos x1 sin x2 cos x3, 0) has eight modes
    k = (+-1, +-1, +-1); the kept block stores the four with k_3 = 1, where
    the row index -1 holds k = -1 on the axes -3 and -2.
    """
    u = np.zeros((3, *grid._block_shape), dtype=np.complex128)
    for k1 in (1, -1):
        for k2 in (1, -1):
            u[0, k1, k2, 1] = -0.125j * k1
            u[1, k1, k2, 1] = 0.125j * k2
    return u


def taylor_green_vorticity(grid: Grid):
    return grid.curl(taylor_green_velocity(grid))


def abc_velocity(grid: Grid, a=1.0, b=1.0, c=1.0):
    """ABC flow, an eigenfield of curl with eigenvalue 1 (Beltrami), as a kept block.

    u = (a sin x3 + c cos x2, b sin x1 + a cos x3, c sin x2 + b cos x1);
    each term is a pair of modes k = +-e_i, of which the kept block stores
    both for i = 1, 2 (on the plane k_3 = 0) and k = e_3 for i = 3.
    """
    u = np.zeros((3, *grid._block_shape), dtype=np.complex128)
    u[0, 0, 0, 1] = -0.5j * a
    u[1, 0, 0, 1] = 0.5 * a
    for s in (1, -1):
        u[0, 0, s, 0] = 0.5 * c
        u[1, s, 0, 0] = -0.5j * s * b
        u[2, 0, s, 0] = -0.5j * s * c
        u[2, s, 0, 0] = 0.5 * b
    return u


def abc_vorticity(grid: Grid, a=1.0, b=1.0, c=1.0):
    # curl u = u for the ABC family, so the vorticity shares the amplitudes
    return grid.curl(abc_velocity(grid, a, b, c))


# -- deterministic random fields --------------------------------------------

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int):
    """First ``count`` outputs of the splitmix64 stream seeded with ``seed``."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _SM64_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM64_M1
        z = (z ^ (z >> np.uint64(27))) * _SM64_M2
        z = z ^ (z >> np.uint64(31))
    return z


def splitmix64_uniform(seed: int, count: int):
    """Uniform [0,1) doubles derived from the top 53 bits of splitmix64."""
    return (splitmix64(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def random_divfree_field(grid: Grid, seed: int):
    """Seeded divergence-free zero-mean vector field of unit L2 norm, as a kept block.

    Amplitudes are drawn mode by mode in lexicographic wavevector order over
    the box |k_i| <= min(n/3, n/2-1), k = 0 left out, from the splitmix64
    stream (six uniforms per mode: re/im for each component), damped by
    1/(1+|k|^2), Hermitian-symmetrized on the box, cut, projected and
    normalised, so the construction is reproducible across implementations.
    The box is one row wider than the cut when 3 divides n.
    """
    n = grid.n
    kmax = min(int(n / 3.0), n // 2 - 1)
    k = np.arange(-kmax, kmax + 1)
    ksq = (k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2).ravel()
    drawn = ksq != 0  # the box in C order is the lexicographic order of k
    draws = splitmix64_uniform(seed, 6 * np.count_nonzero(drawn)).reshape(-1, 3, 2)
    amp = 2.0 * draws - 1.0
    damp = 1.0 / (1.0 + ksq[drawn].astype(np.float64))
    box = np.zeros((ksq.size, 3), dtype=np.complex128)
    box[drawn] = damp[:, None] * (amp[..., 0] + 1j * amp[..., 1])
    side = 2 * kmax + 1
    box = box.T.reshape(3, side, side, side)
    # the box is symmetric about k = 0, so -k is every axis reversed
    box = 0.5 * (box + np.conj(box[:, ::-1, ::-1, ::-1]))
    cut = grid._block_shape[-1] - 1  # the kmax of the cut: kmax - 1 when 3 divides n
    rows = slice(kmax - cut, kmax + cut + 1)
    # k_3 >= 0, and the rows of the axes -3 and -2 in block order, 0 .. cut, -cut .. -1
    w = np.fft.ifftshift(box[:, rows, rows, kmax : kmax + cut + 1], axes=(-3, -2))
    w[:, 0, 0, 0] = 0.0
    kd = grid.block_kd  # equal to k on the kept modes, which hold no Nyquist row
    kdotv = kd[0] * w[0] + kd[1] * w[1] + kd[2] * w[2]
    w = w - kd * (kdotv * grid.block_inv_ksq)[np.newaxis]
    norm = np.sqrt(grid.l2sq(w))
    if norm == 0.0:
        raise ValueError("degenerate random field")
    return w / norm


_INITIAL_BUILDERS = {
    "taylor-green": taylor_green_vorticity,
    "abc-beltrami": abc_vorticity,
}


def initial_vorticity(grid: Grid, name: str, seed: int = 0):
    """Vorticity initial condition by registry name, as a kept block."""
    if name in _INITIAL_BUILDERS:
        return _INITIAL_BUILDERS[name](grid)
    if name == "random-divfree":
        return random_divfree_field(grid, seed)
    raise ValueError(f"unknown initial condition {name!r}")
