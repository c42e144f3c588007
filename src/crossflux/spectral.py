"""Spectral calculus on the flat torus [0,1)^d for d in {1, 2}.

Conventions
-----------
The torus carries unit measure.  Plane waves are exp(2*pi*i*xi.x) with
integer frequency vectors xi, so the Laplacian acts as multiplication by
-4*pi^2*|xi|^2.  Fields are sampled at the N^d cell centers
x_i = (i + 1/2)/N, which keeps dyadic step functions exactly resolvable.

Coefficients are *true* Fourier coefficients of the trigonometric
interpolant: the half-cell sampling offset is absorbed into a phase
factor during the transform.  For a real field every representable pair
(xi, -xi) is conjugate-symmetric; the unpaired Nyquist slot -N/2 holds a
coefficient encoding a sine-type mode.  A `SpectralField` stores them in
the full FFT layout (frequencies 0..N/2-1, -N/2..-1 per axis); a
`SpectralPlan` works in the real-FFT half layout, which drops the
conjugate half of the last axis.  `full_coeffs`/`half_coeffs` convert.

Every transform goes through a `SpectralPlan`, which alone knows the
phase factors; `poly_plan` alone applies the dealiasing rule
(`dealias_size`) to the polynomials a caller evaluates.  The plan makes
one FFT call per axis: r2c on the last axis, then in 2-d c2c on the
first axis over the stored N/2+1 columns only, and the reverse for the
inverse, whose c2r to M points pads the columns of a finer grid.

Those calls are the FFT seam, `_r2c`, `_c2c`, `_ic2c` and `_c2r`, the
only FFT calls of the package.  Each calls numpy's pocketfft gufunc
directly, with the factor and output array that `np.fft`'s wrapper
would pass, so the bits are those of `np.fft` without its per-call cost,
which exceeds the transform's on small grids.  If `np.fft.<name>` has
been replaced (a tracer or a test counting transforms), the seam calls
the replacement instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft, _pocketfft_umath as _pfu

from .errors import ConfigError, DomainError

FOUR_PI_SQ = 4.0 * math.pi ** 2
# largest fine size M per grid size N: the factor by which the degree of
# the flux polynomials multiplies the memory of every dealiased product
MAX_FINE_RATIO = 8


@lru_cache(maxsize=64)
def _fourier_data(d: int, n: int):
    """Frequency axes, |xi|^2, and half-cell phase factors for an n^d grid."""
    freqs = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    axes = []
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        axes.append(freqs.reshape(shape))
    xi_sq = sum(a.astype(np.float64) ** 2 for a in axes)
    phase_fwd = np.ones((n,) * d, dtype=np.complex128)
    for a in axes:
        phase_fwd = phase_fwd * np.exp(-1j * math.pi * a / n)
    return tuple(axes), xi_sq, phase_fwd, np.conj(phase_fwd)


class TorusGrid:
    """Uniform cell-centered grid with N = 2^J points per axis, J >= 3."""

    def __init__(self, d: int, N: int):
        if d not in (1, 2):
            raise ConfigError(f"d must be 1 or 2, got {d}")
        if N < 8 or (N & (N - 1)) != 0:
            raise ConfigError(f"N must be a power of two >= 8, got {N}")
        self.d = d
        self.N = N
        self.shape = (N,) * d
        self.size = N ** d

    def coords(self, axis: int = 0) -> np.ndarray:
        """Cell-center coordinates along one axis, broadcastable to shape."""
        x = (np.arange(self.N) + 0.5) / self.N
        shape = [1] * self.d
        shape[axis] = self.N
        return np.broadcast_to(x.reshape(shape), self.shape)

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and (self.d, self.N) == (other.d, other.N)

    def __hash__(self):
        return hash((self.d, self.N))

    def __repr__(self):
        return f"TorusGrid(d={self.d}, N={self.N})"


@dataclass(frozen=True)
class Field:
    """Real scalar field sampled at the cell centers of a TorusGrid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ConfigError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", vals)

    def _binary(self, other, op):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ConfigError("fields live on different grids")
            return Field(self.grid, op(self.values, other.values))
        return Field(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return Field(self.grid, other - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Field):
            return self._binary(other, np.divide)
        return Field(self.grid, self.values / other)

    def __neg__(self):
        return Field(self.grid, -self.values)


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real field, FFT layout, phase-corrected."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise ConfigError(
                f"coefficient shape {c.shape} does not match grid shape {self.grid.shape}")
        object.__setattr__(self, "coeffs", c)

    def get(self, xi) -> complex:
        """Coefficient at integer frequency xi (scalar for d=1, pair for d=2)."""
        if self.grid.d == 1:
            idx = (int(xi),)
        else:
            try:
                idx = tuple(int(c) for c in xi)
            except TypeError:
                raise DomainError("d=2 frequencies are pairs") from None
            if len(idx) != 2:
                raise DomainError("d=2 frequencies are pairs")
        half = self.grid.N // 2
        for c in idx:
            if abs(c) > half:
                raise DomainError(f"frequency {idx} outside |xi| <= N/2")
        return complex(self.coeffs[tuple(c % self.grid.N for c in idx)])


def dealias_size(N: int, degree: int) -> int:
    """Points per axis M at which a degree-D polynomial of N-point fields
    is evaluated so that its projection back to N points is exact.

    The smallest even M >= max(N, (D+1)N/2), the 3/2 rule for D = 2
    (Orszag 1971).  For odd D >= 3, M lies strictly above (D+1)N/2: the
    modes +-DN/2 of the split Nyquist parts alias onto +-N/2 and do not
    cancel in the fold.
    """
    M = max(N, -(-(degree + 1) * N // 2))
    if degree >= 3 and degree % 2:
        M += 1
    return M + M % 2


def _mirror(grid: TorusGrid, coeffs: np.ndarray) -> np.ndarray:
    """The coefficient a real field has at each xi, read off at -xi: the
    conjugate of c(-xi), sign-flipped once per axis where xi sits in the
    unpaired -N/2 slot (its own mirror; the half-cell phase flips there)."""
    N = grid.N
    rev = -np.arange(N) % N
    sign = np.where(rev == N // 2, -1.0, 1.0)
    out = coeffs[..., rev] * sign
    if grid.d == 2:
        out = out[..., rev, :] * sign[:, None]
    return np.conj(out)


def full_coeffs(grid: TorusGrid, half: np.ndarray) -> np.ndarray:
    """Full FFT layout of half-layout coefficients (see `SpectralPlan`)."""
    h = grid.N // 2 + 1
    full = np.zeros(half.shape[:-1] + (grid.N,), dtype=np.complex128)
    full[..., :h] = half
    full[..., h:] = _mirror(grid, full)[..., h:]
    return full


def half_coeffs(grid: TorusGrid, full: np.ndarray) -> np.ndarray:
    """Half layout of full-layout coefficients, which must be those of a
    real field: Hermitian-symmetric up to 1e-9 of the largest one."""
    scale = 1.0 + float(np.max(np.abs(full)))
    if float(np.max(np.abs(full - _mirror(grid, full)))) > 1e-9 * scale:
        raise DomainError("coefficients are not Hermitian-symmetric; inverse is not real")
    return full[..., :grid.N // 2 + 1]


class Work:
    """Named work arrays, and the bound calls of `SpectralPlan` methods.

    `array(name, shape, dtype)` gives an array to write into, zero when
    made if `zero` is set.  A `Work()` makes each array on its first
    request and hands the same one back for every later request of that
    name and shape, so a caller that passes one work object to every call
    allocates nothing large after its first call.  A result a method
    returns then lives in one of these arrays, and later calls with the
    same work object overwrite it.

    `bound(bind, *args)` gives the call that `bind(*args, work)` builds
    on the first request of those arguments, and the same call for every
    later request: each plan method binds, per plan and input shape, its
    work arrays, their views and its factors once, so a later call only
    runs its ufunc and FFT calls.  Bound calls live here, per work
    object, and never in a plan.

    The caller owns the work object: the time loop makes one per run,
    shared by a batch of runs, and the shared plans hold none.  `FRESH`,
    the default of every method, keeps nothing: it makes new arrays on
    every request, and a method called with it binds into a new work
    object that it then drops.
    """

    def __init__(self):
        self._arrays = {}
        self._calls = {}

    def array(self, name: str, shape: tuple, dtype=np.float64, zero: bool = False):
        try:
            return self._arrays[name, shape]
        except KeyError:
            a = self._arrays[name, shape] = (np.zeros if zero else np.empty)(shape, dtype)
            return a

    def bound(self, bind, *args):
        try:
            return self._calls[bind, args]
        except KeyError:
            call = self._calls[bind, args] = bind(*args, self)
            return call


class _Fresh(Work):
    def array(self, name: str, shape: tuple, dtype=np.float64, zero: bool = False):
        return (np.zeros if zero else np.empty)(shape, dtype)

    def bound(self, bind, *args):
        return bind(*args, Work())


FRESH = _Fresh()


# The FFT seam (see the module docstring).  A seam function looks up
# `np.fft.<name>` on every call and compares it with numpy's own function,
# not with one taken at import, so an import made under a tracer does not
# lock later runs onto the replacement.  Its gufunc gets the factor that
# numpy's `_raw_fft` passes: 1/n forward, 1 inverse.  The gufuncs are
# private to numpy 2.x; `test_fft_seam_is_numpy_fft_bitwise` pins them.
_AXIS_2 = [(-2,), (), (-2,)]


def _r2c(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r2c of the last axis (even length n, as on every grid), "forward"
    norm, into out."""
    rfft = np.fft.rfft
    if rfft is _pocketfft.rfft:
        return _pfu.rfft_n_even(a, 1 / a.shape[-1], out=out)
    return rfft(a, axis=-1, norm="forward", out=out)


def _c2c(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forward c2c of axis -2, "forward" norm, into out (may be a)."""
    fft = np.fft.fft
    if fft is _pocketfft.fft:
        return _pfu.fft(a, 1 / a.shape[-2], axes=_AXIS_2, out=out)
    return fft(a, axis=-2, norm="forward", out=out)


def _ic2c(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse c2c of axis -2, "forward" norm, into out (may be a)."""
    ifft = np.fft.ifft
    if ifft is _pocketfft.ifft:
        return _pfu.ifft(a, 1.0, axes=_AXIS_2, out=out)
    return ifft(a, axis=-2, norm="forward", out=out)


def _c2r(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c2r of the last axis to n = out.shape[-1] samples, "forward" norm,
    into out; columns past those of a are taken as zero."""
    irfft = np.fft.irfft
    if irfft is _pocketfft.irfft:
        return _pfu.irfft(a, 1.0, out=out)
    return irfft(a, n=out.shape[-1], axis=-1, norm="forward", out=out)


def _forward(shape: tuple, d: int, h: int, work: Work):
    """The forward transform of samples of the given shape, bound into
    `work`: a call gives the first h columns of the real FFT ("forward"
    norm) over the trailing d axes, a view into a work array.  r2c on the
    last axis, then in 2-d c2c in place on the first axis over those h
    columns only.  numpy's `rfftn` makes the same per-axis calls, so the
    numbers are those of its columns :h."""
    spectrum = work.array("spectrum", shape[:-1] + (shape[-1] // 2 + 1,), np.complex128)
    f = spectrum[..., :h]

    def run(vals):
        _r2c(vals, spectrum)
        if d == 2:
            _c2c(f, f)
        return f
    return run


def _inverse(coeffs: np.ndarray, d: int, out: np.ndarray,
             mid: np.ndarray | None = None) -> np.ndarray:
    """Samples on the n^d grid of `out`, written into it, of half-layout
    coefficients (all n rows in 2-d) whose columns past the given ones
    are zero: in 2-d c2c on the first axis, into `mid` or else in place
    in `coeffs`, then c2r to n points on the last axis, which pads the
    missing columns with zeros.  The numbers are those of `irfftn` of
    the explicitly zero-padded array."""
    if d == 2:
        coeffs = _ic2c(coeffs, coeffs if mid is None else mid)
    return _c2r(coeffs, out)


class SpectralPlan:
    """Transforms of one grid, and dealiased products through an M-grid,
    in the real-FFT half layout.

    Coefficients keep the frequencies 0..N/2 of the last axis (all N of
    the first axis in 2-d); the rest follow from c(-xi) = conj(c(xi)).
    The N/2 column holds the -N/2 coefficient of the full layout, whose
    unpaired slot encodes a sine-type mode.  `lam` and `xi_sq` are laid
    out alike.  `power` gives the Parseval density of coefficients: a sum
    of w(xi)|c(xi)|^2 over all frequencies, for w even in xi, is the
    half-layout sum of w * power(c).  `derivative` gives the samples of
    an axis derivative.

    `to_coeffs`/`to_values` map cell-center samples to coefficients and
    back.  `fine_values` evaluates the interpolant at the cell centers of
    the M-point grid (M >= N even), and `project_fine` is the L^2
    projection of M-point samples onto the N-point band.  Padding splits
    each unpaired -N/2 slot between -N/2 and +N/2 with opposite signs;
    along the half axis only +N/2 is stored, as -c/2, its mirror holding
    +c/2.  Truncation folds +N/2 back into -N/2: along the half axis
    c(xi0, -N/2) = conj(F(-xi0, N/2)) - F(xi0, N/2), then the first axis
    is folded row by row.  So project_fine(fine_values(c)) == c.

    Transforms go through `_forward`/`_inverse`, one call of the FFT
    seam per axis.  The c2r to M points pads the columns past N/2, so
    1-d padding builds no zero array and 2-d padding an (M, N/2+1) one
    for the rows; the first-axis passes skip the columns that are all zero (inverse) or
    thrown away (forward).  The numbers are bitwise those of
    `rfftn`/`irfftn` on the full M-grid.

    Every method writes its intermediates and its result into the arrays
    of a `Work`, through `out=` on the FFT calls and the ufuncs.  The
    caller owns it: the time loop passes one per run, so its steps
    reuse the same arrays, and the 2-d padding array is zeroed once, each
    call rewriting only its N rows and the split row.  On its first call
    with a work object, for this plan and input shape, a method binds its
    work arrays, their views and its factors (in `poly_coeffs`, each
    polynomial's ufunc calls too) into a call that the work object keeps
    (`Work.bound`); later calls only look it up and run it.  The seam
    looks up `np.fft` when a call runs, not when it is bound, and calls
    numpy's gufuncs unless a `np.fft` function has been replaced.  A plan
    holds no work arrays and no bound calls, as plans are shared; without
    a work object a call binds into fresh arrays (`FRESH`).
    Inputs are only read, and in 2-d their row blocks are sliced per call.

    Every method acts on the trailing d axes and maps over any leading
    axes, so a stack of fields of shape (T, *grid.shape) is transformed
    in one call; a single field is a stack with no leading axes.
    """

    def __init__(self, grid: TorusGrid, M: int):
        if M < grid.N or M % 2:
            raise ConfigError(f"fine size M must be an even integer >= N={grid.N}, got {M}")
        self.grid = grid
        self.M = M
        d, N = grid.d, grid.N
        h = N // 2 + 1
        axes, xi_sq, fwd, inv = _fourier_data(d, N)
        self._freq_axes = tuple(a[..., :h] for a in axes)
        self.xi_sq = xi_sq[..., :h]
        self.lam = FOUR_PI_SQ * self.xi_sq
        self._weight = np.where((np.arange(h) == 0) | (np.arange(h) == N // 2), 1.0, 2.0)
        self._fwd, self._inv = fwd[..., :h], inv[..., :h]
        if M == N:
            return
        _, _, fine_fwd, fine_inv = _fourier_data(d, M)
        # rows of the M-grid that hold the N rows of the first axis (2-d)
        k = np.arange(N)
        rows = np.where(k < N // 2, k, k + M - N)
        # padding multiplies by the phase of the slot it fills; the -N/2
        # column is stored at +N/2 as -1/2 c, the -N/2 row (2-d) is split
        # as +1/2 c there and -1/2 c at the +N/2 row
        pad = fine_inv[..., :h].copy()
        pad[..., N // 2] *= -0.5
        if d == 2:
            self._pad_split = -0.5 * pad[N // 2]
            pad = pad[rows]
            pad[N // 2] *= 0.5
            self._rev = -np.arange(M) % M
            self._proj_col = fine_fwd[:, N // 2]
            self._proj_split = fine_fwd[N // 2, :h]
            self._proj = fine_fwd[rows, :h]
        else:
            self._proj = fine_fwd[:h]
        self._pad = pad

    def power(self, coeffs: np.ndarray) -> np.ndarray:
        """|c|^2 weighted 1 on columns 0 and N/2, 2 on the others."""
        return self._weight * np.abs(coeffs) ** 2

    def derivative(self, coeffs: np.ndarray, axis: int) -> np.ndarray:
        """Samples of the derivative along `axis` of the interpolant.  The
        unpaired -N/2 mode differentiates to 0: on the cell-centered grid
        its derivative vanishes at every node."""
        freq = self._freq_axes[axis]
        mult = 2j * np.pi * np.where(freq == -self.grid.N // 2, 0.0, freq)
        return self.to_values(coeffs * mult)

    def to_coeffs(self, vals: np.ndarray, work: Work = FRESH) -> np.ndarray:
        return work.bound(self._to_coeffs, vals.shape)(vals)

    def to_values(self, coeffs: np.ndarray, work: Work = FRESH) -> np.ndarray:
        return work.bound(self._to_values, coeffs.shape)(coeffs)

    def fine_values(self, coeffs: np.ndarray, work: Work = FRESH) -> np.ndarray:
        return work.bound(self._fine_values, coeffs.shape)(coeffs)

    def project_fine(self, vals: np.ndarray, work: Work = FRESH) -> np.ndarray:
        return work.bound(self._project_fine, vals.shape)(vals)

    def poly_coeffs(self, polys, c: np.ndarray, work: Work = FRESH) -> np.ndarray:
        """Coefficients of each polynomial of (u, v), stacked along a new
        first axis, given the stack c = (coefficients of u, of v).  u and
        v are sampled on the fine grid in one call, and the polynomials
        are projected back in one call."""
        return work.bound(self._poly_coeffs, tuple(polys), c.shape)(c)

    # Each method above runs the call that one of these binders builds,
    # through `Work.bound`, from the shape of its input: a binder takes
    # its work arrays, their views and its factors once.

    def _to_coeffs(self, shape, work):
        forward, fwd = _forward(shape, self.grid.d, self.grid.N // 2 + 1, work), self._fwd

        def run(vals):
            c = forward(vals)
            return np.multiply(c, fwd, out=c)
        return run

    def _scaled_inverse(self, shape, factor, n, name, work):
        # samples on the n-point grid, in the work array `name`, of the
        # coefficients times `factor`, padded by irfft(n=n) alone
        c = work.array("coeffs", shape, np.complex128)
        out, d = work.array(name, shape[:-1] + (n,)), self.grid.d

        def run(coeffs):
            return _inverse(np.multiply(coeffs, factor, out=c), d, out)
        return run

    def _to_values(self, shape, work):
        return self._scaled_inverse(shape, self._inv, self.grid.N, "values", work)

    def _fine_values(self, shape, work):
        d, N, M = self.grid.d, self.grid.N, self.M
        if M == N or d == 1:
            # no padding, or padding that irfft(n=M) does
            return self._scaled_inverse(shape, self._inv if M == N else self._pad, M,
                                        "fine", work)
        # the first axis is padded in the middle: rows N/2..M-N/2 stay
        # zero but for the split -N/2 row, so only those rows are written
        lead, h = shape[:-2], N // 2 + 1
        c = work.array("pad", lead + (M, h), np.complex128, zero=True)
        low, high, split = c[..., :N // 2, :], c[..., M - N // 2:, :], c[..., N // 2, :]
        pad_low, pad_high, pad_split = self._pad[:N // 2], self._pad[N // 2:], self._pad_split
        # the c2c pass goes into the projection's spectrum, idle until then
        mid = work.array("spectrum", lead + (M, M // 2 + 1), np.complex128)[..., :h]
        fine = work.array("fine", lead + (M, M))

        def run(coeffs):
            np.multiply(coeffs[..., :N // 2, :], pad_low, out=low)
            np.multiply(coeffs[..., N // 2:, :], pad_high, out=high)
            np.multiply(coeffs[..., N // 2, :], pad_split, out=split)
            return _inverse(c, 2, fine, mid)
        return run

    def _project_fine(self, shape, work):
        d, N, M, h = self.grid.d, self.grid.N, self.M, self.grid.N // 2 + 1
        if M == N:
            return self._to_coeffs(shape, work)
        forward, proj = _forward(shape, d, h, work), self._proj
        out = work.array("coeffs", shape[:-d] + self.lam.shape, np.complex128)
        if d == 1:
            col = out[..., N // 2]

            def run(vals):
                np.multiply(forward(vals), proj, out=out)
                np.subtract(np.conj(col), col, out=col)
                return out
            return run
        rev, proj_col, proj_split = self._rev, self._proj_col, self._proj_split
        proj_low, proj_high = proj[:N // 2], proj[N // 2:]
        low, high, split = out[..., :N // 2, :], out[..., N // 2:, :], out[..., N // 2, :]
        col_low, col_high = out[..., :N // 2, N // 2], out[..., N // 2:, N // 2]

        def run(vals):
            fine = forward(vals)
            col = fine[..., N // 2] * proj_col
            col = np.conj(col[..., rev]) - col
            np.multiply(fine[..., :N // 2, :], proj_low, out=low)
            np.multiply(fine[..., M - N // 2:, :], proj_high, out=high)
            col_low[...] = col[..., :N // 2]
            col_high[...] = col[..., M - N // 2:]
            row = fine[..., N // 2, :] * proj_split
            row[..., N // 2] = col[..., N // 2]
            np.subtract(split, row, out=split)
            return out
        return run

    def _poly_coeffs(self, polys, shape, work):
        d, M = self.grid.d, self.M
        fine_values = self._fine_values(shape, work)
        # the array that fine_values writes, and a row per polynomial
        uf, vf = work.array("fine", shape[:-d] + (M,) * d)
        fine = work.array("polys", (len(polys),) + uf.shape)
        ops = [op for p, row in zip(polys, fine) for op in p.operations(uf, vf, row, work)]
        project_fine = self._project_fine(fine.shape, work)

        def run(c):
            fine_values(c)
            for ufunc, args in ops:
                ufunc(*args)
            return project_fine(fine)
        return run


@lru_cache(maxsize=64)
def spectral_plan(grid: TorusGrid, M: int) -> SpectralPlan:
    """The shared plan of a grid and fine size M (M = grid.N: no padding)."""
    return SpectralPlan(grid, M)


def transform(field: Field) -> SpectralField:
    """Forward transform; coefficients satisfy Parseval with the grid mean."""
    g = field.grid
    return SpectralField(g, full_coeffs(g, spectral_plan(g, g.N).to_coeffs(field.values)))


def inverse(sf: SpectralField) -> Field:
    """Inverse transform back to cell-center samples."""
    g = sf.grid
    return Field(g, spectral_plan(g, g.N).to_values(half_coeffs(g, sf.coeffs)))


def laplacian(field: Field) -> Field:
    """Apply the Laplacian through its Fourier multiplier -4*pi^2*|xi|^2."""
    plan = spectral_plan(field.grid, field.grid.N)
    return Field(field.grid, plan.to_values(-plan.lam * plan.to_coeffs(field.values)))


def heat_propagate(field: Field, t: float) -> Field:
    """Evolve by the heat semigroup exp(t*Laplacian), unit diffusivity.

    t must be nonnegative; the operation contracts every Lebesgue and
    Sobolev norm and preserves the mean exactly.
    """
    if t < 0:
        raise DomainError(f"heat time must be nonnegative, got {t}")
    plan = spectral_plan(field.grid, field.grid.N)
    return Field(field.grid, plan.to_values(plan.to_coeffs(field.values)
                                            * np.exp(-t * plan.lam)))


def mollify(field: Field, eta: float) -> Field:
    """Smooth by the heat kernel at time eta > 0.

    Positivity of nonnegative inputs is preserved up to roundoff once the
    kernel is resolved on the grid, i.e. eta * (pi*N)^2 is a few tens or
    larger; for much smaller eta the sharp spectral cutoff can introduce
    ringing at the kernel-tail scale exp(-pi^2*eta*N^2).
    """
    if eta <= 0:
        raise DomainError(f"mollification width must be positive, got {eta}")
    return heat_propagate(field, eta)


def poly_plan(grid: TorusGrid, polys) -> SpectralPlan:
    """The plan whose fine grid dealiases every polynomial of `polys`:
    M = dealias_size(N, D) for the largest total degree D among them.
    An M above MAX_FINE_RATIO * N raises `ConfigError` before any array
    is made."""
    D = max(p.total_degree() for p in polys)
    M = dealias_size(grid.N, D)
    if M > MAX_FINE_RATIO * grid.N:
        raise ConfigError(f"polynomial degree {D} needs a fine grid of M = {M} points per "
                          f"axis for N = {grid.N}, above the limit M <= {MAX_FINE_RATIO} N")
    return spectral_plan(grid, M)


def poly_field(p, u: Field, v: Field) -> Field:
    """Dealiased evaluation of a bivariate polynomial p at fields (u, v),
    exact up to roundoff (see `poly_plan`)."""
    if u.grid != v.grid:
        raise ConfigError("fields live on different grids")
    plan = poly_plan(u.grid, (p,))
    (c,) = plan.poly_coeffs((p,), plan.to_coeffs(np.stack([u.values, v.values])))
    return Field(u.grid, plan.to_values(c))
