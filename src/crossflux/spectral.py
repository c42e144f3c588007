"""Spectral calculus on the flat torus [0,1)^d for d in {1, 2}.

Conventions
-----------
The torus carries unit measure.  Plane waves are exp(2*pi*i*xi.x) with
integer frequency vectors xi, so the Laplacian acts as multiplication by
-4*pi^2*|xi|^2.  Fields are sampled at the N^d cell centers
x_i = (i + 1/2)/N, which keeps dyadic step functions exactly resolvable.

Coefficients are stored in FFT layout (frequencies 0..N/2-1, -N/2..-1
per axis) but are *true* Fourier coefficients of the trigonometric
interpolant: the half-cell sampling offset is absorbed into a phase
factor during the transform.  For a real field every representable pair
(xi, -xi) is conjugate-symmetric; the unpaired Nyquist slot -N/2 holds a
purely imaginary coefficient encoding a sine-type mode.

Every transform goes through a `SpectralPlan`, which alone knows this
layout, the phase factors and the dealiasing rule (`dealias_size`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError

FOUR_PI_SQ = 4.0 * math.pi ** 2


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
        self.freq_axes, self.xi_sq, _, _ = _fourier_data(d, N)

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


def _axis_plane(ndim: int, axis: int, index: int):
    sl = [slice(None)] * ndim
    sl[axis] = index
    return tuple(sl)


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


class SpectralPlan:
    """Transforms of one grid, and dealiased products through an M-grid.

    `to_coeffs`/`to_values` map cell-center samples to coefficients and
    back.  `fine_values` evaluates the interpolant at the cell centers of
    the M-point grid (M >= N even), and `project_fine` is the L^2
    projection of M-point samples onto the N-point band.  Padding splits
    the unpaired -N/2 plane of each axis between -N/2 and +N/2 with
    opposite signs (the sine-type mode it encodes); truncation folds +N/2
    back into -N/2, so project_fine(fine_values(c)) == c.
    """

    def __init__(self, grid: TorusGrid, M: int):
        if M < grid.N or M % 2:
            raise ConfigError(f"resample target {M} must be an even integer >= N={grid.N}")
        self.grid = grid
        self.M = M
        self.lam = FOUR_PI_SQ * grid.xi_sq
        _, _, self._fwd, self._inv = _fourier_data(grid.d, grid.N)
        if M != grid.N:
            d, N = grid.d, grid.N
            _, _, self._fine_fwd, self._fine_inv = _fourier_data(d, M)
            k = np.arange(N)
            self._slots = np.ix_(*[np.where(k < N // 2, k, k + M - N)] * d)
            # slots of -N/2 and +N/2 along each axis of the M-grid
            self._nyquist = [(_axis_plane(d, ax, M - N // 2), _axis_plane(d, ax, N // 2))
                             for ax in range(d)]

    def to_coeffs(self, vals: np.ndarray) -> np.ndarray:
        return np.fft.fftn(vals) / self.grid.size * self._fwd

    def _samples(self, coeffs: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(coeffs * self._inv) * self.grid.size

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return self._samples(coeffs).real

    def fine_values(self, coeffs: np.ndarray) -> np.ndarray:
        g = self.grid
        if self.M == g.N:
            return self.to_values(coeffs)
        fine = np.zeros((self.M,) * g.d, dtype=np.complex128)
        fine[self._slots] = coeffs
        for lo, hi in self._nyquist:
            fine[hi] = -0.5 * fine[lo]
            fine[lo] = 0.5 * fine[lo]
        return (np.fft.ifftn(fine * self._fine_inv) * self.M ** g.d).real

    def project_fine(self, vals: np.ndarray) -> np.ndarray:
        if self.M == self.grid.N:
            return self.to_coeffs(vals)
        fine = np.fft.fftn(vals) / vals.size * self._fine_fwd
        for lo, hi in self._nyquist:
            fine[lo] -= fine[hi]
        return fine[self._slots]


@lru_cache(maxsize=64)
def spectral_plan(grid: TorusGrid, M: int) -> SpectralPlan:
    """The shared plan of a grid and fine size M (M = grid.N: no padding)."""
    return SpectralPlan(grid, M)


def transform(field: Field) -> SpectralField:
    """Forward transform; coefficients satisfy Parseval with the grid mean."""
    g = field.grid
    return SpectralField(g, spectral_plan(g, g.N).to_coeffs(field.values))


def inverse(sf: SpectralField) -> Field:
    """Inverse transform back to cell-center samples."""
    g = sf.grid
    vals = spectral_plan(g, g.N)._samples(sf.coeffs)
    scale = 1.0 + float(np.max(np.abs(vals.real))) if vals.size else 1.0
    if float(np.max(np.abs(vals.imag))) > 1e-9 * scale:
        raise DomainError("coefficients are not Hermitian-symmetric; inverse is not real")
    return Field(g, vals.real)


def laplacian(field: Field) -> Field:
    """Apply the Laplacian through its Fourier multiplier -4*pi^2*|xi|^2."""
    g = field.grid
    sf = transform(field)
    return inverse(SpectralField(g, sf.coeffs * (-FOUR_PI_SQ * g.xi_sq)))


def heat_propagate(field: Field, t: float, m: float = 1.0) -> Field:
    """Evolve by the heat semigroup exp(t*m*Laplacian).

    t must be nonnegative and m positive; the operation contracts every
    Lebesgue and Sobolev norm and preserves the mean exactly.
    """
    if t < 0:
        raise DomainError(f"heat time must be nonnegative, got {t}")
    if m <= 0:
        raise DomainError(f"diffusivity must be positive, got {m}")
    g = field.grid
    sf = transform(field)
    mult = np.exp(-m * FOUR_PI_SQ * g.xi_sq * t)
    return inverse(SpectralField(g, sf.coeffs * mult))


def mollify(field: Field, eta: float) -> Field:
    """Smooth by the heat kernel at time eta > 0.

    Positivity of nonnegative inputs is preserved up to roundoff once the
    kernel is resolved on the grid, i.e. eta * (pi*N)^2 is a few tens or
    larger; for much smaller eta the sharp spectral cutoff can introduce
    ringing at the kernel-tail scale exp(-pi^2*eta*N^2).
    """
    if eta <= 0:
        raise DomainError(f"mollification width must be positive, got {eta}")
    return heat_propagate(field, eta, 1.0)


@dataclass(frozen=True)
class Mollifier:
    """Heat-kernel mollifier of fixed width eta."""

    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise DomainError(f"mollification width must be positive, got {self.eta}")

    def multiplier(self, grid: TorusGrid) -> np.ndarray:
        return np.exp(-self.eta * FOUR_PI_SQ * grid.xi_sq)

    def apply(self, field: Field) -> Field:
        return mollify(field, self.eta)


def resample(field: Field, M: int) -> np.ndarray:
    """Values of the trigonometric interpolant at the cell centers of an
    M-point-per-axis grid, M >= N even.  Returns a bare array."""
    g = field.grid
    if M == g.N:
        return field.values.copy()
    return spectral_plan(g, M).fine_values(transform(field).coeffs)


def poly_field(p, u: Field, v: Field, pad=None) -> Field:
    """Dealiased evaluation of a bivariate polynomial p at fields (u, v).

    The fields are resampled onto a grid of M points per axis, the
    polynomial is evaluated pointwise there, and the product is projected
    back.  By default M = dealias_size(N, D) for total degree D, which
    makes the result exact up to roundoff; `pad` instead refines the
    grid by that factor (M = ceil(pad * N), rounded up to even).
    """
    if u.grid != v.grid:
        raise ConfigError("fields live on different grids")
    g = u.grid
    terms = getattr(p, "terms", None)
    if terms is not None and not terms:
        return Field(g, np.zeros(g.shape))
    if pad is None:
        M = dealias_size(g.N, p.total_degree())
    else:
        if pad < 1:
            raise DomainError(f"padding factor must be >= 1, got {pad}")
        M = int(math.ceil(pad * g.N))
        M += M % 2
    vals = p.eval_arrays(resample(u, M), resample(v, M))
    if M == g.N:
        return Field(g, vals)
    return inverse(SpectralField(g, spectral_plan(g, M).project_fine(vals)))
