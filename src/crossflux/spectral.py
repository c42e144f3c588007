"""Spectral calculus on the flat torus [0,1)^d for d in {1, 2, 3}.

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
coefficient encoding a sine-type mode.  They are stored in one layout,
the real-FFT half layout of `SpectralPlan`, which drops the conjugate
half of the last axis; `SpectralField.get` reads any frequency off it.

Every transform goes through a `SpectralPlan`, which alone knows the
phase factors; `poly_plan` alone applies the dealiasing rule
(`dealias_size`) to the polynomials a caller evaluates.  The plan makes
one FFT call per axis: r2c on the last axis, then c2c on each other axis
over the stored N/2+1 columns only, and the reverse for the inverse; its
c2r to M points reads the M/2+1 columns of a finer grid, those past N/2
zeroed (1-d: pads).  Each leading axis adds one FFT call and its pieces.

Those calls are the FFT seam, `_r2c`, `_c2c`, `_ic2c` and `_c2r`, the
only FFT calls of the package.  Each calls numpy's pocketfft gufunc
directly, with the factor and output array that `np.fft`'s wrapper
would pass, so the bits are those of `np.fft` without its per-call cost,
which exceeds the transform's on small grids.  If `np.fft.<name>` has
been replaced (a tracer or a test counting transforms), the seam calls
the replacement instead.  A plan's binders build its operations as
lists of seam and ufunc calls on work arrays (see `SpectralPlan`): a
public method runs such a list once, and a time loop builds its step
once and runs it as one flat list.  The operand rule (`_operand`): on a
small stack, at most `_BLOCK_BYTES` = 64 KiB of coefficients, a real or
broadcast factor is made once in its call's shape and dtype, so numpy runs
its trivial loop, not a per-call cast; a number is a 0-d array of its dtype.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft, _pocketfft_umath as _pfu

from .errors import ConfigError, DomainError

FOUR_PI_SQ = 4.0 * math.pi ** 2
# largest fine size M per grid size N: the factor by which the degree of
# the flux polynomials multiplies the memory of every dealiased product;
# and largest fine grid M^d, 512 MiB per float64 field
MAX_FINE_RATIO = 8
MAX_FINE_POINTS = 2 ** 26
# bytes of coefficients per diagnosed block of steps, and the operand rule's limit
_BLOCK_BYTES = 2 ** 16


@lru_cache(maxsize=64)
def _fourier_data(d: int, n: int, h: int):
    """Frequency axes, |xi|^2, and half-cell phase factors for an n^d grid,
    on the first h columns of the last axis."""
    freqs = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    axes = [freqs.reshape((n,) + (1,) * (d - 1 - ax)) for ax in range(d - 1)] + [freqs[:h]]
    xi_sq = sum(a.astype(np.float64) ** 2 for a in axes)
    phase_fwd = np.ones((n,) * (d - 1) + (h,), dtype=np.complex128)
    for a in axes:
        phase_fwd = phase_fwd * np.exp(-1j * math.pi * a / n)
    return tuple(axes), xi_sq, phase_fwd, np.conj(phase_fwd)


class TorusGrid:
    """Uniform cell-centered grid in d = 1, 2 or 3 dimensions with N = 2^J
    points per axis, J >= 3."""

    def __init__(self, d: int, N: int):
        if d not in (1, 2, 3):
            raise ConfigError(f"d must be 1, 2 or 3, got {d}")
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
    """Phase-corrected Fourier coefficients of a real field, in the half
    layout that `spectral_plan(grid, grid.N).to_coeffs` gives."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        shape = self.grid.shape[:-1] + (self.grid.N // 2 + 1,)
        if c.shape != shape:
            raise ConfigError(f"coefficient shape {c.shape} does not match the half layout "
                              f"{shape} of grid shape {self.grid.shape}")
        object.__setattr__(self, "coeffs", c)

    def get(self, xi) -> complex:
        """Coefficient at integer frequency xi: a scalar for d=1, else a d-tuple.
        For -N/2 < xi_last < 0 it is conj(c(-xi)), negated once per leading
        axis where -xi sits in the unpaired -N/2 slot (its own mirror; the
        half-cell phase flips there)."""
        raw = np.reshape(xi, -1)
        if len(raw) != self.grid.d:
            raise DomainError(f"frequencies on a d={self.grid.d} grid are {self.grid.d}-tuples: "
                              "pairs in 2-d, triples in 3-d")
        if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise DomainError(f"frequency {tuple(raw.tolist())} is not integral")
        idx, N = tuple(int(c) for c in raw), self.grid.N
        if max(abs(c) for c in idx) > N // 2:
            raise DomainError(f"frequency {idx} outside |xi| <= N/2")
        if -N // 2 < idx[-1] < 0:
            flips = sum(c % N == N // 2 for c in idx[:-1])
            return (-1) ** flips * complex(np.conj(self.coeffs[tuple(-c % N for c in idx)]))
        return complex(self.coeffs[tuple(c % N for c in idx[:-1]) + (abs(idx[-1]),)])


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


class Work:
    """Named work arrays.

    `array(name, shape, dtype)` gives an array to write into, zero when
    made if `zero` is set.  A `Work()` makes each array on its first
    request and hands the same one back for every later request of that
    name and shape.  The calls of a `SpectralPlan` method are built on
    these arrays, so a caller that builds a step's calls once and runs
    them on every step allocates nothing after building them.  A result
    then lives in one of these arrays, and later calls with the same work
    object overwrite it.

    The caller owns the work object: the time loop makes one per run,
    shared by a batch of runs, and the shared plans hold none.  A one-shot
    call (a public plan method, `Poly2Signed.eval_arrays`) builds its
    calls on a new work object that it then drops.
    """

    def __init__(self):
        self._arrays = {}

    def array(self, name: str, shape: tuple, dtype=np.float64, zero: bool = False):
        a = self._arrays.get((name, shape))
        if a is None:
            a = self._arrays[name, shape] = (np.zeros if zero else np.empty)(shape, dtype)
        return a


# The FFT seam (see the module docstring).  A seam function looks up
# `np.fft.<name>` on every call and compares it with numpy's own function,
# not with one taken at import, so an import made under a tracer does not
# lock later runs onto the replacement.  Its gufunc gets the factor that
# numpy's `_raw_fft` passes: 1/n forward, 1 inverse.  The gufuncs are
# private to numpy 2.x; `test_fft_seam_is_numpy_fft_bitwise` pins them.
def _r2c(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """r2c of the last axis (even length n, as on every grid), "forward"
    norm, into out."""
    rfft = np.fft.rfft
    if rfft is _pocketfft.rfft:
        return _pfu.rfft_n_even(a, 1 / a.shape[-1], out=out)
    return rfft(a, axis=-1, norm="forward", out=out)


def _c2c(a: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """Forward c2c of `axis`, "forward" norm, into out (may be a)."""
    fft = np.fft.fft
    if fft is _pocketfft.fft:
        return _pfu.fft(a, 1 / a.shape[axis], axes=[(axis,), (), (axis,)], out=out)
    return fft(a, axis=axis, norm="forward", out=out)


def _ic2c(a: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """Inverse c2c of `axis`, "forward" norm, into out (may be a)."""
    ifft = np.fft.ifft
    if ifft is _pocketfft.ifft:
        return _pfu.ifft(a, 1.0, axes=[(axis,), (), (axis,)], out=out)
    return ifft(a, axis=axis, norm="forward", out=out)


def _c2r(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c2r of the last axis to n = out.shape[-1] samples, "forward" norm,
    into out; columns past those of a are taken as zero."""
    irfft = np.fft.irfft
    if irfft is _pocketfft.irfft:
        return _pfu.irfft(a, 1.0, out=out)
    return irfft(a, n=out.shape[-1], axis=-1, norm="forward", out=out)


def _operand(x: np.ndarray, stack: np.ndarray, shape: tuple | None = None) -> np.ndarray:
    """x, a factor of a ufunc call of `shape` (stack's by default) on the
    coefficients `stack`, by the operand rule: a C-contiguous complex128 copy of
    that shape if the stack is small; else x, as a copy would cost more memory."""
    if stack.nbytes > _BLOCK_BYTES or (x.shape, x.dtype) == (shape or stack.shape, np.complex128):
        return x
    return np.full(shape or stack.shape, x, np.complex128)


def _run(binder, *args):
    """Builds the calls of `binder(*args, work)` on a new `Work()`, so the
    calls share their arrays, runs them in order, and gives the array of
    their result."""
    calls, result = binder(*args, Work())
    for f, a in calls:
        f(*a)
    return result


def _forward(vals: np.ndarray, d: int, h: int, work: Work) -> tuple:
    """The calls of the forward transform of `vals` into `work`, and the
    array they give: the first h columns of the real FFT ("forward" norm)
    over the trailing d axes, a view into a work array.  r2c on the last
    axis, then c2c in place on each other axis, last to first, over those
    h columns only.  numpy's `rfftn` makes the same per-axis calls, so the
    numbers are those of its columns :h."""
    spectrum = work.array("spectrum", vals.shape[:-1] + (vals.shape[-1] // 2 + 1,),
                          np.complex128)
    f = spectrum[..., :h]
    return [(_r2c, (vals, spectrum))] + [(_c2c, (f, f, ax)) for ax in range(-2, -d - 1, -1)], f


def _inverse(coeffs: np.ndarray, d: int, out: np.ndarray,
             mid: np.ndarray | None = None) -> list:
    """The calls that write into `out` the samples on its n^d grid of
    half-layout coefficients (all n rows of the other axes) whose columns
    past the given ones are zero: c2c on each axis but the last, first to
    last, in place in `coeffs` or, given `mid` (d > 1, n/2+1 columns), the
    first into its leading columns; then c2r to n points on the last axis
    of `coeffs`, padded, or of all of `mid`, its other columns zeroed.  The
    numbers are those of `irfftn` of the explicitly zero-padded array."""
    h = coeffs.shape[-1]
    head = coeffs if mid is None else mid[..., :h]
    calls = [(_ic2c, (head if axis > -d else coeffs, head, axis)) for axis in range(-d, -1)]
    if mid is not None:
        calls.append((np.copyto, (mid[..., h:], np.array(0j))))
    return calls + [(_c2r, (coeffs if mid is None else mid, out))]


def _products(per_axis: tuple, d: int) -> list:
    """A k-tuple of indices into k arrays for each choice of a piece of
    `per_axis` (a k-tuple of slices) on each of the d - 1 leading spatial
    axes, with all of the last axis."""
    return [tuple((Ellipsis,) + tuple(p[i] for p in choice) + (slice(None),)
                  for i in range(len(per_axis[0])))
            for choice in itertools.product(per_axis, repeat=d - 1)]


class SpectralPlan:
    """Transforms of one grid, and dealiased products through an M-grid,
    in the real-FFT half layout.

    Coefficients keep the frequencies 0..N/2 of the last axis (all N of
    each other axis); the rest follow from c(-xi) = conj(c(xi)).
    The N/2 column holds the -N/2 coefficient of the FFT, whose unpaired
    slot encodes a sine-type mode.  `lam` and `xi_sq` are laid
    out alike.  `parseval` gives the Parseval sums of coefficients, the
    sum of base(xi)^s |c(xi)|^2 over all frequencies for a base laid out
    as `lam` and even in xi, as every weighted L^2 norm here is taken.
    `derivative` gives the samples of an axis derivative.

    `to_coeffs`/`to_values` map cell-center samples to coefficients and
    back.  `fine_values` evaluates the interpolant at the cell centers of
    the M-point grid (M >= N even), and `project_fine` is the L^2
    projection of M-point samples onto the N-point band.  Padding splits
    each unpaired -N/2 slot between -N/2 and +N/2 with opposite signs;
    along the half axis only +N/2 is stored, as -c/2, its mirror holding
    +c/2.  Truncation folds +N/2 back into -N/2: along the half axis
    c(xi', -N/2) = conj(F(-xi', N/2)) - F(xi', N/2), then along each
    other axis, the -N/2 row minus the +N/2 row.  So
    project_fine(fine_values(c)) == c.

    Both work in pieces: per axis but the last, the low half, the high
    half and the split -N/2 row; each of their 3^(d-1) products times its
    phase.  Padding writes them into a zero array of M rows per leading
    axis; the columns are zero-padded for the c2r.  Projection writes them
    into coefficients with an extra row N per leading axis for the fine
    +N/2 row, mirrors the N/2 column by one take per leading axis and
    gives rows :N; `to_values` shares that array, as its contiguous head.
    Transforms go through `_forward`/`_inverse`, one seam call per axis;
    the passes of the other axes skip the columns that are all zero
    (inverse) or thrown away (forward).  The numbers are bitwise those of
    `rfftn`/`irfftn` on the full M-grid.

    Every method writes its intermediates and its result into the arrays
    of a `Work`, through `out=` on the FFT calls and the ufuncs.  Its
    binder (`_to_coeffs`, ...) builds, for one input array, the list of
    calls that take it to the result: (function, arguments) pairs on the
    work arrays, their views and the plan's factors by the operand rule
    (in `poly_coeffs`, each polynomial's `operations` too), with FFT calls
    of the seam, which looks up `np.fft` when it runs.  These are the two
    ways to run an operation.  A method runs it once: it builds the calls
    for its input on a new work object and runs them.  The time loop
    builds a step from the binders, once, on one work object per run, and
    runs it on every step, so its steps reuse the same arrays, and the
    padding array is zeroed once, each step rewriting only its pieces.
    A plan holds no work arrays and no calls, as plans are shared.
    Inputs are only read, and their pieces are sliced when the calls are
    built, from index tuples the plan makes once.

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
        h, n2 = N // 2 + 1, N // 2
        self._freq_axes, self.xi_sq, self._fwd, self._inv = _fourier_data(d, N, h)
        self.lam = FOUR_PI_SQ * self.xi_sq
        self._weight = np.where((np.arange(h) == 0) | (np.arange(h) == n2), 1.0, 2.0)
        # the projection's coefficients, whose row N per leading axis is +N/2
        self._ext_shape = (N + 1,) * (d - 1) + (h,)
        if M == N:
            return
        _, _, fine_fwd, fine_inv = _fourier_data(d, M, h)
        # padding multiplies by the phase of the slot it fills; the -N/2
        # column is stored at +N/2 as -1/2 c, the -N/2 row of each leading
        # axis is split as +1/2 c there and -1/2 c at its +N/2 row
        pad = fine_inv.copy()
        pad[..., n2] *= -0.5
        for axis in range(d - 1):
            pad[(slice(None),) * axis + (M - n2,)] *= 0.5
            pad[(slice(None),) * axis + (n2,)] *= -0.5
        # per leading axis, the low half, the high half and the split -N/2
        # row, as rows of the coefficients, of the fine grid and of the
        # projection's coefficients
        pieces = ((slice(0, n2),) * 3, (slice(n2, N), slice(M - n2, M), slice(n2, N)),
                  (slice(n2, n2 + 1),) * 2 + (slice(N, N + 1),))
        self._pad, self._proj = [], []
        for c, f, e in _products(pieces, d):
            self._pad.append((c, pad[f].copy(), f))
            self._proj.append((f, fine_fwd[f].copy(), e))
        # per leading axis, the row at -xi: -xi mod N, the -N/2 row n2 and +N/2 row N swapped
        self._mirror = -np.arange(N + 1) % N
        self._mirror[[n2, N]] = N, n2
        # (the -N/2 row, the +N/2 row) of each leading axis
        self._folds = [tuple((Ellipsis,) + (slice(None),) * axis + (row,)
                             + (slice(None),) * (d - 1 - axis) for row in (n2, N))
                       for axis in range(d - 1)]
        self._band = (Ellipsis,) + (slice(0, N),) * (d - 1) + (slice(None),)

    def parseval(self, coeffs: np.ndarray, base: np.ndarray, s: float = 1.0) -> np.ndarray:
        """Per stack on the trailing d axes, the sum over all frequencies of
        base^s |c|^2, |c|^2 weighted 1 on columns 0 and N/2, 2 elsewhere.  A
        term is |c|^2 * base^s (s >= 0) or |c|^2 / base^-s (s < 0); where
        base^|s| overflows it is exp(s log base + log |c|^2), so a zero
        coefficient adds 0 and a finite term stays finite."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            density = self._weight * np.abs(coeffs) ** 2
            weight = base ** abs(s)
            terms = density / weight if s < 0 else density * weight
            if weight.max() == math.inf:
                over = np.isinf(weight)
                terms[..., over] = np.exp(s * np.log(base[over]) + np.log(density[..., over]))
            return terms.reshape(terms.shape[:terms.ndim - self.grid.d] + (-1,)).sum(axis=-1)

    def derivative(self, coeffs: np.ndarray, axis: int) -> np.ndarray:
        """Samples of the derivative along `axis` of the interpolant.  The
        unpaired -N/2 mode differentiates to 0: on the cell-centered grid
        its derivative vanishes at every node."""
        freq = self._freq_axes[axis]
        mult = 2j * np.pi * np.where(freq == -self.grid.N // 2, 0.0, freq)
        return self.to_values(coeffs * mult)

    def to_coeffs(self, vals: np.ndarray) -> np.ndarray:
        return _run(self._to_coeffs, vals)

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        return _run(self._to_values, coeffs)

    def fine_values(self, coeffs: np.ndarray) -> np.ndarray:
        return _run(self._fine_values, coeffs)

    def project_fine(self, vals: np.ndarray) -> np.ndarray:
        return _run(self._project_fine, vals)

    def poly_coeffs(self, polys, c: np.ndarray) -> np.ndarray:
        """Coefficients of each polynomial of (u, v), stacked along a new
        first axis, given the stack c = (coefficients of u, of v).  u and
        v are sampled on the fine grid in one call, and the polynomials
        are projected back in one call."""
        return _run(self._poly_coeffs, polys, c)

    # Each method above runs the calls that one of these binders builds
    # for its input: (function, arguments) pairs on the arrays of `work`,
    # their views and the plan's factors, and the array of the result.

    def _to_coeffs(self, vals, work):
        calls, c = _forward(vals, self.grid.d, self.grid.N // 2 + 1, work)
        return calls + [(np.multiply, (c, _operand(self._fwd, c), c))], c

    def _scaled_inverse(self, coeffs, factor, n, name, work):
        # samples on the n-point grid, in the work array `name`, of the
        # coefficients times `factor`, padded by irfft(n=n) alone; the
        # scaled coefficients are the contiguous head of the projection's
        # array, which is the whole of it in 1-d (no view to build)
        lead = coeffs.shape[:coeffs.ndim - self.grid.d]
        c = work.array("coeffs", lead + self._ext_shape, np.complex128)
        if c.shape != coeffs.shape:
            c = c.reshape(-1)[:coeffs.size].reshape(coeffs.shape)
        out = work.array(name, coeffs.shape[:-1] + (n,))
        return [(np.multiply, (coeffs, factor, c))] + _inverse(c, self.grid.d, out), out

    def _to_values(self, coeffs, work):
        return self._scaled_inverse(coeffs, self._inv, self.grid.N, "values", work)

    def _fine_values(self, coeffs, work):
        d, h, M = self.grid.d, self.grid.N // 2 + 1, self.M
        if M == self.grid.N:
            return self._scaled_inverse(coeffs, self._inv, M, "fine", work)
        # each leading axis is padded in the middle: its rows between the
        # halves stay zero but for the split -N/2 row, so only the pieces
        # are written.  The c2c passes go into the projection's spectrum,
        # idle until then, and the c2r reads all its columns: numpy's c2r is
        # slower on a short input, which it pads, but in 1-d, with no pass
        rows = coeffs.shape[:coeffs.ndim - d] + (M,) * (d - 1)
        c = work.array("pad", rows + (h,), np.complex128, zero=True)
        mid = work.array("spectrum", rows + (M // 2 + 1,), np.complex128)
        fine = work.array("fine", rows + (M,))
        return ([(np.multiply, (coeffs[i], _operand(factor, coeffs, coeffs[i].shape), c[j]))
                 for i, factor, j in self._pad]
                + _inverse(c, d, fine, mid if d > 1 else None)), fine

    def _project_fine(self, vals, work):
        d, N, M = self.grid.d, self.grid.N, self.M
        if M == N:
            return self._to_coeffs(vals, work)
        calls, fine = _forward(vals, d, N // 2 + 1, work)
        # the pieces times their phases, the +N/2 rows into the rows N; the
        # N/2 column folds as conj(col(-xi)) - col(xi), then, axis by axis,
        # each -N/2 row as itself minus the +N/2 row
        out = work.array("coeffs", vals.shape[:vals.ndim - d] + self._ext_shape, np.complex128)
        col = out[..., N // 2]
        rev = work.array("column", col.shape, np.complex128)
        calls += [(np.multiply, (fine[i], factor, out[j])) for i, factor, j in self._proj]
        src = col  # rev = conj(col(-xi)): a take per leading axis, the last into rev
        for axis in range(1 - d, 0):
            dst = rev if axis == -1 else work.array("column pass", col.shape, np.complex128)
            calls.append((np.take, (src, self._mirror, axis, dst, "wrap")))
            src = dst
        calls += [(np.conjugate, (src, rev)), (np.subtract, (rev, col, col))]
        calls += [(np.subtract, (out[i], out[j], out[i])) for i, j in self._folds]
        return calls, out[self._band]

    def _poly_coeffs(self, polys, c, work):
        calls, (uf, vf) = self._fine_values(c, work)
        # a row per polynomial; `held`: the term left in the array of terms
        fine, held = work.array("polys", (len(polys),) + uf.shape), {}
        calls += [op for p, row in zip(polys, fine)
                  for op in p.operations(uf, vf, row, work, held)]
        project, out = self._project_fine(fine, work)
        return calls + project, out


@lru_cache(maxsize=64)
def spectral_plan(grid: TorusGrid, M: int) -> SpectralPlan:
    """The shared plan of a grid and fine size M (M = grid.N: no padding)."""
    return SpectralPlan(grid, M)


def transform(field: Field) -> SpectralField:
    """Forward transform; coefficients satisfy Parseval with the grid mean."""
    g = field.grid
    return SpectralField(g, spectral_plan(g, g.N).to_coeffs(field.values))


def inverse(sf: SpectralField) -> Field:
    """Inverse transform back to cell-center samples.  The coefficients
    must be those of a real field: transforming the samples back must
    give them to within 1e-9 of the largest one."""
    plan = spectral_plan(sf.grid, sf.grid.N)
    vals = plan.to_values(sf.coeffs)
    scale = 1.0 + float(np.max(np.abs(sf.coeffs)))
    if float(np.max(np.abs(plan.to_coeffs(vals) - sf.coeffs))) > 1e-9 * scale:
        raise DomainError("coefficients are not Hermitian-symmetric; inverse is not real")
    return Field(sf.grid, vals)


def laplacian(field: Field) -> Field:
    """Apply the Laplacian through its Fourier multiplier -4*pi^2*|xi|^2."""
    plan = spectral_plan(field.grid, field.grid.N)
    return Field(field.grid, plan.to_values(-plan.lam * plan.to_coeffs(field.values)))


def heat_propagate(field: Field, t: float) -> Field:
    """Evolve by the heat semigroup exp(t*Laplacian), unit diffusivity.

    t must be a nonnegative number; the operation contracts every Lebesgue
    and Sobolev norm and preserves the mean exactly, all that t = inf keeps.
    """
    if not t >= 0:
        raise DomainError(f"heat time must be a nonnegative number, got {t}")
    plan = spectral_plan(field.grid, field.grid.N)
    decay = np.exp(-t * plan.lam) if t < math.inf else (plan.lam == 0.0).astype(np.float64)
    return Field(field.grid, plan.to_values(plan.to_coeffs(field.values) * decay))


def mollify(field: Field, eta: float) -> Field:
    """Smooth by the heat kernel at time eta > 0.

    Positivity of nonnegative inputs is preserved up to roundoff once the
    kernel is resolved on the grid, i.e. eta * (pi*N)^2 is a few tens or
    larger; for much smaller eta the sharp spectral cutoff can introduce
    ringing at the kernel-tail scale exp(-pi^2*eta*N^2).
    """
    if not eta > 0:
        raise DomainError(f"mollification width must be positive, got {eta}")
    return heat_propagate(field, eta)


def poly_plan(grid: TorusGrid, polys) -> SpectralPlan:
    """The plan whose fine grid dealiases every polynomial of `polys`:
    M = dealias_size(N, D) for the largest total degree D among them.
    An M above MAX_FINE_RATIO * N, or an M^d above MAX_FINE_POINTS,
    raises `ConfigError` before any array is made."""
    D = max(p.total_degree() for p in polys)
    N, M = grid.N, dealias_size(grid.N, D)
    if M > MAX_FINE_RATIO * N or M ** grid.d > MAX_FINE_POINTS:
        raise ConfigError(f"polynomial degree {D} needs a fine grid of M = {M} points per "
                          f"axis, M^{grid.d} = {M ** grid.d}, for N = {N}, above the limits "
                          f"M <= {MAX_FINE_RATIO} N and M^d <= {MAX_FINE_POINTS}")
    return spectral_plan(grid, M)


def poly_fields(polys, u: Field, v: Field) -> tuple:
    """Dealiased evaluation of each bivariate polynomial of `polys` at
    fields (u, v), all on one fine grid (see `poly_plan`): their fields,
    exact up to roundoff."""
    if u.grid != v.grid:
        raise ConfigError("fields live on different grids")
    plan = poly_plan(u.grid, polys)
    c = plan.to_coeffs(np.stack([u.values, v.values]))
    return tuple(Field(u.grid, w) for w in plan.to_values(plan.poly_coeffs(polys, c)))


def poly_field(p, u: Field, v: Field) -> Field:
    """Dealiased evaluation of a bivariate polynomial p at fields (u, v)."""
    return poly_fields((p,), u, v)[0]
