"""Norms, semigroup functionals, and the dyadic-frequency toolbox.

Everything here measures fields produced by the spectral layer: Lebesgue
and Sobolev norms, the heat-semigroup functional

    N_k(f) = ( integral_0^inf || exp(t*Lap) f ||_k^k dt )^(1/k)

for mean-zero f, space-time Lebesgue norms of time series, and the sharp
frequency-annulus decompositions used by the inequality checks
(sup-norm control, semigroup decay, block-sequence norms, and the
parabolic maximal-regularity ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .report import Report
from .spectral import (FOUR_PI_SQ, Field, SpectralField, TorusGrid, heat_propagate, inverse,
                       spectral_plan, transform)

# Calibrated constants for the randomized inequality checks.  The rate
# in the annulus decay check is exact (slowest mode of the annulus); the
# prefactors absorb the multiplier-norm constants observed empirically,
# with slack.
REGRESSION_CONSTANTS = {
    "bernstein": 4.0,
    "heat_decay": 2.0,
    "block_sequence": 2.0,
    "maxreg": 10.0,
}


def mean(field: Field) -> float:
    return float(field.values.mean())


def lp_norm(field: Field, p: float) -> float:
    """Lebesgue norm with the uniform quadrature weight N^-d per cell."""
    if p == math.inf:
        return float(np.max(np.abs(field.values)))
    if p < 1:
        raise DomainError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    return float(np.mean(np.abs(field.values) ** p) ** (1.0 / p))


def sobolev_norm(field: Field, s: float) -> float:
    """H^s norm with weight (1 + 4*pi^2*|xi|^2)^s, zero mode included."""
    g = field.grid
    c = transform(field).coeffs
    w = (1.0 + FOUR_PI_SQ * g.xi_sq) ** s
    return float(np.sqrt(np.sum(w * np.abs(c) ** 2)))


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)

# geometric time grid for the N_k quadrature
_NK_T_MIN = 1e-6
_NK_RATIO = 1.15
_NK_MAX_SEGMENTS = 2000


def besov_Nk(field: Field, k: float, tol: float = 1e-8) -> float:
    """Heat-semigroup functional N_k for a mean-zero field.

    Quadrature: 5-point Gauss on [0, t_min] and on each segment of the
    geometric grid t_min * ratio^j; integration stops once the analytic
    single-mode tail bound I(T)/(4*pi^2*k) contributes less than `tol`
    relatively, and that tail is added to the result.
    """
    if not (1.0 < k < math.inf):
        raise DomainError(f"exponent must lie in (1, inf), got {k}")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    g = field.grid
    m = mean(field)
    if abs(m) > 1e-10 * (1.0 + float(np.max(np.abs(field.values)))):
        raise DomainError(
            f"N_k is defined for mean-zero fields; this one has mean {m:.3e}. "
            "Subtract the average first.")
    coeffs = transform(field).coeffs
    plan = spectral_plan(g, g.N)

    def integrand(t: float) -> float:
        vals = plan.to_values(coeffs * np.exp(-FOUR_PI_SQ * g.xi_sq * t))
        return float(np.mean(np.abs(vals) ** k))

    def segment(a: float, b: float) -> float:
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        return half * sum(w * integrand(mid + half * x)
                          for x, w in zip(_GAUSS_X, _GAUSS_W))

    acc = segment(0.0, _NK_T_MIN)
    t = _NK_T_MIN
    tail = 0.0
    for _ in range(_NK_MAX_SEGMENTS):
        acc += segment(t, t * _NK_RATIO)
        t *= _NK_RATIO
        right = integrand(t)
        tail = right / (FOUR_PI_SQ * k)
        if right == 0.0:
            tail = 0.0
            break
        if tail < tol * (acc + tail):
            break
    return float((acc + tail) ** (1.0 / k))


@dataclass(frozen=True)
class TimeSeriesField:
    """A field-valued function of time sampled on an increasing grid:
    `values[i]` holds the samples at `times[i]`, stacked with shape
    (T, *grid.shape).  A sequence of Fields is stacked on construction."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        vals = self.values
        if not isinstance(vals, np.ndarray):
            fields = list(vals)
            if len({f.grid for f in fields}) > 1:
                raise ConfigError("all fields of a series must share one grid")
            vals = np.array([f.values for f in fields])
        vals = np.asarray(vals, dtype=np.float64)
        if t.ndim != 1 or len(t) != len(vals):
            raise ConfigError("times and fields must have matching lengths")
        if len(t) == 0:
            raise ConfigError("time series must contain at least one sample")
        if np.any(np.diff(t) <= 0):
            raise ConfigError("sample times must be strictly increasing")
        if vals.ndim < 2 or vals.shape[1:] != TorusGrid(vals.ndim - 1, vals.shape[-1]).shape:
            raise ConfigError(f"series shape {vals.shape} is not (T, *grid.shape)")
        if not np.all(np.isfinite(vals)):
            raise DomainError("series values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", vals)

    @property
    def grid(self) -> TorusGrid:
        return TorusGrid(self.values.ndim - 1, self.values.shape[-1])

    def __len__(self):
        return len(self.times)


def interp_linear(stack: np.ndarray, times: np.ndarray, t: float) -> np.ndarray:
    """Stacked samples interpolated linearly in time, constant outside."""
    if t <= times[0]:
        return stack[0]
    if t >= times[-1]:
        return stack[-1]
    i = int(np.searchsorted(times, t, side="right")) - 1
    w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * stack[i] + w * stack[i + 1]


def cum_trapz(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of vals over times, 0 at times[0]."""
    out = np.zeros_like(vals)
    if len(times) > 1:
        seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(times)
        out[1:] = np.cumsum(seg)
    return out


def spacetime_lk(series: TimeSeriesField, k: float) -> float:
    """L^k norm over the space-time cylinder spanned by the series."""
    if not (1.0 <= k < math.inf):
        raise DomainError(f"exponent must lie in [1, inf), got {k}")
    if len(series) < 2:
        raise DomainError("space-time norms need at least two time samples")
    vals = series.values
    power = np.mean(np.abs(vals.reshape(len(vals), -1)) ** k, axis=1)
    return float(cum_trapz(series.times, power)[-1] ** (1.0 / k))


@dataclass(frozen=True)
class DyadicBlock:
    """Sharp frequency restriction to the annulus 2^j <= |xi| < 2^(j+1)."""

    j: int
    field: Field
    clipped: bool
    empty: bool


def dyadic_block(field: Field, j: int) -> DyadicBlock:
    if j < 0 or j != int(j):
        raise DomainError(f"block index must be a nonnegative integer, got {j}")
    g = field.grid
    lo, hi = 4.0 ** j, 4.0 ** (j + 1)
    mask = (g.xi_sq >= lo) & (g.xi_sq < hi)
    coeffs = np.where(mask, transform(field).coeffs, 0.0)
    clipped = 2 ** (j + 1) > g.N // 2
    empty = not bool(mask.any())
    return DyadicBlock(j, inverse(SpectralField(g, coeffs)), clipped, empty)


def dyadic_blocks(field: Field) -> list:
    """All nonempty blocks; together with the mean they reconstruct the field."""
    g = field.grid
    out = []
    j = 0
    while 4.0 ** j <= g.d * (g.N / 2.0) ** 2:
        blk = dyadic_block(field, j)
        if not blk.empty:
            out.append(blk)
        j += 1
    return out


def block_sequence_norm(field: Field, k: float) -> float:
    """l^k norm of the dyadic block norms, (sum_j ||f_j||_k^k)^(1/k)."""
    if not (1.0 <= k < math.inf):
        raise DomainError(f"exponent must lie in [1, inf), got {k}")
    blocks = dyadic_blocks(field)
    return float(sum(lp_norm(b.field, k) ** k for b in blocks) ** (1.0 / k))


def random_band_field(grid: TorusGrid, lo: float, hi: float, rng) -> Field:
    """Gaussian field with spectrum supported on lo <= |xi| < hi."""
    noise = rng.standard_normal(grid.shape)
    mask = (grid.xi_sq >= lo * lo) & (grid.xi_sq < hi * hi)
    coeffs = np.where(mask, spectral_plan(grid, grid.N).to_coeffs(noise), 0.0)
    return inverse(SpectralField(grid, coeffs))


def bernstein_check(grid: TorusGrid, m: int, k: float, trials: int = 200,
                    seed: int = 0) -> Report:
    """Sup-norm control ||f||_inf <= C (2m)^(d/k) ||f||_k on the annulus
    m <= |xi| < 2m, tested on random fields."""
    if m < 1:
        raise DomainError(f"annulus parameter must be >= 1, got {m}")
    if 2 * m > grid.N // 2:
        raise DomainError(
            f"annulus [m, 2m) = [{m}, {2 * m}) is not resolved on N = {grid.N}")
    rng = np.random.default_rng(seed)
    bound = REGRESSION_CONSTANTS["bernstein"]
    scale = (2.0 * m) ** (grid.d / k)
    worst = 0.0
    for _ in range(trials):
        f = random_band_field(grid, m, 2 * m, rng)
        denom = scale * lp_norm(f, k)
        if denom == 0.0:
            continue
        worst = max(worst, lp_norm(f, math.inf) / denom)
    return Report(
        name="bernstein",
        passed=worst <= bound,
        measured={"max_ratio": worst, "trials": trials, "m": m, "k": k},
        tolerance=bound,
        anchor="sup-norm control on frequency annuli",
    )


def heat_decay_check(grid: TorusGrid, m: int, p: float, times,
                     trials: int = 200, seed: int = 0) -> Report:
    """Semigroup decay || exp(t*Lap) f ||_p <= C exp(-c t m^2) ||f||_p on
    the annulus m <= |xi| < 2m, with the sharp rate c = 4*pi^2."""
    if m < 1:
        raise DomainError(f"annulus parameter must be >= 1, got {m}")
    if 2 * m > grid.N // 2:
        raise DomainError(
            f"annulus [m, 2m) = [{m}, {2 * m}) is not resolved on N = {grid.N}")
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 0):
        raise DomainError("decay check times must be nonnegative")
    rng = np.random.default_rng(seed)
    bound = REGRESSION_CONSTANTS["heat_decay"]
    rate = FOUR_PI_SQ * m * m
    worst = 0.0
    for _ in range(trials):
        f = random_band_field(grid, m, 2 * m, rng)
        den = lp_norm(f, p)
        if den == 0.0:
            continue
        for t in times:
            num = lp_norm(heat_propagate(f, float(t)), p)
            if num == 0.0:
                continue
            ratio = math.exp(math.log(num) - math.log(den) + rate * float(t))
            worst = max(worst, ratio)
    return Report(
        name="heat_decay",
        passed=worst <= bound,
        measured={"max_ratio": worst, "trials": trials, "m": m, "p": p,
                  "rate": rate},
        tolerance=bound,
        anchor="heat semigroup decay on frequency annuli",
    )


def block_sequence_check(grid: TorusGrid, k: float, trials: int = 200,
                         seed: int = 0) -> Report:
    """Block-sequence norm against the plain L^k norm on random mean-zero
    fields.  At k = 2 the two agree identically (orthogonality), and the
    check demands equality to 1e-12; for k > 2 it applies the calibrated
    constant."""
    rng = np.random.default_rng(seed)
    equality = abs(k - 2.0) < 1e-15
    bound = 1e-12 if equality else REGRESSION_CONSTANTS["block_sequence"]
    worst = 0.0
    for _ in range(trials):
        vals = rng.standard_normal(grid.shape)
        f = Field(grid, vals - vals.mean())
        den = lp_norm(f, k)
        if den == 0.0:
            continue
        ratio = block_sequence_norm(f, k) / den
        worst = max(worst, abs(ratio - 1.0) if equality else ratio)
    return Report(
        name="block_sequence",
        passed=worst <= bound,
        measured={("max_deviation" if equality else "max_ratio"): worst,
                  "trials": trials, "k": k},
        tolerance=bound,
        anchor="dyadic block sequence norm bound",
    )


def maxreg_ratio(phi: TimeSeriesField, m: float, k: float) -> float:
    """Maximal-regularity ratio m*||Lap(phi)|| / ||d_t(phi) - m*Lap(phi)||
    in L^k of the cylinder, with phi(0) = 0.

    The time derivative is the second-order finite difference on the
    (uniform) sample grid.  Returns 0 for the degenerate 0/0 case.
    """
    if m <= 0:
        raise DomainError(f"diffusivity must be positive, got {m}")
    if len(phi) < 3:
        raise DomainError("maximal-regularity ratio needs at least three samples")
    dts = np.diff(phi.times)
    h = float(dts[0])
    if np.max(np.abs(dts - h)) > 1e-9 * h:
        raise DomainError("maximal-regularity ratio requires a uniform time grid")
    vals = phi.values
    scale = float(np.max(np.abs(vals)))
    if float(np.max(np.abs(vals[0]))) > 1e-10 * (1.0 + scale):
        raise DomainError("phi must vanish at the initial time")

    plan = spectral_plan(phi.grid, phi.grid.N)
    laps = plan.to_values(-plan.lam * plan.to_coeffs(vals))
    resid = np.gradient(vals, h, axis=0, edge_order=2) - m * laps
    num = m * spacetime_lk(TimeSeriesField(phi.times, laps), k)
    den = spacetime_lk(TimeSeriesField(phi.times, resid), k)
    if den <= 1e-14 * (1.0 + scale):
        if num <= 1e-14 * (1.0 + scale):
            return 0.0
        raise DomainError("residual vanishes but the dissipation term does not")
    return float(num / den)
