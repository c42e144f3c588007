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
from .spectral import FOUR_PI_SQ, Field, TorusGrid, spectral_plan

# Calibrated constants for the randomized inequality checks, which draw
# their fields from seed 0.  The rate in the annulus decay check is exact
# (slowest mode of the annulus); the prefactors absorb the multiplier-norm
# constants observed empirically, with slack.
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
    if not p >= 1:
        raise DomainError(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    return float(np.mean(np.abs(field.values) ** p) ** (1.0 / p))


def sobolev_norm(field: Field, s: float) -> float:
    """H^s norm with weight (1 + 4*pi^2*|xi|^2)^s, zero mode included."""
    if not math.isfinite(s):
        raise DomainError(f"Sobolev exponent must be finite, got {s}")
    plan = spectral_plan(field.grid, field.grid.N)
    power = plan.power(plan.to_coeffs(field.values))
    return float(np.sqrt(np.sum(weighted_power((1.0 + plan.lam) ** s, power))))


def weighted_power(weight: np.ndarray, power: np.ndarray) -> np.ndarray:
    """weight * power, 0 where power is 0: a zero coefficient adds 0 to a
    Parseval sum, also where its weight overflowed to inf."""
    return np.multiply(weight, power, out=np.zeros_like(power), where=power != 0)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)

# geometric time grid for the N_k quadrature
_NK_T_MIN = 1e-6
_NK_RATIO = 1.15
# past this horizon exp(-4*pi^2*t) is 0.0 in float64 (exp(-746) == 0.0):
# every nonzero mode has decayed to zero and only the roundoff-level
# mean coefficient is left to integrate
_NK_T_MAX = 746.0 / FOUR_PI_SQ
# segment ends t_min * ratio^j by repeated multiplication, up to the
# first end past _NK_T_MAX (j = 120)
_NK_ENDS = [_NK_T_MIN]
while _NK_ENDS[-1] <= _NK_T_MAX:
    _NK_ENDS.append(_NK_ENDS[-1] * _NK_RATIO)
# one row per segment, [0, t_min] first: half-lengths, and the Gauss
# nodes followed by the right end
_NK_A, _NK_B = np.array([0.0] + _NK_ENDS[:-1]), np.array(_NK_ENDS)
_NK_HALF = 0.5 * (_NK_B - _NK_A)
_NK_NODES = np.column_stack([np.multiply.outer(_NK_HALF, _GAUSS_X)
                             + (0.5 * (_NK_A + _NK_B))[:, None], _NK_B])
# segments per block of the N_k quadrature.  A typical call needs 60-100;
# at 1-d N=32 on a 2-core Xeon, blocks of 32 took 0.7 ms a call, blocks
# of 16 0.9 ms and blocks of 128 1.2 ms
_NK_BLOCK_SEGMENTS = 32

# grid points of stacked temporaries per batch, here and in the checkers
FINE_BATCH_POINTS = 1 << 18


def besov_Nk(field: Field, k: float, tol: float = 1e-8) -> float:
    """Heat-semigroup functional N_k for a mean-zero field.

    Quadrature: 5-point Gauss on [0, t_min] and on each segment of the
    geometric grid t_min * ratio^j, fixed at import and ending at the
    first segment end past _NK_T_MAX.  Integration stops once the
    analytic single-mode tail bound I(T)/(4*pi^2*k) contributes less
    than `tol` relatively, and that tail is added to the result.  At the
    last segment every nonzero mode has underflowed, so integration stops
    there with no tail, and a tiny `tol` does not integrate the roundoff
    left in the mean coefficient.

    The integrand is evaluated a block of consecutive segments at a
    time: the Gauss nodes and right ends of up to _NK_BLOCK_SEGMENTS
    segments go through one stacked inverse transform, and a block holds
    at most FINE_BATCH_POINTS grid points (a single segment when one
    exceeds that).  The sums are accumulated segment by segment in the
    order of a node-by-node evaluation, so the value is the same to the
    bit; values computed past the stopping segment are discarded.
    """
    if not (1.0 < k < math.inf):
        raise DomainError(f"exponent must lie in (1, inf), got {k}")
    if not tol > 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    g = field.grid
    m = mean(field)
    if abs(m) > 1e-10 * (1.0 + float(np.max(np.abs(field.values)))):
        raise DomainError(
            f"N_k is defined for mean-zero fields; this one has mean {m:.3e}. "
            "Subtract the average first.")
    plan = spectral_plan(g, g.N)
    coeffs = plan.to_coeffs(field.values)
    rows, last = _NK_NODES.shape[1], len(_NK_HALF) - 1
    block = max(1, min(_NK_BLOCK_SEGMENTS, FINE_BATCH_POINTS // (rows * g.size)))
    acc = 0.0
    for start in range(0, last + 1, block):
        t = _NK_NODES[start:start + block]
        decay = np.exp(-plan.lam * t.reshape(t.shape + (1,) * g.d))
        vals = plan.to_values(coeffs * decay).reshape(t.shape + (-1,))
        f = np.mean(np.abs(vals) ** k, axis=-1)
        parts = _NK_HALF[start:start + block] * sum(
            w * fx for w, fx in zip(_GAUSS_W, f[:, :-1].T))
        for i, part, right in zip(range(start, last + 1), parts.tolist(),
                                  f[:, -1].tolist()):
            acc += part
            tail = 0.0 if i == last else right / (FOUR_PI_SQ * k)
            # the stop test starts after the first geometric segment
            if i and (right == 0.0 or tail < tol * (acc + tail)):
                return float((acc + tail) ** (1.0 / k))
    return float(acc ** (1.0 / k))


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


def interp_linear(stack: np.ndarray, times: np.ndarray, t) -> np.ndarray:
    """Stacked samples interpolated linearly in time, constant outside.
    `t` is one time, or a 1-d array of times for the stack of samples at
    each, every one bitwise that of its scalar call."""
    if np.ndim(t):
        t = np.asarray(t, dtype=np.float64)
        out = stack[np.where(t <= times[0], 0, -1)]
        mid = (t > times[0]) & (t < times[-1])
        i = np.searchsorted(times, t[mid], side="right") - 1
        w = (t[mid] - times[i]) / (times[i + 1] - times[i])
        w = w.reshape(w.shape + (1,) * (stack.ndim - 1))
        out[mid] = (1.0 - w) * stack[i] + w * stack[i + 1]
        return out
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


def dyadic_blocks(field: Field) -> list:
    """The Fields in order of j = 0 .. log2(N/2), block j the sharp restriction
    to 2^j <= |xi| < 2^(j+1); with the mean they reconstruct the field."""
    g = field.grid
    plan = spectral_plan(g, g.N)
    coeffs = plan.to_coeffs(field.values)
    out = []
    for j in range(g.N.bit_length() - 1):
        mask = (plan.xi_sq >= 4.0 ** j) & (plan.xi_sq < 4.0 ** (j + 1))
        out.append(Field(g, plan.to_values(np.where(mask, coeffs, 0.0))))
    return out


def block_sequence_norm(field: Field, k: float) -> float:
    """l^k norm of the dyadic block norms, (sum_j ||f_j||_k^k)^(1/k)."""
    if not (1.0 <= k < math.inf):
        raise DomainError(f"exponent must lie in [1, inf), got {k}")
    blocks = dyadic_blocks(field)
    return float(sum(lp_norm(b, k) ** k for b in blocks) ** (1.0 / k))


def random_band_field(grid: TorusGrid, lo: float, hi: float, rng) -> Field:
    """Gaussian field with spectrum supported on lo <= |xi| < hi."""
    plan = spectral_plan(grid, grid.N)
    noise = rng.standard_normal(grid.shape)
    mask = (plan.xi_sq >= lo * lo) & (plan.xi_sq < hi * hi)
    return Field(grid, plan.to_values(np.where(mask, plan.to_coeffs(noise), 0.0)))


def _trials(trials) -> range:
    """range(trials), for a number of random draws, a positive integer."""
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    return range(trials)


def _annulus_fields(grid: TorusGrid, m: int, trials: int):
    """`trials` random fields on the annulus m <= |xi| < 2m, drawn from
    seed 0; the annulus (m >= 1, 2m <= N/2) and trials >= 1 are checked."""
    if m < 1:
        raise DomainError(f"annulus parameter must be >= 1, got {m}")
    if 2 * m > grid.N // 2:
        raise DomainError(
            f"annulus [m, 2m) = [{m}, {2 * m}) is not resolved on N = {grid.N}")
    rng = np.random.default_rng(0)
    return (random_band_field(grid, m, 2 * m, rng) for _ in _trials(trials))


def bernstein_check(grid: TorusGrid, m: int, k: float, trials: int = 200) -> Report:
    """Sup-norm control ||f||_inf <= C (2m)^(d/k) ||f||_k on the annulus
    m <= |xi| < 2m, tested on random fields."""
    fields = _annulus_fields(grid, m, trials)
    bound = REGRESSION_CONSTANTS["bernstein"]
    scale = (2.0 * m) ** (grid.d / k)
    worst = 0.0
    for f in fields:
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
                     trials: int = 200) -> Report:
    """Semigroup decay || exp(t*Lap) f ||_p <= C exp(-c t m^2) ||f||_p on
    the annulus m <= |xi| < 2m, with the sharp rate c = 4*pi^2."""
    fields = _annulus_fields(grid, m, trials)
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0 or not np.all(times >= 0):
        raise DomainError(f"decay check times must be nonnegative numbers, got {times}")
    bound = REGRESSION_CONSTANTS["heat_decay"]
    rate = FOUR_PI_SQ * m * m
    plan = spectral_plan(grid, grid.N)
    # only f's annulus is propagated: its samples' roundoff below it decays slower
    annulus = (plan.xi_sq >= m * m) & (plan.xi_sq < 4 * m * m)
    worst = 0.0
    for f in fields:
        den = lp_norm(f, p)
        if den == 0.0:
            continue
        coeffs = np.where(annulus, plan.to_coeffs(f.values), 0.0)
        for t in times[times < math.inf]:  # nothing is left at t = inf
            num = lp_norm(Field(grid, plan.to_values(coeffs * np.exp(-t * plan.lam))), p)
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


def block_sequence_check(grid: TorusGrid, k: float, trials: int = 200) -> Report:
    """Block-sequence norm against the plain L^k norm on random mean-zero
    fields.  At k = 2 the two agree identically (orthogonality), and the
    check demands equality to 1e-12; for k > 2 it applies the calibrated
    constant."""
    rng = np.random.default_rng(0)
    equality = abs(k - 2.0) < 1e-15
    bound = 1e-12 if equality else REGRESSION_CONSTANTS["block_sequence"]
    worst = 0.0
    for _ in _trials(trials):
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
