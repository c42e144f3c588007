"""Two-valued staircase steady states witnessing L2 noncompactness.

The quadratic-coupling system with unit diffusivities admits a family of
piecewise-constant steady states built from dyadic square waves: both
composite fluxes are constant, so every member is an exact equilibrium,
yet the family is orthogonal enough that no subsequence can converge in
L2. Cell-centered sampling never lands on a discontinuity, so all the
algebraic identities hold to machine precision on dyadic grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import bisect
from .report import Report
from .spaces import lp_norm, sobolev_norm
from .spectral import Field, TorusGrid


def _quintic(x):
    return x ** 5 - 3 * x ** 4 + 2 * x ** 3 - 6 * x ** 2 + 10 * x - 3


@dataclass(frozen=True)
class QuinticRoots:
    """The three positive roots of (X^2-3X+1)(X^3+X-3)."""

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        for r in (self.r1, self.r2, self.r3):
            if not (r > 0 and abs(_quintic(r)) < 1e-13):
                raise DomainError(f"{r} is not a root of the quintic")
        if not self.r1 < self.r2:
            raise DomainError("roots out of order")


def quintic_roots() -> QuinticRoots:
    """Closed-form quadratic roots plus a bisected cubic root.

    Also cross-checks that the factored form agrees with the expansion
    (X^2+1)^2 X - 3 (X^2+1)^2 + 9 X at a spread of sample points.
    """
    s5 = math.sqrt(5.0)
    r1 = (3.0 - s5) / 2.0
    r2 = (3.0 + s5) / 2.0
    lo, hi = 1.0, 1.5
    cubic = lambda x: x ** 3 + x - 3.0
    if not cubic(lo) < 0 < cubic(hi):
        raise DomainError("cubic bracket lost")
    lo, hi = bisect(lambda x: cubic(x) < 0, lo, hi, 200)
    r3 = 0.5 * (lo + hi)
    xs = np.linspace(0.0, 3.0, 100)
    alt = (xs ** 2 + 1) ** 2 * xs - 3 * (xs ** 2 + 1) ** 2 + 9 * xs
    if float(np.max(np.abs(alt - _quintic(xs)))) > 1e-12:
        raise DomainError("quintic expansion identity failed")
    return QuinticRoots(r1, r2, r3)


@dataclass(frozen=True)
class StaircasePair:
    """One member of the steady-state family: the square wave h of the
    level passed to `build_pair`, and the densities u, v along it."""

    h: Field
    u: Field
    v: Field


def staircase(n: int, grid: TorusGrid) -> Field:
    """Square wave of dyadic frequency 2^n sampled at cell centers.

    The sign at sample i depends only on the integer (2i+1) mod 4M with
    M = N / 2^(n+1), so the construction is exact: no floating-point
    comparison ever sits on a jump. For d >= 2 the wave depends on the
    first coordinate only.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"staircase level must be a positive integer, got {n}")
    if 2 ** (n + 1) > grid.N:
        raise DomainError(
            f"level {n} needs at least {2 ** (n + 1)} points per axis, "
            f"grid has {grid.N}")
    m = grid.N // 2 ** (n + 1)
    i = np.arange(grid.N)
    line = np.where((2 * i + 1) % (4 * m) < 2 * m, 1.0, -1.0)
    vals = np.broadcast_to(line.reshape((grid.N,) + (1,) * (grid.d - 1)), grid.shape)
    return Field(grid, vals.copy())


def build_pair(n: int, grid: TorusGrid) -> StaircasePair:
    """Densities taking the two quadratic roots along the square wave."""
    roots = quintic_roots()
    h = staircase(n, grid)
    v_vals = np.where(h.values > 0, roots.r2, roots.r1)
    u_vals = 3.0 / (1.0 + v_vals ** 2)
    return StaircasePair(h, Field(grid, u_vals), Field(grid, v_vals))


def verify_counterexample(n_max: int, grid: TorusGrid) -> Report:
    """Check every claimed identity of the staircase family at once.

    Verifies orthonormality of the square waves, the pairwise L2
    distances of the v components, constancy of both composite fluxes,
    the pointwise quintic identity with coefficients assembled from the
    flux fields, and the uniform sup bound.
    """
    if n_max < 1:
        raise DomainError("need at least one staircase level")
    if 2 ** (n_max + 1) > grid.N:
        raise DomainError(f"level {n_max} does not fit on an N={grid.N} grid")
    roots = quintic_roots()
    pairs = [build_pair(n, grid) for n in range(1, n_max + 1)]

    hs = np.stack([p.h.values.ravel() for p in pairs])
    gram = hs @ hs.T / hs.shape[1]
    gram_err = float(np.max(np.abs(gram - np.eye(n_max))))

    target = (roots.r2 - roots.r1) / math.sqrt(2.0)
    dist_err = 0.0
    for a in range(n_max):
        for b in range(a + 1, n_max):
            d = lp_norm(pairs[a].v - pairs[b].v, 2)
            dist_err = max(dist_err, abs(d - target))

    flux_h1 = 0.0
    quintic_res = 0.0
    sup_excess = 0.0
    for p in pairs:
        u, v = p.u.values, p.v.values
        phi = u * (1.0 + v * v)
        psi = v * (1.0 + u * u)
        for w in (phi, psi):
            f = Field(grid, w)
            flux_h1 = max(flux_h1, sobolev_norm(f - float(w.mean()), 1))
        res = (u ** 5 - phi * u ** 4 + 2 * u ** 3 - 2 * phi * u ** 2
               + (1.0 + psi ** 2) * u - phi)
        quintic_res = max(quintic_res, float(np.max(np.abs(res))))
        sup_excess = max(sup_excess,
                         float(max(np.max(np.abs(u)), np.max(np.abs(v))))
                         - roots.r2)

    passed = (gram_err <= 1e-12 and dist_err <= 1e-12
              and flux_h1 <= 1e-9 and quintic_res <= 1e-10
              and sup_excess <= 1e-9)
    return Report(
        "counterexample", passed,
        {"gram_max_error": gram_err, "distance_max_error": dist_err,
         "flux_h1_max": flux_h1, "quintic_residual_max": quintic_res,
         "sup_bound_excess": sup_excess, "levels": float(n_max)},
        1e-12, "staircase steady-state family with no L2-convergent subsequence")
