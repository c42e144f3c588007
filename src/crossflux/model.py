"""Model data for the two-species cross-diffusion system.

The system evolves nonnegative densities (u, v) by

    d_t u = Lap( (d1 + p(u, v)) u ),    d_t v = Lap( (d2 + q(u, v)) v ),

with p, q bivariate polynomials with nonnegative coefficients vanishing
at the origin.  This module holds the polynomial algebra (kept exact for
rational coefficients), the derived coupling polynomials, the Lipschitz
and stability constants, and the computable smallness thresholds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .spectral import Field, TorusGrid, laplacian, poly_plan

CAP = 1e3  # returned when a threshold is unbounded for the given model


def _clean_terms(terms) -> dict:
    out = {}
    for key, c in dict(terms).items():
        i, j = key
        if i < 0 or j < 0 or i != int(i) or j != int(j):
            raise DomainError(f"exponents must be nonnegative integers, got {key}")
        if c == 0:
            continue
        out[(int(i), int(j))] = c
    return out


class Poly2Signed:
    """Bivariate polynomial sum c_ij X^i Y^j with arbitrary real coefficients.

    Coefficient arithmetic goes through plain Python numbers, so integer
    and Fraction inputs stay exact; floats behave as floats.
    """

    def __init__(self, terms=None):
        self.terms = _clean_terms(terms or {})

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(i + j for i, j in self.terms)

    def eval(self, x, y):
        return sum(c * x ** i * y ** j for (i, j), c in self.terms.items())

    def eval_arrays(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast(X, Y).shape)
        for (i, j), c in self.terms.items():
            out += float(c) * X ** i * Y ** j
        return out

    def partial(self, var: int) -> "Poly2Signed":
        """Partial derivative; var = 0 for X, 1 for Y."""
        out = {}
        for (i, j), c in self.terms.items():
            if var == 0 and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0) + i * c
            elif var == 1 and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0) + j * c
        return Poly2Signed(out)

    def abs_poly(self) -> "Poly2Signed":
        return _wrap({k: abs(c) for k, c in self.terms.items()})

    def _combine(self, other, sign):
        if not isinstance(other, Poly2Signed):
            other = Poly2Signed({(0, 0): other})
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + sign * c
        return _wrap(out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, Poly2Signed):
            out = {}
            for (i, j), c in self.terms.items():
                for (a, b), e in other.terms.items():
                    k = (i + a, j + b)
                    out[k] = out.get(k, 0) + c * e
            return _wrap(out)
        return _wrap({k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Poly2Signed) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        parts = [f"{c}*X^{i}*Y^{j}" for (i, j), c in sorted(self.terms.items())]
        return f"{type(self).__name__}({' + '.join(parts)})"


class Poly2(Poly2Signed):
    """Polynomial with nonnegative coefficients."""

    def __init__(self, terms=None):
        super().__init__(terms)
        for key, c in self.terms.items():
            if c < 0:
                raise DomainError(f"coefficient of X^{key[0]} Y^{key[1]} is negative: {c}")


def _wrap(terms) -> Poly2Signed:
    cleaned = _clean_terms(terms)
    if all(c >= 0 for c in cleaned.values()):
        return Poly2(cleaned)
    return Poly2Signed(cleaned)


X = Poly2({(1, 0): 1})
Y = Poly2({(0, 1): 1})


class Poly1:
    """Univariate polynomial with nonnegative coefficients and a double
    zero at the origin; the shape of the self-improvement bound."""

    def __init__(self, terms=None):
        self.terms = {}
        for n, c in dict(terms or {}).items():
            if n != int(n) or n < 2:
                raise DomainError(f"exponents must be integers >= 2, got {n}")
            if c < 0:
                raise DomainError(f"coefficient of x^{n} is negative: {c}")
            if c != 0:
                self.terms[int(n)] = c

    def eval(self, x):
        return sum(c * x ** n for n, c in self.terms.items())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if self.is_zero:
            return "Poly1(0)"
        return "Poly1(" + " + ".join(f"{c}*x^{n}" for n, c in sorted(self.terms.items())) + ")"


@dataclass(frozen=True)
class ModelSpec:
    """Diffusivities and coupling polynomials of one cross-diffusion model."""

    d1: float
    d2: float
    p: Poly2
    q: Poly2
    eta: float | None = None
    trunc_delta: float | None = None

    def __post_init__(self):
        if self.d1 <= 0 or self.d2 <= 0:
            raise DomainError(f"diffusivities must be positive, got {self.d1}, {self.d2}")
        for name, poly in (("p", self.p), ("q", self.q)):
            if not isinstance(poly, Poly2):
                raise ConfigError(f"{name} must be a Poly2 with nonnegative coefficients")
            if (0, 0) in poly.terms:
                raise DomainError(f"{name} must vanish at the origin")
        for name, val in (("eta", self.eta), ("trunc_delta", self.trunc_delta)):
            if val is not None and val <= 0:
                raise DomainError(f"{name} must be positive when set, got {val}")


def flux_polys(spec: ModelSpec):
    """Full flux polynomials (d1 + p)X and (d2 + q)Y."""
    return spec.d1 * X + X * spec.p, spec.d2 * Y + Y * spec.q


def poly_eval(p: Poly2Signed, u: Field, v: Field) -> Field:
    """Pointwise (collocation) evaluation of p at the sample values."""
    if u.grid != v.grid:
        raise ConfigError("fields live on different grids")
    return Field(u.grid, p.eval_arrays(u.values, v.values))


def flux(spec: ModelSpec, u: Field, v: Field):
    """Dealiased flux fields ((d1 + p(u,v))u, (d2 + q(u,v))v), both
    evaluated on one fine grid."""
    if u.grid != v.grid:
        raise ConfigError("fields live on different grids")
    polys = flux_polys(spec)
    plan = poly_plan(u.grid, polys)
    coeffs = plan.poly_coeffs(polys, plan.to_coeffs(u.values), plan.to_coeffs(v.values))
    return tuple(Field(u.grid, plan.to_values(c)) for c in coeffs)


def derive_QR(spec: ModelSpec):
    """Coupling polynomials of the flux evolution equations.

    Differentiating the fluxes along the system gives

        d_t Phi_1 - d1 * Lap(Phi_1) = Q1 * Lap(Phi_1) + R1 * Lap(Phi_2)

    with Q1 = p + X*dp/dX and R1 = X*dp/dY, and symmetrically for the
    second species.
    """
    q1 = spec.p + X * spec.p.partial(0)
    r1 = X * spec.p.partial(1)
    q2 = spec.q + Y * spec.q.partial(1)
    r2 = Y * spec.q.partial(0)
    return q1, r1, q2, r2


def lipschitz_LR(spec: ModelSpec, R: float) -> float:
    """Common Lipschitz bound of p and q on the square [0, R]^2."""
    if R < 0:
        raise DomainError(f"radius must be nonnegative, got {R}")
    worst = 0.0
    for poly in (spec.p, spec.q):
        gx = sum(i * c * float(R) ** (i + j - 1) for (i, j), c in poly.terms.items() if i > 0)
        gy = sum(j * c * float(R) ** (i + j - 1) for (i, j), c in poly.terms.items() if j > 0)
        worst = max(worst, math.hypot(gx, gy))
    return worst


def stability_constants(spec: ModelSpec, R: float, delta: float):
    """Coercivity constant C_delta of the two-trajectory estimate and the
    admissibility flag C_delta > 0.  Uses the min-based sufficient form."""
    if not (0 < delta <= R):
        raise DomainError(f"need 0 < delta <= R, got delta={delta}, R={R}")
    L = lipschitz_LR(spec, R)
    c = min(spec.d1, spec.d2) - (L * delta) ** 2 * (1.0 / spec.d1 + 1.0 / spec.d2)
    return c, c > 0


def _entropy_matrix_pd(spec: ModelSpec, delta: float, n: int = 64) -> bool:
    a = np.linspace(0.0, delta, n)
    A, B = np.meshgrid(a, a, indexing="ij")
    dpx = spec.p.partial(0).eval_arrays(A, B)
    dpy = spec.p.partial(1).eval_arrays(A, B)
    dqx = spec.q.partial(0).eval_arrays(A, B)
    dqy = spec.q.partial(1).eval_arrays(A, B)
    m11 = 0.5 * spec.d1 - np.abs(A * dpx)
    m22 = 0.5 * spec.d2 - np.abs(B * dqy)
    off = 0.5 * (np.abs(A * dpy) + np.abs(B * dqx))
    return bool(np.all(m11 > 0) and np.all(m22 > 0) and np.all(m11 * m22 - off ** 2 > 0))


def find_delta_A(spec: ModelSpec, cap: float = CAP) -> float:
    """Largest certified box [0, delta]^2 on which the symmetrized duality
    matrix stays positive definite, shrunk by a 1% safety factor.

    The box is sampled on a 64 x 64 grid including the corner; the matrix
    entries are monotone in (a, b) for nonnegative coefficients, so the
    sampling is a faithful certificate at this resolution.
    """
    if _entropy_matrix_pd(spec, cap):
        return cap
    lo, hi = 0.0, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _entropy_matrix_pd(spec, mid):
            lo = mid
        else:
            hi = mid
    return 0.99 * lo


def bootstrap_delta(P: Poly1, cap: float = CAP) -> float:
    """Largest delta with P(x) < x/2 on (0, delta], times a 1% margin.

    P has nonnegative coefficients and a double zero at 0, so P(x)/x is
    increasing and checking the right endpoint suffices.
    """
    if P.is_zero:
        return cap
    if P.eval(cap) < 0.5 * cap:
        return 0.99 * cap
    lo, hi = 0.0, cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if P.eval(mid) < 0.5 * mid:
            lo = mid
        else:
            hi = mid
    return 0.99 * lo


def bootstrap_poly(spec: ModelSpec) -> Poly1:
    """Operating surrogate for the self-improvement bound: x * S(x) with
    S the coefficient-absolute sum of the coupling polynomials on the
    diagonal (x, x)."""
    q1, r1, q2, r2 = derive_QR(spec)
    terms = {}
    for poly in (q1, r1, q2, r2):
        for (i, j), c in poly.terms.items():
            n = i + j + 1
            terms[n] = terms.get(n, 0) + abs(c)
    return Poly1(terms)


def smallness_functional(u_in: Field, v_in: Field, spec: ModelSpec, k: float,
                         tol: float = 1e-8) -> float:
    """Sup norms of the initial data plus N_k of the initial flux Laplacians."""
    if u_in.grid != v_in.grid:
        raise ConfigError("fields live on different grids")
    d = u_in.grid.d
    if k <= 1 + d / 2:
        warnings.warn(f"smallness functional expects k > 1 + d/2 = {1 + d / 2}, got {k}",
                      stacklevel=2)
    for name, f in (("u", u_in), ("v", v_in)):
        if float(f.values.min()) < -1e-12:
            raise DomainError(f"initial {name} must be nonnegative")
    phi1, phi2 = flux(spec, u_in, v_in)
    from .spaces import besov_Nk, lp_norm  # local import to avoid a cycle
    return (lp_norm(u_in, math.inf) + lp_norm(v_in, math.inf)
            + besov_Nk(laplacian(phi1), k, tol) + besov_Nk(laplacian(phi2), k, tol))


def thresholds(spec: ModelSpec, R: float = 1.0) -> dict:
    """The three computable smallness levels and their minimum.

    delta_A certifies the duality matrix, delta_stability the coercivity
    of the two-trajectory estimate at radius R, delta_bootstrap the
    self-improvement step; the minimum is the operating level.
    """
    delta_a = find_delta_A(spec)
    L = lipschitz_LR(spec, R)
    if L == 0.0:
        delta_stab = min(R, CAP)
    else:
        delta_stab = min(R, math.sqrt(min(spec.d1, spec.d2)
                                      / (L * L * (1.0 / spec.d1 + 1.0 / spec.d2))))
    delta_boot = bootstrap_delta(bootstrap_poly(spec))
    return {
        "delta_A": delta_a,
        "delta_stability": delta_stab,
        "delta_bootstrap": delta_boot,
        "delta_min": min(delta_a, delta_stab, delta_boot),
    }


def parse_model_json(obj: dict):
    """Build (TorusGrid, ModelSpec) from the interchange dictionary
    {"d", "N", "d1", "d2", "p", "q", "eta", "trunc_delta"} where p and q
    are lists of [i, j, c] triples."""
    if not isinstance(obj, dict):
        raise ConfigError("model description must be a JSON object")
    try:
        grid = TorusGrid(int(obj["d"]), int(obj["N"]))
        polys = {}
        for name in ("p", "q"):
            terms = {}
            for triple in obj[name]:
                i, j, c = triple
                terms[(int(i), int(j))] = terms.get((int(i), int(j)), 0) + c
            polys[name] = Poly2(terms)
        spec = ModelSpec(
            d1=float(obj["d1"]), d2=float(obj["d2"]),
            p=polys["p"], q=polys["q"],
            eta=None if obj.get("eta") is None else float(obj["eta"]),
            trunc_delta=(None if obj.get("trunc_delta") is None
                         else float(obj["trunc_delta"])),
        )
    except KeyError as exc:
        raise ConfigError(f"model description is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model description: {exc}") from None
    return grid, spec


def model_json(grid: TorusGrid, spec: ModelSpec) -> dict:
    def poly_list(poly):
        return [[i, j, float(c)] for (i, j), c in sorted(poly.terms.items())]

    return {
        "d": grid.d, "N": grid.N,
        "d1": float(spec.d1), "d2": float(spec.d2),
        "p": poly_list(spec.p), "q": poly_list(spec.q),
        "eta": None if spec.eta is None else float(spec.eta),
        "trunc_delta": None if spec.trunc_delta is None else float(spec.trunc_delta),
    }
