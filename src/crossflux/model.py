"""Model data for the two-species cross-diffusion system.

The system evolves nonnegative densities (u, v) by

    d_t u = Lap( (d1 + p(u, v)) u ),    d_t v = Lap( (d2 + q(u, v)) v ),

with p, q bivariate polynomials with nonnegative coefficients vanishing
at the origin.  This module holds the polynomial algebra (kept exact for
rational coefficients), the derived coupling polynomials, the Lipschitz
and stability constants, and the computable smallness thresholds.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .spaces import besov_Nk, lp_norm
from .spectral import Field, TorusGrid, Work, laplacian, poly_fields

CAP = 1e3  # returned when a threshold is unbounded for the given model


def inf_on_overflow(f):
    """`f`, but inf where a Python float overflows: a bound too large to hold is unbounded."""
    @functools.wraps(f)
    def bounded(*args):
        try:
            return f(*args)
        except OverflowError:
            return math.inf
    return bounded


def require_nonnegative(u: Field, v: Field) -> None:
    """Initial densities are nonnegative, up to a rounding of 1e-12."""
    for name, f in (("u", u), ("v", v)):
        if float(f.values.min()) < -1e-12:
            raise DomainError(f"initial {name} must be nonnegative")


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
        """Sum of c * X**i * Y**j in a new array, by running `operations`
        once on a new `Work`; X and Y are only read."""
        out = np.empty(np.broadcast(X, Y).shape)
        for ufunc, args in self.operations(X, Y, out, Work()):
            ufunc(*args)
        return out

    def operations(self, X: np.ndarray, Y: np.ndarray, out: np.ndarray, work: Work,
                   held: dict | None = None) -> list:
        """The calls that write the sum of c * X**i * Y**j into `out`, as
        (ufunc, arguments) pairs to run in order, each term multiplied in
        that order.  A unit coefficient and an exponent of 0 take no
        multiply, X**1 takes no power, and the sum starts from its first
        term: all exact, so every bit is that of the power form.  Terms
        after the first and powers that cannot go into the term are built
        in arrays of `work` (see `spectral.Work`), coefficients as 0-d arrays
        of out's dtype.  The calls read X and Y and write `out` whenever they
        run, so a caller that evaluates the same arrays on every step builds
        them once.  Polynomials of the same X and Y into different `out`s may
        share `held`, the term (i, j, c) left in the array of terms: it is read,
        not made again, and a sum that starts from it starts from its second."""
        held = {} if held is None else held
        if not self.terms:
            return [(np.copyto, (out, 0.0))]
        ops, one = [], np.array(1.0, out.dtype)
        keys = [(i, j, c) for (i, j), c in self.terms.items()]
        if len(keys) > 1 and keys[0] in held:
            keys[:2] = keys[1], keys[0]
        for n, (i, j, c) in enumerate(keys):
            dest = out if n == 0 else work.array("poly term", out.shape)
            term = held.get((i, j, c), None if c == 1 else np.array(float(c), out.dtype))
            for base, e in (() if (i, j, c) in held else ((X, i), (Y, j))):
                if not e:
                    continue
                if e == 1:
                    power = base
                else:
                    # base ** 2 is np.square, any other power np.power
                    power = work.array("poly power", out.shape) if term is dest else dest
                    ops.append((np.square, (base, power)) if e == 2
                               else (np.power, (base, np.array(e, out.dtype), power)))
                if term is not None:
                    ops.append((np.multiply, (term, power, dest)))
                    power = dest
                term = power
            if n and term is dest:
                held.clear()
                held[i, j, c] = dest
            if n:
                ops.append((np.add, (out, one if term is None else term, out)))
            elif term is not out:
                ops.append((np.copyto, (out, one if term is None else term)))
        return ops

    def partial(self, var: int) -> "Poly2Signed":
        """Partial derivative; var = 0 for X, 1 for Y."""
        out = {}
        for (i, j), c in self.terms.items():
            if var == 0 and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0) + i * c
            elif var == 1 and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0) + j * c
        return Poly2Signed(out)

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
    """Polynomial with nonnegative finite coefficients; an overflowing `eval` is inf."""

    eval = inf_on_overflow(Poly2Signed.eval)

    def __init__(self, terms=None):
        super().__init__(terms)
        for key, c in self.terms.items():
            if c < 0:
                raise DomainError(f"coefficient of X^{key[0]} Y^{key[1]} is negative: {c}")
            if not c < math.inf:
                raise DomainError(f"coefficient of X^{key[0]} Y^{key[1]} is not finite: {c}")


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

    @inf_on_overflow
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
        if not all(math.isfinite(d) and d > 0 for d in (self.d1, self.d2)):
            raise DomainError(
                f"diffusivities must be positive and finite, got {self.d1}, {self.d2}")
        for name, poly in (("p", self.p), ("q", self.q)):
            if not isinstance(poly, Poly2):
                raise ConfigError(f"{name} must be a Poly2 with nonnegative coefficients")
            if (0, 0) in poly.terms:
                raise DomainError(f"{name} must vanish at the origin")
        for name, val in (("eta", self.eta), ("trunc_delta", self.trunc_delta)):
            if val is not None and not (math.isfinite(val) and val > 0):
                raise DomainError(f"{name} must be positive and finite when set, got {val}")


@lru_cache(maxsize=64)
def flux_polys(spec: ModelSpec):
    """Full flux polynomials (d1 + p)X and (d2 + q)Y, made once per spec."""
    return spec.d1 * X + X * spec.p, spec.d2 * Y + Y * spec.q


@lru_cache(maxsize=64)
def excess_flux_polys(spec: ModelSpec):
    """The flux polynomials past linear diffusion, pX and qY, made once per spec."""
    return X * spec.p, Y * spec.q


def poly_eval(p: Poly2Signed, u: Field, v: Field) -> Field:
    """Pointwise (collocation) evaluation of p at the sample values."""
    if u.grid != v.grid:
        raise ConfigError("fields live on different grids")
    return Field(u.grid, p.eval_arrays(u.values, v.values))


def flux(spec: ModelSpec, u: Field, v: Field):
    """Dealiased flux fields ((d1 + p(u,v))u, (d2 + q(u,v))v), both
    evaluated on one fine grid."""
    return poly_fields(flux_polys(spec), u, v)


@lru_cache(maxsize=64)
def derive_QR(spec: ModelSpec):
    """Coupling polynomials of the flux evolution equations.

    Differentiating the fluxes along the system gives

        d_t Phi_1 - d1 * Lap(Phi_1) = Q1 * Lap(Phi_1) + R1 * Lap(Phi_2)

    with Q1 = p + X*dp/dX and R1 = X*dp/dY, and symmetrically for the
    second species.  Made once per spec, as `find_delta_A` is.
    """
    return (spec.p + X * spec.p.partial(0), X * spec.p.partial(1),
            spec.q + Y * spec.q.partial(1), Y * spec.q.partial(0))


@inf_on_overflow
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


def _entropy_matrix_pd(spec: ModelSpec, delta: float) -> bool:
    # an entry that overflows to inf or NaN reads as not positive definite
    a = np.linspace(0.0, delta, 64)
    A, B = np.meshgrid(a, a, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        dpx = spec.p.partial(0).eval_arrays(A, B)
        dpy = spec.p.partial(1).eval_arrays(A, B)
        dqx = spec.q.partial(0).eval_arrays(A, B)
        dqy = spec.q.partial(1).eval_arrays(A, B)
        m11 = 0.5 * spec.d1 - np.abs(A * dpx)
        m22 = 0.5 * spec.d2 - np.abs(B * dqy)
        off = 0.5 * (np.abs(A * dpy) + np.abs(B * dqx))
        return bool(np.all(m11 > 0) and np.all(m22 > 0) and np.all(m11 * m22 - off ** 2 > 0))


def bisect(holds, lo: float, hi: float, halvings: int) -> tuple:
    """The bracket [lo, hi] after `halvings` bisection steps towards the
    point where the predicate `holds`, true at lo and false at hi, turns
    false."""
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@lru_cache(maxsize=64)
def find_delta_A(spec: ModelSpec) -> float:
    """Largest certified box [0, delta]^2 on which the symmetrized duality
    matrix stays positive definite, shrunk by a 1% safety factor.

    The box is sampled on a 64 x 64 grid including the corner; the matrix
    entries are monotone in (a, b) for nonnegative coefficients, so the
    sampling is a faithful certificate at this resolution.  The result
    depends on the spec alone (frozen, and hashed by value, as its
    polynomials are never changed after construction), so it is cached.
    """
    if _entropy_matrix_pd(spec, CAP):
        return CAP
    return 0.99 * bisect(lambda x: _entropy_matrix_pd(spec, x), 0.0, CAP, 60)[0]


def bootstrap_delta(P: Poly1) -> float:
    """Largest delta with P(x) < x/2 on (0, delta], times a 1% margin.

    P has nonnegative coefficients and a double zero at 0, so P(x)/x is
    increasing and checking the right endpoint suffices.
    """
    if P.is_zero:
        return CAP
    if P.eval(CAP) < 0.5 * CAP:
        return 0.99 * CAP
    return 0.99 * bisect(lambda x: P.eval(x) < 0.5 * x, 0.0, CAP, 80)[0]


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


def smallness_functional(u_in: Field, v_in: Field, spec: ModelSpec, k: float) -> float:
    """Sup norms of the initial data plus N_k of the initial flux Laplacians."""
    if u_in.grid != v_in.grid:
        raise ConfigError("fields live on different grids")
    d = u_in.grid.d
    if k <= 1 + d / 2:
        warnings.warn(f"smallness functional expects k > 1 + d/2 = {1 + d / 2}, got {k}",
                      stacklevel=2)
    require_nonnegative(u_in, v_in)
    phi1, phi2 = flux(spec, u_in, v_in)
    return (lp_norm(u_in, math.inf) + lp_norm(v_in, math.inf)
            + besov_Nk(laplacian(phi1), k) + besov_Nk(laplacian(phi2), k))


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


def config_number(obj: dict, key: str, default=None, integral: bool = False):
    """obj[key], or the default, as a float (an int when integral).
    Booleans, strings and fractional integers are errors, not coerced."""
    value = obj.get(key, default)
    if value is None:
        raise ConfigError(f"missing {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of range") from None
    if integral and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value) if integral else value


def parse_model_json(obj: dict):
    """Build (TorusGrid, ModelSpec) from the interchange dictionary
    {"d", "N", "d1", "d2", "p", "q", "eta", "trunc_delta"} where p and q
    are lists of [i, j, c] triples; every number is checked by
    `config_number`."""
    if not isinstance(obj, dict):
        raise ConfigError("model description must be a JSON object")
    try:
        grid = TorusGrid(config_number(obj, "d", integral=True),
                         config_number(obj, "N", integral=True))
        polys = {}
        for name in ("p", "q"):
            terms = {}
            for triple in obj[name]:
                i, j, c = triple
                term = {f"{name} exponent of X": i, f"{name} exponent of Y": j,
                        f"{name} coefficient": c}
                key = (config_number(term, f"{name} exponent of X", integral=True),
                       config_number(term, f"{name} exponent of Y", integral=True))
                terms[key] = terms.get(key, 0) + config_number(term, f"{name} coefficient")
            polys[name] = Poly2(terms)
        spec = ModelSpec(
            d1=config_number(obj, "d1"), d2=config_number(obj, "d2"),
            p=polys["p"], q=polys["q"],
            eta=None if obj.get("eta") is None else config_number(obj, "eta"),
            trunc_delta=(None if obj.get("trunc_delta") is None
                         else config_number(obj, "trunc_delta")),
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
