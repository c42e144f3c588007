"""Time integration of the cross-diffusion system and its scalar form.

Two steppers share one spatial discretization (Fourier collocation with
dealiased polynomial fluxes):

* `imex`: the stiff linear parts d_i * Lap are implicit and diagonal in
  Fourier space, the polynomial excess flux is explicit.  First order,
  conserves both means exactly, unconditionally stable in the linear part.
* `rk4`: classical fourth-order Runge-Kutta on the full right-hand side,
  used as a cross-validation oracle under its explicit stability bound.

States are advanced as coefficient arrays; the zero mode is never
touched by either scheme, so masses are conserved to the last bit.
Recorded states are stacked into arrays with time as the leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError, DomainError
from .model import ModelSpec, X, Y, derive_QR
from .spaces import TimeSeriesField, interp_linear
from .spectral import FOUR_PI_SQ, Field, TorusGrid, poly_plan, spectral_plan

RK4_STABILITY_CONSTANT = 0.4
# every step is diagnosed into preallocated arrays, so the count is capped
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class State:
    """Densities of both species at one instant."""

    t: float
    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise ConfigError("u and v live on different grids")

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one simulation run."""

    spec: ModelSpec
    initial: State
    dt: float
    t_end: float
    record_every: int = 1
    scheme: str = "imex"
    variant: str = "plain"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ConfigError(f"dt and t_end must be finite, got {self.dt} and {self.t_end}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ConfigError("t_end must be at least one step long")
        if self.t_end > MAX_STEPS * self.dt:
            raise ConfigError(f"t_end / dt = {self.t_end / self.dt:.3g} steps "
                              f"exceeds the limit of {MAX_STEPS}")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-8 * self.t_end:
            raise ConfigError("dt must divide t_end")
        if self.record_every < 1 or self.record_every != int(self.record_every):
            raise ConfigError(f"record_every must be a positive integer, got {self.record_every}")
        if self.scheme not in ("imex", "rk4"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.variant not in ("plain", "regularized"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == "regularized" and self.scheme != "imex":
            raise ConfigError("the regularized variant runs with the imex scheme")
        if self.variant == "regularized" and (self.spec.eta is None
                                              or self.spec.trunc_delta is None):
            raise ConfigError("regularized runs need eta and trunc_delta in the model")
        for name, f in (("u", self.initial.u), ("v", self.initial.v)):
            if float(f.values.min()) < -1e-12:
                raise DomainError(f"initial {name} must be nonnegative")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class Trajectory:
    """Recorded states, stacked as u and v arrays of shape (T, *grid.shape)
    at `times`, plus cheap per-step diagnostics."""

    spec: ModelSpec
    scheme: str
    variant: str
    dt: float
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    step_times: np.ndarray
    min_u: np.ndarray
    min_v: np.ndarray
    mass_u: np.ndarray
    mass_v: np.ndarray

    @property
    def grid(self) -> TorusGrid:
        return TorusGrid(self.u.ndim - 1, self.u.shape[-1])

    @property
    def states(self) -> list:
        """The recorded states; their fields are views into u and v."""
        g = self.grid
        return [State(float(t), Field(g, a), Field(g, b))
                for t, a, b in zip(self.times, self.u, self.v)]

    def series_u(self) -> TimeSeriesField:
        return TimeSeriesField(self.times, self.u)

    def series_v(self) -> TimeSeriesField:
        return TimeSeriesField(self.times, self.v)


def amplitude(u: np.ndarray, v: np.ndarray) -> float:
    """Largest |u| or |v| over the given arrays (one state or a stack)."""
    return max(float(np.max(np.abs(u))), float(np.max(np.abs(v))))


def rk4_max_dt(spec: ModelSpec, state: State) -> float:
    """Explicit stability bound for the rk4 stepper at this state."""
    g = state.grid
    amp = amplitude(state.u.values, state.v.values)
    q1, r1, q2, r2 = derive_QR(spec)
    s = max(spec.d1 + q1.eval(amp, amp) + r1.eval(amp, amp),
            spec.d2 + q2.eval(amp, amp) + r2.eval(amp, amp))
    return RK4_STABILITY_CONSTANT / (FOUR_PI_SQ * (g.N / 2) ** 2 * s)


def _imex_update(plan, spec, dt, cu, cv, cw1, cw2):
    den1 = 1.0 + dt * plan.lam * spec.d1
    den2 = 1.0 + dt * plan.lam * spec.d2
    return ((cu - dt * plan.lam * cw1) / den1,
            (cv - dt * plan.lam * cw2) / den2)


def _rk4_update(plan, spec, dt, cu, cv, fluxes):
    def rhs(a, b):
        cw1, cw2 = plan.poly_coeffs(fluxes, a, b)
        return (-plan.lam * (spec.d1 * a + cw1), -plan.lam * (spec.d2 * b + cw2))

    k1u, k1v = rhs(cu, cv)
    k2u, k2v = rhs(cu + 0.5 * dt * k1u, cv + 0.5 * dt * k1v)
    k3u, k3v = rhs(cu + 0.5 * dt * k2u, cv + 0.5 * dt * k2v)
    k4u, k4v = rhs(cu + dt * k3u, cv + dt * k3v)
    return (cu + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u),
            cv + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _regularized_coeffs(plan, spec, cu, cv, u_vals, v_vals):
    """Explicit-part coefficients for the truncated, mollified flux."""
    dlt = spec.trunc_delta
    pu = spec.p.eval_arrays(np.minimum(u_vals, dlt), np.minimum(v_vals, dlt))
    qv = spec.q.eval_arrays(np.minimum(u_vals, dlt), np.minimum(v_vals, dlt))
    moll = np.exp(-spec.eta * plan.lam)
    cw1 = plan.project_fine(plan.fine_values(plan.to_coeffs(pu) * moll)
                           * plan.fine_values(cu))
    cw2 = plan.project_fine(plan.fine_values(plan.to_coeffs(qv) * moll)
                           * plan.fine_values(cv))
    return cw1, cw2


def simulate(config: RunConfig) -> Trajectory:
    """Integrate the system as configured; never clips negative values.

    The regularized variant evaluates the polynomial part of each flux at
    densities capped at trunc_delta and smoothed by the heat kernel at
    time eta before multiplying the density.
    """
    spec = config.spec
    grid = config.initial.grid
    dt = config.dt
    n_steps = config.n_steps
    every = min(config.record_every, n_steps)
    regularized = config.variant == "regularized"
    # p(u,v)*u and q(u,v)*v; the regularized flux multiplies two fields,
    # so its plan dealiases at least the quadratic X*Y
    fluxes = (X * spec.p, Y * spec.q)
    plan = poly_plan(grid, fluxes + (X * Y,) if regularized else fluxes)

    if config.scheme == "rk4":
        bound = rk4_max_dt(spec, config.initial)
        if dt > bound:
            raise ConfigError(
                f"dt = {dt:.3e} exceeds the rk4 stability bound {bound:.3e} "
                "for this initial state")

    cu = plan.to_coeffs(config.initial.u.values)
    cv = plan.to_coeffs(config.initial.v.values)
    u_vals = config.initial.u.values
    v_vals = config.initial.v.values

    # states are recorded at every `every`-th step and at the last one
    n_rec = -(-n_steps // every) + 1
    step_times = np.arange(n_steps + 1) * dt
    times = step_times[np.minimum(np.arange(n_rec) * every, n_steps)]
    u_rec = np.empty((n_rec,) + grid.shape)
    v_rec = np.empty((n_rec,) + grid.shape)
    min_u = np.empty(n_steps + 1)
    min_v = np.empty(n_steps + 1)
    mass_u = np.empty(n_steps + 1)
    mass_v = np.empty(n_steps + 1)

    def diagnose(n):
        min_u[n] = u_vals.min()
        min_v[n] = v_vals.min()
        mass_u[n] = u_vals.mean()
        mass_v[n] = v_vals.mean()

    def trajectory(n, r):
        return Trajectory(spec, config.scheme, config.variant, dt, times[:r],
                          u_rec[:r], v_rec[:r], step_times[:n], min_u[:n],
                          min_v[:n], mass_u[:n], mass_v[:n])

    diagnose(0)
    u_rec[0] = u_vals
    v_rec[0] = v_vals
    r = 1
    for n in range(1, n_steps + 1):
        if config.scheme == "rk4":
            cu, cv = _rk4_update(plan, spec, dt, cu, cv, fluxes)
        else:
            if regularized:
                cw1, cw2 = _regularized_coeffs(plan, spec, cu, cv, u_vals, v_vals)
            else:
                cw1, cw2 = plan.poly_coeffs(fluxes, cu, cv)
            cu, cv = _imex_update(plan, spec, dt, cu, cv, cw1, cw2)
        u_vals = plan.to_values(cu)
        v_vals = plan.to_values(cv)
        if not (np.all(np.isfinite(u_vals)) and np.all(np.isfinite(v_vals))):
            raise BlowupError(n, trajectory(n, r))
        diagnose(n)
        if n % every == 0 or n == n_steps:
            u_rec[r] = u_vals
            v_rec[r] = v_vals
            r += 1

    return trajectory(n_steps + 1, n_rec)


def solve_kolmogorov(z_in: Field, mu: TimeSeriesField, f: TimeSeriesField,
                     dt: float, t_end: float,
                     record_every: int = 1) -> TimeSeriesField:
    """Integrate d_t z = Lap(mu * z) + Lap(f) with given coefficients.

    mu and f are interpolated piecewise-linearly in time.  Each step
    splits mu into its current spatial minimum (implicit, diagonal) plus
    the nonnegative remainder (explicit).  The forcing enters through the
    Laplacian, so the mean of z is conserved exactly.
    """
    grid = z_in.grid
    if mu.grid != grid or f.grid != grid:
        raise ConfigError("z_in, mu, and f must share one grid")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not t_end <= MAX_STEPS * dt:
        raise ConfigError(f"t_end / dt = {t_end / dt:.3g} steps exceeds the limit of {MAX_STEPS}")
    if (isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer))
            or record_every < 1):
        raise ConfigError(f"record_every must be a positive integer, got {record_every!r}")
    n_steps = round(t_end / dt)
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-8 * t_end:
        raise ConfigError("dt must divide t_end")
    if float(mu.values.min()) <= 0.0:
        raise DomainError("mu must be strictly positive")

    plan = spectral_plan(grid, grid.N)
    cz = plan.to_coeffs(z_in.values)
    z_vals = z_in.values
    # states are recorded as in `simulate`: every `every`-th step and the last
    every = min(record_every, n_steps)
    n_rec = -(-n_steps // every) + 1
    times = np.minimum(np.arange(n_rec) * every, n_steps) * dt
    z_rec = np.empty((n_rec,) + grid.shape)
    z_rec[0] = z_vals
    r = 1
    for n in range(1, n_steps + 1):
        t = (n - 1) * dt
        mu_n = interp_linear(mu.values, mu.times, t)
        f_n = interp_linear(f.values, f.times, t)
        mu_min = float(mu_n.min())
        expl = plan.to_coeffs((mu_n - mu_min) * z_vals + f_n)
        cz = (cz - dt * plan.lam * expl) / (1.0 + dt * plan.lam * mu_min)
        z_vals = plan.to_values(cz)
        if not np.all(np.isfinite(z_vals)):
            raise BlowupError(n, TimeSeriesField(times[:r], z_rec[:r]))
        if n % every == 0 or n == n_steps:
            z_rec[r] = z_vals
            r += 1
    return TimeSeriesField(times, z_rec)
