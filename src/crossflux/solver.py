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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError, DomainError
from .model import ModelSpec, X, Y, derive_QR
from .spaces import TimeSeriesField, interp_linear
from .spectral import FOUR_PI_SQ, Field, TorusGrid, dealias_size, spectral_plan

RK4_STABILITY_CONSTANT = 0.4


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
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-8 * self.t_end:
            raise ConfigError("dt must divide t_end")
        if self.record_every < 1 or self.record_every != int(self.record_every):
            raise ConfigError(f"record_every must be a positive integer, got {self.record_every}")
        if self.scheme not in ("imex", "rk4"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.variant not in ("plain", "regularized"):
            raise ConfigError(f"unknown variant {self.variant!r}")
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
    """Recorded states plus cheap per-step diagnostics."""

    spec: ModelSpec
    scheme: str
    variant: str
    dt: float
    times: np.ndarray
    states: list
    step_times: np.ndarray
    min_u: np.ndarray
    min_v: np.ndarray
    mass_u: np.ndarray
    mass_v: np.ndarray

    @property
    def grid(self) -> TorusGrid:
        return self.states[0].grid

    def series_u(self) -> TimeSeriesField:
        return TimeSeriesField(self.times, [s.u for s in self.states])

    def series_v(self) -> TimeSeriesField:
        return TimeSeriesField(self.times, [s.v for s in self.states])


def _flux_plan(spec: ModelSpec, grid: TorusGrid, min_degree: int = 1):
    """Plan that dealiases the fluxes X*p and Y*q, of degree >= min_degree."""
    degree = max(spec.p.total_degree() + 1, spec.q.total_degree() + 1, min_degree)
    return spectral_plan(grid, dealias_size(grid.N, degree))


def amplitude(states) -> float:
    """Largest |u| or |v| over the given states."""
    return max(max(float(np.max(np.abs(s.u.values))),
                   float(np.max(np.abs(s.v.values)))) for s in states)


def rk4_max_dt(spec: ModelSpec, state: State) -> float:
    """Explicit stability bound for the rk4 stepper at this state."""
    g = state.grid
    amp = amplitude([state])
    q1, r1, q2, r2 = derive_QR(spec)
    s = max(spec.d1 + q1.eval(amp, amp) + r1.eval(amp, amp),
            spec.d2 + q2.eval(amp, amp) + r2.eval(amp, amp))
    return RK4_STABILITY_CONSTANT / (FOUR_PI_SQ * (g.N / 2) ** 2 * s)


def _nonlinear_coeffs(plan, np1, np2, cu, cv):
    """Dealiased coefficients of p(u,v)*u and q(u,v)*v."""
    if not np1.terms and not np2.terms:
        zero = np.zeros_like(cu)
        return zero, zero
    uf = plan.fine_values(cu)
    vf = plan.fine_values(cv)
    cw1 = plan.project_fine(np1.eval_arrays(uf, vf)) if np1.terms else np.zeros_like(cu)
    cw2 = plan.project_fine(np2.eval_arrays(uf, vf)) if np2.terms else np.zeros_like(cv)
    return cw1, cw2


def _imex_update(plan, spec, dt, cu, cv, cw1, cw2):
    den1 = 1.0 + dt * plan.lam * spec.d1
    den2 = 1.0 + dt * plan.lam * spec.d2
    return ((cu - dt * plan.lam * cw1) / den1,
            (cv - dt * plan.lam * cw2) / den2)


def _rk4_update(plan, spec, dt, cu, cv, np1, np2):
    def rhs(a, b):
        cw1, cw2 = _nonlinear_coeffs(plan, np1, np2, a, b)
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


def step_imex(state: State, spec: ModelSpec, dt: float) -> State:
    """One first-order step: implicit d_i*Lap, explicit polynomial flux."""
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    plan = _flux_plan(spec, state.grid)
    np1, np2 = X * spec.p, Y * spec.q
    cu, cv = plan.to_coeffs(state.u.values), plan.to_coeffs(state.v.values)
    cw1, cw2 = _nonlinear_coeffs(plan, np1, np2, cu, cv)
    cu, cv = _imex_update(plan, spec, dt, cu, cv, cw1, cw2)
    return State(state.t + dt, Field(state.grid, plan.to_values(cu)),
                 Field(state.grid, plan.to_values(cv)))


def step_rk4(state: State, spec: ModelSpec, dt: float) -> State:
    """One classical Runge-Kutta step on the full explicit right-hand side."""
    bound = rk4_max_dt(spec, state)
    if dt > bound:
        raise ConfigError(
            f"dt = {dt:.3e} exceeds the rk4 stability bound {bound:.3e}")
    plan = _flux_plan(spec, state.grid)
    np1, np2 = X * spec.p, Y * spec.q
    cu, cv = plan.to_coeffs(state.u.values), plan.to_coeffs(state.v.values)
    cu, cv = _rk4_update(plan, spec, dt, cu, cv, np1, np2)
    return State(state.t + dt, Field(state.grid, plan.to_values(cu)),
                 Field(state.grid, plan.to_values(cv)))


def _run(config: RunConfig) -> Trajectory:
    spec = config.spec
    grid = config.initial.grid
    dt = config.dt
    n_steps = config.n_steps
    # the regularized flux multiplies two fields, so it is at least quadratic
    plan = _flux_plan(spec, grid, 2 if config.variant == "regularized" else 1)
    np1, np2 = X * spec.p, Y * spec.q

    if config.scheme == "rk4":
        if config.variant == "regularized":
            raise ConfigError("the regularized variant runs with the imex scheme")
        bound = rk4_max_dt(spec, config.initial)
        if dt > bound:
            raise ConfigError(
                f"dt = {dt:.3e} exceeds the rk4 stability bound {bound:.3e} "
                "for this initial state")

    cu = plan.to_coeffs(config.initial.u.values)
    cv = plan.to_coeffs(config.initial.v.values)
    u_vals = config.initial.u.values
    v_vals = config.initial.v.values

    rec_times, states = [], []
    step_times = np.empty(n_steps + 1)
    min_u = np.empty(n_steps + 1)
    min_v = np.empty(n_steps + 1)
    mass_u = np.empty(n_steps + 1)
    mass_v = np.empty(n_steps + 1)

    def diagnose(n):
        step_times[n] = n * dt
        min_u[n] = u_vals.min()
        min_v[n] = v_vals.min()
        mass_u[n] = u_vals.mean()
        mass_v[n] = v_vals.mean()

    def record(n):
        rec_times.append(n * dt)
        states.append(State(n * dt, Field(grid, u_vals.copy()),
                            Field(grid, v_vals.copy())))

    def partial(n):
        return Trajectory(spec, config.scheme, config.variant, dt,
                          np.asarray(rec_times), states, step_times[:n].copy(),
                          min_u[:n].copy(), min_v[:n].copy(),
                          mass_u[:n].copy(), mass_v[:n].copy())

    diagnose(0)
    record(0)
    for n in range(1, n_steps + 1):
        if config.scheme == "rk4":
            cu, cv = _rk4_update(plan, spec, dt, cu, cv, np1, np2)
        elif config.variant == "regularized":
            cw1, cw2 = _regularized_coeffs(plan, spec, cu, cv, u_vals, v_vals)
            cu, cv = _imex_update(plan, spec, dt, cu, cv, cw1, cw2)
        else:
            cw1, cw2 = _nonlinear_coeffs(plan, np1, np2, cu, cv)
            cu, cv = _imex_update(plan, spec, dt, cu, cv, cw1, cw2)
        u_vals = plan.to_values(cu)
        v_vals = plan.to_values(cv)
        if not (np.all(np.isfinite(u_vals)) and np.all(np.isfinite(v_vals))):
            raise BlowupError(n, partial(n))
        diagnose(n)
        if n % config.record_every == 0 or n == n_steps:
            record(n)

    return Trajectory(spec, config.scheme, config.variant, dt,
                      np.asarray(rec_times), states, step_times,
                      min_u, min_v, mass_u, mass_v)


def simulate(config: RunConfig) -> Trajectory:
    """Integrate the system as configured; never clips negative values."""
    if config.variant != "plain":
        raise ConfigError("simulate runs the plain variant; "
                          "use simulate_regularized for the truncated model")
    return _run(config)


def simulate_regularized(config: RunConfig) -> Trajectory:
    """Integrate the truncated and mollified system: the polynomial part of
    each flux is evaluated at densities capped at trunc_delta and smoothed
    by the heat kernel at time eta before multiplying the density."""
    if config.variant != "regularized":
        raise ConfigError("simulate_regularized needs variant='regularized'")
    return _run(config)


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
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    n_steps = round(t_end / dt)
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-8 * t_end:
        raise ConfigError("dt must divide t_end")
    mu_stack = np.stack([g.values for g in mu.fields])
    f_stack = np.stack([g.values for g in f.fields])
    if float(mu_stack.min()) <= 0.0:
        raise DomainError("mu must be strictly positive")

    plan = spectral_plan(grid, grid.N)
    cz = plan.to_coeffs(z_in.values)
    z_vals = z_in.values
    out_t, out_f = [0.0], [Field(grid, z_vals.copy())]
    for n in range(1, n_steps + 1):
        t = (n - 1) * dt
        mu_n = interp_linear(mu_stack, mu.times, t)
        f_n = interp_linear(f_stack, f.times, t)
        mu_min = float(mu_n.min())
        expl = plan.to_coeffs((mu_n - mu_min) * z_vals + f_n)
        cz = (cz - dt * plan.lam * expl) / (1.0 + dt * plan.lam * mu_min)
        z_vals = plan.to_values(cz)
        if not np.all(np.isfinite(z_vals)):
            raise BlowupError(n, TimeSeriesField(np.asarray(out_t), out_f))
        if n % record_every == 0 or n == n_steps:
            out_t.append(n * dt)
            out_f.append(Field(grid, z_vals.copy()))
    return TimeSeriesField(np.asarray(out_t), out_f)
