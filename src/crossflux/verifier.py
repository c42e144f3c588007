"""Numerical checkers for the estimates the simulator is meant to exercise.

Every checker is a pure function from recorded data to a Report: no
randomness, no mutation. Inequalities between continuum quantities are
tested with the fixed multiplicative slack INEQ_SLACK that absorbs the
O(dt) scheme defect and the trapezoid quadrature defect; identities are
tested by relative residual, to be driven below target by refinement on
the caller's side. Both sides of every inequality are evaluated with the
same quadrature so a failure signals the estimate, not the discretization.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, DomainError
from .model import (ModelSpec, find_delta_A, flux_polys, smallness_functional,
                    stability_constants)
from .report import Report
from .solver import Trajectory, amplitude
from .spaces import (FINE_BATCH_POINTS, TimeSeriesField, cum_trapz, interp_linear,
                     weighted_power)
from .spectral import Field, TorusGrid, poly_plan, spectral_plan

INEQ_SLACK = 1e-3


def _flat(stack: np.ndarray) -> np.ndarray:
    """A stack of states (T, *grid.shape) viewed as (T, grid.size), so
    that per-state sums, means and extrema reduce along axis 1."""
    return stack.reshape(len(stack), -1)


def _hm1_sq(grid: TorusGrid, stack: np.ndarray) -> np.ndarray:
    """Squared dual norm of each state: mean part plus homogeneous
    inverse-gradient part.

    The duality and stability estimates close exactly for this norm
    (the mean squared plus sum of |coef|^2 / (4 pi^2 |xi|^2) over
    nonzero modes); the inhomogeneous Sobolev weight would make the
    forced estimate false already for stationary single-mode forcing.
    """
    plan = spectral_plan(grid, grid.N)
    w = np.where(plan.lam > 0.0, plan.lam, 1.0)
    return _flat(plan.power(plan.to_coeffs(stack)) / w).sum(axis=1)


def _grad_sq(grid: TorusGrid, stack: np.ndarray) -> np.ndarray:
    """Squared L2 norm of the gradient of each state, evaluated spectrally."""
    plan = spectral_plan(grid, grid.N)
    return _flat(plan.lam * plan.power(plan.to_coeffs(stack))).sum(axis=1)


def grad_norm_sq(field: Field) -> float:
    """Squared L2 norm of the gradient, evaluated spectrally."""
    return float(_grad_sq(field.grid, field.values[None])[0])


def _grad_energy(grid: TorusGrid, stack: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Integral of weight * |grad z|^2 over the torus, for each state z."""
    plan = spectral_plan(grid, grid.N)
    c = plan.to_coeffs(stack)
    total = np.zeros(stack.shape)
    for axis in range(grid.d):
        total += plan.derivative(c, axis) ** 2
    return _flat(weight * total).mean(axis=1)


def _flux_laplacians(spec: ModelSpec, grid: TorusGrid, u: np.ndarray, v: np.ndarray):
    """Laplacians of the dealiased fluxes ((d1 + p)u, (d2 + q)v) at every
    state of the stacks u and v, both dealiased on one fine grid.
    Batches of FINE_BATCH_POINTS fine-grid points bound the temporaries:
    unbatched, a 401-state 2-d N=64 run took 370 MiB more, not 54 MiB."""
    polys = flux_polys(spec)
    plan = poly_plan(grid, polys)
    batch = max(1, FINE_BATCH_POINTS // plan.M ** grid.d)
    laps = np.empty((2,) + u.shape)
    for i in range(0, len(u), batch):
        c = plan.to_coeffs(np.stack([u[i:i + batch], v[i:i + batch]]))
        laps[:, i:i + batch] = plan.to_values(-plan.lam * plan.poly_coeffs(polys, c))
    return laps


def _nonuniform_fd(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Second-order derivative estimates at all interior nodes."""
    hm = times[1:-1] - times[:-2]
    hp = times[2:] - times[1:-1]
    return (hm * hm * vals[2:] + (hp * hp - hm * hm) * vals[1:-1]
            - hp * hp * vals[:-2]) / (hm * hp * (hm + hp))


def _slack_bound(lhs: np.ndarray, rhs: np.ndarray):
    """Whether lhs <= rhs holds at every time within INEQ_SLACK and an
    absolute 1e-30, and the largest ratio lhs / rhs, with rhs floored at
    1e-30 of its largest value."""
    scale = max(float(rhs.max()), 1e-30)
    return (bool(np.all(lhs <= rhs * (1.0 + INEQ_SLACK) + 1e-30)),
            float(np.max(lhs / np.maximum(rhs, 1e-30 * scale))))


def check_mass(traj: Trajectory) -> Report:
    """Both species' means must stay at their initial values."""
    if len(traj.mass_u) == 0:
        raise ConfigError("empty trajectory")
    dev_u = float(np.max(np.abs(traj.mass_u - traj.mass_u[0])))
    dev_v = float(np.max(np.abs(traj.mass_v - traj.mass_v[0])))
    m0 = max(abs(traj.mass_u[0]), abs(traj.mass_v[0]))
    tol = 1e-12 * (1.0 + m0)
    dev = max(dev_u, dev_v)
    return Report("mass", dev < tol,
                  {"max_deviation_u": dev_u, "max_deviation_v": dev_v,
                   "initial_mass_u": float(traj.mass_u[0]),
                   "initial_mass_v": float(traj.mass_v[0])},
                  tol, "conservation of both species' means along the evolution")


def check_duality(z: TimeSeriesField, mu: TimeSeriesField, f: TimeSeriesField,
                  z_in: Field) -> Report:
    """H^-1 duality bound for d_t z = Lap(mu z) + Lap(f).

    Checks, at every recorded time, that the H^-1 norm of z plus the
    accumulated weighted L2 mass of z stays below the initial H^-1 norm
    plus the mean term and the forcing term.  When f vanishes
    identically, two sharper bounds are checked as well: the L2 energy
    bound with gradient dissipation and, for nonnegative initial data,
    the two-sided pointwise bound, both carrying the exponential factor
    built from the positive part of Lap(mu).
    """
    grid = z_in.grid
    if z.grid != grid or mu.grid != grid or f.grid != grid:
        raise ConfigError("z, mu, f, z_in must share one grid")
    if float(mu.values.min()) <= 0.0:
        raise DomainError("mu must be strictly positive")

    times = z.times
    z_t = z.values
    mu_t = interp_linear(mu.values, mu.times, times)
    f_t = interp_linear(f.values, f.times, times)

    lhs = _hm1_sq(grid, z_t) + cum_trapz(times, _flat(mu_t * z_t ** 2).mean(axis=1))
    mean_z0 = float(np.mean(z_in.values))
    rhs = (_hm1_sq(grid, z_in.values[None])[0]
           + mean_z0 ** 2 * cum_trapz(times, _flat(mu_t).mean(axis=1))
           + cum_trapz(times, _flat(f_t ** 2 / mu_t).mean(axis=1)))
    ok, max_ratio = _slack_bound(lhs, rhs)

    measured = {"max_ratio": max_ratio,
                "final_margin": float(rhs[-1] - lhs[-1]),
                "horizon": float(times[-1])}

    forced = bool(np.any(f.values != 0.0))
    if not forced:
        plan = spectral_plan(grid, grid.N)
        lap_mu = plan.to_values(-plan.lam * plan.to_coeffs(mu_t))
        lap_sup = np.maximum(0.0, _flat(lap_mu).max(axis=1))
        expo = np.exp(cum_trapz(times, lap_sup))
        l2_lhs = (_flat(z_t ** 2).mean(axis=1)
                  + cum_trapz(times, _grad_energy(grid, z_t, mu_t)))
        l2_rhs = float(np.mean(z_in.values ** 2)) * expo
        ok_l2, measured["l2_max_ratio"] = _slack_bound(l2_lhs, l2_rhs)
        ok = ok and ok_l2
        if float(z_in.values.min()) >= -1e-12:
            sup0 = float(np.max(np.abs(z_in.values)))
            upper = _flat(z_t).max(axis=1)
            lower = _flat(z_t).min(axis=1)
            ok_max = bool(np.all(upper <= sup0 * expo * (1.0 + INEQ_SLACK))
                          and np.all(lower >= -INEQ_SLACK * sup0))
            measured["max_principle_excess"] = float(
                np.max(upper - sup0 * expo))
            ok = ok and ok_max

    return Report("duality", ok, measured, INEQ_SLACK,
                  "H^-1 duality estimate for the scalar Kolmogorov form")


def check_energy_decay(traj: Trajectory, spec: ModelSpec) -> Report:
    """Halved-coefficient energy dissipation inequality at small amplitude."""
    times = traj.times
    if len(times) < 3:
        raise ConfigError("need at least three recorded states")
    u, v = traj.u, traj.v
    amp = amplitude(u, v)
    delta_a = find_delta_A(spec)
    if amp > delta_a:
        warnings.warn(
            f"trajectory amplitude {amp:.3g} exceeds the entropy-dissipation "
            f"threshold {delta_a:.3g}; the inequality is not guaranteed",
            stacklevel=2)
    energy = _flat(u ** 2).mean(axis=1) + _flat(v ** 2).mean(axis=1)
    diss = (0.5 * spec.d1 * _grad_sq(traj.grid, u)
            + 0.5 * spec.d2 * _grad_sq(traj.grid, v))
    scale = 1.0 + float(diss.max())
    slack = 1e-6 * scale
    lhs = 0.5 * _nonuniform_fd(times, energy) + diss[1:-1]
    viol = float(lhs.max())
    over = np.nonzero(lhs > slack)[0]
    first_violation = float(times[1 + over[0]]) if len(over) else -1.0
    return Report("energy", viol <= slack,
                  {"max_defect": viol, "amplitude": amp,
                   "first_violation_time": first_violation,
                   "threshold": delta_a},
                  slack, "energy dissipation inequality with halved diffusivities")


def fit_exponential_rate(times: np.ndarray, theta: np.ndarray):
    """Least-squares exponential rate of theta; returns (rate, r_squared)."""
    y = np.log(theta)
    t = np.asarray(times, dtype=float)
    A = np.vstack([t, np.ones_like(t)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = sol[0]
    pred = A @ sol
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-20 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return float(-slope), float(r2)


def fit_decay_rate(traj: Trajectory) -> Report:
    """Exponential relaxation rate of the mean-free L2 energy.

    Fits log of Theta(t) = ||u - mean u_0||_2^2 + ||v - mean v_0||_2^2
    over the late half of the run; times where Theta has underflowed
    are dropped from the window automatically.
    """
    times = traj.times
    mu0 = float(traj.mass_u[0])
    mv0 = float(traj.mass_v[0])
    theta = (_flat((traj.u - mu0) ** 2).mean(axis=1)
             + _flat((traj.v - mv0) ** 2).mean(axis=1))
    t_half = times[-1] / 2.0
    keep = (times >= t_half) & (theta > 1e-28)
    if int(keep.sum()) < 3:
        alive = np.nonzero(theta > 1e-28)[0]
        keep = np.zeros(len(times), dtype=bool)
        keep[alive[len(alive) // 2:]] = True
    n_fit = int(keep.sum())
    if n_fit < 3:
        measured = {"rate": 0.0, "r_squared": 0.0, "fit_points": 0.0}
    else:
        rate, r2 = fit_exponential_rate(times[keep], theta[keep])
        measured = {"rate": rate, "r_squared": r2, "fit_points": float(n_fit),
                    "window_start": float(times[keep][0])}
    return Report("rate", measured["r_squared"] >= 0.999, measured,
                  0.999, "exponential relaxation of the mean-free energy")


def check_stability_pair(traj1: Trajectory, traj2: Trajectory, spec: ModelSpec,
                         R: float, delta: float) -> Report:
    """H^-1 distance bound between a bounded and a small trajectory.

    The distance in H^-1 plus the defect-weighted accumulated L2
    distance must stay below its initial value plus a linear-in-time
    mean term whose slope is fully explicit.
    """
    if traj1.grid != traj2.grid:
        raise ConfigError("trajectories live on different grids")
    if len(traj1.times) != len(traj2.times) or not np.allclose(
            traj1.times, traj2.times, rtol=1e-12, atol=1e-14):
        raise ConfigError("trajectories use different recording grids")
    c_delta, admissible = stability_constants(spec, R, delta)
    if not admissible:
        raise DomainError(
            "delta is not admissible: the cross-diffusion defect constant "
            f"C_delta = {c_delta:.6g} is not positive for this model")
    amp1 = amplitude(traj1.u, traj1.v)
    amp2 = amplitude(traj2.u, traj2.v)
    if amp2 > delta * (1.0 + 1e-12):
        raise DomainError(f"second trajectory amplitude {amp2:.6g} exceeds delta")
    if amp1 > R * (1.0 + 1e-12):
        raise DomainError(f"first trajectory amplitude {amp1:.6g} exceeds R")

    times = traj1.times
    zu = traj1.u - traj2.u
    zv = traj1.v - traj2.v
    hm1 = _hm1_sq(traj1.grid, zu) + _hm1_sq(traj1.grid, zv)
    l2 = _flat(zu ** 2).mean(axis=1) + _flat(zv ** 2).mean(axis=1)
    lhs = hm1 + c_delta * cum_trapz(times, l2)
    slope = (float(np.mean(zu[0])) ** 2 * (spec.d1 + spec.p.eval(R, R))
             + float(np.mean(zv[0])) ** 2 * (spec.d2 + spec.q.eval(R, R)))
    rhs = hm1[0] + slope * times
    floor = 1e-15 * (1.0 + amp1 + amp2)
    ok = bool(np.all(lhs <= np.maximum(rhs * (1.0 + INEQ_SLACK), floor)))
    max_ratio = float(np.max(lhs / np.maximum(rhs, floor)))
    return Report("stability", ok,
                  {"max_ratio": max_ratio, "c_delta": c_delta,
                   "rhs_slope": slope, "horizon": float(times[-1])},
                  INEQ_SLACK, "H^-1 stability between a bounded and a small trajectory")


def check_lyapunov_nonconvex(traj: Trajectory) -> Report:
    """Dissipation identity for the quadratic-coupling system.

    Requires d1 = d2 = 1 with p = Y^2 and q = X^2; then half the time
    derivative of the integral of (1+u^2)(1+v^2) must equal minus the
    summed squared gradient norms of the two composite fluxes.
    """
    spec = traj.spec
    if not (spec.d1 == 1.0 and spec.d2 == 1.0
            and spec.p.terms == {(0, 2): 1.0} and spec.q.terms == {(2, 0): 1.0}):
        raise DomainError(
            "the Lyapunov identity holds only for unit diffusivities with "
            "p = Y^2 and q = X^2")
    times = traj.times
    if len(times) < 3:
        raise ConfigError("need at least three recorded states")
    grid = traj.grid
    u, v = traj.u, traj.v
    energy = 0.5 * _flat((1.0 + u * u) * (1.0 + v * v)).mean(axis=1)
    diss = (_grad_sq(grid, u * (1.0 + v * v))
            + _grad_sq(grid, v * (1.0 + u * u)))[1:-1]
    tiny = 1e-14 * (1.0 + energy[0])
    residuals = np.abs(_nonuniform_fd(times, energy) + diss) / np.maximum(diss, tiny)
    max_res = float(residuals.max())
    increase = float(np.max(np.diff(energy))) if len(energy) > 1 else 0.0
    return Report("lyapunov", max_res < 1e-3,
                  {"max_residual": max_res,
                   "energy_increase_max": max(increase, 0.0),
                   "horizon": float(times[-1])},
                  1e-3, "nonconvex Lyapunov dissipation identity")


def track_lambda(traj: Trajectory, spec: ModelSpec, k: float,
                 delta: float | None = None):
    """Cumulative space-time smallness functional along a trajectory.

    Returns the array of values at recorded times (nondecreasing by
    construction) and a Report.  The sup-norm parts are maxima over the
    recorded states only, an underestimate of the continuum sup, so the
    caller should record every step when this tracker drives a decision.
    The report always measures the smallness functional of the initial
    data.  It asserts the bootstrap conclusion (the functional stays
    below delta over the recorded horizon) only when delta is given and
    that smallness is below delta/2; otherwise it passes vacuously.  The
    smallness comes first, so `besov_Nk` refuses a k outside (1, inf)
    before the k warning and before |Lap flux|^k is computed.
    """
    grid = traj.grid
    u, v = traj.u, traj.v
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        small = smallness_functional(Field(grid, u[0]), Field(grid, v[0]), spec, k)
    if k <= 1 + grid.d / 2:
        warnings.warn(f"k = {k} is not above 1 + d/2 = {1 + grid.d / 2}",
                      stacklevel=2)
    times = traj.times
    lap1, lap2 = _flux_laplacians(spec, grid, u, v)
    g1 = _flat(np.abs(lap1) ** k).mean(axis=1)
    g2 = _flat(np.abs(lap2) ** k).mean(axis=1)
    sup_u = np.maximum.accumulate(_flat(np.abs(u)).max(axis=1))
    sup_v = np.maximum.accumulate(_flat(np.abs(v)).max(axis=1))
    lam = (cum_trapz(times, g1) ** (1.0 / k)
           + cum_trapz(times, g2) ** (1.0 / k) + sup_u + sup_v)
    measured = {"lambda_final": float(lam[-1]), "horizon": float(times[-1]),
                "smallness": small}
    passed = True
    if delta is not None:
        premise = small <= delta / 2.0
        measured.update({"delta": float(delta), "premise_holds": float(premise)})
        if premise:
            passed = bool(lam[-1] < delta)
    return lam, Report("lambda", passed, measured, 0.0,
                       "space-time smallness functional bootstrap")


def track_hk(traj: Trajectory, k_sob: int, small: float | None = None):
    """Sobolev energy functional with integrated smoothing gain.

    Returns A(t), the squared H^k norm of the mean-free pair plus the
    accumulated squared H^(k+1) norm, and a Report asserting that the
    norms are finite and the H^k norm never exceeds twice its initial
    value. When a smallness threshold is supplied and the initial norm
    exceeds it, finite norms pass vacuously, with the premise recorded.
    """
    grid = traj.grid
    if k_sob <= grid.d / 2:
        warnings.warn(f"k_sob = {k_sob} is not above d/2 = {grid.d / 2}",
                      stacklevel=2)
    times = traj.times
    plan = spectral_plan(grid, grid.N)
    weight = 1.0 + plan.lam
    hk2 = hk12 = 0.0
    for stack in (traj.u, traj.v):
        flat = _flat(stack)
        mean_free = (flat - flat.mean(axis=1, keepdims=True)).reshape(stack.shape)
        power = plan.power(plan.to_coeffs(mean_free))
        hk2 = hk2 + _flat(weighted_power(weight ** k_sob, power)).sum(axis=1)
        hk12 = hk12 + _flat(weighted_power(weight ** (k_sob + 1), power)).sum(axis=1)
    a_series = hk2 + cum_trapz(times, hk12)
    init = float(np.sqrt(hk2[0]))
    sup = float(np.sqrt(hk2.max()))
    measured = {"sup_hk": sup, "initial_hk": init,
                "a_final": float(a_series[-1]), "horizon": float(times[-1])}
    passed = sup <= 2.0 * init or init == 0.0
    if small is not None:
        measured["premise_holds"] = float(init <= small)
        passed = passed or not init <= small
    # a norm that is not finite fails whatever the premise
    passed = bool(passed and np.isfinite([init, sup, measured["a_final"]]).all())
    return a_series, Report("hk", passed, measured, 2.0,
                            "Sobolev functional with integrated smoothing gain")
