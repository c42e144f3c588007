"""Numerical checkers for the estimates the simulator is meant to exercise.

Every checker is a pure function from recorded data to a Report: no
randomness, no mutation. Inequalities between continuum quantities are
tested with a small multiplicative slack (default 1e-3) that absorbs the
O(dt) scheme defect and the trapezoid quadrature defect; identities are
tested by relative residual, to be driven below target by refinement on
the caller's side. Both sides of every inequality are evaluated with the
same quadrature so a failure signals the estimate, not the discretization.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ConfigError, DomainError
from .model import (ModelSpec, find_delta_A, flux, smallness_functional,
                    stability_constants)
from .report import Report
from .solver import Trajectory, amplitude
from .spaces import TimeSeriesField, interp_linear, lp_norm, sobolev_norm
from .spectral import FOUR_PI_SQ, Field, laplacian, spectral_plan, transform

INEQ_SLACK = 1e-3


def _hm1_sq(field: Field) -> float:
    """Squared dual norm: mean part plus homogeneous inverse-gradient part.

    The duality and stability estimates close exactly for this norm
    (the mean squared plus sum of |coef|^2 / (4 pi^2 |xi|^2) over
    nonzero modes); the inhomogeneous Sobolev weight would make the
    forced estimate false already for stationary single-mode forcing.
    """
    g = field.grid
    c = transform(field).coeffs
    w = np.where(g.xi_sq > 0.0, FOUR_PI_SQ * g.xi_sq, 1.0)
    return float(np.sum(np.abs(c) ** 2 / w))


def _cum_trapz(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vals)
    if len(times) > 1:
        seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(times)
        out[1:] = np.cumsum(seg)
    return out


def grad_norm_sq(field: Field) -> float:
    """Squared L2 norm of the gradient, evaluated spectrally."""
    c = transform(field).coeffs
    return float(FOUR_PI_SQ * np.sum(field.grid.xi_sq * np.abs(c) ** 2))


def _grad_energy(field: Field, weight: np.ndarray) -> float:
    """Integral of weight * |grad field|^2 over the torus.

    Axis derivatives drop the unpaired half-sampled mode; on the
    cell-centered grid that mode's derivative vanishes at every node,
    so the truncation is exact rather than an approximation.
    """
    g = field.grid
    plan = spectral_plan(g, g.N)
    c = transform(field).coeffs
    total = np.zeros(g.shape)
    for freq in g.freq_axes:
        mult = 2j * np.pi * np.where(freq == -g.N // 2, 0.0, freq)
        total += plan.to_values(c * mult) ** 2
    return float(np.mean(weight * total))


def _nonuniform_fd(times: np.ndarray, vals: np.ndarray, i: int) -> float:
    """Second-order derivative estimate at an interior node."""
    hm = times[i] - times[i - 1]
    hp = times[i + 1] - times[i]
    return (hm * hm * vals[i + 1] + (hp * hp - hm * hm) * vals[i]
            - hp * hp * vals[i - 1]) / (hm * hp * (hm + hp))


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
                  z_in: Field, tol: float = INEQ_SLACK) -> Report:
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
    mu_stack = np.stack([g.values for g in mu.fields])
    f_stack = np.stack([g.values for g in f.fields])
    if float(mu_stack.min()) <= 0.0:
        raise DomainError("mu must be strictly positive")

    times = z.times
    n = len(times)
    mu_t = [interp_linear(mu_stack, mu.times, t) for t in times]
    f_t = [interp_linear(f_stack, f.times, t) for t in times]

    hm1 = np.array([_hm1_sq(g) for g in z.fields])
    mass_mu_z2 = np.array([float(np.mean(mu_t[i] * z.fields[i].values ** 2))
                           for i in range(n)])
    mass_mu = np.array([float(np.mean(m)) for m in mu_t])
    mass_f = np.array([float(np.mean(f_t[i] ** 2 / mu_t[i])) for i in range(n)])

    lhs = hm1 + _cum_trapz(times, mass_mu_z2)
    mean_z0 = float(np.mean(z_in.values))
    rhs = (_hm1_sq(z_in)
           + mean_z0 ** 2 * _cum_trapz(times, mass_mu)
           + _cum_trapz(times, mass_f))
    scale = max(float(rhs.max()), 1e-30)
    max_ratio = float(np.max(lhs / np.maximum(rhs, 1e-30 * scale)))
    ok = bool(np.all(lhs <= rhs * (1.0 + tol) + 1e-30))

    measured = {"max_ratio": max_ratio,
                "final_margin": float(rhs[-1] - lhs[-1]),
                "horizon": float(times[-1])}

    forced = bool(np.any(f_stack != 0.0))
    if not forced:
        lap_sup = np.array([max(0.0, float(
            laplacian(Field(grid, mu_t[i])).values.max())) for i in range(n)])
        expo = np.exp(_cum_trapz(times, lap_sup))
        l2 = np.array([lp_norm(g, 2) ** 2 for g in z.fields])
        diss = np.array([_grad_energy(z.fields[i], mu_t[i]) for i in range(n)])
        l2_lhs = l2 + _cum_trapz(times, diss)
        l2_rhs = lp_norm(z_in, 2) ** 2 * expo
        ok_l2 = bool(np.all(l2_lhs <= l2_rhs * (1.0 + tol) + 1e-30))
        measured["l2_max_ratio"] = float(np.max(
            l2_lhs / np.maximum(l2_rhs, 1e-30 * max(float(l2_rhs.max()), 1e-30))))
        ok = ok and ok_l2
        if float(z_in.values.min()) >= -1e-12:
            sup0 = float(np.max(np.abs(z_in.values)))
            upper = np.array([float(z.fields[i].values.max()) for i in range(n)])
            lower = np.array([float(z.fields[i].values.min()) for i in range(n)])
            ok_max = bool(np.all(upper <= sup0 * expo * (1.0 + tol))
                          and np.all(lower >= -tol * sup0))
            measured["max_principle_excess"] = float(
                np.max(upper - sup0 * expo))
            ok = ok and ok_max

    return Report("duality", ok, measured, tol,
                  "H^-1 duality estimate for the scalar Kolmogorov form")


def check_energy_decay(traj: Trajectory, spec: ModelSpec) -> Report:
    """Halved-coefficient energy dissipation inequality at small amplitude."""
    states = traj.states
    times = traj.times
    if len(states) < 3:
        raise ConfigError("need at least three recorded states")
    amp = amplitude(states)
    delta_a = find_delta_A(spec)
    if amp > delta_a:
        warnings.warn(
            f"trajectory amplitude {amp:.3g} exceeds the entropy-dissipation "
            f"threshold {delta_a:.3g}; the inequality is not guaranteed",
            stacklevel=2)
    energy = np.array([lp_norm(s.u, 2) ** 2 + lp_norm(s.v, 2) ** 2
                       for s in states])
    diss = np.array([0.5 * spec.d1 * grad_norm_sq(s.u)
                     + 0.5 * spec.d2 * grad_norm_sq(s.v) for s in states])
    viol = -np.inf
    first_violation = -1.0
    scale = 1.0 + float(diss.max())
    slack = 1e-6 * scale
    for i in range(1, len(states) - 1):
        lhs = 0.5 * _nonuniform_fd(times, energy, i) + diss[i]
        if lhs > viol:
            viol = lhs
        if lhs > slack and first_violation < 0:
            first_violation = float(times[i])
    return Report("energy", viol <= slack,
                  {"max_defect": float(viol), "amplitude": amp,
                   "first_violation_time": first_violation,
                   "threshold": delta_a},
                  slack, "energy dissipation inequality with halved diffusivities")


def fit_exponential_rate(times: np.ndarray, theta: np.ndarray):
    """Least-squares exponential rate of theta; returns (rate, r_squared)."""
    y = np.log(theta)
    t = np.asarray(times, dtype=float)
    A = np.vstack([t, np.ones_like(t)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = sol
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
    theta = np.array([lp_norm(s.u - mu0, 2) ** 2 + lp_norm(s.v - mv0, 2) ** 2
                      for s in traj.states])
    t_half = times[-1] / 2.0
    keep = (times >= t_half) & (theta > 1e-28)
    if int(keep.sum()) < 3:
        alive = np.nonzero(theta > 1e-28)[0]
        keep = np.zeros(len(times), dtype=bool)
        keep[alive[len(alive) // 2:]] = True
    n_fit = int(keep.sum())
    if n_fit < 3:
        return Report("rate", False,
                      {"rate": 0.0, "r_squared": 0.0, "fit_points": 0.0},
                      0.999, "exponential relaxation of the mean-free energy")
    rate, r2 = fit_exponential_rate(times[keep], theta[keep])
    return Report("rate", r2 >= 0.999,
                  {"rate": rate, "r_squared": r2, "fit_points": float(n_fit),
                   "window_start": float(times[keep][0])},
                  0.999, "exponential relaxation of the mean-free energy")


def check_stability_pair(traj1: Trajectory, traj2: Trajectory, spec: ModelSpec,
                         R: float, delta: float,
                         tol: float = INEQ_SLACK) -> Report:
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
    amp1 = amplitude(traj1.states)
    amp2 = amplitude(traj2.states)
    if amp2 > delta * (1.0 + 1e-12):
        raise DomainError(f"second trajectory amplitude {amp2:.6g} exceeds delta")
    if amp1 > R * (1.0 + 1e-12):
        raise DomainError(f"first trajectory amplitude {amp1:.6g} exceeds R")

    times = traj1.times
    zu = [s1.u - s2.u for s1, s2 in zip(traj1.states, traj2.states)]
    zv = [s1.v - s2.v for s1, s2 in zip(traj1.states, traj2.states)]
    hm1 = np.array([_hm1_sq(a) + _hm1_sq(b) for a, b in zip(zu, zv)])
    l2 = np.array([lp_norm(a, 2) ** 2 + lp_norm(b, 2) ** 2
                   for a, b in zip(zu, zv)])
    lhs = hm1 + c_delta * _cum_trapz(times, l2)
    slope = (float(np.mean(zu[0].values)) ** 2 * (spec.d1 + spec.p.eval(R, R))
             + float(np.mean(zv[0].values)) ** 2 * (spec.d2 + spec.q.eval(R, R)))
    rhs = hm1[0] + slope * times
    floor = 1e-15 * (1.0 + amp1 + amp2)
    ok = bool(np.all(lhs <= np.maximum(rhs * (1.0 + tol), floor)))
    max_ratio = float(np.max(lhs / np.maximum(rhs, floor)))
    return Report("stability", ok,
                  {"max_ratio": max_ratio, "c_delta": c_delta,
                   "rhs_slope": slope, "horizon": float(times[-1])},
                  tol, "H^-1 stability between a bounded and a small trajectory")


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
    states = traj.states
    times = traj.times
    if len(states) < 3:
        raise ConfigError("need at least three recorded states")
    grid = traj.grid
    energy = np.empty(len(states))
    diss = np.empty(len(states))
    for i, s in enumerate(states):
        u, v = s.u.values, s.v.values
        energy[i] = 0.5 * float(np.mean((1.0 + u * u) * (1.0 + v * v)))
        diss[i] = (grad_norm_sq(Field(grid, u * (1.0 + v * v)))
                   + grad_norm_sq(Field(grid, v * (1.0 + u * u))))
    tiny = 1e-14 * (1.0 + energy[0])
    residuals = np.array([
        abs(_nonuniform_fd(times, energy, i) + diss[i]) / max(diss[i], tiny)
        for i in range(1, len(states) - 1)])
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
    The report asserts the bootstrap conclusion (the functional stays
    below delta over the recorded horizon) only when the smallness of
    the initial data is below delta/2; otherwise it passes vacuously.
    """
    d = traj.grid.d
    if k <= 1 + d / 2:
        warnings.warn(f"k = {k} is not above 1 + d/2 = {1 + d / 2}",
                      stacklevel=2)
    times = traj.times
    n = len(times)
    g1 = np.empty(n)
    g2 = np.empty(n)
    sup_u = np.empty(n)
    sup_v = np.empty(n)
    run_u = run_v = 0.0
    states = traj.states
    for i, s in enumerate(states):
        f1, f2 = flux(spec, s.u, s.v)
        lap1 = laplacian(f1).values
        lap2 = laplacian(f2).values
        g1[i] = float(np.mean(np.abs(lap1) ** k))
        g2[i] = float(np.mean(np.abs(lap2) ** k))
        run_u = max(run_u, float(np.max(np.abs(s.u.values))))
        run_v = max(run_v, float(np.max(np.abs(s.v.values))))
        sup_u[i] = run_u
        sup_v[i] = run_v
    lam = (_cum_trapz(times, g1) ** (1.0 / k)
           + _cum_trapz(times, g2) ** (1.0 / k) + sup_u + sup_v)

    measured = {"lambda_final": float(lam[-1]), "horizon": float(times[-1])}
    passed = True
    if delta is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            small = smallness_functional(states[0].u, states[0].v, spec, k)
        premise = small <= delta / 2.0
        measured.update({"smallness": small, "delta": float(delta),
                         "premise_holds": float(premise)})
        if premise:
            passed = bool(lam[-1] < delta)
    return lam, Report("lambda", passed, measured, 0.0,
                       "space-time smallness functional bootstrap")


def track_hk(traj: Trajectory, k_sob: int, small: float | None = None):
    """Sobolev energy functional with integrated smoothing gain.

    Returns A(t), the squared H^k norm of the mean-free pair plus the
    accumulated squared H^(k+1) norm, and a Report asserting that the
    H^k norm never exceeds twice its initial value. When a smallness
    threshold is supplied and the initial norm exceeds it, the report
    passes vacuously with the premise recorded.
    """
    d = traj.grid.d
    if k_sob <= d / 2:
        warnings.warn(f"k_sob = {k_sob} is not above d/2 = {d / 2}",
                      stacklevel=2)
    times = traj.times
    n = len(times)
    hk2 = np.empty(n)
    hk12 = np.empty(n)
    for i, s in enumerate(traj.states):
        ub = s.u - float(np.mean(s.u.values))
        vb = s.v - float(np.mean(s.v.values))
        hk2[i] = sobolev_norm(ub, k_sob) ** 2 + sobolev_norm(vb, k_sob) ** 2
        hk12[i] = sobolev_norm(ub, k_sob + 1) ** 2 + sobolev_norm(vb, k_sob + 1) ** 2
    a_series = hk2 + _cum_trapz(times, hk12)
    init = float(np.sqrt(hk2[0]))
    sup = float(np.sqrt(hk2.max()))
    measured = {"sup_hk": sup, "initial_hk": init,
                "a_final": float(a_series[-1]), "horizon": float(times[-1])}
    passed = sup <= 2.0 * init or init == 0.0
    if small is not None:
        premise = init <= small
        measured["premise_holds"] = float(premise)
        if not premise:
            passed = True
    return a_series, Report("hk", passed, measured, 2.0,
                            "Sobolev functional with integrated smoothing gain")
