"""Estimate checkers against exact fixtures and doctored negative controls."""

import dataclasses
import math

import numpy as np
import pytest

from crossflux.errors import ConfigError, DomainError
from crossflux.model import ModelSpec, Poly2, X, Y
from crossflux.solver import RunConfig, State, Trajectory, simulate, solve_kolmogorov
from crossflux.spaces import TimeSeriesField
from crossflux.spectral import FOUR_PI_SQ, Field, TorusGrid
from crossflux.verifier import (
    check_duality,
    check_energy_decay,
    check_lyapunov_nonconvex,
    check_mass,
    check_stability_pair,
    fit_decay_rate,
    fit_exponential_rate,
    grad_norm_sq,
    track_hk,
    track_lambda,
)

SKT = ModelSpec(1.0, 1.0, X + Y, X + Y)
LYAP = ModelSpec(1.0, 1.0, Poly2({(0, 2): 1.0}), Poly2({(2, 0): 1.0}))


def skt_run(grid, cosine, dt=1e-4, t_end=0.02, record_every=1, umean=0.5, vmean=0.7):
    u0 = cosine(grid, mean=umean, amp=0.02)
    v0 = cosine(grid, mean=vmean, amp=0.03)
    return simulate(
        RunConfig(SKT, State(0.0, u0, v0), dt=dt, t_end=t_end, record_every=record_every)
    )


def const_series(grid, value, t_end):
    f = Field(grid, np.full(grid.shape, float(value)))
    return TimeSeriesField(np.array([0.0, t_end]), [f, f])


def manual_trajectory(grid, times, u_fields, v_fields, spec=SKT):
    u = np.stack([f.values for f in u_fields])
    v = np.stack([f.values for f in v_fields])
    return Trajectory(
        spec=spec,
        times=np.asarray(times, dtype=float),
        u=u,
        v=v,
        step_times=np.asarray(times, dtype=float),
        min_u=u.min(axis=1),
        min_v=v.min(axis=1),
        mass_u=u.mean(axis=1),
        mass_v=v.mean(axis=1),
    )


def test_grad_norm_oracle(grid64, cosine):
    assert grad_norm_sq(cosine(grid64)) == pytest.approx(0.5 * FOUR_PI_SQ, rel=1e-12)


def test_mass_pass_and_negative_control(grid32, cosine):
    traj = skt_run(grid32, cosine, record_every=10)
    rep = check_mass(traj)
    assert rep.passed
    assert rep.measured["max_deviation_u"] < 1e-13
    doctored = dataclasses.replace(
        traj, mass_u=traj.mass_u + np.linspace(0.0, 1e-6, traj.mass_u.size)
    )
    assert not check_mass(doctored).passed


def test_duality_heat_fixture(grid32, cosine):
    t_end = 0.1
    mu = const_series(grid32, 1.0, t_end)
    f = const_series(grid32, 0.0, t_end)
    z0 = cosine(grid32)
    z = solve_kolmogorov(z0, mu, f, dt=1e-4, t_end=t_end)
    rep = check_duality(z, mu, f, z0)
    assert rep.passed
    assert rep.measured["final_margin"] > 0
    # initial dual norm of cos is 1/2 / (4 pi^2)
    lhs0 = 0.5 / FOUR_PI_SQ
    assert rep.measured["max_ratio"] <= 1.0 + 1e-3
    assert lhs0 == pytest.approx(0.012665147955292222, rel=1e-12)
    # the f = 0 byproducts are reported
    assert rep.measured["l2_max_ratio"] <= 1.0 + 1e-3
    assert "max_principle_excess" not in rep.measured  # z0 changes sign


def test_duality_constant_state_is_sharp(grid32):
    t_end = 0.05
    mu = const_series(grid32, 1.0, t_end)
    f = const_series(grid32, 0.0, t_end)
    z0 = Field(grid32, np.full(32, 0.8))
    z = solve_kolmogorov(z0, mu, f, dt=1e-4, t_end=t_end)
    rep = check_duality(z, mu, f, z0)
    assert rep.passed
    assert abs(rep.measured["final_margin"]) < 1e-12
    # nonnegative data: the max principle byproduct must be reported
    assert rep.measured["max_principle_excess"] <= 0.0 + 1e-12


def test_duality_forced_fixture(grid32, rng):
    t_end = 0.05
    mu_f = Field(grid32, 0.5 + np.abs(rng.standard_normal(32)))
    force = Field(grid32, 0.3 * rng.standard_normal(32))
    z0 = Field(grid32, rng.standard_normal(32))
    times = np.array([0.0, t_end])
    mu = TimeSeriesField(times, [mu_f] * 2)
    f = TimeSeriesField(times, [force] * 2)
    z = solve_kolmogorov(z0, mu, f, dt=1e-4, t_end=t_end)
    rep = check_duality(z, mu, f, z0)
    assert rep.passed
    assert rep.measured["final_margin"] > 0


def test_duality_negative_control(grid32, cosine):
    # a series that grows against a unit medium with no forcing must fail
    t_end = 0.1
    mu = const_series(grid32, 1.0, t_end)
    f = const_series(grid32, 0.0, t_end)
    z0 = cosine(grid32)
    fake = TimeSeriesField(np.array([0.0, t_end]), [z0, 5.0 * z0])
    assert not check_duality(fake, mu, f, z0).passed


def test_duality_rejects_nonpositive_mu(grid32, cosine):
    mu = const_series(grid32, -1.0, 0.1)
    f = const_series(grid32, 0.0, 0.1)
    z = TimeSeriesField(np.array([0.0, 0.1]), [cosine(grid32)] * 2)
    with pytest.raises(DomainError, match="positive"):
        check_duality(z, mu, f, cosine(grid32))


def test_energy_decay_pass(grid32, cosine):
    u0 = cosine(grid32, mean=0.1, amp=0.02)
    v0 = cosine(grid32, mean=0.1, amp=0.02)
    traj = simulate(RunConfig(SKT, State(0.0, u0, v0), dt=1e-4, t_end=0.02))
    rep = check_energy_decay(traj, SKT)
    assert rep.passed
    assert rep.measured["max_defect"] <= rep.tolerance


def test_energy_decay_negative_control(grid32, cosine):
    # hand-built growing amplitudes violate the dissipation inequality
    times = np.linspace(0.0, 1e-3, 6)
    us = [cosine(grid32, mean=0.5, amp=0.01 * (1 + 50 * t)) for t in times]
    traj = manual_trajectory(grid32, times, us, us)
    with pytest.warns(UserWarning, match="threshold"):
        rep = check_energy_decay(traj, SKT)
    assert not rep.passed
    assert rep.measured["first_violation_time"] >= 0.0


def test_energy_decay_warns_above_threshold(grid32, cosine):
    times = np.linspace(0.0, 1e-3, 4)
    us = [cosine(grid32, mean=2.0, amp=0.5) for _ in times]
    traj = manual_trajectory(grid32, times, us, us)
    with pytest.warns(UserWarning, match="threshold"):
        check_energy_decay(traj, SKT)


def test_fit_exponential_rate_exact():
    times = np.linspace(0.0, 1.0, 50)
    rate, r2 = fit_exponential_rate(times, 3.0 * np.exp(-7.25 * times))
    assert rate == pytest.approx(7.25, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_decay_rate_on_synthetic_trajectory(grid32, cosine):
    c = 40.0
    times = np.linspace(0.0, 0.5, 41)
    us = [cosine(grid32, mean=0.5, amp=0.1 * math.exp(-0.5 * c * t)) for t in times]
    vs = [cosine(grid32, mean=0.7, amp=0.1 * math.exp(-0.5 * c * t)) for t in times]
    rep = fit_decay_rate(manual_trajectory(grid32, times, us, vs))
    assert rep.passed
    assert rep.measured["rate"] == pytest.approx(c, rel=1e-10)
    assert rep.measured["r_squared"] >= 0.999


def test_fit_decay_rate_rejects_noise(grid32, cosine, rng):
    times = np.linspace(0.0, 0.5, 41)
    us = [cosine(grid32, mean=0.5, amp=0.1 * rng.uniform(0.2, 1.0)) for t in times]
    rep = fit_decay_rate(manual_trajectory(grid32, times, us, us))
    assert not rep.passed
    assert rep.measured["r_squared"] < 0.999


def test_fit_decay_rate_underflow_window(grid32, cosine):
    times = np.linspace(0.0, 1.0, 11)
    amps = [0.1 * math.exp(-8.0 * t) for t in times[:6]] + [1e-300] * 5
    us = [cosine(grid32, mean=0.5, amp=a) for a in amps]
    rep = fit_decay_rate(manual_trajectory(grid32, times, us, us))
    assert math.isfinite(rep.measured["rate"])
    assert rep.measured["fit_points"] >= 3


def test_stability_pair(grid32, cosine):
    traj1 = skt_run(grid32, cosine, dt=1e-3, t_end=0.2, umean=0.10, vmean=0.12)
    traj2 = skt_run(grid32, cosine, dt=1e-3, t_end=0.2, umean=0.13, vmean=0.09)
    rep = check_stability_pair(traj1, traj2, SKT, R=0.3, delta=0.3)
    assert rep.passed
    assert rep.measured["c_delta"] == pytest.approx(0.64, abs=1e-12)
    dm_u = 0.13 - 0.10
    dm_v = 0.09 - 0.12
    slope = dm_u**2 * (1.0 + SKT.p.eval(0.3, 0.3)) + dm_v**2 * (
        1.0 + SKT.q.eval(0.3, 0.3)
    )
    assert rep.measured["rhs_slope"] == pytest.approx(slope, abs=1e-12)


def test_stability_identical_pair_is_tight(grid32, cosine):
    traj = skt_run(grid32, cosine, dt=1e-3, t_end=0.1, umean=0.10, vmean=0.12)
    rep = check_stability_pair(traj, traj, SKT, R=1.0, delta=0.3)
    assert rep.passed
    assert rep.measured["max_ratio"] == 0.0


def test_stability_domain_errors(grid32, grid64, cosine):
    traj1 = skt_run(grid32, cosine, dt=1e-3, t_end=0.05)
    with pytest.raises(DomainError, match="not admissible"):
        check_stability_pair(traj1, traj1, SKT, R=1.0, delta=0.8)
    big = skt_run(grid32, cosine, dt=1e-3, t_end=0.05, umean=0.6)
    with pytest.raises(DomainError, match="exceeds delta"):
        check_stability_pair(traj1, big, SKT, R=1.0, delta=0.3)
    other = skt_run(grid64, cosine, dt=1e-3, t_end=0.05)
    with pytest.raises(ConfigError, match="grids"):
        check_stability_pair(traj1, other, SKT, R=1.0, delta=0.3)
    short = skt_run(grid32, cosine, dt=1e-3, t_end=0.04)
    with pytest.raises(ConfigError, match="recording"):
        check_stability_pair(traj1, short, SKT, R=1.0, delta=0.3)


def test_lyapunov_identity(grid32, cosine):
    u0 = cosine(grid32, mean=0.2, amp=0.1)
    v0 = Field(grid32, np.full(32, 0.2))
    traj = simulate(
        RunConfig(LYAP, State(0.0, u0, v0), dt=5e-6, t_end=2e-3, record_every=10)
    )
    rep = check_lyapunov_nonconvex(traj)
    assert rep.passed
    assert rep.measured["max_residual"] < 1e-3
    assert rep.measured["energy_increase_max"] == 0.0


def test_lyapunov_requires_the_nonconvex_model(grid32, cosine):
    traj = skt_run(grid32, cosine, dt=1e-3, t_end=0.01)
    with pytest.raises(DomainError, match="Y\\^2"):
        check_lyapunov_nonconvex(traj)


def test_track_lambda_constant_data(grid32):
    heat = ModelSpec(1.0, 1.0, Poly2({}), Poly2({}))
    c = Field(grid32, np.full(32, 0.3))
    traj = simulate(RunConfig(heat, State(0.0, c, c), dt=1e-4, t_end=0.01))
    lam, rep = track_lambda(traj, heat, k=2.0)
    np.testing.assert_allclose(lam, 0.6, atol=1e-12)
    assert rep.measured["lambda_final"] == pytest.approx(0.6, abs=1e-12)


def test_track_lambda_monotone_and_premise(grid32, cosine):
    traj = skt_run(grid32, cosine, dt=2e-4, t_end=0.02)
    lam, rep = track_lambda(traj, SKT, k=2.0, delta=0.05)
    assert np.all(np.diff(lam) >= -1e-12)
    # data of size ~1.2 cannot satisfy the smallness premise at 0.025
    assert rep.measured["premise_holds"] == 0.0
    assert rep.passed  # vacuous when the premise fails
    with pytest.warns(UserWarning, match="1 \\+ d/2"):
        track_lambda(traj, SKT, k=1.2)


def test_track_hk_fails_a_norm_that_is_not_finite(grid32, cosine):
    # 2-d N=16 data constant along axis 1: at k = 90 the weights of the
    # modes off axis 0 overflow to inf where the coefficients are 0, which
    # adds 0; the H^(k+1) weight of the top mode of axis 0 overflows too, so
    # A is inf, and the report fails although its premise does not hold
    grid = TorusGrid(2, 16)
    traj = skt_run(grid, cosine, t_end=1e-3)
    with np.errstate(over="ignore"):
        a_series, rep = track_hk(traj, 90, small=1.0)
    assert np.isfinite(rep.measured["initial_hk"]) and np.isfinite(rep.measured["sup_hk"])
    assert rep.measured["a_final"] == math.inf and a_series[-1] == math.inf
    assert rep.measured["premise_holds"] == 0.0 and not rep.passed
    # white data on 1-d N=32 at k = 100: the H^k norm itself overflows
    fields = [Field(grid32, row) for row in np.random.default_rng(0).standard_normal((3, 32))]
    traj = manual_trajectory(grid32, [0.0, 0.5, 1.0], fields, fields)
    with np.errstate(over="ignore"):
        _, rep = track_hk(traj, 100, small=1.0)
    assert rep.measured["sup_hk"] == rep.measured["initial_hk"] == math.inf
    assert rep.measured["premise_holds"] == 0.0 and not rep.passed


def test_track_hk_heat_decay(grid32, cosine):
    heat = ModelSpec(1.0, 1.0, Poly2({}), Poly2({}))
    u0 = cosine(grid32, mean=0.5, amp=0.1)
    traj = simulate(
        RunConfig(heat, State(0.0, u0, u0), dt=1e-4, t_end=0.02, record_every=10)
    )
    a_series, rep = track_hk(traj, k_sob=1)
    assert rep.passed
    assert rep.measured["sup_hk"] == pytest.approx(rep.measured["initial_hk"], rel=1e-12)
    assert a_series[0] == pytest.approx(rep.measured["initial_hk"] ** 2, rel=1e-12)
    assert np.all(a_series > 0.0)
    with pytest.warns(UserWarning, match="d/2"):
        track_hk(traj, k_sob=0)
