"""Stepper exactness, conservation, blowup handling, and the scalar solver."""

import math

import numpy as np
import pytest

from crossflux.errors import BlowupError, ConfigError, DomainError
from crossflux.model import ModelSpec, Poly2, X, Y
from crossflux.solver import (
    RK4_STABILITY_CONSTANT,
    RunConfig,
    State,
    Trajectory,
    rk4_max_dt,
    simulate,
    solve_kolmogorov,
)
from crossflux.spaces import TimeSeriesField
from crossflux.spectral import FOUR_PI_SQ, Field, TorusGrid


HEAT = ModelSpec(0.3, 0.3, Poly2({}), Poly2({}))
SKT = ModelSpec(1.0, 1.0, X + Y, X + Y)


def one_step(state, spec, dt, scheme):
    return simulate(RunConfig(spec, state, dt=dt, t_end=dt, scheme=scheme)).states[-1]


def constant_series(grid, value, t_end):
    f = Field(grid, np.full(grid.shape, float(value)))
    return TimeSeriesField(np.array([0.0, t_end]), [f, f])


def test_state_validation(grid32, grid64):
    u = Field(grid32, np.ones(32))
    w = Field(grid64, np.ones(64))
    with pytest.raises(ConfigError, match="grid"):
        State(0.0, u, w)


def test_run_config_validation(grid32, cosine):
    u = cosine(grid32, mean=0.5, amp=0.1)
    st = State(0.0, u, u)
    with pytest.raises(ConfigError, match="divide"):
        RunConfig(SKT, st, dt=3e-4, t_end=1e-3)
    with pytest.raises(ConfigError, match="dt"):
        RunConfig(SKT, st, dt=0.0, t_end=1e-3)
    with pytest.raises(ConfigError, match="record_every"):
        RunConfig(SKT, st, dt=1e-4, t_end=1e-3, record_every=0)
    with pytest.raises(ConfigError, match="scheme"):
        RunConfig(SKT, st, dt=1e-4, t_end=1e-3, scheme="euler")
    with pytest.raises(ConfigError, match="regularized"):
        RunConfig(SKT, st, dt=1e-4, t_end=1e-3, variant="regularized")
    with pytest.raises(ConfigError, match="imex"):
        RunConfig(SKT, st, dt=1e-4, t_end=1e-3, scheme="rk4", variant="regularized")
    bad = State(0.0, cosine(grid32), u)
    with pytest.raises(DomainError, match="nonnegative"):
        RunConfig(SKT, bad, dt=1e-4, t_end=1e-3)
    cfg = RunConfig(SKT, st, dt=1e-4, t_end=1e-3)
    assert cfg.n_steps == 10


def test_constant_state_is_fixed_point(grid32):
    c = Field(grid32, np.full(32, 0.7))
    st = State(0.0, c, c)
    for scheme in ("imex", "rk4"):
        out = one_step(st, SKT, 1e-6, scheme)
        np.testing.assert_array_equal(out.u.values, c.values)
        np.testing.assert_array_equal(out.v.values, c.values)


def test_heat_oracle(grid64, cosine):
    u0 = cosine(grid64, mean=0.5, amp=0.1)
    cfg = RunConfig(HEAT, State(0.0, u0, u0), dt=1e-5, t_end=0.02, record_every=2000)
    traj = simulate(cfg)
    lam = FOUR_PI_SQ * HEAT.d1
    exact = 0.5 + 0.1 * math.exp(-lam * 0.02) * np.cos(2 * np.pi * grid64.coords(0))
    err = np.max(np.abs(traj.states[-1].u.values - exact))
    # backward Euler carries a first-order defect ~ lam^2 T dt / 2
    assert 1e-7 < err < 3e-6


def test_mass_exactness(grid32, cosine):
    u0 = cosine(grid32, mean=0.5, amp=0.1)
    v0 = cosine(grid32, mean=0.7, amp=0.1)
    for scheme, dt in (("imex", 1e-4), ("rk4", 5e-6)):
        traj = simulate(
            RunConfig(SKT, State(0.0, u0, v0), dt=dt, t_end=dt * 100, scheme=scheme)
        )
        assert np.max(np.abs(traj.mass_u - traj.mass_u[0])) < 1e-14
        assert np.max(np.abs(traj.mass_v - traj.mass_v[0])) < 1e-14


def test_schemes_agree_for_one_tiny_step(grid32, cosine):
    u0 = cosine(grid32, mean=0.5, amp=0.1)
    v0 = cosine(grid32, mean=0.7, amp=0.1)
    st = State(0.0, u0, v0)
    a = one_step(st, SKT, 1e-7, "imex")
    b = one_step(st, SKT, 1e-7, "rk4")
    assert np.max(np.abs(a.u.values - b.u.values)) < 1e-10


def test_rk4_stability_bound(grid64):
    c = Field(grid64, np.full(64, 2.0))
    st = State(0.0, c, c)
    # s = max(d + Q(M,M) + R(M,M)) = 1 + 4M at M = 2 for this model
    expected = RK4_STABILITY_CONSTANT / (FOUR_PI_SQ * 32**2 * 9.0)
    assert rk4_max_dt(SKT, st) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ConfigError, match="stability bound"):
        one_step(st, SKT, 10.0 * expected, "rk4")


def test_recording_grid(grid32, cosine):
    u0 = cosine(grid32, mean=0.5, amp=0.1)
    cfg = RunConfig(SKT, State(0.0, u0, u0), dt=1e-4, t_end=1e-3, record_every=4)
    traj = simulate(cfg)
    np.testing.assert_allclose(traj.times, [0.0, 4e-4, 8e-4, 1e-3], atol=1e-12)
    su = traj.series_u()
    assert isinstance(su, TimeSeriesField)
    assert len(su) == 4
    assert traj.step_times.shape == (11,)
    assert traj.u.shape == (4, 32)
    np.testing.assert_array_equal(traj.u[-1], traj.states[-1].u.values)


def test_blowup_raises_with_partial_history(grid32, cosine):
    u0 = cosine(grid32, mean=10.0, amp=8.0)
    cfg = RunConfig(SKT, State(0.0, u0, u0), dt=1.0, t_end=50.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as exc:
            simulate(cfg)
    assert exc.value.step >= 1
    partial = exc.value.trajectory
    assert partial is not None
    assert partial.times[-1] < 50.0


def test_regularized_variants(grid32, cosine):
    u0 = cosine(grid32, mean=0.5, amp=0.1)
    spec_loose = ModelSpec(1.0, 1.0, X + Y, X + Y, eta=1e-6, trunc_delta=5.0)
    cfg = RunConfig(
        spec_loose, State(0.0, u0, u0), dt=1e-4, t_end=0.01, variant="regularized"
    )
    reg = simulate(cfg)
    plain = simulate(RunConfig(SKT, State(0.0, u0, u0), dt=1e-4, t_end=0.01))
    drift = np.max(np.abs(reg.states[-1].u.values - plain.states[-1].u.values))
    # inactive truncation and a tiny mollifier stay close to the plain flux
    assert drift < 1e-5
    spec_tight = ModelSpec(1.0, 1.0, X + Y, X + Y, eta=1e-6, trunc_delta=0.45)
    cfg2 = RunConfig(
        spec_tight, State(0.0, u0, u0), dt=1e-4, t_end=0.01, variant="regularized"
    )
    clipped = simulate(cfg2)
    assert np.max(np.abs(clipped.states[-1].u.values - plain.states[-1].u.values)) > 1e-8


def test_kolmogorov_heat_oracle(grid32, cosine):
    z0 = cosine(grid32)
    mu = constant_series(grid32, 1.0, 0.005)
    f = constant_series(grid32, 0.0, 0.005)
    z = solve_kolmogorov(z0, mu, f, dt=2e-7, t_end=0.005, record_every=25000)
    exact = math.exp(-FOUR_PI_SQ * 0.005) * np.cos(2 * np.pi * grid32.coords(0))
    assert np.max(np.abs(z.values[-1] - exact)) < 1e-6


def test_kolmogorov_mean_and_convergence(grid32, cosine, rng):
    z0 = Field(grid32, rng.standard_normal(32))
    mu = TimeSeriesField(
        np.array([0.0, 0.01]),
        [Field(grid32, 1.0 + 0.5 * np.cos(2 * np.pi * grid32.coords(0)))] * 2,
    )
    f = constant_series(grid32, 0.0, 0.01)
    fine = solve_kolmogorov(z0, mu, f, dt=2.5e-6, t_end=0.01)
    for z in (solve_kolmogorov(z0, mu, f, dt=1e-5, t_end=0.01), fine):
        assert np.mean(z.values[-1]) == pytest.approx(
            np.mean(z0.values), abs=1e-14
        )
    ea = np.max(
        np.abs(
            solve_kolmogorov(z0, mu, f, dt=1e-5, t_end=0.01).values[-1]
            - fine.values[-1]
        )
    )
    eb = np.max(
        np.abs(
            solve_kolmogorov(z0, mu, f, dt=5e-6, t_end=0.01).values[-1]
            - fine.values[-1]
        )
    )
    # first order against a dt/4 reference: (1 - 1/4) / (1/2 - 1/4) = 3
    assert ea / eb == pytest.approx(3.0, abs=0.4)


def test_kolmogorov_rejects_nonpositive_mu(grid32, cosine):
    z0 = cosine(grid32)
    mu = constant_series(grid32, 0.0, 0.01)
    f = constant_series(grid32, 0.0, 0.01)
    with pytest.raises(DomainError, match="positive"):
        solve_kolmogorov(z0, mu, f, dt=1e-4, t_end=0.01)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"record_every": 0}, "record_every"),
        ({"record_every": 2.5}, "record_every"),
        ({"record_every": True}, "record_every"),
        ({"dt": 1e-12}, "exceeds the limit"),
    ],
    ids=["zero-record_every", "fractional-record_every", "bool-record_every",
         "too-many-steps"],
)
def test_kolmogorov_rejects_bad_run_parameters(grid32, cosine, kwargs, match):
    mu = constant_series(grid32, 1.0, 0.01)
    f = constant_series(grid32, 0.0, 0.01)
    with pytest.raises(ConfigError, match=match):
        solve_kolmogorov(cosine(grid32), mu, f, **{"dt": 1e-4, "t_end": 0.01, **kwargs})


def test_kolmogorov_recording_grid(grid32, cosine):
    mu = constant_series(grid32, 1.0, 2e-3)
    f = constant_series(grid32, 0.0, 2e-3)
    z = solve_kolmogorov(cosine(grid32), mu, f, dt=1e-4, t_end=2e-3, record_every=7)
    np.testing.assert_allclose(z.times, [0.0, 7e-4, 1.4e-3, 2e-3], atol=1e-15)
    assert z.values.shape == (4, 32)
    np.testing.assert_array_equal(z.values[0], cosine(grid32).values)
