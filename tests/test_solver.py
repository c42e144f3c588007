"""Stepper exactness, conservation, blowup handling, and the scalar solver."""

import contextlib
import math
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflux import solver, spectral
from crossflux.errors import BlowupError, ConfigError, DomainError
from crossflux.model import ModelSpec, Poly2, X, Y
from crossflux.solver import (
    RK4_STABILITY_CONSTANT,
    RunConfig,
    State,
    rk4_max_dt,
    simulate,
    solve_kolmogorov,
)
from crossflux.spaces import TimeSeriesField
from crossflux.spectral import (FOUR_PI_SQ, Field, SpectralPlan, TorusGrid, poly_plan,
                                spectral_plan)


HEAT = ModelSpec(0.3, 0.3, Poly2({}), Poly2({}))
SKT = ModelSpec(1.0, 1.0, X + Y, X + Y)
CUBIC = ModelSpec(1.0, 1.5, Poly2({(0, 2): 1.0}), Poly2({(2, 0): 1.0}))


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
    with pytest.raises(ConfigError, match="share one grid"):
        solve_kolmogorov(u, constant_series(grid64, 1.0, 0.01),
                         constant_series(grid32, 0.0, 0.01), dt=1e-3, t_end=0.01)


def test_run_config_refuses_a_recording_above_its_byte_limit(monkeypatch):
    # 2-d N=256 recording every one of 10^6 steps: 977 GiB.  The config is
    # valid; the run refuses it when it starts, before allocating
    g = TorusGrid(2, 256)
    st = State(0.0, Field(g, np.full(g.shape, 0.5)), Field(g, np.full(g.shape, 0.6)))
    cfg = RunConfig(SKT, st, dt=1e-6, t_end=1.0)
    with pytest.raises(ConfigError, match=r"^recording 1000001 states of TorusGrid\(d=2, "
                                          r"N=256\) takes 977 GiB, above the limit of 2 GiB$"):
        simulate(cfg)
    # a limit of 11 states of 1-d N=32: 11 run, 12 are refused
    g = TorusGrid(1, 32)
    st = State(0.0, Field(g, np.full(g.shape, 0.5)), Field(g, np.full(g.shape, 0.6)))
    monkeypatch.setattr(solver, "MAX_RECORD_BYTES", 11 * 16 * g.size)
    assert len(simulate(RunConfig(SKT, st, dt=1e-3, t_end=10e-3)).times) == 11
    with pytest.raises(ConfigError, match="above the limit"):
        simulate(RunConfig(SKT, st, dt=1e-3, t_end=11e-3))


def refused(call):
    """The `ConfigError` that `call` raises, and the peak of the memory
    traced while it ran (numpy traces its array allocations)."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            call()
        return str(exc.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_batch_is_refused_on_its_whole_recording():
    # 1536 states of 2-d N=256 take 1.5 GiB, under the limit; two such
    # members take 3 GiB in one array, refused before anything large is
    # allocated.  The data blow up within ten steps, so a batch that was
    # not refused would end there rather than fill its recording
    g = TorusGrid(2, 256)
    wave = np.cos(2 * np.pi * g.coords(0))
    a, b = (RunConfig(SKT, State(0.0, *[Field(g, 10.0 + amp * wave)] * 2), dt=1.0,
                      t_end=1535.0) for amp in (8.0, 4.0))
    message, peak = refused(lambda: simulate([a, b]))
    assert message == ("recording 3072 states of TorusGrid(d=2, N=256) takes 3 GiB, "
                        "above the limit of 2 GiB")
    assert peak < 2 ** 26


def test_run_config_validation(grid32, cosine):
    u = cosine(grid32, mean=0.5, amp=0.1)
    st = State(0.0, u, u)
    with pytest.raises(ConfigError, match="divide"):
        RunConfig(SKT, st, dt=3e-4, t_end=1e-3)
    with pytest.raises(ConfigError, match="dt"):
        RunConfig(SKT, st, dt=0.0, t_end=1e-3)
    for every in (0, 2.0, True):
        with pytest.raises(ConfigError, match="record_every"):
            RunConfig(SKT, st, dt=1e-4, t_end=1e-3, record_every=every)
    with pytest.raises(ConfigError, match="scheme"):
        RunConfig(SKT, st, dt=1e-4, t_end=1e-3, scheme="euler")
    with pytest.raises(ConfigError, match="regularized"):
        RunConfig(SKT, st, dt=1e-4, t_end=1e-3, variant="regularized")
    with pytest.raises(ConfigError, match="imex"):
        RunConfig(SKT, st, dt=1e-4, t_end=1e-3, scheme="rk4", variant="regularized")
    bad = State(0.0, cosine(grid32), u)
    with pytest.raises(DomainError, match="nonnegative"):
        RunConfig(SKT, bad, dt=1e-4, t_end=1e-3)
    with pytest.raises(ConfigError, match="t = 0"):
        RunConfig(SKT, State(5.0, u, u), dt=1e-4, t_end=1e-3)
    # the rk4 bound is a run check too, made before any integration
    with pytest.raises(ConfigError, match="rk4 stability bound"):
        RunConfig(SKT, st, dt=1e-3, t_end=1e-3, scheme="rk4")
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


def test_heat_solution_oracle_3d():
    # the 3-d companion of criterion c01: the mode (1, 1, 1) decays at
    # 4 pi^2 |xi|^2 d1 with |xi|^2 = 3
    g = TorusGrid(3, 16)
    d1 = 0.1
    phase = 2 * np.pi * (g.coords(0) + g.coords(1) + g.coords(2))
    u0 = Field(g, 0.5 + 0.1 * np.cos(phase))
    spec = ModelSpec(d1, d1, Poly2({}), Poly2({}))
    traj = simulate(RunConfig(spec, State(0.0, u0, u0), dt=1e-5, t_end=0.01,
                              record_every=1000))
    exact = 0.5 + 0.1 * math.exp(-FOUR_PI_SQ * 3 * d1 * 0.01) * np.cos(phase)
    for w in (traj.states[-1].u, traj.states[-1].v):
        assert np.max(np.abs(w.values - exact)) < 1e-6


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
    # 2^1100 is past the float range: no dt is stable
    steep = ModelSpec(1.0, 1.0, Poly2({(1100, 0): 1.0}), Poly2({}))
    assert rk4_max_dt(steep, st) == 0.0


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
    # the first overflow falls in step 8, where the run stops: numpy
    # warns of nothing, and the history holds steps 0 to 7
    u0 = cosine(grid32, mean=10.0, amp=8.0)
    cfg = RunConfig(SKT, State(0.0, u0, u0), dt=1.0, t_end=50.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(BlowupError) as exc:
            simulate(cfg)
    assert not caught
    assert exc.value.step == 8
    partial = exc.value.trajectory
    assert partial is not None
    assert partial.times[-1] == 7.0
    assert partial.mass_u.shape == (8,)
    assert np.isfinite(partial.u).all()


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


def test_kolmogorov_blowup_raises_with_partial_series(grid32, cosine):
    # dt * lam_max * (mu_max - mu_min) ~ 1e3: the explicit part is unstable;
    # the first overflow falls in step 172, where the solve stops
    z0 = cosine(grid32)
    mu_field = Field(grid32, 1.0 + 50.0 * (1.0 + z0.values))
    mu = TimeSeriesField(np.array([0.0, 1.0]), [mu_field, mu_field])
    f = constant_series(grid32, 0.0, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(BlowupError) as exc:
            solve_kolmogorov(z0, mu, f, dt=1e-3, t_end=1.0)
    assert not caught
    assert exc.value.step == 172
    partial = exc.value.trajectory
    assert partial.times[-1] == pytest.approx(0.171)
    assert partial.values.shape == (172, 32)
    assert np.isfinite(partial.values).all()


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


def test_an_overflow_in_the_first_transform_is_a_blowup_without_warnings(grid32):
    # samples of 1e307 overflow the forward transform of the initial state
    # already; both solvers end at step 1 and numpy warns of nothing
    big = Field(grid32, np.full(32, 1e307))
    one, zero = constant_series(grid32, 1.0, 1e-2), constant_series(grid32, 0.0, 1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError) as kolmogorov:
            solve_kolmogorov(big, one, zero, dt=1e-3, t_end=1e-2)
        with pytest.raises(BlowupError) as system:
            simulate(RunConfig(HEAT, State(0.0, big, big), dt=1e-3, t_end=1e-2))
    assert kolmogorov.value.step == system.value.step == 1


def test_kolmogorov_refuses_a_recording_above_the_byte_limit():
    g = TorusGrid(2, 256)
    mu, f = constant_series(g, 1.0, 1.0), constant_series(g, 0.0, 1.0)
    z0 = Field(g, np.cos(2 * np.pi * g.coords(0)))
    message, peak = refused(lambda: solve_kolmogorov(z0, mu, f, dt=1e-6, t_end=1.0))
    assert message == ("recording 1000001 states of TorusGrid(d=2, N=256) takes 488 GiB, "
                        "above the limit of 2 GiB")
    assert peak < 2 ** 26


def test_kolmogorov_recording_grid(grid32, cosine):
    mu = constant_series(grid32, 1.0, 2e-3)
    f = constant_series(grid32, 0.0, 2e-3)
    z = solve_kolmogorov(cosine(grid32), mu, f, dt=1e-4, t_end=2e-3, record_every=7)
    np.testing.assert_allclose(z.times, [0.0, 7e-4, 1.4e-3, 2e-3], atol=1e-15)
    assert z.values.shape == (4, 32)
    np.testing.assert_array_equal(z.values[0], cosine(grid32).values)


def _full_pad(c, N, M):
    """Full-layout coefficients zero-padded from N to M points per axis;
    the unpaired -N/2 slot is split as c/2 at -N/2 and -c/2 at +N/2."""
    for ax in range(c.ndim):
        c = np.moveaxis(c, ax, 0)
        out = np.zeros((M,) + c.shape[1:], dtype=complex)
        out[:N // 2] = c[:N // 2]
        out[M - N // 2 + 1:] = c[N // 2 + 1:]
        out[M - N // 2] = 0.5 * c[N // 2]
        out[N // 2] = -0.5 * c[N // 2]
        c = np.moveaxis(out, 0, ax)
    return c


def _full_truncate(F, N, M):
    """M-point full-layout coefficients cut back to N points per axis,
    with +N/2 folded into -N/2 as F(-N/2) - F(+N/2)."""
    for ax in range(F.ndim):
        F = np.moveaxis(F, ax, 0)
        out = np.empty((N,) + F.shape[1:], dtype=complex)
        out[:N // 2] = F[:N // 2]
        out[N // 2 + 1:] = F[M - N // 2 + 1:]
        out[N // 2] = F[M - N // 2] - F[N // 2]
        F = np.moveaxis(out, 0, ax)
    return F


def _phase(d, n):
    """exp(-i pi sum(xi) / n): the half-cell offset of the n^d cell centers."""
    xi = np.fft.fftfreq(n) * n
    return np.exp(-1j * np.pi * sum(np.meshgrid(*[xi] * d, indexing="ij")) / n)


def reference_imex(spec, u0, v0, dt, n_steps):
    """Dealiased IMEX in the full complex layout with np.fft.fftn, padded to
    M = 3N (exact for fluxes up to cubic), independent of SpectralPlan."""
    d, N = u0.ndim, u0.shape[0]
    M = 3 * N
    ph, ph_fine = _phase(d, N), _phase(d, M)
    xi = np.fft.fftfreq(N) * N
    lam = FOUR_PI_SQ * sum(a ** 2 for a in np.meshgrid(*[xi] * d, indexing="ij"))

    def coeffs(vals):
        return np.fft.fftn(vals) / N ** d * ph

    def fine(c):
        return (np.fft.ifftn(_full_pad(c, N, M) / ph_fine) * M ** d).real

    def project(vals):
        return _full_truncate(np.fft.fftn(vals) / M ** d * ph_fine, N, M)

    cu, cv = coeffs(u0), coeffs(v0)
    for _ in range(n_steps):
        uf, vf = fine(cu), fine(cv)
        cw1 = project(uf * spec.p.eval_arrays(uf, vf))
        cw2 = project(vf * spec.q.eval_arrays(uf, vf))
        cu = (cu - dt * lam * cw1) / (1.0 + dt * lam * spec.d1)
        cv = (cv - dt * lam * cw2) / (1.0 + dt * lam * spec.d2)
    return [(np.fft.ifftn(c / ph) * N ** d).real for c in (cu, cv)]


@pytest.mark.parametrize("spec", [SKT, CUBIC], ids=["skt", "cubic"])
@pytest.mark.parametrize("d, N", [(1, 32), (2, 16), (3, 8)])
def test_simulate_matches_full_layout_reference(rng, spec, d, N):
    # white data fills every slot, the unpaired -N/2 ones included
    grid = TorusGrid(d, N)
    u0 = 0.5 + 0.1 * rng.uniform(-1.0, 1.0, grid.shape)
    v0 = 0.6 + 0.1 * rng.uniform(-1.0, 1.0, grid.shape)
    dt, n_steps = 1e-5, 20
    traj = simulate(RunConfig(spec, State(0.0, Field(grid, u0), Field(grid, v0)),
                              dt=dt, t_end=n_steps * dt, record_every=n_steps))
    ref_u, ref_v = reference_imex(spec, u0, v0, dt, n_steps)
    assert np.max(np.abs(traj.u[-1] - ref_u)) < 1e-13
    assert np.max(np.abs(traj.v[-1] - ref_v)) < 1e-13


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       scheme=st.sampled_from(["imex", "rk4", "regularized"]))
def test_simulate_keeps_zero_coefficients_bitwise(d, seed, scheme):
    # every coefficient stack the loop turns into samples carries the
    # initial zero coefficients of u and v unchanged: exact mass conservation
    grid = TorusGrid(d, 16 if d == 1 else 8)
    data = np.random.default_rng(seed)
    u0, v0 = (m + 0.2 * data.uniform(0.0, 1.0, grid.shape) for m in (0.3, 0.4))
    spec = ModelSpec(1.0, 1.5, X + Y, X + Y, eta=1e-4, trunc_delta=0.45)
    dt = 0.5 * rk4_max_dt(spec, State(0.0, Field(grid, u0), Field(grid, v0)))
    cfg = RunConfig(spec, State(0.0, Field(grid, u0), Field(grid, v0)), dt=dt,
                    t_end=5 * dt, scheme="imex" if scheme == "regularized" else scheme,
                    variant="regularized" if scheme == "regularized" else "plain")
    zero = (Ellipsis,) + (0,) * d
    seen = []
    original = SpectralPlan._to_values

    def spy(plan, coeffs, work):
        # the loop's to_values calls, of the coefficient stack or of a
        # block of them, each run led by a copy of the zero coefficients
        # of every stack it reads
        calls, out = original(plan, coeffs, work)
        if coeffs.ndim in (d + 1, d + 2) and coeffs.shape[-d - 1] == 2:
            calls = [(lambda: seen.extend(coeffs[zero].reshape(-1, 2).copy()), ())] + calls
        return calls, out

    with mock.patch.object(SpectralPlan, "_to_values", spy):
        simulate(cfg)
    initial = spectral_plan(grid, grid.N).to_coeffs(np.stack([u0, v0]))[zero]
    assert len(seen) >= 5
    for c0 in seen:
        assert np.array_equal(c0, initial)


# per_step counts the FFT calls of a step and of the inverse of its new
# state, d calls, which the loop makes once per block for all its steps
FFT_CASES = pytest.mark.parametrize("d, N, scheme, per_step, batch", [
    pytest.param(1, 64, "imex", 3, 1, id="1-64-imex-3"),
    pytest.param(1, 64, "rk4", 9, 1, id="1-64-rk4-9"),
    pytest.param(2, 16, "imex", 6, 1, id="2-16-imex-6"),
    pytest.param(1, 64, "imex", 3, 2, id="1-64-imex-3-batch2"),
    pytest.param(3, 8, "imex", 9, 1, id="3-8-imex-9"),
])


def fft_calls(d, N, scheme, steps, batch=1, listed=False, shapes=False):
    """The `out` argument (None when not given) of each numpy FFT call
    that a run of the given number of steps makes; a batch of more than
    one run, or a `listed` one, integrates a list of that many copies of
    the run in one call.  With `shapes`, each call gives its name and the
    shapes of its input and `out` instead."""
    grid = TorusGrid(d, N)
    wave = np.cos(2.0 * np.pi * grid.coords(0))
    init = State(0.0, Field(grid, 0.3 + 0.1 * wave), Field(grid, 0.4 + 0.1 * wave))
    dt = 0.5 * rk4_max_dt(SKT, init)
    cfg = RunConfig(SKT, init, dt=dt, t_end=steps * dt, scheme=scheme)
    outs = []

    def counted(name):
        original = getattr(np.fft, name)

        def spy(*args, **kwargs):
            out = kwargs.get("out")
            outs.append((name, args[0].shape, None if out is None else out.shape)
                        if shapes else out)
            return original(*args, **kwargs)
        return spy

    with mock.patch.multiple(np.fft, **{name: counted(name) for name in
                                        ("fft", "ifft", "rfft", "irfft", "fftn",
                                         "ifftn", "rfftn", "irfftn")}):
        simulate([cfg] * batch if listed or batch > 1 else cfg)
    return outs


@FFT_CASES
def test_fft_calls_per_step(d, N, scheme, per_step, batch):
    # a guard on the step's cost: per step, one padded inverse and one
    # projection per flux evaluation, each one numpy FFT call per axis,
    # however many runs the batch holds.  The new states are turned into
    # samples once per block: a run this short is one block, so besides
    # its steps it makes the initial transform and one block inverse
    six = len(fft_calls(d, N, scheme, 6, batch))
    assert six - len(fft_calls(d, N, scheme, 2, batch)) == 4 * (per_step - d)
    assert six == d + 6 * (per_step - d) + d


@FFT_CASES
def test_fft_calls_write_into_the_run_work_arrays(d, N, scheme, per_step, batch):
    # after step 2 every transform writes into a given array, and those
    # arrays are the same few however long the run: no step allocates
    # its own transform output
    def owner(a):
        return a if a.base is None else a.base

    short, long = fft_calls(d, N, scheme, 2, batch), fft_calls(d, N, scheme, 6, batch)
    # the four extra steps and the block inverse make their transforms
    # through numpy.fft, so the checks below see them
    assert len(long) - len(short) == 4 * (per_step - d)
    assert all(isinstance(out, np.ndarray) for out in long[-4 * (per_step - d) - d:])
    # the lists keep every array alive, so distinct arrays have distinct ids
    assert (len({id(owner(out)) for out in long})
            == len({id(owner(out)) for out in short}))


@pytest.mark.parametrize("d, N, scheme, variant, calls", [
    (1, 32, "imex", "plain", 14), (1, 64, "rk4", "plain", 69),
    (1, 32, "imex", "regularized", 19), (2, 16, "imex", "plain", 23),
    (2, 16, "imex", "regularized", 29), (2, 16, "rk4", "plain", 105),
    (3, 8, "imex", "plain", 39)])
def test_built_step_lists_are_no_longer(d, N, scheme, variant, calls):
    # a guard on the step's cost besides its FFT calls: the list of
    # (function, arguments) calls that the loop builds once and runs on
    # every step is no longer than these counts.  A projection mirrors its
    # N/2 column by one take per leading axis and one conjugate
    grid = TorusGrid(d, N)
    wave = np.cos(2.0 * np.pi * grid.coords(0))
    init = State(0.0, Field(grid, 0.3 + 0.1 * wave), Field(grid, 0.4 + 0.1 * wave))
    dt = 0.5 * rk4_max_dt(REGULARIZED_SKT, init)
    built = []
    original = solver._loop

    def spy(plan, initial, shape, steps, step, **kwargs):
        def counted(*args):
            built.append(step(*args))
            return built[-1]
        return original(plan, initial, shape, steps, counted, **kwargs)

    with mock.patch.object(solver, "_loop", spy):
        simulate(RunConfig(REGULARIZED_SKT, init, dt=dt, t_end=3 * dt, scheme=scheme,
                           variant=variant))
    assert len(built) == 1 and len(built[0]) <= calls


@pytest.mark.parametrize("d, N", [(1, 32), (2, 16), (3, 8)])
def test_the_fine_c2r_reads_all_its_columns_past_1d(d, N):
    # numpy's c2r is slower on an input it pads.  In 2-d and 3-d a c2c pass
    # precedes it, so the fine c2r reads M/2+1 columns, zero past N/2; in
    # 1-d it reads the N/2+1 columns of the padding array
    grid = TorusGrid(d, N)
    wave = np.cos(2.0 * np.pi * grid.coords(0))
    init = State(0.0, Field(grid, 0.3 + 0.1 * wave), Field(grid, 0.4 + 0.1 * wave))
    M = poly_plan(grid, (X * SKT.p, Y * SKT.q)).M
    seen, original = [], spectral._c2r

    def spy(a, out):
        if out.shape[-1] == M:
            seen.append((a.shape[-1], bool(a[..., N // 2 + 1:].any())))
        return original(a, out)

    with mock.patch.object(spectral, "_c2r", spy):
        simulate(RunConfig(SKT, init, dt=1e-5, t_end=3e-5))
    assert seen == [(M // 2 + 1 if d > 1 else N // 2 + 1, False)] * 3


def built_step(case):
    """The step list that `_loop` builds for a run of the given case, with
    its coefficients c and the arrays of its samples and its `Work`."""
    built = []
    original = solver._loop

    def spy(plan, initial, shape, steps, step, **kwargs):
        def kept(c, vals, work):
            built.append((step(c, vals, work), [c, vals, *work._arrays.values()]))
            return built[-1][0]
        return original(plan, initial, shape, steps, kept, **kwargs)

    grid = TorusGrid(2 if case.startswith("2d") else 1, {"2d-16": 16, "2d-64": 64}.get(case, 32))
    wave = np.cos(2.0 * np.pi * grid.coords(0))
    with mock.patch.object(solver, "_loop", spy):
        if case == "kolmogorov":
            mu = constant_series(grid, 1.0, 1.0)
            solve_kolmogorov(Field(grid, wave), mu, mu, dt=1e-4, t_end=3e-4)
        else:
            inits = [State(0.0, Field(grid, 0.3 + a * wave), Field(grid, 0.4 + 0.1 * wave))
                     for a in ((0.1, 0.05, 0.02) if case == "batch" else (0.1,))]
            dt = 0.5 * rk4_max_dt(REGULARIZED_SKT, inits[0])
            configs = [RunConfig(REGULARIZED_SKT, init, dt=dt, t_end=3 * dt,
                                 scheme="rk4" if case == "rk4" else "imex",
                                 variant="regularized" if case == "regularized" else "plain")
                       for init in inits]
            simulate(configs if case == "batch" else configs[0])
    (calls, arrays), = built
    return calls, arrays


def ufunc_calls(calls):
    """(inputs, output) of each ufunc call of a step list."""
    for f, args in calls:
        func, kwargs = (f.func, f.keywords) if isinstance(f, partial) else (f, {})
        if isinstance(func, np.ufunc):
            yield args[:func.nin], kwargs["out"] if "out" in kwargs else args[func.nin]


@pytest.mark.parametrize("case", ["imex", "rk4", "regularized", "batch", "2d-16", "kolmogorov"])
def test_small_step_lists_follow_the_operand_rule(case):
    # numpy runs a ufunc's trivial loop when its operands have the
    # output's dtype and are 0-d or C-contiguous of its shape, and casts
    # and broadcasts on every call otherwise.  On a stack of at most 64 KiB
    # a step's factors (the operands that are neither its coefficients nor
    # work arrays) are made so once, and no call gets a Python number
    calls, arrays = built_step(case)
    checked = 0  # factors of calls whose other operands allow the trivial loop
    for inputs, out in ufunc_calls(calls):
        assert all(isinstance(a, np.ndarray) and a.dtype == out.dtype for a in inputs)
        worked = [a for a in inputs + (out,) if any(np.may_share_memory(a, w) for w in arrays)]
        factors = [a for a in inputs if a.ndim and not any(a is w for w in worked)]
        if all(a.flags.c_contiguous and a.shape == out.shape for a in worked):
            assert all(a.flags.c_contiguous and a.shape == out.shape for a in factors)
            checked += len(factors)
    # imex and batch: the pad phase, dt*lam and den; rk4: the pad phase,
    # d and -lam of each of the 4 right-hand sides; regularized: those of
    # imex, the forward phase and the mollifier; 2-d: den alone (cw is a
    # slice of the projection); kolmogorov: dt*lam and the forward phase
    assert checked == {"imex": 3, "rk4": 12, "regularized": 5, "batch": 3, "2d-16": 1,
                       "kolmogorov": 2}[case]


def test_large_step_lists_keep_their_factors():
    # 2-d N=64: the (2, 64, 33) stack is 66 KiB, above the operand rule's
    # 64 KiB, so no factor is copied to its call's shape and dtype
    calls, arrays = built_step("2d-64")
    for inputs, out in ufunc_calls(calls):
        for a in inputs:
            if a.ndim and not any(np.may_share_memory(a, w) for w in arrays):
                assert a.shape != out.shape or a.dtype != out.dtype


@pytest.mark.parametrize("shape", [(2, 17), (2, 3, 64, 33)], ids=["small", "large"])
def test_the_imex_update_by_the_reciprocal_is_the_division(rng, shape):
    # numpy divides by den + 0j as it multiplies by 1 / den + 0j, so the
    # update's multiply by the reciprocal, made once per run, gives the
    # numbers of the division (only the sign of a zero may differ), by the
    # operand rule on a small stack and by broadcasting on a large one, on
    # coefficients that are +-0, subnormal or large
    pool = np.array([0.0, -0.0, 5e-324, -3e-310, 2.5e-308, 1e300, -7e299])

    def draw():
        c = np.empty(shape, np.complex128)
        for part in (c.real, c.imag):
            part[...] = np.where(rng.uniform(size=shape) < 0.5, rng.choice(pool, shape),
                                 rng.standard_normal(shape))
        return c

    c, cw = draw(), draw()
    dt_lam = 1e-3 * FOUR_PI_SQ * np.arange(shape[-1]) ** 2.0
    den = 1.0 + dt_lam * np.reshape([1.0, 1.5], (2,) + (1,) * (len(shape) - 1))
    expected = (c - dt_lam * cw) / den
    for f, args in solver._imex_update(c, cw, dt_lam, 1.0 / den):
        f(*args)
    assert np.array_equal(c, expected)


@pytest.mark.parametrize("d, N, scheme", [(1, 64, "imex"), (1, 64, "rk4"), (2, 16, "imex")])
def test_a_one_member_list_makes_the_single_runs_fft_calls(d, N, scheme):
    # a one-member list carries no batch axis: the same transforms, of
    # the same shapes, as the single run
    listed, single = (fft_calls(d, N, scheme, 3, listed=True, shapes=True),
                      fft_calls(d, N, scheme, 3, shapes=True))
    assert listed and listed == single


@pytest.mark.parametrize("d, N, scheme", [(1, 32, "imex"), (1, 32, "rk4"), (2, 16, "imex")])
def test_runs_skip_numpys_fft_wrapper(d, N, scheme):
    # on small grids numpy's FFT wrapper costs more than the transform:
    # a run's transforms go to the pocketfft gufuncs without it
    from numpy.fft import _pocketfft
    grid = TorusGrid(d, N)
    wave = np.cos(2.0 * np.pi * grid.coords(0))
    init = State(0.0, Field(grid, 0.3 + 0.1 * wave), Field(grid, 0.4 + 0.1 * wave))
    dt = 0.5 * rk4_max_dt(SKT, init)
    cfg = RunConfig(SKT, init, dt=dt, t_end=4 * dt, scheme=scheme)
    with mock.patch.object(_pocketfft, "_raw_fft", wraps=_pocketfft._raw_fft) as wrapper:
        np.fft.rfft(wave)  # the patch sees numpy's own calls
        assert wrapper.call_count == 1
        simulate(cfg)
    assert wrapper.call_count == 1


PLAN_METHODS = ("to_coeffs", "to_values", "fine_values", "project_fine", "poly_coeffs")


def plan_and_array_calls(case, steps):
    """The calls of each public `SpectralPlan` method and of `Work.array`
    that a run of the given case and number of steps makes."""
    grid = TorusGrid(2 if case == "2d-16" else 1, 16 if case == "2d-16" else 32)
    wave = np.cos(2.0 * np.pi * grid.coords(0))
    init = State(0.0, Field(grid, 0.3 + 0.1 * wave), Field(grid, 0.4 + 0.1 * wave))
    dt = 0.5 * rk4_max_dt(REGULARIZED_SKT, init)
    cfg = RunConfig(REGULARIZED_SKT, init, dt=dt, t_end=steps * dt,
                    scheme="rk4" if case == "rk4" else "imex",
                    variant="regularized" if case == "imex-regularized" else "plain")
    spies = [mock.patch.object(SpectralPlan, name, autospec=True,
                               side_effect=getattr(SpectralPlan, name)) for name in PLAN_METHODS]
    spies.append(mock.patch.object(spectral.Work, "array", autospec=True,
                                   side_effect=spectral.Work.array))
    with contextlib.ExitStack() as stack:
        mocks = [stack.enter_context(spy) for spy in spies]
        if case == "kolmogorov":
            mu = TimeSeriesField(np.array([0.0, 1.0]), [Field(grid, 1.0 + 0.5 * wave)] * 2)
            solve_kolmogorov(init.u, mu, constant_series(grid, 0.1, 1.0), dt=1e-4,
                             t_end=steps * 1e-4)
        else:
            simulate([cfg] * 3 if case == "batch-3" else cfg)
    return [m.call_count for m in mocks]


@pytest.mark.parametrize("case", ["imex-plain", "imex-regularized", "rk4", "batch-3", "2d-16",
                                  "kolmogorov"])
def test_a_step_is_one_prebuilt_list_of_calls(case):
    # the loop builds a step's calls once, on the run's work arrays: from
    # step 2 on, a step calls no plan method and requests no work array
    assert plan_and_array_calls(case, 6) == plan_and_array_calls(case, 2)


def test_a_run_holds_no_initial_stack():
    # 2-d N=256: a (2, 256, 256) stack of the initial fields is 1 MiB.
    # The fields are stacked straight into the run's samples, so an 8-step
    # run peaks at 22.3 MiB (a 9 MiB recording, 11.4 MiB of work arrays,
    # the coefficients and the denominators), not at the 23.3 MiB of a
    # run that holds a separate initial stack throughout
    g = TorusGrid(2, 256)
    wave = np.cos(2.0 * np.pi * g.coords(0))
    cfg = RunConfig(SKT, State(0.0, Field(g, 0.3 + 0.1 * wave), Field(g, 0.4 + 0.1 * wave)),
                    dt=1e-6, t_end=8e-6)
    simulate(cfg)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22.8 * 2 ** 20


def test_states_are_built_when_indexed(grid32, cosine):
    init = State(0.0, cosine(grid32, mean=0.5, amp=0.1), cosine(grid32, mean=0.6, amp=0.1))
    traj = simulate(RunConfig(SKT, init, dt=1e-4, t_end=4e-3, record_every=3))
    with mock.patch.object(solver, "State", wraps=State) as built:
        states = traj.states
        last = states[-1]
    assert built.call_count == 1
    assert len(states) == len(traj.times) == 15
    eager = [State(float(t), Field(grid32, a), Field(grid32, b))
             for t, a, b in zip(traj.times, traj.u, traj.v)]
    for seen in (list(states), states[:], [states[i] for i in range(-15, 0)]):
        assert len(seen) == len(eager)
        for a, b in zip(seen, eager):
            assert a.t == b.t
            assert np.array_equal(a.u.values, b.u.values)
            assert np.array_equal(a.v.values, b.v.values)
    assert np.array_equal(last.u.values, traj.u[-1]) and last.t == traj.times[-1]
    assert [s.t for s in states[2:9:3]] == list(traj.times[2:9:3])
    with pytest.raises(IndexError):
        states[15]


RECORDED = ("u", "v", "times", "step_times", "min_u", "min_v", "mass_u", "mass_v")


def assert_same_run(a, b):
    for name in RECORDED:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("batch", [2, 3])
@pytest.mark.parametrize("scheme, variant", [("imex", "plain"), ("rk4", "plain"),
                                             ("imex", "regularized")])
@pytest.mark.parametrize("d, N", [(1, 32), (1, 64), (2, 16)])
def test_batch_members_are_their_single_runs_bitwise(rng, d, N, scheme, variant, batch):
    grid = TorusGrid(d, N)
    spec = ModelSpec(1.0, 1.5, X + Y, X + Y, eta=1e-4, trunc_delta=0.45)
    inits = [State(0.0, *(Field(grid, m + 0.2 * rng.uniform(0.0, 1.0, grid.shape))
                          for m in (0.3, 0.4)))
             for _ in range(batch)]
    dt = 0.5 * min(rk4_max_dt(spec, init) for init in inits)
    configs = [RunConfig(spec, init, dt=dt, t_end=7 * dt, record_every=3, scheme=scheme,
                         variant=variant) for init in inits]
    members = simulate(configs)
    assert len(members) == batch
    for cfg, member in zip(configs, members):
        assert_same_run(member, simulate(cfg))


REGULARIZED_SKT = ModelSpec(1.0, 1.0, X + Y, X + Y, eta=1e-4, trunc_delta=5.0)


def blowup_configs(d, N, variant, amplitudes, t_end=2e-2):
    """SKT runs at dt = 1e-3 from cosine data of the given (mean, amp)
    pairs, both species alike; amplitudes 1.5 and above blow up."""
    grid = TorusGrid(d, N)
    wave = np.cos(2.0 * np.pi * grid.coords(0))
    spec = REGULARIZED_SKT if variant == "regularized" else SKT
    return [RunConfig(spec, State(0.0, *[Field(grid, mean + amp * wave)] * 2), dt=1e-3,
                      t_end=t_end, record_every=10, variant=variant)
            for mean, amp in amplitudes]


@pytest.mark.parametrize("d, N, variant, steps", [
    pytest.param(1, 32, "plain", (13, 18), id="imex-plain"),
    pytest.param(1, 32, "regularized", (11, 18), id="imex-regularized"),
    pytest.param(2, 16, "plain", (14, 19), id="2d-16"),
])
def test_batch_blowup_keeps_each_members_own_result(d, N, variant, steps):
    check_batch_blowup(d, N, variant, steps)


def check_batch_blowup(d, N, variant, steps):
    """The data of the CLI's partial-report blow-up: amplitude 2.9 is
    unstable at dt = 1e-3 and blows up first, at steps[0], amplitude 1.5
    after it, at steps[1]; the other members run to t_end.  Each member's
    result is that of its single run."""
    configs = blowup_configs(d, N, variant, ((0.5, 0.05), (2.9, 2.9), (0.6, 0.03), (1.5, 1.5)))
    members = simulate(configs)
    for i, step in zip((1, 3), steps):
        with pytest.raises(BlowupError) as single:
            simulate(configs[i])
        assert isinstance(members[i], BlowupError)
        assert members[i].step == single.value.step == step
        assert_same_run(members[i].trajectory, single.value.trajectory)
    for i in (0, 2):
        assert_same_run(members[i], simulate(configs[i]))


def stack_bytes(grid, rows=2):
    """Bytes of a run's coefficient stack of the given number of rows."""
    return rows * 2 * spectral_plan(grid, grid.N).lam.nbytes


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("d, N, steps", [
    pytest.param(1, 32, (13, 18), id="imex-plain"),
    pytest.param(2, 16, (14, 19), id="2d-16"),
])
def test_batch_blowups_at_block_edges_keep_each_members_own_result(monkeypatch, K, d, N,
                                                                   steps):
    # blocks of K steps of the 4-member batch (its single runs make
    # blocks of 4K): at K = 3, step 13 is the first of its block and 18
    # the last; at K = 2, 13 and 19 are first and 14 and 18 last
    monkeypatch.setattr(solver, "_BLOCK_BYTES", K * stack_bytes(TorusGrid(d, N), 8))
    check_batch_blowup(d, N, "plain", steps)


def test_a_batch_with_a_blowup_runs_one_loop():
    configs = blowup_configs(1, 32, "plain", ((0.5, 0.05), (2.9, 2.9), (0.6, 0.03)))
    with mock.patch.object(solver, "_integrate", side_effect=solver._integrate) as loop:
        members = simulate(configs)
    assert isinstance(members[1], BlowupError)
    assert loop.call_count == 1
    assert len(loop.call_args.args[0]) == 3


def test_simulate_and_solve_kolmogorov_share_one_loop(grid32, cosine):
    configs = blowup_configs(1, 32, "plain", ((0.5, 0.05), (2.9, 2.9), (0.6, 0.03)))
    with mock.patch.object(solver, "_loop", side_effect=solver._loop) as loop:
        simulate(configs)
    assert loop.call_count == 1
    mu, f = constant_series(grid32, 1.0, 1e-3), constant_series(grid32, 0.0, 1e-3)
    with mock.patch.object(solver, "_loop", side_effect=solver._loop) as loop:
        solve_kolmogorov(cosine(grid32), mu, f, dt=1e-4, t_end=1e-3)
    assert loop.call_count == 1


def test_a_batch_that_blows_up_entirely_ends_at_its_last_blowup():
    # 1000 steps are configured; the last member to blow up does so at
    # step 18, and the loop makes no step after the block that holds it.
    # The batch's (2, 3, 17) coefficient stack takes 1632 bytes, so a
    # block holds 2 ** 16 // 1632 = 40 steps.  After the initial
    # transform, one r2c a step (the flux projection's)
    configs = blowup_configs(1, 32, "plain", ((2.9, 2.9), (1.5, 1.5), (4.0, 4.0)), t_end=1.0)
    with mock.patch.object(spectral, "_r2c", wraps=spectral._r2c) as r2c:
        members = simulate(configs)
    assert [m.step for m in members] == [13, 18, 12]
    assert r2c.call_count == 1 + 40


def test_batch_members_differ_only_in_their_initial_states(grid32, grid64, cosine):
    st = State(0.0, cosine(grid32, mean=0.5, amp=0.1), cosine(grid32, mean=0.6, amp=0.1))
    cfg = RunConfig(SKT, st, dt=1e-4, t_end=1e-3)
    st64 = State(0.0, cosine(grid64, mean=0.5, amp=0.1), cosine(grid64, mean=0.6, amp=0.1))
    for other in (RunConfig(SKT, st, dt=2e-4, t_end=1e-3),
                  RunConfig(CUBIC, st, dt=1e-4, t_end=1e-3),
                  RunConfig(SKT, st64, dt=1e-4, t_end=1e-3)):
        with pytest.raises(ConfigError, match="differ only in their initial states"):
            simulate([cfg, other])
    with pytest.raises(ConfigError, match="at least one"):
        simulate([])


def fresh_loop(spec, u0, v0, dt, n_steps, scheme, variant):
    """The time loop of `simulate` composed from the plan methods with no
    work object, so every call makes new arrays; returns the samples,
    minima and means of every step, each of shape (2, n_steps + 1, ...)."""
    grid = TorusGrid(u0.ndim, u0.shape[0])
    regularized = variant == "regularized"
    fluxes = (X * spec.p, Y * spec.q)
    plan = poly_plan(grid, fluxes + (X * Y,) if regularized else fluxes)
    d = np.reshape([spec.d1, spec.d2], (2,) + (1,) * grid.d)
    lam = plan.lam

    def rhs(a):
        return -lam * (d * a + plan.poly_coeffs(fluxes, a))

    vals = np.stack([u0, v0])
    c = plan.to_coeffs(vals)
    seen = [vals]
    for _ in range(n_steps):
        if scheme == "rk4":
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * dt * k1)
            k3 = rhs(c + 0.5 * dt * k2)
            k4 = rhs(c + dt * k3)
            c = c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            if regularized:
                capped = np.minimum(vals, spec.trunc_delta)
                pq = np.stack([spec.p.eval_arrays(*capped), spec.q.eval_arrays(*capped)])
                moll = np.exp(-spec.eta * lam)
                cw = plan.project_fine(plan.fine_values(plan.to_coeffs(pq) * moll)
                                       * plan.fine_values(c))
            else:
                cw = plan.poly_coeffs(fluxes, c)
            c = (c - dt * lam * cw) / (1.0 + dt * lam * d)
        vals = plan.to_values(c)
        seen.append(vals)
    stack = np.stack(seen, axis=1)
    flat = stack.reshape(2, n_steps + 1, -1)
    return stack, flat.min(axis=2), flat.mean(axis=2)


@pytest.mark.parametrize("scheme, variant", [("imex", "plain"), ("rk4", "plain"),
                                             ("imex", "regularized")])
@pytest.mark.parametrize("spec", [SKT, CUBIC], ids=["skt", "cubic"])
@pytest.mark.parametrize("d, N", [(1, 16), (2, 8)])
def test_simulate_is_the_fresh_array_loop_bitwise(rng, d, N, spec, scheme, variant):
    # the run's work arrays change where numbers are written, not which
    grid = TorusGrid(d, N)
    spec = ModelSpec(spec.d1, spec.d2, spec.p, spec.q, eta=1e-4, trunc_delta=0.45)
    u0, v0 = (m + 0.2 * rng.uniform(0.0, 1.0, grid.shape) for m in (0.3, 0.4))
    init = State(0.0, Field(grid, u0), Field(grid, v0))
    dt, n_steps = 0.5 * rk4_max_dt(spec, init), 6
    traj = simulate(RunConfig(spec, init, dt=dt, t_end=n_steps * dt, scheme=scheme,
                              variant=variant))
    vals, mins, means = fresh_loop(spec, u0, v0, dt, n_steps, scheme, variant)
    assert np.array_equal(traj.u, vals[0]) and np.array_equal(traj.v, vals[1])
    assert np.array_equal(traj.min_u, mins[0]) and np.array_equal(traj.min_v, mins[1])
    assert np.array_equal(traj.mass_u, means[0]) and np.array_equal(traj.mass_v, means[1])


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("scheme", ["imex", "rk4"])
@pytest.mark.parametrize("d, N", [(1, 16), (2, 8)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_blocks_of_steps_are_the_fresh_array_loop_bitwise(monkeypatch, rng, K, d, N, scheme,
                                                          record_every):
    # a budget of K coefficient stacks makes blocks of K steps: runs of
    # K - 1, K, K + 1 and 2K + 1 steps end inside, at and past a block's
    # edge.  Each block makes one c2r, and each step one per flux
    # evaluation
    grid = TorusGrid(d, N)
    monkeypatch.setattr(solver, "_BLOCK_BYTES", K * stack_bytes(grid))
    u0, v0 = (m + 0.2 * rng.uniform(0.0, 1.0, grid.shape) for m in (0.3, 0.4))
    init = State(0.0, Field(grid, u0), Field(grid, v0))
    dt = 0.5 * rk4_max_dt(SKT, init)
    for n_steps in sorted({K - 1, K, K + 1, 2 * K + 1} - {0}):
        cfg = RunConfig(SKT, init, dt=dt, t_end=n_steps * dt, record_every=record_every,
                        scheme=scheme)
        with mock.patch.object(spectral, "_c2r", wraps=spectral._c2r) as c2r:
            traj = simulate(cfg)
        assert c2r.call_count == n_steps * (4 if scheme == "rk4" else 1) + -(-n_steps // K)
        vals, mins, means = fresh_loop(SKT, u0, v0, dt, n_steps, scheme, "plain")
        at = solver._recorded_steps(dt, cfg.t_end, record_every)
        assert np.array_equal(traj.u, vals[0][at]) and np.array_equal(traj.v, vals[1][at])
        assert np.array_equal(traj.min_u, mins[0]) and np.array_equal(traj.min_v, mins[1])
        assert np.array_equal(traj.mass_u, means[0]) and np.array_equal(traj.mass_v, means[1])


@pytest.mark.parametrize("d, N, scheme", [(1, 32, "imex"), (1, 16, "rk4"), (2, 8, "imex")])
def test_recorded_masses_are_the_mean_of_each_step_bitwise(rng, d, N, scheme):
    grid = TorusGrid(d, N)
    u0, v0 = (m + 0.2 * rng.uniform(0.0, 1.0, grid.shape) for m in (0.3, 0.4))
    init = State(0.0, Field(grid, u0), Field(grid, v0))
    dt = 0.5 * rk4_max_dt(SKT, init)
    traj = simulate(RunConfig(SKT, init, dt=dt, t_end=7 * dt, scheme=scheme))
    for recorded, mass, low in ((traj.u, traj.mass_u, traj.min_u),
                                (traj.v, traj.mass_v, traj.min_v)):
        flat = recorded.reshape(len(recorded), -1)
        assert np.array_equal(mass, flat.mean(axis=1))
        assert np.array_equal(mass, [row.mean() for row in recorded])
        assert np.array_equal(low, flat.min(axis=1))
