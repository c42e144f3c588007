"""Acceptance gate: twelve desk-scale criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they are produced; without -s they appear in the captured output of
any failing criterion.
"""

import math
import time

import numpy as np
import pytest

from crossflux.model import (
    ModelSpec,
    Poly2,
    X,
    Y,
    smallness_functional,
    thresholds,
)
from crossflux.solver import RunConfig, State, simulate, solve_kolmogorov
from crossflux.spaces import (
    TimeSeriesField,
    bernstein_check,
    besov_Nk,
    block_sequence_check,
    heat_decay_check,
    lp_norm,
    maxreg_ratio,
    random_band_field,
    sobolev_norm,
)
from crossflux.spectral import FOUR_PI_SQ, Field, TorusGrid
from crossflux.counterexample import build_pair, verify_counterexample
from crossflux.verifier import (
    check_duality,
    check_lyapunov_nonconvex,
    check_mass,
    check_stability_pair,
    fit_decay_rate,
    track_hk,
    track_lambda,
)

SKT = ModelSpec(1.0, 1.0, X + Y, X + Y)


def verdict(num, name, ok, detail, elapsed, budget):
    line = (
        f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.1f}s / {budget:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def cos_field(grid, mean, amp, mode=1):
    return Field(grid, mean + amp * np.cos(2 * np.pi * mode * grid.coords(0)))


def const_series(grid, value, t_end):
    f = Field(grid, np.full(grid.shape, float(value)))
    return TimeSeriesField(np.array([0.0, t_end]), [f, f])


def test_c01_heat_solution_oracle():
    t0 = time.time()
    grid = TorusGrid(1, 128)
    d1 = 0.1  # free parameter; the pinned dt leaves a first-order defect ~ d1^2
    spec = ModelSpec(d1, d1, Poly2({}), Poly2({}))
    u0 = cos_field(grid, 0.5, 0.1)
    traj = simulate(RunConfig(spec, State(0.0, u0, u0), dt=1e-5, t_end=0.05,
                              record_every=5000))
    exact = 0.5 + 0.1 * math.exp(-FOUR_PI_SQ * d1 * 0.05) * np.cos(
        2 * np.pi * grid.coords(0)
    )
    err = float(np.max(np.abs(traj.states[-1].u.values - exact)))
    verdict(1, "heat-solution oracle", err < 1e-6,
            f"max error {err:.2e} < 1e-06", time.time() - t0, 5.0)


def test_c02_mass_conservation():
    import dataclasses

    t0 = time.time()
    grid = TorusGrid(1, 32)
    u0 = cos_field(grid, 0.5, 0.1)
    v0 = cos_field(grid, 0.7, 0.1)
    traj = simulate(RunConfig(SKT, State(0.0, u0, v0), dt=2e-4, t_end=0.02,
                              record_every=10))
    rep = check_mass(traj)
    rel = max(rep.measured["max_deviation_u"], rep.measured["max_deviation_v"])
    doctored = dataclasses.replace(
        traj, mass_u=traj.mass_u + np.linspace(0.0, 1e-9, traj.mass_u.size)
    )
    control_fails = not check_mass(doctored).passed
    ok = rep.passed and rel < 1e-13 and control_fails
    verdict(2, "mass conservation", ok,
            f"max rel deviation {rel:.2e}, negative control fails: {control_fails}",
            time.time() - t0, 1.0)


def test_c03_besov_closed_form_and_ratio():
    t0 = time.time()
    g128 = TorusGrid(1, 128)
    n2 = besov_Nk(cos_field(g128, 0.0, 1.0), 2)
    err = abs(n2 - 1.0 / (4.0 * math.pi))
    g64 = TorusGrid(1, 64)
    rng = np.random.default_rng(1234)
    ratios = []
    for _ in range(50):
        f = random_band_field(g64, 1, 32, rng)
        ratios.append(besov_Nk(f, 2) / sobolev_norm(f, -1))
    lo, hi = min(ratios), max(ratios)
    ok = err < 1e-5 and lo >= 0.05 and hi <= 1.0
    verdict(3, "N_2 closed form and dual-norm ratio", ok,
            f"|N_2 - 1/4pi| {err:.2e}, ratio range [{lo:.3f}, {hi:.3f}]",
            time.time() - t0, 5.0)


def test_c04_duality_estimate():
    t0 = time.time()
    grid = TorusGrid(1, 32)
    t_end = 0.1

    mu1 = const_series(grid, 1.0, t_end)
    f0 = const_series(grid, 0.0, t_end)
    z0 = cos_field(grid, 0.0, 1.0)
    heat = check_duality(
        solve_kolmogorov(z0, mu1, f0, dt=1e-4, t_end=t_end), mu1, f0, z0
    )

    zc = Field(grid, np.full(32, 0.8))
    sharp = check_duality(
        solve_kolmogorov(zc, mu1, f0, dt=1e-4, t_end=t_end), mu1, f0, zc
    )
    sharp_margin = abs(sharp.measured["final_margin"])

    rng = np.random.default_rng(1234)
    forced_pass = 0
    for _ in range(20):
        mu_f = Field(grid, 0.5 + np.abs(rng.standard_normal(32)))
        force = Field(grid, 0.3 * rng.standard_normal(32))
        zi = Field(grid, rng.standard_normal(32))
        mu = TimeSeriesField(np.array([0.0, t_end]), [mu_f] * 2)
        f = TimeSeriesField(np.array([0.0, t_end]), [force] * 2)
        # dt resolves the stiffest explicit-split mode of the worst draw
        z = solve_kolmogorov(zi, mu, f, dt=1e-4, t_end=t_end)
        if check_duality(z, mu, f, zi).passed:
            forced_pass += 1

    ok = heat.passed and sharp.passed and sharp_margin < 1e-6 and forced_pass == 20
    verdict(4, "duality estimate", ok,
            f"heat margin {heat.measured['final_margin']:.2e}, "
            f"sharp margin {sharp_margin:.2e}, forced {forced_pass}/20",
            time.time() - t0, 30.0)


def test_c05_lyapunov_identity():
    t0 = time.time()
    grid = TorusGrid(1, 128)
    spec = ModelSpec(1.0, 1.0, Poly2({(0, 2): 1.0}), Poly2({(2, 0): 1.0}))
    u0 = cos_field(grid, 0.2, 0.1)
    v0 = Field(grid, np.full(128, 0.2))
    residual = math.inf
    monotone = False
    used_dt = None
    for dt, rec in [(4e-5, 100), (8e-6, 20), (4e-6, 10), (2e-6, 5)]:
        traj = simulate(
            RunConfig(spec, State(0.0, u0, v0), dt=dt, t_end=0.02, record_every=rec)
        )
        rep = check_lyapunov_nonconvex(traj)
        residual = rep.measured["max_residual"]
        monotone = rep.measured["energy_increase_max"] == 0.0
        used_dt = dt
        if rep.passed and monotone:
            break
    ok = residual < 1e-3 and monotone
    verdict(5, "Lyapunov identity", ok,
            f"residual {residual:.2e} at dt={used_dt:g}, monotone: {monotone}",
            time.time() - t0, 60.0)


def test_c06_relaxation_rates():
    t0 = time.time()
    grid = TorusGrid(1, 64)
    results = []

    for d1, target in [(1.0, 8 * math.pi**2), (2.0, 16 * math.pi**2)]:
        spec = ModelSpec(d1, d1, Poly2({}), Poly2({}))
        u0 = cos_field(grid, 0.5, 0.1)
        traj = simulate(RunConfig(spec, State(0.0, u0, u0), dt=2e-5, t_end=0.1,
                                  record_every=50))
        rep = fit_decay_rate(traj)
        rel = abs(rep.measured["rate"] - target) / target
        results.append((rel, 0.01, rep.measured["r_squared"]))

    skt = ModelSpec(1.0, 1.5, X + Y, X + Y)
    u0 = cos_field(grid, 0.01, 0.01)
    v0 = Field(grid, np.full(64, 0.01))
    traj = simulate(RunConfig(skt, State(0.0, u0, v0), dt=2e-5, t_end=0.1,
                              record_every=50))
    rep = fit_decay_rate(traj)
    target = 8 * math.pi**2 * min(skt.d1, skt.d2)
    rel = abs(rep.measured["rate"] - target) / target
    results.append((rel, 0.05, rep.measured["r_squared"]))

    ok = all(rel < tol and r2 >= 0.999 for rel, tol, r2 in results)
    detail = ", ".join(f"{rel:.2%} of {tol:.0%}" for rel, tol, _ in results)
    verdict(6, "exponential relaxation rates", ok, detail, time.time() - t0, 60.0)


def test_c07_stability_estimate():
    t0 = time.time()
    grid = TorusGrid(1, 64)

    def config(um, ua, vm, va):
        return RunConfig(
            SKT,
            State(0.0, cos_field(grid, um, ua), cos_field(grid, vm, va)),
            dt=1e-4,
            t_end=0.5,
            record_every=1,
        )

    # both runs advance as one batch; each is bitwise its own single run
    traj1, traj2 = simulate([config(0.10, 0.02, 0.12, 0.03),
                             config(0.13, 0.01, 0.09, 0.015)])
    rep = check_stability_pair(traj1, traj2, SKT, R=1.0, delta=0.3)
    slope_formula = (0.13 - 0.10) ** 2 * (1.0 + SKT.p.eval(1.0, 1.0)) + (
        0.09 - 0.12
    ) ** 2 * (1.0 + SKT.q.eval(1.0, 1.0))
    slope_err = abs(rep.measured["rhs_slope"] - slope_formula)
    tight = check_stability_pair(traj1, traj1, SKT, R=1.0, delta=0.3)
    ok = (
        rep.passed
        and rep.measured["c_delta"] == pytest.approx(0.64, abs=1e-12)
        and slope_err < 1e-6
        and tight.measured["max_ratio"] == 0.0
    )
    verdict(7, "two-trajectory stability", ok,
            f"max ratio {rep.measured['max_ratio']:.4f} <= 1+1e-3, "
            f"slope error {slope_err:.2e}, identical-pair ratio "
            f"{tight.measured['max_ratio']:.1f}",
            time.time() - t0, 60.0)


def test_c08_lambda_bootstrap():
    t0 = time.time()
    half = Poly2({(1, 0): 0.5, (0, 1): 0.5})
    spec = ModelSpec(1.0, 1.0, half, half)
    th = thresholds(spec, 1.0)
    delta_min = th["delta_min"]
    grid = TorusGrid(1, 32)
    x = grid.coords(0)

    def data(scale):
        u = Field(grid, scale * (1.0 + 0.5 * np.cos(2 * np.pi * x)))
        v = Field(grid, scale * (1.0 - 0.5 * np.cos(2 * np.pi * x)))
        return u, v

    target = 0.4 * delta_min
    lo, hi = 1e-4, 0.2
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if smallness_functional(*data(mid), spec, 3.0) < target:
            lo = mid
        else:
            hi = mid
    u0, v0 = data(0.5 * (lo + hi))

    traj = simulate(RunConfig(spec, State(0.0, u0, v0), dt=2e-4, t_end=5.0,
                              record_every=1))
    lam, rep = track_lambda(traj, spec, 3.0, delta=delta_min)
    ok = (
        rep.passed
        and rep.measured["premise_holds"] == 1.0
        and rep.measured["lambda_final"] < delta_min
    )
    verdict(8, "lambda bootstrap to T=5", ok,
            f"lambda(T) {rep.measured['lambda_final']:.4f} < delta_min "
            f"{delta_min:.5f}, smallness {rep.measured['smallness']:.4f}",
            time.time() - t0, 120.0)


def test_c09_counterexample_suite():
    t0 = time.time()
    grid = TorusGrid(1, 4096)
    rep = verify_counterexample(5, grid)
    m = rep.measured

    pair1, pair2 = build_pair(1, grid), build_pair(2, grid)
    dist = lp_norm(pair1.v - pair2.v, 2)
    dist_err = abs(dist - math.sqrt(2.5))
    prods = []
    for pair in (pair1, pair2):
        u, v = pair.u.values, pair.v.values
        prods.append(float(np.max(np.abs(u * (1 + v * v) - 3.0))))
        prods.append(float(np.max(np.abs(v * (1 + u * u) - 3.0))))

    ok = (
        rep.passed
        and m["gram_max_error"] <= 1e-12
        and dist_err <= 1e-9
        and max(prods) <= 1e-12
        and m["quintic_residual_max"] < 1e-10
    )
    verdict(9, "staircase counterexample", ok,
            f"gram {m['gram_max_error']:.1e}, |dist - sqrt(2.5)| {dist_err:.1e}, "
            f"products {max(prods):.1e}, quintic {m['quintic_residual_max']:.1e}",
            time.time() - t0, 10.0)


def test_c10_dyadic_toolbox():
    t0 = time.time()
    grid = TorusGrid(1, 64)
    bern = bernstein_check(grid, m=8, k=2, trials=200)
    decay = heat_decay_check(grid, m=4, p=2, times=[0.0, 1e-4, 1e-3, 1e-2],
                             trials=200)
    seq_eq = block_sequence_check(grid, k=2, trials=200)
    seq_k3 = block_sequence_check(grid, k=3, trials=200)

    worst = 0.0
    times = np.linspace(0.0, 1.0, 501)
    for mode in (1, 2, 3, 4, 5):
        lam = FOUR_PI_SQ * mode * mode
        shape = np.cos(2 * np.pi * mode * grid.coords(0))
        for m_diff in (0.5, 1.0, 2.0, 4.0):
            fields = [
                Field(grid, (1.0 - math.exp(-m_diff * lam * t)) / (m_diff * lam) * shape)
                for t in times
            ]
            worst = max(worst, maxreg_ratio(TimeSeriesField(times, fields),
                                            m=m_diff, k=2))

    ok = (
        bern.passed
        and decay.passed
        and seq_eq.passed
        and seq_eq.measured["max_deviation"] <= 1e-12
        and seq_k3.passed
        and worst <= 10.0
    )
    verdict(10, "frequency-space toolbox", ok,
            f"bernstein {bern.measured['max_ratio']:.2f}, decay "
            f"{decay.measured['max_ratio']:.2f}, block eq "
            f"{seq_eq.measured['max_deviation']:.1e}, maxreg worst of 20: "
            f"{worst:.3f}",
            time.time() - t0, 60.0)


def test_c11_h1_tracker():
    t0 = time.time()
    grid = TorusGrid(1, 32)
    u0 = cos_field(grid, 0.01, 0.01)
    v0 = cos_field(grid, 0.01, 0.01)
    traj = simulate(RunConfig(SKT, State(0.0, u0, v0), dt=2e-4, t_end=5.0,
                              record_every=25))
    _, rep = track_hk(traj, k_sob=1)
    ratio = rep.measured["sup_hk"] / rep.measured["initial_hk"]
    ok = rep.passed and ratio <= 2.0
    verdict(11, "H^1 tracker to T=5", ok,
            f"sup/initial {ratio:.4f} <= 2", time.time() - t0, 60.0)


def test_c12_scheme_cross_validation():
    t0 = time.time()
    grid = TorusGrid(1, 32)
    u0 = cos_field(grid, 0.5, 0.1)
    v0 = cos_field(grid, 0.7, 0.1)

    def endstate(scheme, dt, g=grid, init=None, t_end=0.1):
        st = init if init is not None else State(0.0, u0, v0)
        traj = simulate(RunConfig(SKT, st, dt=dt, t_end=t_end, scheme=scheme,
                                  record_every=10**9))
        s = traj.states[-1]
        return np.concatenate([s.u.values, s.v.values])

    rk = endstate("rk4", 5e-6)
    im = endstate("imex", 5e-7)
    l2 = float(np.sqrt(np.mean((rk - im) ** 2)))

    g8 = TorusGrid(1, 8)
    small = State(0.0, cos_field(g8, 0.5, 0.1), cos_field(g8, 0.7, 0.1))
    ref = endstate("rk4", 4e-6, g=g8, init=small, t_end=0.04)
    orders = {}
    for scheme, expected in (("imex", 1.0), ("rk4", 4.0)):
        errs = [
            np.linalg.norm(endstate(scheme, dt, g=g8, init=small, t_end=0.04) - ref)
            for dt in (8e-5, 4e-5)
        ]
        orders[scheme] = (math.log2(errs[0] / errs[1]), expected)

    ok = l2 < 1e-5 and all(
        abs(order - expected) <= 0.3 * expected
        for order, expected in orders.values()
    )
    verdict(12, "scheme cross-validation", ok,
            f"L2 gap {l2:.2e} < 1e-05, orders imex {orders['imex'][0]:.3f}, "
            f"rk4 {orders['rk4'][0]:.3f}",
            time.time() - t0, 120.0)
