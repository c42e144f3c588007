"""Closed-form oracles for the norms and the dyadic toolbox."""

import math

import numpy as np
import pytest

from crossflux.errors import ConfigError, DomainError
from crossflux.spaces import (
    FINE_BATCH_POINTS,
    REGRESSION_CONSTANTS,
    TimeSeriesField,
    bernstein_check,
    besov_Nk,
    block_sequence_check,
    block_sequence_norm,
    dyadic_blocks,
    heat_decay_check,
    interp_linear,
    lp_norm,
    maxreg_ratio,
    mean,
    random_band_field,
    sobolev_norm,
    spacetime_lk,
)
from crossflux.spectral import FOUR_PI_SQ, Field, TorusGrid, laplacian, spectral_plan


def test_lebesgue_oracles(grid64, cosine):
    f = cosine(grid64)
    # cos^2 and cos^4 integrate exactly on the centered grid
    assert lp_norm(f, 2) == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert lp_norm(f, 4) == pytest.approx((3.0 / 8.0) ** 0.25, abs=1e-14)
    assert lp_norm(f, math.inf) == np.max(np.abs(f.values))
    assert lp_norm(f, 1) == pytest.approx(2.0 / math.pi, abs=1e-3)
    with pytest.raises(DomainError, match="p >= 1"):
        lp_norm(f, 0.5)


def test_lp_norm_refuses_a_nan_exponent(grid64, cosine):
    with pytest.raises(DomainError, match="p >= 1, got nan"):
        lp_norm(cosine(grid64), math.nan)


def test_lp_norm_at_a_large_exponent_lies_between_its_bounds():
    # (mean |f|^p)^(1/p) lies in [N^(-1/p) max|f|, max|f|]; at these p the
    # mean of |f|^p underflows to 0 (small f) or overflows to inf (f > 1)
    # unless it is taken of |f| / max|f|
    grid = TorusGrid(1, 32)
    shape = 0.5 + 0.3 * np.cos(2 * np.pi * grid.coords(0))
    for scale in (1e-3, 1.0, 2.0):
        f = Field(grid, scale * shape)
        top = float(np.max(np.abs(f.values)))
        for p in (700.0, 1e4, 1e6):
            value = lp_norm(f, p)
            assert 32.0 ** (-1.0 / p) * top <= value <= top, (scale, p)


def test_mean_is_exact(rng, grid64):
    f = Field(grid64, rng.standard_normal(64))
    assert mean(f) == pytest.approx(np.mean(f.values), abs=0)


def test_sobolev_oracles(grid64, cosine):
    f = cosine(grid64)
    w = 1.0 + FOUR_PI_SQ
    assert sobolev_norm(f, 0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert sobolev_norm(f, 1) == pytest.approx(math.sqrt(0.5 * w), rel=1e-12)
    assert sobolev_norm(f, -1) == pytest.approx(math.sqrt(0.5 / w), rel=1e-12)
    const = Field(grid64, np.full(64, 1.7))
    for s in (-2.0, 0.0, 3.0):
        assert sobolev_norm(const, s) == pytest.approx(1.7, rel=1e-14)


def test_a_zero_coefficient_adds_zero_to_the_sobolev_norm(rng):
    # at s >= 80 the weights of the top modes of 1-d N=32 overflow to inf,
    # and inf times a zero coefficient must not make the norm NaN
    grid = TorusGrid(1, 32)
    const = Field(grid, np.full(32, 0.7))
    assert sobolev_norm(const, 100) == sobolev_norm(const, 0) == 0.7
    # where no weight overflows, the norm is the plain Parseval sum bitwise:
    # |c|^2 (weighted 1 on columns 0 and N/2, 2 elsewhere) times the weight
    # (1 + lam)^s, or divided by (1 + lam)^-s for s < 0
    f = Field(grid, rng.standard_normal(32))
    plan = spectral_plan(grid, 32)
    density = np.where(np.arange(17) % 16 == 0, 1.0, 2.0) * np.abs(plan.to_coeffs(f.values)) ** 2
    for s in (-1.0, 0.0, 0.5, 3.0):
        weight = (1.0 + plan.lam) ** abs(s)
        terms = density / weight if s < 0 else density * weight
        assert sobolev_norm(f, s) == float(np.sqrt(np.sum(terms)))


def test_sobolev_norm_refuses_a_non_finite_exponent(grid64, cosine):
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="must be finite"):
            sobolev_norm(cosine(grid64), s)


def test_besov_cosine_closed_forms(grid64, cosine):
    f = cosine(grid64)
    assert besov_Nk(f, 2) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-7)
    n4 = (3.0 / (128.0 * math.pi**2)) ** 0.25
    assert besov_Nk(f, 4) == pytest.approx(n4, abs=1e-6)


def test_besov_scaling_and_domain(grid64, cosine):
    f = cosine(grid64)
    assert besov_Nk(3.0 * f, 2) == pytest.approx(3.0 * besov_Nk(f, 2), rel=1e-9)
    with pytest.raises(DomainError, match="mean"):
        besov_Nk(cosine(grid64, mean=0.2), 2)
    with pytest.raises(DomainError, match="exponent"):
        besov_Nk(f, 1.0)
    with pytest.raises(DomainError, match="exponent"):
        besov_Nk(f, math.inf)


def test_besov_heat_contraction(rng, grid64):
    from crossflux.spectral import heat_propagate

    f = random_band_field(grid64, 1, 16, rng)
    assert besov_Nk(heat_propagate(f, 1e-3), 2) <= besov_Nk(f, 2) * (1 + 1e-9)


def test_besov_blocks_match_node_by_node_quadrature_bitwise(rng):
    # the quadrature as evaluated one node at a time, one inverse
    # transform per node; it also reports why and after how many
    # segments it stopped
    def reference(field, k, tol):
        g = field.grid
        plan = spectral_plan(g, g.N)
        coeffs = plan.to_coeffs(field.values)
        nodes, weights = np.polynomial.legendre.leggauss(5)

        def integrand(t):
            vals = plan.to_values(coeffs * np.exp(-plan.lam * t))
            return float(np.mean(np.abs(vals) ** k))

        def segment(a, b):
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            return half * sum(w * integrand(mid + half * x)
                              for x, w in zip(nodes, weights))

        acc = segment(0.0, 1e-6)
        t = 1e-6
        tail = 0.0
        stop = "limit"
        for n in range(1, 2001):
            acc += segment(t, t * 1.15)
            t *= 1.15
            right = integrand(t)
            tail = right / (FOUR_PI_SQ * k)
            if right == 0.0:
                tail, stop = 0.0, "zero"
                break
            if tail < tol * (acc + tail):
                stop = "tol"
                break
        return float((acc + tail) ** (1.0 / k)), stop, n

    for d, N in ((1, 32), (1, 256), (2, 16), (2, 64)):
        g = TorusGrid(d, N)
        vals = rng.standard_normal(g.shape)
        f = Field(g, vals - vals.mean())
        for k in (1.5, 3.0, 4.0):
            for tol in (1e-4, 1e-8, 1e-12):
                value, stop, segments = reference(f, k, tol)
                assert stop == "tol"
                assert besov_Nk(f, k, tol) == value
        if (d, N) == (2, 64):
            # a block of 2-d N=64 segments fills the point budget early
            assert segments > FINE_BATCH_POINTS // (6 * g.size)
    # the alternating field has no mean coefficient at all, so its
    # integrand underflows to zero before a tiny tolerance is met
    g = TorusGrid(1, 256)
    alt = Field(g, np.where(np.arange(256) % 2, -1.0, 1.0))
    for k in (1.5, 4.0):
        value, stop, segments = reference(alt, k, 1e-300)
        assert stop == "zero" and segments > 32  # past a first block of 32
        assert besov_Nk(alt, k, 1e-300) == value


def test_besov_of_zero_field_is_zero():
    for g in (TorusGrid(1, 32), TorusGrid(2, 16)):
        for k in (1.5, 4.0):
            assert besov_Nk(Field(g, np.zeros(g.shape)), k) == 0.0


def test_besov_refuses_a_nan_tolerance():
    # `tol <= 0` let NaN through; every stop test then failed quietly
    g = TorusGrid(1, 32)
    f = Field(g, np.cos(2.0 * math.pi * g.coords(0)))
    with pytest.raises(DomainError, match="tolerance must be positive, got nan"):
        besov_Nk(f, 3.0, tol=math.nan)


def test_besov_tiny_tolerance_stops_where_every_mode_has_underflowed():
    # the mean coefficient of cos(2 pi 100 x) is roundoff, not zero, and
    # never decays; a tiny tol once integrated it out to t ~ 1e115
    g = TorusGrid(1, 256)
    f = Field(g, np.cos(2.0 * math.pi * 100 * g.coords(0)))
    value = besov_Nk(f, 4, 1e-8)
    assert value == pytest.approx((3.0 / 8.0 / (4 * FOUR_PI_SQ * 100 ** 2)) ** 0.25, rel=1e-9)
    for tol in (1e-100, 1e-300):
        assert besov_Nk(f, 4, tol) == pytest.approx(value, rel=1e-9)


def test_spacetime_norm_closed_form(grid32):
    times = np.linspace(0.0, 1.0, 401)
    ones = np.ones(32)
    series = TimeSeriesField(times, [Field(grid32, math.exp(-t) * ones) for t in times])
    exact = math.sqrt((1.0 - math.exp(-2.0)) / 2.0)
    assert spacetime_lk(series, 2) == pytest.approx(exact, abs=1e-4)
    with pytest.raises(DomainError, match="exponent"):
        spacetime_lk(series, math.inf)


def test_time_series_validation(grid32):
    f = Field(grid32, np.zeros(32))
    with pytest.raises(ConfigError, match="increasing"):
        TimeSeriesField(np.array([0.0, 0.0]), [f, f])
    with pytest.raises(ConfigError, match="matching lengths"):
        TimeSeriesField(np.array([0.0]), [f, f])


def test_time_series_from_stack_or_fields(rng):
    # a stack and the list of its fields give one series; the grid comes
    # from the stack's shape
    for g in (TorusGrid(1, 16), TorusGrid(2, 8)):
        stack = rng.standard_normal((3,) + g.shape)
        times = np.array([0.0, 0.5, 1.0])
        a = TimeSeriesField(times, stack)
        b = TimeSeriesField(times, [Field(g, x) for x in stack])
        assert a.grid == b.grid == g
        assert len(a) == len(b) == 3
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.times, b.times)


def test_interp_linear_at_an_array_of_times_is_each_scalar_call(rng):
    # times at and outside either end, and a one-sample series
    for T in (1, 2, 5):
        times = np.cumsum(rng.uniform(0.1, 1.0, T))
        stack = rng.standard_normal((T, 4, 4))
        ts = np.concatenate([[times[0] - 1.0, times[0], times[-1], times[-1] + 1.0], times,
                             rng.uniform(times[0] - 0.5, times[-1] + 0.5, 20)])
        loop = np.stack([interp_linear(stack, times, float(t)) for t in ts])
        assert np.array_equal(interp_linear(stack, times, ts), loop)


def test_time_series_rejects_bad_stacks(grid32):
    times = np.array([0.0, 1.0])
    with pytest.raises(ConfigError, match="one grid"):
        TimeSeriesField(times, [Field(grid32, np.zeros(32)),
                                Field(TorusGrid(1, 16), np.zeros(16))])
    bad = np.zeros((2, 32))
    bad[1, 3] = np.nan
    with pytest.raises(DomainError, match="finite"):
        TimeSeriesField(times, bad)
    for shape in ((2,), (2, 32, 16), (2, 12), (2, 2, 2, 2)):
        with pytest.raises(ConfigError):
            TimeSeriesField(times, np.zeros(shape))


def test_dyadic_reconstruction(rng, grid64):
    f = Field(grid64, rng.standard_normal(64))
    total = np.full(64, np.mean(f.values))
    for block in dyadic_blocks(f):
        total = total + block.values
    np.testing.assert_allclose(total, f.values, atol=1e-12)


def test_dyadic_block_supports(grid64, cosine):
    f = cosine(grid64, mode=1) + cosine(grid64, mode=5)
    blocks = dyadic_blocks(f)
    l2 = [lp_norm(b, 2) for b in blocks]
    # mode 1 lands in block 0, mode 5 in block 2, everything else empty
    assert l2[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert l2[2] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    for j, v in enumerate(l2):
        if j not in (0, 2):
            assert v < 1e-13


def test_block_sequence_norm(rng, grid64):
    f = Field(grid64, rng.standard_normal(64))
    centered = f - float(np.mean(f.values))
    assert block_sequence_norm(f, 2) == pytest.approx(lp_norm(centered, 2), rel=1e-12)
    assert block_sequence_norm(f, 4) <= block_sequence_norm(f, 2) * (1 + 1e-12)


def test_random_band_field_support(rng, grid64):
    f = random_band_field(grid64, 4, 8, rng)
    assert abs(mean(f)) < 1e-14
    plan = spectral_plan(grid64, 64)
    coeffs = plan.to_coeffs(f.values)
    outside = (plan.xi_sq < 16.0) | (plan.xi_sq >= 64.0)
    assert np.max(np.abs(coeffs[outside])) < 1e-14
    assert lp_norm(f, 2) > 0


def test_bernstein_check(grid64):
    rep = bernstein_check(grid64, m=8, k=2, trials=50)
    assert rep.passed
    assert rep.measured["trials"] == 50
    assert 0 < rep.measured["max_ratio"] <= REGRESSION_CONSTANTS["bernstein"]
    with pytest.raises(DomainError, match="not resolved"):
        bernstein_check(grid64, m=20, k=2)


def test_bernstein_check_refuses_a_nan_exponent(grid64):
    # a NaN ratio would lose every max() and pass the check at 0.0
    with pytest.raises(DomainError, match="p >= 1"):
        bernstein_check(grid64, m=2, k=math.nan, trials=5)


def test_heat_decay_check(grid64):
    rep = heat_decay_check(grid64, m=4, p=2, times=[0.0, 1e-4, 1e-3], trials=50)
    assert rep.passed
    assert rep.measured["max_ratio"] <= REGRESSION_CONSTANTS["heat_decay"]
    with pytest.raises(DomainError, match="nonnegative"):
        heat_decay_check(grid64, m=4, p=2, times=[-1.0])


@pytest.mark.parametrize("d, N, p, times", [
    (1, 32, 2, [0.0, 1.0]), (1, 32, 2, [0.0, 1e-2, math.inf]), (2, 16, 3, [0.0, 0.5, 1.0])],
    ids=["1d-t1", "1d-t-inf", "2d-t1"])
def test_heat_decay_check_holds_once_the_annulus_decays_below_roundoff(d, N, p, times):
    # at t = 1 the annulus m = 2 has decayed by exp(-158), below the
    # roundoff that its samples carry at the mean and at |xi| = 1, which
    # decays at most as exp(-39.5): propagated with it, that roundoff gave
    # max_ratio 6.5e51, and t = inf gave inf
    rep = heat_decay_check(TorusGrid(d, N), 2, p, times, trials=3)
    assert rep.passed and math.isfinite(rep.measured["max_ratio"])
    assert rep.measured["max_ratio"] <= REGRESSION_CONSTANTS["heat_decay"]


def test_heat_decay_check_refuses_nan_times(grid64):
    # `times < 0` let NaN through to heat_propagate
    with pytest.raises(DomainError, match="nonnegative numbers, got"):
        heat_decay_check(grid64, m=4, p=2, times=[0.0, math.nan], trials=2)


@pytest.mark.parametrize("check", [
    lambda g: heat_decay_check(g, 2, 2, [0.0, 0.1], trials=0),
    lambda g: heat_decay_check(g, 2, 2, [0.0, 0.1], trials=-3),
    lambda g: heat_decay_check(g, 2, 2, []),
    lambda g: bernstein_check(g, 2, 2, trials=0),
    lambda g: block_sequence_check(g, 3, trials=0),
    lambda g: block_sequence_check(g, 3, trials=-2),
    lambda g: block_sequence_check(g, 2, trials=2.5),
], ids=["no-trials", "negative-trials", "no-times", "bernstein-no-trials",
        "block-sequence-no-trials", "block-sequence-negative-trials",
        "block-sequence-fractional-trials"])
def test_checks_refuse_inputs_under_which_they_check_nothing(grid64, check):
    # each of these returned passed=True with max_ratio 0.0
    with pytest.raises(DomainError, match="trials must be a positive integer|nonnegative numbers"):
        check(grid64)


def test_block_sequence_check(grid64):
    rep = block_sequence_check(grid64, k=2, trials=50)
    assert rep.passed
    assert rep.measured["max_deviation"] <= 1e-12
    rep3 = block_sequence_check(grid64, k=3, trials=50)
    assert rep3.passed
    assert rep3.measured["max_ratio"] <= REGRESSION_CONSTANTS["block_sequence"]


def test_stacked_norms_match_field_loop(rng):
    # the stack reductions against per-field loops: the Laplacian and the
    # one-sided and central time differences of each sample, and the
    # trapezoid rule over per-sample norms
    times = np.linspace(0.0, 0.3, 31)
    h = times[1]
    for g in (TorusGrid(1, 32), TorusGrid(2, 16)):
        base = random_band_field(g, 1, 6, rng)
        fields = [Field(g, t * (1.0 + t) * base.values) for t in times]
        laps = [laplacian(f) for f in fields]
        dphi = ([(-3.0 * fields[0] + 4.0 * fields[1] - fields[2]) * (0.5 / h)]
                + [(fields[i + 1] - fields[i - 1]) * (0.5 / h)
                   for i in range(1, len(fields) - 1)]
                + [(3.0 * fields[-1] - 4.0 * fields[-2] + fields[-3]) * (0.5 / h)])
        resid = [d - 1.5 * lap for d, lap in zip(dphi, laps)]

        def loop_lk(series, k):
            vals = np.array([lp_norm(f, k) ** k for f in series])
            w = np.diff(times)
            return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * w) ** (1.0 / k))

        for k in (1.0, 2.0, 3.5):
            assert spacetime_lk(TimeSeriesField(times, fields), k) == pytest.approx(
                loop_lk(fields, k), rel=1e-14)
            assert maxreg_ratio(TimeSeriesField(times, fields), 1.5, k) == pytest.approx(
                1.5 * loop_lk(laps, k) / loop_lk(resid, k), rel=1e-14)


def test_maxreg_ratio_closed_form(grid64, cosine):
    lam = FOUR_PI_SQ
    times = np.linspace(0.0, 1.0, 2001)
    shape = np.cos(2 * np.pi * grid64.coords(0))
    fields = [
        Field(grid64, (1.0 - math.exp(-lam * t)) / lam * shape) for t in times
    ]
    ratio = maxreg_ratio(TimeSeriesField(times, fields), m=1.0, k=2)
    exact = math.sqrt(
        1.0
        - 2.0 * (1.0 - math.exp(-lam)) / lam
        + (1.0 - math.exp(-2.0 * lam)) / (2.0 * lam)
    )
    assert ratio == pytest.approx(exact, abs=2e-3)
    assert ratio <= REGRESSION_CONSTANTS["maxreg"]


def test_maxreg_domain(grid64, cosine):
    f0 = cosine(grid64)
    zero = Field(grid64, np.zeros(64))
    times = np.array([0.0, 0.5, 1.0])
    with pytest.raises(DomainError, match="vanish at the initial time"):
        maxreg_ratio(TimeSeriesField(times, [f0, f0, f0]), 1.0, 2)
    with pytest.raises(DomainError, match="uniform"):
        maxreg_ratio(
            TimeSeriesField(np.array([0.0, 0.2, 1.0]), [zero, f0, f0]), 1.0, 2
        )
    with pytest.raises(DomainError, match="positive"):
        maxreg_ratio(TimeSeriesField(times, [zero, f0, f0]), 0.0, 2)
