import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflux.errors import ConfigError, DomainError
from crossflux.model import (
    CAP,
    ModelSpec,
    Poly1,
    Poly2,
    Poly2Signed,
    X,
    Y,
    bootstrap_delta,
    bootstrap_poly,
    derive_QR,
    excess_flux_polys,
    find_delta_A,
    flux,
    flux_polys,
    lipschitz_LR,
    model_json,
    parse_model_json,
    poly_eval,
    smallness_functional,
    stability_constants,
    thresholds,
)
from crossflux.spectral import Field, TorusGrid, Work, poly_field


def run(calls):
    """Runs (ufunc, arguments) calls in order."""
    for ufunc, args in calls:
        ufunc(*args)


def skt(a=1.0, d1=1.0, d2=1.0):
    p = Poly2({(1, 0): a, (0, 1): a})
    return ModelSpec(d1, d2, p, p)


def test_poly_algebra():
    sq = (X + Y) * (X + Y)
    assert sq.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
    assert (X * X * Y).total_degree() == 3
    assert (X - X).terms == {}
    assert X.partial(0).terms == {(0, 0): 1.0}
    assert X.partial(1).terms == {}


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_poly_product_evaluation(x, y):
    p = X * X + 2.0 * Y
    q = 3.0 * X * Y + Y
    lhs = (p * q).eval(x, y)
    rhs = p.eval(x, y) * q.eval(x, y)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_poly_eval_arrays_matches_scalar(rng):
    p = X * X * Y + 0.5 * Y
    pts = rng.uniform(-2, 2, size=(8, 2))
    vals = p.eval_arrays(pts[:, 0], pts[:, 1])
    for row, v in zip(pts, vals):
        assert v == pytest.approx(p.eval(row[0], row[1]), rel=1e-13)


def test_poly_eval_arrays_is_the_power_form_bitwise(rng):
    # zero and unit exponents take no power, yet every bit is that of
    # sum(c * X**i * Y**j) over the terms
    x, y = rng.uniform(0.0, 2.0, size=(2, 64))
    p = Poly2Signed({(0, 0): 0.3, (1, 0): 1.7, (0, 1): -0.2, (2, 1): 1.1,
                     (1, 3): 0.7, (0, 2): 2.3})
    power_form = np.zeros(64)
    for (i, j), c in p.terms.items():
        power_form += float(c) * x ** i * y ** j
    assert np.array_equal(p.eval_arrays(x, y), power_form)


@pytest.mark.parametrize("terms", [
    {(0, 0): 0.3, (1, 0): 1.0, (2, 1): 1.0, (0, 2): -0.4},
    {(1, 0): 1, (0, 1): 1.0},
    {(0, 0): 1.0, (2, 0): 2.5, (1, 1): 1},
    {(0, 0): -0.7},
    {(1, 1): 1.0},
    {},
    {(1, 3): 0.7, (2, 2): 1.0, (3, 0): 1.5},
], ids=["mixed", "unit-linear", "unit-constant", "constant-only", "unit-product", "zero",
        "powers"])
def test_poly_eval_arrays_skips_unit_factors_bitwise(rng, terms):
    # unit coefficients and constant terms take no multiply, and the sum
    # starts from the first term; in a new array or run into a given one,
    # every bit is that of the power form, and X and Y are left as they were
    x, y = rng.uniform(-2.0, 2.0, size=(2, 3, 40))
    x0, y0 = x.copy(), y.copy()
    p = Poly2Signed(terms)
    power_form = np.zeros(x.shape)
    for (i, j), c in p.terms.items():
        power_form += float(c) * x ** i * y ** j
    assert np.array_equal(p.eval_arrays(x, y), power_form)
    out = np.full(x.shape, np.nan)
    run(p.operations(x, y, out, Work()))
    assert np.array_equal(out, power_form)
    assert np.array_equal(x, x0) and np.array_equal(y, y0)
    # a kept work object hands the same term and power arrays to both runs
    work = Work()
    for _ in range(2):
        run(p.operations(x, y, out, work))
        assert np.array_equal(out, power_form)
    # the first term may be X itself: the result is a copy, not a view
    first = p.eval_arrays(x, y)
    first += 1.0
    assert np.array_equal(x, x0) and np.array_equal(y, y0)


def test_poly_eval_arrays_broadcasts_into_out(rng):
    x = rng.uniform(0.0, 1.0, size=8)
    y = rng.uniform(0.0, 1.0, size=(3, 8))
    p = X + X * Y + 0.5
    out = np.empty((3, 8))
    run(p.operations(x, y, out, Work()))
    assert np.array_equal(out, p.eval_arrays(np.broadcast_to(x, y.shape), y))
    assert np.array_equal(out, p.eval_arrays(x, y))


def test_a_held_term_is_read_not_computed_again(rng):
    # X*(X+Y) leaves X*Y in the array of terms; Y*(X+Y), sharing `held`,
    # starts from Y**2 and adds it: 5 calls where each on its own makes 3,
    # and the bits of each polynomial evaluated on its own
    x, y = rng.uniform(-2.0, 2.0, size=(2, 40))
    polys = (X * (X + Y), Y * (X + Y))
    work, held, rows = Work(), {}, np.full((2, 40), np.nan)
    calls = [op for p, row in zip(polys, rows) for op in p.operations(x, y, row, work, held)]
    assert [len(p.operations(x, y, row, Work())) for p, row in zip(polys, rows)] == [3, 3]
    assert len(calls) == 5
    run(calls)
    for p, row in zip(polys, rows):
        assert np.array_equal(row, p.eval_arrays(x, y))


@pytest.mark.parametrize("seed", range(4))
def test_polynomials_sharing_held_keep_their_bits(seed):
    # random families of polynomials over shared monomials and
    # coefficients, evaluated in turn on one work object and one `held`:
    # fewer calls in all, and each row bitwise its polynomial on its own
    rng = np.random.default_rng(seed)
    monomials = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3), (1, 2)]
    x, y = rng.uniform(-2.0, 2.0, size=(2, 33))
    shared = alone = 0
    for _ in range(40):
        polys = [Poly2Signed({monomials[k]: float(rng.choice([1.0, 0.5, -2.0]))
                              for k in rng.choice(8, size=rng.integers(1, 5), replace=False)})
                 for _ in range(3)]
        work, held, rows = Work(), {}, np.full((3, 33), np.nan)
        calls = [op for p, row in zip(polys, rows) for op in p.operations(x, y, row, work, held)]
        run(calls)
        for p, row in zip(polys, rows):
            assert np.array_equal(row, p.eval_arrays(x, y))
            alone += len(p.operations(x, y, row, Work()))
        shared += len(calls)
    assert shared < alone


def test_poly2_rejects_negative():
    with pytest.raises(DomainError, match="negative"):
        Poly2({(1, 0): -1.0})
    # the signed variant accepts what the coefficient cone rejects
    assert Poly2Signed({(1, 0): -1.0}).eval(2.0, 0.0) == -2.0
    with pytest.raises(DomainError, match="nonnegative integers"):
        Poly2({(-1, 0): 1.0})


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_poly2_rejects_non_finite(c):
    with pytest.raises(DomainError, match="not finite"):
        Poly2({(1, 0): c})


def test_model_spec_validation():
    with pytest.raises(DomainError, match="vanish at the origin"):
        ModelSpec(1.0, 1.0, Poly2({(0, 0): 1.0}), Poly2({}))
    with pytest.raises(DomainError, match="positive"):
        ModelSpec(0.0, 1.0, Poly2({}), Poly2({}))
    with pytest.raises(DomainError, match="positive"):
        ModelSpec(1.0, 1.0, Poly2({}), Poly2({}), eta=-1e-6)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            ModelSpec(bad, 1.0, Poly2({}), Poly2({}))
        with pytest.raises(DomainError, match="finite"):
            ModelSpec(1.0, 1.0, Poly2({}), Poly2({}), trunc_delta=bad)
    with pytest.raises(ConfigError, match="Poly2"):
        ModelSpec(1.0, 1.0, Poly2Signed({(1, 0): -1.0}), Poly2({}))


def test_flux_polys_oracle():
    spec = ModelSpec(1.0, 2.0, X + Y, Poly2({(0, 1): 1.0}))
    f1, f2 = flux_polys(spec)
    assert f1.terms == {(1, 0): 1.0, (2, 0): 1.0, (1, 1): 1.0}
    assert f2.terms == {(0, 1): 2.0, (0, 2): 1.0}


def test_derive_qr_skt():
    q1, r1, q2, r2 = derive_QR(skt())
    assert q1.terms == {(1, 0): 2.0, (0, 1): 1.0}
    assert r1.terms == {(1, 0): 1.0}
    assert q2.terms == {(1, 0): 1.0, (0, 1): 2.0}
    assert r2.terms == {(0, 1): 1.0}


def test_lipschitz_oracle():
    assert lipschitz_LR(skt(), 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert lipschitz_LR(ModelSpec(1.0, 1.0, Poly2({}), Poly2({})), 1.0) == 0.0
    with pytest.raises(DomainError, match="nonnegative"):
        lipschitz_LR(skt(), -0.5)


def test_stability_constants_oracle():
    c, ok = stability_constants(skt(), 1.0, 0.3)
    assert ok
    assert c == pytest.approx(0.64, abs=1e-12)
    c_bad, ok_bad = stability_constants(skt(), 1.0, 0.8)
    assert not ok_bad
    assert c_bad < 0
    with pytest.raises(DomainError, match="delta"):
        stability_constants(skt(), 0.5, 0.8)


def test_find_delta_a():
    assert find_delta_A(skt()) == pytest.approx(0.2475, abs=1e-6)
    assert find_delta_A(skt(a=0.5)) == pytest.approx(0.495, abs=1e-6)
    assert find_delta_A(ModelSpec(1.0, 1.0, Poly2({}), Poly2({}))) == CAP


def test_find_delta_a_is_cached_per_spec():
    # two specs built apart, with their terms in another order, are equal
    # and share one cache entry
    a = ModelSpec(1.25, 0.75, Poly2({(1, 0): 0.5, (0, 2): 0.25}), Poly2({(2, 0): 0.125}))
    b = ModelSpec(1.25, 0.75, Poly2({(0, 2): 0.25, (1, 0): 0.5}), Poly2({(2, 0): 0.125}))
    assert a is not b and a == b
    value = find_delta_A(a)
    info = find_delta_A.cache_info()
    assert find_delta_A(b) == value
    after = find_delta_A.cache_info()
    assert (after.hits, after.currsize) == (info.hits + 1, info.currsize)
    assert value == find_delta_A.__wrapped__(b)


@pytest.mark.parametrize("derived", [flux_polys, excess_flux_polys, derive_QR])
def test_polynomials_derived_from_a_spec_are_made_once_per_spec(derived):
    a = ModelSpec(1.25, 0.75, Poly2({(1, 0): 0.5, (0, 2): 0.25}), Poly2({(2, 0): 0.125}))
    b = ModelSpec(1.25, 0.75, Poly2({(0, 2): 0.25, (1, 0): 0.5}), Poly2({(2, 0): 0.125}))
    value = derived(a)
    assert derived(b) is value
    assert value == derived.__wrapped__(b)


def test_bootstrap_poly_and_delta():
    P = bootstrap_poly(skt())
    assert P.terms == {2: 8.0}
    assert bootstrap_delta(P) == pytest.approx(0.99 / 16.0, abs=1e-9)
    assert bootstrap_delta(Poly1({2: 1.0})) == pytest.approx(0.495, abs=1e-9)
    assert bootstrap_delta(Poly1({3: 1.0})) == pytest.approx(
        0.99 / math.sqrt(2.0), abs=1e-9
    )
    assert bootstrap_delta(Poly1({})) == CAP


def test_thresholds_frozen():
    th = thresholds(skt(a=0.5), R=1.0)
    assert th["delta_A"] == pytest.approx(0.495, abs=1e-6)
    assert th["delta_stability"] == pytest.approx(1.0, abs=1e-9)
    assert th["delta_bootstrap"] == pytest.approx(0.12375, abs=1e-9)
    assert th["delta_min"] == pytest.approx(0.12375, abs=1e-9)


def test_poly_eval_and_flux(grid32, cosine):
    u = cosine(grid32, mean=0.5, amp=0.1)
    v = cosine(grid32, mean=0.4, amp=0.1)
    pv = poly_eval(X + Y, u, v)
    np.testing.assert_allclose(pv.values, u.values + v.values, atol=1e-14)
    f1, f2 = flux(skt(), u, v)
    exact1 = u.values * (1.0 + u.values + v.values)
    # cubic products of low modes stay inside the dealiased band
    np.testing.assert_allclose(f1.values, exact1, atol=1e-12)
    np.testing.assert_allclose(
        f2.values, v.values * (1.0 + u.values + v.values), atol=1e-12
    )


def test_flux_of_unequal_degrees_matches_poly_field(rng):
    # p = Y^2 and q = X give fluxes of degree 3 and 2; flux evaluates both
    # on the cubic's fine grid, poly_field each on its own
    spec = ModelSpec(1.0, 0.5, Y * Y, X)
    for g in (TorusGrid(1, 16), TorusGrid(2, 8)):
        u = Field(g, rng.standard_normal(g.shape))
        v = Field(g, rng.standard_normal(g.shape))
        for got, poly in zip(flux(spec, u, v), flux_polys(spec)):
            np.testing.assert_allclose(got.values, poly_field(poly, u, v).values,
                                       rtol=0, atol=1e-14)


def test_smallness_closed_form(grid64, cosine):
    # p = q = 0: the flux is d*u, so the functional reduces to
    # sup u + sup v + 2 * N_2 of d * lap(0.1 cos); cell centers miss
    # x = 0, so the grid sup of the cosine is cos(pi/N)
    spec = ModelSpec(1.0, 1.0, Poly2({}), Poly2({}))
    u = cosine(grid64, mean=0.5, amp=0.1)
    s = smallness_functional(u, u, spec, 2.0)
    sup = 0.5 + 0.1 * math.cos(math.pi / 64)
    assert s == pytest.approx(2.0 * sup + 0.2 * math.pi, abs=1e-5)
    with pytest.raises(DomainError, match="nonnegative"):
        smallness_functional(cosine(grid64, mean=0.0, amp=1.0), u, spec, 2.0)
    with pytest.warns(UserWarning, match="k >"):
        smallness_functional(u, u, spec, 1.2)


@pytest.mark.parametrize("evaluate", [
    lambda u, v: flux(skt(), u, v),
    lambda u, v: poly_field(X * Y, u, v),
    lambda u, v: poly_eval(X * Y, u, v),
    lambda u, v: smallness_functional(u, v, skt(), 3.0),
], ids=["flux", "poly_field", "poly_eval", "smallness_functional"])
def test_fields_on_different_grids_are_refused(grid32, grid64, evaluate):
    with pytest.raises(ConfigError, match="different grids"):
        evaluate(Field(grid32, np.full(32, 0.5)), Field(grid64, np.full(64, 0.5)))


def test_model_json_round_trip():
    grid = TorusGrid(2, 16)
    spec = ModelSpec(1.0, 2.5, X + 2.0 * Y, Poly2({(2, 0): 0.5}), eta=1e-4)
    g2, s2 = parse_model_json(model_json(grid, spec))
    assert g2 == grid
    assert s2.p == spec.p and s2.q == spec.q
    assert s2.d1 == spec.d1 and s2.d2 == spec.d2 and s2.eta == spec.eta
    with pytest.raises(ConfigError, match="missing key"):
        parse_model_json({"d": 1, "N": 32})
    with pytest.raises(ConfigError, match="model description"):
        parse_model_json([1, 2])
