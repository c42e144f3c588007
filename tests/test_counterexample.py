import math

import numpy as np
import pytest

from crossflux.counterexample import (
    build_pair,
    quintic_roots,
    staircase,
    verify_counterexample,
)
from crossflux.errors import DomainError
from crossflux.spaces import lp_norm
from crossflux.spectral import TorusGrid


def quintic(x):
    return x**5 - 3 * x**4 + 2 * x**3 - 6 * x**2 + 10 * x - 3


def test_roots_closed_forms():
    r = quintic_roots()
    assert r.r1 == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-15)
    assert r.r2 == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-15)
    assert r.r1 * r.r2 == pytest.approx(1.0, abs=1e-14)
    assert r.r1 + r.r2 == pytest.approx(3.0, abs=1e-14)
    assert r.r3 == pytest.approx(1.2134116627622296, abs=1e-12)
    for root in (r.r1, r.r2, r.r3):
        assert abs(quintic(root)) < 1e-13
    assert r.r1 < r.r3 < r.r2


def test_staircase_sign_patterns():
    g = TorusGrid(1, 8)
    np.testing.assert_array_equal(
        staircase(1, g).values, [1, 1, -1, -1, 1, 1, -1, -1]
    )
    np.testing.assert_array_equal(
        staircase(2, g).values, [1, -1, 1, -1, 1, -1, 1, -1]
    )
    assert np.mean(staircase(1, g).values) == 0.0
    with pytest.raises(DomainError):
        staircase(3, g)
    with pytest.raises(DomainError):
        staircase(0, g)


def test_staircase_2d_varies_along_first_axis():
    for d in (2, 3):
        h = staircase(1, TorusGrid(d, 8)).values
        # constant along the other axes
        assert np.all(h == h[(slice(None),) + (slice(0, 1),) * (d - 1)])
        np.testing.assert_array_equal(h[(slice(None),) + (0,) * (d - 1)],
                                      [1, 1, -1, -1, 1, 1, -1, -1])


def test_pair_values_and_products():
    g = TorusGrid(1, 256)
    roots = quintic_roots()
    pair = build_pair(3, g)
    assert set(np.round(pair.v.values, 12)) == {
        round(roots.r1, 12),
        round(roots.r2, 12),
    }
    np.testing.assert_allclose(
        pair.u.values, 3.0 / (1.0 + pair.v.values**2), atol=1e-15
    )
    np.testing.assert_allclose(
        pair.u.values * (1.0 + pair.v.values**2), 3.0, atol=1e-13
    )
    np.testing.assert_allclose(
        pair.v.values * (1.0 + pair.u.values**2), 3.0, atol=1e-13
    )


def test_pairwise_distances():
    g = TorusGrid(1, 256)
    roots = quintic_roots()
    target = (roots.r2 - roots.r1) / math.sqrt(2.0)
    assert target == pytest.approx(math.sqrt(2.5), abs=1e-14)
    vs = [build_pair(n, g).v for n in range(1, 6)]
    for a in range(5):
        assert lp_norm(vs[a], 2) == pytest.approx(math.sqrt(3.5), abs=1e-13)
        for b in range(a + 1, 5):
            assert lp_norm(vs[a] - vs[b], 2) == pytest.approx(target, abs=1e-13)


def test_verify_counterexample_1d():
    rep = verify_counterexample(4, TorusGrid(1, 512))
    assert rep.passed
    m = rep.measured
    assert m["gram_max_error"] <= 1e-13
    assert m["distance_max_error"] <= 1e-13
    assert m["flux_h1_max"] <= 1e-10
    assert m["quintic_residual_max"] <= 1e-12
    assert m["sup_bound_excess"] <= 1e-12
    assert m["levels"] == 4.0


def test_verify_counterexample_2d():
    rep = verify_counterexample(2, TorusGrid(2, 32))
    assert rep.passed


def test_verify_counterexample_rejects_unresolved_levels():
    with pytest.raises(DomainError, match="does not fit"):
        verify_counterexample(5, TorusGrid(1, 32))
