"""Transform conventions and exactness of the band-limited operations."""

import math

import numpy as np
import pytest

from crossflux.errors import ConfigError, DomainError
from crossflux.model import X, Y
from crossflux.spectral import (
    FOUR_PI_SQ,
    Field,
    Mollifier,
    SpectralField,
    TorusGrid,
    dealias_size,
    heat_propagate,
    inverse,
    laplacian,
    mollify,
    poly_field,
    resample,
    transform,
)


def test_grid_validation():
    with pytest.raises(ConfigError, match="d must be 1 or 2"):
        TorusGrid(3, 64)
    with pytest.raises(ConfigError, match="power of two"):
        TorusGrid(1, 48)
    with pytest.raises(ConfigError, match="power of two"):
        TorusGrid(1, 4)
    g = TorusGrid(2, 16)
    assert g.shape == (16, 16)
    assert g.size == 256


def test_cell_centers(grid64):
    x = grid64.coords(0)
    assert x[0] == pytest.approx(0.5 / 64, abs=0)
    assert np.all(np.diff(x) == pytest.approx(1.0 / 64))
    assert x[-1] < 1.0


def test_cosine_coefficients(grid64, cosine):
    c = transform(cosine(grid64, mode=3))
    assert abs(c.get(3) - 0.5) < 1e-14
    assert abs(c.get(-3) - 0.5) < 1e-14
    assert abs(c.get(0)) < 1e-14
    s = transform(Field(grid64, np.sin(2 * np.pi * grid64.coords(0))))
    assert abs(s.get(1) + 0.5j) < 1e-14
    assert abs(s.get(-1) - 0.5j) < 1e-14


def test_coefficients_2d(grid2d):
    x0 = grid2d.coords(0)
    x1 = grid2d.coords(1)
    f = Field(grid2d, np.cos(2 * np.pi * x0) * np.cos(2 * np.pi * x1))
    c = transform(f)
    for xi in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert abs(c.get(xi) - 0.25) < 1e-14
    with pytest.raises(DomainError, match="pairs"):
        c.get(1)


def test_get_out_of_band(grid32):
    c = transform(Field(grid32, np.zeros(32)))
    with pytest.raises(DomainError, match="outside"):
        c.get(17)


def test_round_trip(rng, grid64, grid2d):
    for g in (grid64, grid2d):
        f = Field(g, rng.standard_normal(g.shape))
        back = inverse(transform(f))
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)


def test_parseval(rng, grid64):
    f = Field(grid64, rng.standard_normal(64))
    c = transform(f).coeffs
    assert np.mean(f.values**2) == pytest.approx(np.sum(np.abs(c) ** 2), rel=1e-12)


def test_inverse_rejects_non_hermitian(grid32):
    coeffs = np.zeros(32, dtype=complex)
    coeffs[1] = 1.0  # no matching conjugate slot at -1
    with pytest.raises(DomainError, match="Hermitian"):
        inverse(SpectralField(grid32, coeffs))


def test_laplacian_eigenvalue(grid64, cosine):
    f = cosine(grid64, mode=2)
    lf = laplacian(f)
    np.testing.assert_allclose(lf.values, -FOUR_PI_SQ * 4 * f.values, rtol=1e-12)


def test_heat_propagate_closed_form(grid64, cosine):
    f = cosine(grid64, mean=0.3, amp=0.7, mode=2)
    t = 0.01
    out = heat_propagate(f, t)
    decay = math.exp(-FOUR_PI_SQ * 4 * t)
    exact = 0.3 + 0.7 * decay * np.cos(4 * np.pi * grid64.coords(0))
    np.testing.assert_allclose(out.values, exact, atol=1e-13)
    with pytest.raises(DomainError, match="nonnegative"):
        heat_propagate(f, -1.0)
    with pytest.raises(DomainError, match="positive"):
        heat_propagate(f, 1.0, m=0.0)


def test_resample_evaluates_interpolant(grid32):
    f = Field(grid32, np.cos(2 * np.pi * grid32.coords(0)))
    fine = resample(f, 128)
    x_fine = (np.arange(128) + 0.5) / 128
    np.testing.assert_allclose(fine, np.cos(2 * np.pi * x_fine), atol=1e-13)
    with pytest.raises(ConfigError, match="even integer"):
        resample(f, 31)
    with pytest.raises(ConfigError, match="even integer"):
        resample(f, 16)


def test_resample_preserves_mean(rng, grid32):
    f = Field(grid32, rng.standard_normal(32))
    fine = resample(f, 96)
    assert np.mean(fine) == pytest.approx(np.mean(f.values), abs=1e-13)


def test_pad_project_round_trip_with_nyquist(rng):
    # white data occupies the unpaired slot; identity evaluation must
    # survive the padded round trip bit-for-bit up to roundoff
    for g in (TorusGrid(1, 16), TorusGrid(2, 8)):
        f = Field(g, rng.standard_normal(g.shape))
        for pad in (2, 1.5):
            back = poly_field(X, f, f, pad=pad)
            np.testing.assert_allclose(back.values, f.values, atol=1e-12)


def test_default_padding_dealiases_exactly(rng):
    # random full-band data, Nyquist slot included: the default grid must
    # reproduce the generously padded product, for even and odd degree
    assert dealias_size(64, 2) == 96
    for g in (TorusGrid(1, 16), TorusGrid(2, 8)):
        u = Field(g, rng.standard_normal(g.shape))
        v = Field(g, rng.standard_normal(g.shape))
        for p in (X * Y, X * X * Y):
            np.testing.assert_allclose(poly_field(p, u, v).values,
                                       poly_field(p, u, v, pad=4).values, atol=1e-13)


def test_poly_field_dealiased_product(grid64, cosine):
    # product of two resolved cosines: bandwidth 5 fits after padding
    u = cosine(grid64, mode=2)
    v = cosine(grid64, mode=3)
    prod = poly_field(X * Y, u, v)
    np.testing.assert_allclose(prod.values, u.values * v.values, atol=1e-12)


def test_mollify_mean_and_consistency(rng, grid32):
    f = Field(grid32, rng.standard_normal(32))
    for eta in (1e-3, 1e-5):
        mf = mollify(f, eta)
        assert np.mean(mf.values) == pytest.approx(np.mean(f.values), abs=1e-13)
        np.testing.assert_allclose(
            Mollifier(eta).apply(f).values, mf.values, atol=1e-14
        )
    with pytest.raises(DomainError, match="positive"):
        mollify(f, 0.0)


def test_mollify_damps_high_modes(grid64, cosine):
    f = cosine(grid64, mode=16)
    mf = mollify(f, 1e-3)
    assert np.max(np.abs(mf.values)) < np.max(np.abs(f.values))


def test_field_arithmetic(grid32, grid64):
    a = Field(grid32, np.ones(32))
    b = Field(grid32, np.full(32, 2.0))
    np.testing.assert_array_equal((a + b).values, 3.0)
    np.testing.assert_array_equal((a - b).values, -1.0)
    np.testing.assert_array_equal((2.0 * b).values, 4.0)
    np.testing.assert_array_equal((b / 2.0).values, 1.0)
    np.testing.assert_array_equal((-a).values, -1.0)
    c = Field(grid64, np.ones(64))
    with pytest.raises(ConfigError, match="different grids"):
        a + c


def test_field_rejects_bad_values(grid32):
    with pytest.raises(DomainError, match="finite"):
        Field(grid32, np.full(32, np.nan))
    with pytest.raises(ConfigError):
        Field(grid32, np.ones(16))
