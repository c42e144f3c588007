"""Transform conventions and exactness of the band-limited operations."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflux import spectral
from crossflux.errors import ConfigError, DomainError
from crossflux.model import X, Y, Poly2Signed
from crossflux.spectral import (
    FOUR_PI_SQ,
    _forward,
    _inverse,
    Field,
    SpectralField,
    TorusGrid,
    dealias_size,
    heat_propagate,
    inverse,
    laplacian,
    mollify,
    poly_field,
    poly_plan,
    spectral_plan,
    transform,
)


def run(calls, result):
    """Runs (function, arguments) calls in order; gives result."""
    for f, args in calls:
        f(*args)
    return result


def padded_poly(p, u, v, M):
    """p(u, v) evaluated on the M-point grid and projected back."""
    plan = spectral_plan(u.grid, M)
    (c,) = plan.poly_coeffs((p,), plan.to_coeffs(np.stack([u.values, v.values])))
    return Field(u.grid, plan.to_values(c))


def test_grid_validation():
    with pytest.raises(ConfigError, match="d must be 1, 2 or 3"):
        TorusGrid(4, 64)
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
    with pytest.raises(DomainError, match="pairs"):
        c.get((1, 2, 3))


def test_get_out_of_band(grid32):
    c = transform(Field(grid32, np.zeros(32)))
    with pytest.raises(DomainError, match="outside"):
        c.get(17)
    for xi in (1.5, -0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="not integral"):
            c.get(xi)


def test_round_trip(rng, grid64, grid2d):
    for g in (grid64, grid2d):
        f = Field(g, rng.standard_normal(g.shape))
        back = inverse(transform(f))
        np.testing.assert_allclose(back.values, f.values, atol=1e-13)


def test_parseval(rng, grid64, grid2d):
    f = Field(grid64, rng.standard_normal(64))
    c = transform(f)
    power = sum(abs(c.get(xi)) ** 2 for xi in range(-31, 33))
    assert np.mean(f.values**2) == pytest.approx(power, rel=1e-12)
    for g in (grid64, grid2d):
        plan = spectral_plan(g, g.N)
        vals = rng.standard_normal(g.shape)
        total = plan.parseval(plan.to_coeffs(vals), np.ones(plan.lam.shape))
        assert total == pytest.approx(np.mean(vals**2), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(grid=st.sampled_from([(1, 8), (1, 32), (1, 64), (2, 8), (2, 16), (2, 32), (3, 8)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_parseval_is_the_full_frequency_sum(grid, seed):
    # sum of base(xi)^s |c(xi)|^2 over the N^d frequencies -N/2 < xi_i <= N/2
    # (-N/2 and +N/2 name one slot), each coefficient read by
    # SpectralField.get; a base with zeros only at s >= 0
    g = TorusGrid(*grid)
    N = g.N
    plan = spectral_plan(g, N)
    vals = np.random.default_rng(seed).standard_normal((2,) + g.shape)
    coeffs = plan.to_coeffs(vals)
    xis = list(itertools.product(range(-N // 2 + 1, N // 2 + 1), repeat=g.d))
    lam = FOUR_PI_SQ * np.array([sum(x * x for x in xi) for xi in xis], dtype=float)
    sq = np.array([[abs(SpectralField(g, c).get(xi)) ** 2 for xi in xis] for c in coeffs])
    cases = [(plan.lam + 1.0, lam + 1.0, (-1.0, 0.0, 1.0, 2.5)),
             (np.where(plan.lam > 0, plan.lam, 1.0), np.where(lam > 0, lam, 1.0),
              (-1.0, 0.0, 1.0, 2.5)),
             (plan.lam, lam, (0.0, 1.0, 2.5))]
    for base, full, exponents in cases:
        for s in exponents:
            got = plan.parseval(coeffs, base, s)
            want = (full ** s * sq).sum(axis=1)
            assert got.shape == (2,)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_plan_derivative(grid2d):
    # d/dx of cos(6 pi x); the sine-type -N/2 mode (-1)^i along the
    # second axis differentiates to 0 at the cell centers
    g = grid2d
    x = g.coords(0)
    nyquist = (-1.0) ** np.arange(g.N)
    plan = spectral_plan(g, g.N)
    c = plan.to_coeffs(np.cos(6 * np.pi * x) + nyquist)
    assert np.max(np.abs(plan.derivative(c, 0) + 6 * np.pi * np.sin(6 * np.pi * x))) < 1e-12
    assert np.max(np.abs(plan.derivative(c, 1))) < 1e-12


def test_inverse_rejects_non_hermitian(grid32, grid2d):
    mean = np.zeros(17, dtype=complex)
    mean[0] = 1j  # the mean of a real field is real
    unpaired = np.zeros((16, 9), dtype=complex)
    unpaired[1, 0] = 1.0  # no matching conjugate at (-1, 0)
    for g, coeffs in ((grid32, mean), (grid2d, unpaired)):
        with pytest.raises(DomainError, match="Hermitian"):
            inverse(SpectralField(g, coeffs))


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


def test_heat_propagate_refuses_a_nan_time(grid32, cosine):
    # NaN used to reach np.exp and die as "field values must be finite"
    with pytest.raises(DomainError, match="got nan"):
        heat_propagate(cosine(grid32), math.nan)


def test_heat_propagate_at_infinite_time_is_the_mean(grid32, rng):
    # the limit of large t, without the NaN of inf * 0 at the zero mode:
    # bitwise the result at a t where every other mode underflows
    f = Field(grid32, 0.4 + rng.standard_normal(32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = heat_propagate(f, math.inf)
    assert np.array_equal(out.values, heat_propagate(f, 1e300).values)
    assert np.ptp(out.values) == 0.0
    assert out.values[0] == pytest.approx(np.mean(f.values), abs=1e-15)


def test_resample_evaluates_interpolant(grid32):
    f = Field(grid32, np.cos(2 * np.pi * grid32.coords(0)))
    plan = spectral_plan(grid32, 128)
    fine = plan.fine_values(plan.to_coeffs(f.values))
    x_fine = (np.arange(128) + 0.5) / 128
    np.testing.assert_allclose(fine, np.cos(2 * np.pi * x_fine), atol=1e-13)
    with pytest.raises(ConfigError, match="even integer"):
        spectral_plan(grid32, 31)
    with pytest.raises(ConfigError, match="even integer"):
        spectral_plan(grid32, 16)


def test_resample_preserves_mean(rng, grid32):
    f = Field(grid32, rng.standard_normal(32))
    plan = spectral_plan(grid32, 96)
    fine = plan.fine_values(plan.to_coeffs(f.values))
    assert np.mean(fine) == pytest.approx(np.mean(f.values), abs=1e-13)


def test_pad_project_round_trip_with_nyquist(rng):
    # white data occupies the unpaired slot; identity evaluation must
    # survive the padded round trip bit-for-bit up to roundoff
    for g in (TorusGrid(1, 16), TorusGrid(2, 8)):
        f = Field(g, rng.standard_normal(g.shape))
        for M in (2 * g.N, 3 * g.N // 2):
            back = padded_poly(X, f, f, M)
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
                                       padded_poly(p, u, v, 4 * g.N).values, atol=1e-13)


@pytest.mark.parametrize("d, N, M", [(1, 16, 16), (1, 16, 24), (2, 8, 16), (3, 8, 12)])
def test_plan_maps_over_leading_axes(rng, d, N, M):
    # a stack goes through every plan method in one call, bit-equal to
    # the fields one at a time
    plan = spectral_plan(TorusGrid(d, N), M)
    vals = rng.standard_normal((3,) + (N,) * d)
    fine = rng.standard_normal((3,) + (M,) * d)
    coeffs = plan.to_coeffs(vals)
    for method, stack in ((plan.to_coeffs, vals), (plan.to_values, coeffs),
                          (plan.fine_values, coeffs), (plan.project_fine, fine)):
        out = method(stack)
        for i in range(3):
            assert np.array_equal(out[i], method(stack[i]))


grids = st.sampled_from([(1, 8), (1, 16), (1, 32), (2, 8), (2, 16), (3, 8), (3, 16)])


@settings(max_examples=30, deadline=None)
@given(grid=grids, extra=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_calls_built_on_one_work_are_the_fresh_calls_bitwise(grid, extra, seed):
    # one work object serves two plans (M == N and M > N) and inputs of
    # three leading shapes, so each binder builds its calls on arrays it
    # shares with the others; each call, run again on new data, gives the
    # bits of the one-shot method, which builds on a new work object
    g = TorusGrid(*grid)
    rng = np.random.default_rng(seed)
    polys = (X * X - 0.5 * Y, Y * Y * X + 2.0, X * Y + 1.0 + Y)
    work = spectral.Work()
    plans = (spectral_plan(g, g.N), spectral_plan(g, g.N + 2 * extra))
    for _ in range(2):
        for plan in plans:
            for lead in ((), (2,), (2, 3)):
                vals = rng.standard_normal(lead + g.shape)
                fine = rng.standard_normal(lead + (plan.M,) * g.d)
                coeffs = plan.to_coeffs(vals)
                pair = plan.to_coeffs(rng.standard_normal((2,) + lead + g.shape))
                for method, args in ((plan.to_coeffs, (vals,)), (plan.to_values, (coeffs,)),
                                     (plan.fine_values, (coeffs,)),
                                     (plan.project_fine, (fine,)),
                                     (plan.poly_coeffs, (polys, pair))):
                    binder = getattr(plan, "_" + method.__name__)
                    assert np.array_equal(run(*binder(*args, work)), method(*args))


@pytest.mark.parametrize("d, N, M", [(1, 16, 24), (2, 8, 12), (3, 8, 12)])
def test_step_lists_look_up_numpy_fft_when_they_run(rng, d, N, M):
    # calls built before numpy.fft is patched, as a time loop builds its
    # step, go through the patched functions, which a tracer of numpy.fft
    # relies on
    plan = spectral_plan(TorusGrid(d, N), M)
    work = spectral.Work()
    coeffs = plan.to_coeffs(rng.standard_normal((2,) + (N,) * d))
    calls = ((plan.to_coeffs, (rng.standard_normal((N,) * d),)), (plan.to_values, (coeffs,)),
             (plan.fine_values, (coeffs,)),
             (plan.project_fine, (rng.standard_normal((M,) * d),)),
             (plan.poly_coeffs, ((X * Y,), coeffs)))
    expected = [method(*args).copy() for method, args in calls]
    built = [getattr(plan, "_" + method.__name__)(*args, work) for method, args in calls]
    seen = []

    def counted(name):
        original = getattr(np.fft, name)

        def spy(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)
        return spy

    with mock.patch.multiple(np.fft, **{name: counted(name)
                                        for name in ("rfft", "irfft", "fft", "ifft")}):
        for (steps, out), fresh in zip(built, expected):
            assert np.array_equal(run(steps, out), fresh)
    forward, inverse = ["rfft"] + ["fft"] * (d - 1), ["ifft"] * (d - 1) + ["irfft"]
    assert seen == forward + inverse + inverse + forward + inverse + forward


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["no-lead", "lead-3", "lead-2x3"])
@pytest.mark.parametrize("rows", [(), (12,), (10, 12)], ids=["1d", "2d", "3d"])
def test_fft_seam_is_numpy_fft_bitwise(rng, lead, rows):
    # the seam calls numpy's private pocketfft gufuncs: each of its four
    # functions gives the bits of its np.fft counterpart, on 1-d (no
    # rows), 2-d and 3-d shapes with leading axes, the c2c passes along
    # the first spatial axis, so a numpy that changes the private module
    # fails here
    from numpy.fft import _pocketfft
    assert all(getattr(np.fft, name) is getattr(_pocketfft, name)
               for name in ("rfft", "fft", "ifft", "irfft"))
    n, h = 16, 9
    shape = lead + rows

    def cplx(cols):
        return (rng.standard_normal(shape + (cols,))
                + 1j * rng.standard_normal(shape + (cols,)))

    vals = rng.standard_normal(shape + (n,))
    out = np.empty(shape + (h,), np.complex128)
    assert spectral._r2c(vals, out) is out
    assert np.array_equal(out, np.fft.rfft(vals, axis=-1, norm="forward"))
    for cols in (h, n // 2 - 3):
        # c2r to n points, from n/2+1 columns and, padding, from fewer
        c, real = cplx(cols), np.empty(shape + (n,))
        assert spectral._c2r(c, real) is real
        assert np.array_equal(real, np.fft.irfft(c, n=n, axis=-1, norm="forward"))
    for m, cols in ((n, n // 2 - 3), (24, 9)):
        # the plan's fine c2r in 2-d and 3-d reads the short input zeroed
        # out to m/2+1 columns, as numpy's c2r is slower on one it pads:
        # the same bits, here for an m of two radices as well
        short, wide = cplx(cols), np.zeros(shape + (m // 2 + 1,), np.complex128)
        wide[..., :cols] = short
        from_short, from_wide = np.empty(shape + (m,)), np.empty(shape + (m,))
        spectral._c2r(short, from_short)
        spectral._c2r(wide, from_wide)
        expected = np.fft.irfft(short, n=m, axis=-1, norm="forward")
        assert from_wide.tobytes() == from_short.tobytes() == expected.tobytes()
    if not rows:
        return
    axis = -1 - len(rows)
    for seam, numpy_fft in ((spectral._c2c, np.fft.fft), (spectral._ic2c, np.fft.ifft)):
        c = cplx(h)
        expected = numpy_fft(c, axis=axis, norm="forward")
        into = np.empty_like(c)
        assert seam(c, into, axis) is into and np.array_equal(into, expected)
        # in place, on the first h columns of a wider array, as the plan calls it
        wide = np.zeros(shape + (h + 4,), np.complex128)
        view = wide[..., :h]
        view[...] = c
        assert seam(view, view, axis) is view and np.array_equal(view, expected)
        assert not wide[..., h:].any()


@settings(max_examples=40, deadline=None)
@given(grid=grids, extra=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
def test_half_layout_pad_project_round_trip(grid, extra, seed):
    # white data fills the unpaired -N/2 slots; any even M > N works
    g = TorusGrid(*grid)
    plan = spectral_plan(g, g.N + 2 * extra)
    c = plan.to_coeffs(np.random.default_rng(seed).standard_normal((2,) + g.shape))
    assert np.max(np.abs(plan.project_fine(plan.fine_values(c)) - c)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_pad_and_project_are_adjoint(d, data, seed):
    # <fine_values(c), G> on the M-grid is the Parseval pairing of c with
    # project_fine(G) on the half layout: weight w (1 on columns 0 and
    # N/2, 2 elsewhere, as `parseval`) and 1/2 for each index at N/2, the
    # N/2 column and the row N/2 of each leading axis, whose slot padding
    # splits in two
    N = data.draw(st.sampled_from([8, 16, 32]), label="N")
    M = N + 2 * data.draw(st.integers(1, 20), label="(M-N)/2")
    g = TorusGrid(d, N)
    plan = spectral_plan(g, M)
    rng = np.random.default_rng(seed)
    a, G = rng.standard_normal(g.shape), rng.standard_normal((M,) * d)
    c = plan.to_coeffs(a)
    h = N // 2 + 1
    weight = np.where((np.arange(h) == 0) | (np.arange(h) == N // 2), 1.0, 2.0)
    nu = np.ones(c.shape)
    nu[..., N // 2] *= 0.5
    for axis in range(d - 1):
        nu[(slice(None),) * axis + (N // 2,)] *= 0.5
    lhs = np.mean(plan.fine_values(c) * G)
    rhs = np.sum(weight * nu * np.real(np.conj(c) * plan.project_fine(G)))
    assert abs(lhs - rhs) <= 1e-14 * math.sqrt(np.mean(a ** 2) * np.mean(G ** 2))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_per_axis_transforms_are_rfftn_and_irfftn_bitwise(d, data, seed):
    # the plan's per-axis calls give numpy's n-d transforms to the bit:
    # forward keeps the first N/2+1 columns of rfftn, and the inverse
    # equals irfftn of the coefficients zero-padded to M/2+1 columns
    # (3-d grids up to N = 16, for memory)
    N = data.draw(st.sampled_from([8, 16, 32, 64] if d < 3 else [8, 16]), label="N")
    M = data.draw(st.integers(N // 2, 3 * N // 2), label="M/2") * 2
    h = N // 2 + 1
    axes = tuple(range(-d, 0))
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((2,) + (M,) * d)
    full = np.fft.rfftn(vals, axes=axes, norm="forward")
    assert np.array_equal(run(*_forward(vals, d, h, spectral.Work())), full[..., :h])
    shape = (2,) + (M,) * (d - 1)
    c = rng.standard_normal(shape + (h,)) + 1j * rng.standard_normal(shape + (h,))
    padded = np.zeros(shape + (M // 2 + 1,), dtype=np.complex128)
    padded[..., :h] = c
    # the c2c passes run in place, so the inverse gets a copy of c
    out = np.empty(shape + (M,))
    assert np.array_equal(run(_inverse(c.copy(), d, out), out),
                          np.fft.irfftn(padded, s=(M,) * d, axes=axes, norm="forward"))


def phase_corrected_dft(g, values):
    """The full complex transform of values over the last g.d axes, in
    np.fft order, with the half-cell phase applied per axis."""
    xi = np.rint(np.fft.fftfreq(g.N) * g.N)
    phase = np.exp(-1j * np.pi * sum(np.meshgrid(*[xi] * g.d, indexing="ij")) / g.N)
    return np.fft.fftn(values, axes=tuple(range(-g.d, 0))) / g.size * phase


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=st.integers(0, 2 ** 32 - 1))
def test_half_layout_is_the_left_half_of_the_full_one(grid, seed):
    # transform gives the plan's half layout, which is the first N/2+1
    # columns of the full complex transform (column N/2 holds -N/2)
    g = TorusGrid(*grid)
    f = Field(g, np.random.default_rng(seed).standard_normal(g.shape))
    half = transform(f).coeffs
    assert np.array_equal(half, spectral_plan(g, g.N).to_coeffs(f.values))
    full = phase_corrected_dft(g, f.values)
    assert np.max(np.abs(half - full[..., :g.N // 2 + 1])) < 1e-15


@settings(max_examples=40, deadline=None)
@given(grid=grids, lead=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_full_layout_is_hermitian_and_halves_back(grid, lead, seed):
    # a random half stack of real fields, read by `get` at every frequency
    # in np.fft order: that full layout halves back exactly, and is
    # Hermitian, so the full complex inverse is real
    g = TorusGrid(*grid)
    vals = np.random.default_rng(seed).standard_normal((lead,) + g.shape)
    half = spectral_plan(g, g.N).to_coeffs(vals)
    xi = np.rint(np.fft.fftfreq(g.N) * g.N).astype(int)
    full = np.empty((lead,) + g.shape, np.complex128)
    for i in range(lead):
        sf = SpectralField(g, half[i])
        for k in itertools.product(range(g.N), repeat=g.d):
            full[(i,) + k] = sf.get(tuple(int(xi[j]) for j in k))
    assert np.array_equal(full[..., :g.N // 2 + 1], half)
    phase = np.exp(1j * np.pi * sum(np.meshgrid(*[xi] * g.d, indexing="ij")) / g.N)
    back = np.fft.ifftn(full * phase, axes=tuple(range(-g.d, 0))) * g.size
    assert np.max(np.abs(back.imag)) < 1e-14
    assert np.max(np.abs(back.real - vals)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(grid=grids, seed=st.integers(0, 2 ** 32 - 1))
def test_transform_is_the_phase_corrected_dft_at_every_frequency(grid, seed):
    # every in-band frequency, +N/2 included, reads the full complex
    # transform; the inverse gives the samples back
    g = TorusGrid(*grid)
    f = Field(g, np.random.default_rng(seed).standard_normal(g.shape))
    sf = transform(f)
    direct = phase_corrected_dft(g, f.values)
    band = range(-g.N // 2, g.N // 2 + 1)
    assert max(abs(sf.get(k) - direct[tuple(np.mod(k, g.N))])
               for k in itertools.product(band, repeat=g.d)) < 1e-15
    assert np.max(np.abs(inverse(sf).values - f.values)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(grid=grids, degree=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_poly_plan_dealiases_random_degrees_exactly(grid, degree, seed):
    # a random signed polynomial of the given total degree, evaluated at
    # full-band data (unpaired -N/2 slots included): the default plan
    # matches a projection through a much finer one
    g = TorusGrid(*grid)
    rng = np.random.default_rng(seed)
    terms = {(i, n - i): rng.uniform(-1.0, 1.0)
             for n in range(1, degree + 1) for i in range(n + 1)
             if n == degree or rng.random() < 0.5}
    p = Poly2Signed(terms)
    assert p.total_degree() == degree
    vals = rng.standard_normal((2,) + g.shape)
    vals /= np.max(np.abs(vals))
    plan = poly_plan(g, (p,))
    fine = spectral_plan(g, 2 * dealias_size(g.N, degree))
    c = plan.to_coeffs(vals)
    assert np.max(np.abs(plan.poly_coeffs((p,), c) - fine.poly_coeffs((p,), c))) <= 1e-12


def test_poly_plan_refuses_a_fine_grid_above_the_limit(monkeypatch):
    g = TorusGrid(1, 32)
    # degree 14 needs M = 240 <= 8 N; degree 15 needs 258
    assert poly_plan(g, (Poly2Signed({(14, 0): 1.0}),)).M == 240
    # at d = 3 the fine grid's points bind first: M = 96 is 0.9 M points,
    # M = 480 <= 8 N is 110.6 M points, above 2^26
    g3 = TorusGrid(3, 64)
    monkeypatch.setattr(spectral, "spectral_plan", lambda grid, M: M)
    assert poly_plan(g3, (X * X,)) == 96
    monkeypatch.setattr(spectral, "spectral_plan", None)  # no plan is built
    for degree, M in ((15, 258), (10 ** 6, 16000016)):
        with pytest.raises(ConfigError, match=f"degree {degree} .* M = {M} .* N = 32"):
            poly_plan(g, (X, Poly2Signed({(0, degree): 1.0})))
    with pytest.raises(ConfigError, match="degree 14 .* M = 480 .* M\\^3 = 110592000, for N = 64"):
        poly_plan(g3, (Poly2Signed({(14, 0): 1.0}),))


@pytest.mark.parametrize("polys", [(X * Y,), (X, X * X * Y), (Y * Y * Y, X)])
def test_poly_plan_takes_the_largest_degree(polys):
    for g in (TorusGrid(1, 16), TorusGrid(2, 8)):
        degree = max(p.total_degree() for p in polys)
        assert poly_plan(g, polys).M == dealias_size(g.N, degree)


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
    with pytest.raises(DomainError, match="positive"):
        mollify(f, 0.0)


def test_mollify_refuses_a_nan_width(grid32, cosine):
    with pytest.raises(DomainError, match="positive, got nan"):
        mollify(cosine(grid32), math.nan)


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
    np.testing.assert_array_equal((3.0 - b).values, 1.0)
    np.testing.assert_array_equal((a / b).values, 0.5)
    np.testing.assert_array_equal((-a).values, -1.0)
    c = Field(grid64, np.ones(64))
    with pytest.raises(ConfigError, match="different grids"):
        a + c


def test_field_rejects_bad_values(grid32):
    with pytest.raises(DomainError, match="finite"):
        Field(grid32, np.full(32, np.nan))
    with pytest.raises(ConfigError):
        Field(grid32, np.ones(16))
    with pytest.raises(ConfigError, match="coefficient shape"):
        SpectralField(grid32, np.ones(16))
