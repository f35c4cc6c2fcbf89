"""Fields: sampling, norms, the spectral operator, dilation, serialization."""

import math
import re

import numpy as np
import pytest

import fracnlse as F
from fracnlse import (DecayGuardError, Field, dense_oracle_frac_laplacian,
                      dilate, frac_laplacian, load_field, lp_norm_pow,
                      make_grid, sample, save_field, seminorm_sq, summarize)

# Trapezoid-exact quadrature of a width-1 gaussian on the default 1D box,
# pinned after refining n and L until stable; the continuum seminorm of the
# same gaussian is 1.0686287021193193. The discrete value sits 0.23 percent
# low because the |k|^{2s} multiplier has a conical kink at k = 0.
SEMINORM_GAUSS_W1_S04_N1024_L40 = 1.0661242931564037
SEMINORM_GAUSS_CONTINUUM = 1.0686287021193193


def gaussian(grid, width):
    return sample(grid, "gaussian", {"width": width})


# ----------------------------------------------------------------------
# norms and summaries


def test_gaussian_lp_norms_match_closed_form():
    grid = make_grid(1, 1024, 40.0)
    u = gaussian(grid, 1.0)
    for q in (2.0, 3.5, 6.0, 10.0):
        exact = math.sqrt(2.0 * math.pi / q)
        assert lp_norm_pow(u, q) == pytest.approx(exact, rel=1e-8)


def test_gaussian_lp_norms_match_closed_form_2d():
    grid = make_grid(2, 128, 20.0)
    u = gaussian(grid, 1.0)
    for q in (2.0, 3.5, 4.0):
        exact = 2.0 * math.pi / q
        assert lp_norm_pow(u, q) == pytest.approx(exact, rel=1e-8)


def test_gaussian_width_scaling_of_mass():
    grid = make_grid(1, 1024, 40.0)
    for w in (0.5, 2.0):
        u = gaussian(grid, w)
        exact = w * math.sqrt(math.pi)
        assert lp_norm_pow(u, 2.0) == pytest.approx(exact, rel=1e-8)


def test_lp_norm_requires_q_at_least_one():
    grid = make_grid(1, 64, 10.0)
    u = gaussian(grid, 1.0)
    with pytest.raises(ValueError):
        lp_norm_pow(u, 0.5)
    # NaN once died converting to an int inside the power.
    for q in (math.nan, math.inf, True, "2"):
        with pytest.raises(ValueError, match="norm exponent"):
            lp_norm_pow(u, q)


def test_seminorm_regression_pin(params_1d):
    grid = make_grid(1, 1024, 40.0)
    u = gaussian(grid, 1.0)
    val = seminorm_sq(u, params_1d.s)
    assert val == pytest.approx(SEMINORM_GAUSS_W1_S04_N1024_L40, rel=1e-9)
    assert val == pytest.approx(SEMINORM_GAUSS_CONTINUUM, rel=1e-2)


def test_summarize_composes_the_four_norms(params_1d):
    grid = make_grid(1, 512, 40.0)
    u = gaussian(grid, 1.5)
    s4 = summarize(u, params_1d)
    assert s4.A == pytest.approx(seminorm_sq(u, params_1d.s), rel=1e-14)
    assert s4.M == pytest.approx(lp_norm_pow(u, 2.0), rel=1e-14)
    assert s4.B_p == pytest.approx(lp_norm_pow(u, params_1d.p), rel=1e-14)
    assert s4.B_star == pytest.approx(lp_norm_pow(u, params_1d.two_star), rel=1e-14)
    assert s4.as_tuple() == (s4.A, s4.M, s4.B_p, s4.B_star)


def test_summarize_rejects_dimension_mismatch(params_2d):
    grid = make_grid(1, 64, 10.0)
    with pytest.raises(ValueError):
        summarize(gaussian(grid, 1.0), params_2d)


# ----------------------------------------------------------------------
# operator


def test_frac_laplacian_matches_dense_oracle(params_1d):
    for dim, n in [(1, 16), (1, 32), (2, 16)]:
        grid = make_grid(dim, n, 10.0)
        s = 0.4 if dim == 1 else 0.5
        u = sample(grid, "random_bandlimited", {"cutoff": 1.0}, seed=3)
        fast = frac_laplacian(u, s).values
        dense = dense_oracle_frac_laplacian(u, s).values
        rel = np.linalg.norm(fast - dense) / np.linalg.norm(dense)
        assert rel <= 1e-10


def test_dense_oracle_refuses_large_grids():
    grid = make_grid(1, 8192, 10.0)
    u = gaussian(grid, 1.0)
    with pytest.raises(ValueError, match="dense oracle"):
        dense_oracle_frac_laplacian(u, 0.4)


def test_frac_laplacian_self_adjoint():
    grid = make_grid(1, 128, 10.0)
    u = sample(grid, "random_bandlimited", {"cutoff": 0.5}, seed=1)
    v = sample(grid, "random_bandlimited", {"cutoff": 0.5}, seed=2)
    h = grid.cell_volume
    lhs = h * np.sum(frac_laplacian(u, 0.4).values * v.values)
    rhs = h * np.sum(u.values * frac_laplacian(v, 0.4).values)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_seminorm_is_quadratic_form_of_operator():
    grid = make_grid(1, 256, 15.0)
    u = gaussian(grid, 1.2)
    h = grid.cell_volume
    quad = h * np.sum(u.values * frac_laplacian(u, 0.4).values)
    assert seminorm_sq(u, 0.4) == pytest.approx(quad, rel=1e-12)


HALF_SPECTRUM_CASES = [(1, 256, 20.0, 0.4), (2, 64, 20.0, 0.5), (3, 16, 10.0, 0.75)]


def half_spectrum_inputs(grid):
    # A band-limited field with cutoff 1 keeps the Nyquist modes, which the
    # Hermitian column weights must count once, not twice.
    return [gaussian(grid, 0.15 * grid.half_length),
            sample(grid, "random_bandlimited", {"cutoff": 1.0}, seed=5)]


@pytest.mark.parametrize("dim, n, L, s", HALF_SPECTRUM_CASES)
def test_half_spectrum_seminorm_matches_full_dft(dim, n, L, s):
    grid = make_grid(dim, n, L)
    for u in half_spectrum_inputs(grid):
        full = (grid.cell_volume / grid.num_points
                * np.sum(grid.wavenumber_sq() ** s * np.abs(np.fft.fftn(u.values)) ** 2))
        half = F.fields._seminorm_sq_values(u.values, grid, s)
        assert half == pytest.approx(full, rel=1e-12)
        spectrum = np.fft.rfftn(u.values)
        assert F.fields._seminorm_sq_values(u.values, grid, s, spectrum) == half


@pytest.mark.parametrize("dim, n, L, s", HALF_SPECTRUM_CASES)
def test_half_spectrum_operator_matches_full_dft(dim, n, L, s):
    grid = make_grid(dim, n, L)
    for u in half_spectrum_inputs(grid):
        full = np.fft.ifftn(grid.wavenumber_sq() ** s * np.fft.fftn(u.values)).real
        half = frac_laplacian(u, s).values
        assert half.shape == grid.shape
        assert np.max(np.abs(half - full)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("shape", [(50,), (1024,), (128, 128), (256, 256), (16, 16, 16)])
def test_split_forward_transform_is_rfftn(shape):
    # Every forward transform of the package is fields._rfftn; it must be
    # numpy's rfftn bit for bit. In 3D only rfftn's own axis order (last
    # leading axis first) is: the ascending order differs in the last bits.
    u = np.random.default_rng(len(shape)).standard_normal(shape)
    assert np.array_equal(F.fields._rfftn(u), np.fft.rfftn(u))


@pytest.mark.parametrize("q", [3.5, 4.0, 6.0, 10.0, 3.0, 5.0, 1.5, 2.5])
def test_integer_power_chains_match_pow(q):
    # Integer and half-integer exponents take multiply chains; exact zeros
    # must stay zeros (sqrt|u| and the products of u are 0 there).
    grid = make_grid(2, 32, 4.0)
    u = np.random.default_rng(7).standard_normal(grid.shape)
    u[::3, ::5] = 0.0
    reference = np.abs(u) ** q
    chain = F.fields._abs_power(u, q)
    assert np.all(np.abs(chain - reference) <= 1e-13 * reference)
    assert F.fields._lp_values(u, grid, q) == pytest.approx(
        grid.cell_volume * np.sum(reference), rel=1e-13)
    if q >= 2.0:  # |u|^{q-2} u is singular at 0 below
        odd = np.sign(u) * np.abs(u) ** (q - 1.0)
        assert np.all(np.abs(F.functionals.odd_power(u, q) - odd) <= 1e-13 * np.abs(odd))


def test_operator_rejects_bad_order():
    grid = make_grid(1, 64, 10.0)
    u = gaussian(grid, 1.0)
    for s in (0.0, 1.0, -0.3, True, "0.4"):
        for op in (frac_laplacian, seminorm_sq, dense_oracle_frac_laplacian):
            with pytest.raises(ValueError, match=re.escape("s must lie in (0, 1), got %r" % s)):
                op(u, s)


# ----------------------------------------------------------------------
# dilation


def test_dilation_closed_form_gaussian():
    grid = make_grid(1, 1024, 40.0)
    u = gaussian(grid, 1.0)
    out = dilate(u, math.log(2.0))
    expected = math.sqrt(2.0) * np.exp(-grid.radius() ** 2 / (2.0 * 0.25))
    err = np.max(np.abs(out.values - expected))
    assert err <= 1e-8


def test_dilation_closed_form_gaussian_2d():
    grid = make_grid(2, 256, 20.0)
    u = gaussian(grid, 1.0)
    out = dilate(u, math.log(2.0))
    expected = 2.0 * np.exp(-grid.radius() ** 2 / (2.0 * 0.25))
    err = np.max(np.abs(out.values - expected))
    assert err <= 1e-8


@pytest.mark.parametrize("n", [64, 256])
def test_dilation_matrix_path_matches_bluestein_per_axis(n):
    # From 2D on, dilation applies one closed-form resampling matrix along
    # every axis; the 1D chirp transform, run once per axis, is the
    # reference it must reproduce to rounding.
    grid = make_grid(2, n, 20.0)
    u = sample(grid, "random_bandlimited",
               {"cutoff": 0.5, "envelope_width": 4.0}, seed=7).values
    for xi in (1e-12, -1e-12, 1e-6, -1e-6, 0.02, 0.7, -1.0, 2.5):
        ref = u
        for _ in range(grid.dim):
            ref = np.moveaxis(F.fields._resample_axis(ref, xi, n, 20.0), -1, 0)
        out = F.fields._dilate_values(u, grid, xi)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), xi


def _dirichlet_kernel_long_double(xi, n, L, rows=None):
    """The resampling matrix from its definition, evaluated in long double:
    (e^{xi/2}/n) sin(n theta/2) / tan(theta/2), theta = pi (e^xi x_j - x_l)/L,
    e^{xi/2} at theta = 0, zero rows where |e^xi x_j| >= L. rows selects the
    rows j to evaluate (all by default).

    n theta/2 = pi (y_j - P_l) with y_j = e^xi (j - n/2) and P_l = l - n/2,
    so sin(n theta/2) = (-1)^(s_j + P_l) sin(pi r_j), where s_j is the
    integer nearest y_j and r_j = y_j - s_j is exact: one sine per row."""
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    rows = np.arange(n) if rows is None else np.asarray(rows)
    x = -L + (2.0 * L / n) * rows
    keep = np.abs(float(np.exp(xi)) * x) < L
    y = np.exp(ld(xi)) * (rows[keep].astype(ld) - n // 2)
    s = np.rint(y)
    P = np.arange(n) - n // 2
    d = y[:, None] - P.astype(ld)
    row = np.where(s % 2, -1, 1) * np.sin(pi * (y - s))
    with np.errstate(divide="ignore", invalid="ignore"):
        kept = row[:, None] * np.where(P % 2, -1, 1) / np.tan((pi / n) * d)
    kept[d == 0] = n
    kernel = np.zeros((rows.size, n), dtype=ld)
    kernel[keep] = kept * (np.exp(ld(xi) / 2) / n)
    return kernel


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended-precision long double")
@pytest.mark.parametrize("n", [48, 64, 256])
def test_resampling_matrix_matches_long_double_kernel(n):
    # Entry-wise accuracy of the closed-form matrix against its definition.
    # Small |xi| is where the second projection round lives (median 1.4e-6)
    # and where a kernel that splits sin(n theta/2) from an angle formed by
    # cancellation loses about 1/|xi| digits near the peak. The bound is
    # at least as tight as max(5e-14, twice the error of the direct float64
    # evaluation of the definition with n^2 sines), which errs by 6e-16 to
    # 1.4e-13 on these inputs.
    L = 20.0
    for xi in (1e-12, -1e-12, -1e-9, -1.4e-6, -1.3e-3, 0.02, 0.7, -1.0, 2.5):
        reference = _dirichlet_kernel_long_double(xi, n, L)
        err = np.max(np.abs(F.fields._resampling_matrix(xi, n, L) - reference))
        assert err <= 5e-14, (xi, float(err))


# Small |xi| down to the 1D baseline's trial root 4.09e-9, and up to XI_MAX.
DILATION_XIS_1D = (1e-12, -1e-12, -1e-9, 4.09e-9, -1.4e-6, -1.3e-3, 0.02, 0.7,
                   -1.0, 2.5, 2.99, -2.99)


def _resample_inputs(grid):
    # A gaussian and a band-limited field, both with their band fixed in
    # physical units (|k| <= 2 for the second). A band that grows with n
    # adds an error that no float64 scale avoids: rounding e^xi to a double
    # moves the evaluation points by up to 1.1e-16 |e^xi x|, which at
    # |k| <= k_max/2, n = 2048, xi = 2.99 is 2.4e-14 of max|u|.
    # On the coarsest grids the whole band lies below |k| = 2.
    kmax = np.pi / grid.spacing
    return np.stack([
        gaussian(grid, 1.0).values,
        sample(grid, "random_bandlimited",
               {"cutoff": min(1.0, 2.0 / kmax), "envelope_width": 4.0}, seed=7).values])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended-precision long double")
@pytest.mark.parametrize("n", [48, 50, 64, 256, 1024, 2048, 32768])
def test_resample_axis_matches_long_double_kernel(n):
    # The 1D chirp transform against the Dirichlet kernel applied in long
    # double. Its phase table is reduced modulo 2 pi in float64 without
    # rounding, so the error stays at a few ulps of max|u| up to the largest
    # grid of the refinement study (n = 32768, checked on 32 rows).
    L = 20.0
    grid = make_grid(1, n, L)
    u = _resample_inputs(grid)
    rows = np.arange(n) if n <= 2048 else np.linspace(0, n - 1, 32).astype(int)
    bound = 1e-14 if n <= 2048 else 5e-14
    for xi in DILATION_XIS_1D:
        out = F.fields._resample_axis(u, xi, n, L)[:, rows]
        for start in range(0, rows.size, 256):
            block = rows[start:start + 256]
            kernel = _dirichlet_kernel_long_double(xi, n, L, block)
            reference = u.astype(np.longdouble) @ kernel.T
            err = np.abs(out[:, start:start + 256] - reference).max(axis=-1)
            assert np.all(err <= bound * np.abs(u).max(axis=-1)), (xi, err)


@pytest.mark.parametrize("n", [8, 50, 64, 256, 1024])
def test_resample_axis_batch_and_matrix_agree(n):
    # float64 only, so it runs where the long-double tests skip: a (3, n)
    # batch is three row-wise calls bit for bit, and the chirp transform
    # agrees with the closed-form resampling matrix at the bound the 2D
    # per-axis test uses. n = 8 is the smallest grid, and at n = 50 the
    # convolution length 3n/2 is odd.
    L = 20.0
    grid = make_grid(1, n, L)
    u = np.vstack([_resample_inputs(grid),
                   sample(grid, "random_bandlimited",
                          {"cutoff": 0.5, "envelope_width": 4.0}, seed=8).values])
    for xi in DILATION_XIS_1D:
        out = F.fields._resample_axis(u, xi, n, L)
        rows = np.stack([F.fields._resample_axis(row, xi, n, L) for row in u])
        assert np.array_equal(out, rows), xi
        ref = u @ F.fields._resampling_matrix(xi, n, L).T
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(u)), xi


@pytest.mark.parametrize("n", [50, 1024])
def test_transforms_per_1d_dilation(monkeypatch, n):
    # A 1D dilation takes one rfft of the samples and three transforms of
    # the convolution length 3n/2: the padded pre-chirped half spectrum,
    # the kernel and the inverse.
    calls = []

    def counted(name, fn):
        def wrapper(a, n=None, *args, **kwargs):
            calls.append((name, np.shape(a)[-1] if n is None else n))
            return fn(a, n, *args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    grid = make_grid(1, n, 20.0)
    F.fields._dilate_values(gaussian(grid, 1.0).values, grid, 0.3)
    size = 3 * n // 2
    assert sorted(calls) == [("fft", size), ("fft", size), ("ifft", size), ("rfft", n)]


def test_dilation_at_zero_is_identity():
    grid = make_grid(1, 256, 20.0)
    u = gaussian(grid, 2.0)
    out = dilate(u, 0.0)
    assert np.array_equal(out.values, u.values)
    assert out.values is not u.values


def test_dilation_round_trip():
    grid = make_grid(1, 512, 30.0)
    u = gaussian(grid, 1.0)
    back = dilate(dilate(u, 0.7), -0.7)
    rel = np.linalg.norm(back.values - u.values) / np.linalg.norm(u.values)
    assert rel <= 1e-10


def test_dilation_round_trip_2d():
    grid = make_grid(2, 256, 20.0)
    u = gaussian(grid, 1.0)
    back = dilate(dilate(u, 0.7), -0.7)
    rel = np.linalg.norm(back.values - u.values) / np.linalg.norm(u.values)
    assert rel <= 1e-10


def test_dilation_preserves_mass():
    grid = make_grid(2, 128, 20.0)
    u = gaussian(grid, 1.0)
    m0 = lp_norm_pow(u, 2.0)
    m1 = lp_norm_pow(dilate(u, 0.4), 2.0)
    assert m1 == pytest.approx(m0, rel=1e-10)


def test_dilation_rejects_large_parameter():
    grid = make_grid(1, 64, 10.0)
    u = gaussian(grid, 1.0)
    with pytest.raises(ValueError, match="exceeds the limit"):
        dilate(u, 3.5)
    # NaN once died converting to an int in the kernel, and True dilated by 1.
    for xi in (math.nan, math.inf, True, "0.1"):
        with pytest.raises(ValueError, match="dilation parameter xi must be a finite real number"):
            dilate(u, xi)


def test_dilation_decay_guard_fires_on_wide_fields():
    grid = make_grid(1, 256, 10.0)
    wide = gaussian(grid, 6.0)
    with pytest.raises(DecayGuardError) as excinfo:
        dilate(wide, -0.5)
    assert excinfo.value.fraction > 1e-8


def test_decay_guard_error_names_the_bound_that_fired():
    grid = make_grid(1, 256, 10.0)
    u = gaussian(grid, 3.0)
    with pytest.raises(DecayGuardError, match="decay guard 1e-03") as excinfo:
        dilate(u, -0.5, decay_guard=1e-3)
    assert excinfo.value.bound == 1e-3
    assert excinfo.value.fraction == pytest.approx(1.75e-2, rel=1e-2)


def test_dilation_decay_guard_can_be_disabled():
    grid = make_grid(1, 256, 10.0)
    wide = gaussian(grid, 6.0)
    out = dilate(wide, -0.5, decay_guard=None)
    assert np.all(np.isfinite(out.values))


@pytest.mark.parametrize("bad", [False, True, float("nan"), 0, -1])
def test_dilation_rejects_a_malformed_decay_guard(bad):
    # Only None turns the guard off; a bool, a non-finite or an out-of-range
    # bound is an error, not a silently different guard.
    u = gaussian(make_grid(1, 64, 10.0), 1.0)
    with pytest.raises(ValueError, match="None to skip the guard") as excinfo:
        dilate(u, 0.1, decay_guard=bad)
    assert not isinstance(excinfo.value, DecayGuardError)
    assert np.all(np.isfinite(dilate(u, 0.1, decay_guard=1.0).values))


def test_boundary_mass_fraction_localized_vs_wide():
    grid = make_grid(1, 256, 10.0)
    assert F.boundary_mass_fraction(gaussian(grid, 0.5)) < 1e-12
    assert F.boundary_mass_fraction(gaussian(grid, 8.0)) > 1e-3


# ----------------------------------------------------------------------
# sampling families


def test_sample_gaussian_rejects_bad_width():
    grid = make_grid(1, 64, 10.0)
    # A string once sampled as the number it spells.
    for width in (0.0, math.nan, math.inf, True, "2"):
        with pytest.raises(ValueError, match="width"):
            sample(grid, "gaussian", {"width": width})


def test_sample_bubble_profile_and_validation():
    grid = make_grid(2, 64, 10.0)
    u = sample(grid, "bubble", {"epsilon": 1.0, "s": 0.5})
    r2 = grid.radius() ** 2
    assert np.allclose(u.values, (1.0 + r2) ** -0.5)
    for epsilon in (0.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="scale"):
            sample(grid, "bubble", {"epsilon": epsilon, "s": 0.5})
    # The window of ModelParams; a missing s was a KeyError.
    with pytest.raises(ValueError, match=re.escape("2s must be smaller than the dimension: "
                                                   "2*0.6 >= 1")):
        sample(make_grid(1, 64, 10.0), "bubble", {"epsilon": 1.0, "s": 0.6})
    for s in (None, 1.0, True):
        with pytest.raises(ValueError, match=re.escape("s must lie in (0, 1), got %r" % s)):
            sample(grid, "bubble", {"epsilon": 1.0} if s is None else {"epsilon": 1.0, "s": s})


def test_sample_bandlimited_deterministic_and_bounded():
    grid = make_grid(1, 128, 10.0)
    a = sample(grid, "random_bandlimited", {"cutoff": 0.25}, seed=11)
    b = sample(grid, "random_bandlimited", {"cutoff": 0.25}, seed=11)
    assert np.array_equal(a.values, b.values)
    assert np.max(np.abs(a.values)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="cutoff"):
        sample(grid, "random_bandlimited", {"cutoff": 0.0})
    with pytest.raises(ValueError, match="cutoff"):
        sample(grid, "random_bandlimited", {"cutoff": 1.5})
    with pytest.raises(ValueError, match="cutoff fraction must lie in \\(0, 1\\], got True"):
        sample(grid, "random_bandlimited", {"cutoff": True})
    # True once drew seed 1's field; 1.5, "3" and -1 raised numpy's errors.
    for seed in (True, 1.5, "3", -1):
        with pytest.raises(ValueError, match=re.escape("seed must be an int >= 0, got %r"
                                                       % (seed,))):
            sample(grid, "random_bandlimited", {"cutoff": 0.25}, seed=seed)


def test_sample_bandlimited_envelope_width():
    # The envelope width follows the gaussian width rule: None or finite and
    # positive. 0 and NaN once failed as non-finite field values, -2 drew
    # the field of +2 and inf dropped the envelope without a word.
    grid = make_grid(1, 128, 10.0)
    plain = sample(grid, "random_bandlimited", {"cutoff": 0.25}, seed=4)
    assert np.array_equal(plain.values, sample(
        grid, "random_bandlimited", {"cutoff": 0.25, "envelope_width": None}, seed=4).values)
    wrapped = sample(grid, "random_bandlimited", {"cutoff": 0.25, "envelope_width": 2.0},
                     seed=4).values
    expected = plain.values * np.exp(-grid.radius() ** 2 / 8.0)
    assert np.max(np.abs(wrapped - expected / np.max(np.abs(expected)))) <= 1e-15
    for width in (0.0, -2.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match=re.escape("envelope width must be finite and "
                                                       "positive, got %r" % width)):
            sample(grid, "random_bandlimited", {"cutoff": 0.25, "envelope_width": width})


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32), (3, 16)])
@pytest.mark.parametrize("cutoff", [0.1, 0.5, 1.0])
def test_sample_bandlimited_matches_the_full_spectrum_filter(dim, n, cutoff):
    # The sampler filters the rfftn half spectrum of its noise; the same
    # filter on the full fftn spectrum is the oracle. cutoff = 1.0 keeps the
    # Nyquist modes on the axes, where |k| equals k_max.
    grid = make_grid(dim, n, 10.0)
    kmax = np.pi * n / (2.0 * grid.half_length)
    keep = np.sqrt(grid.wavenumber_sq()) <= cutoff * kmax
    assert keep[(n // 2,) + (0,) * (dim - 1)] == (cutoff == 1.0)
    noise = np.random.default_rng(7).standard_normal(grid.shape)
    expected = np.fft.ifftn(np.fft.fftn(noise) * keep).real
    expected /= np.max(np.abs(expected))
    got = sample(grid, "random_bandlimited", {"cutoff": cutoff}, seed=7).values
    assert got.shape == grid.shape
    assert np.max(np.abs(got - expected)) <= 1e-14


def test_sample_rejects_unknown_family_and_extras():
    grid = make_grid(1, 64, 10.0)
    with pytest.raises(ValueError, match="unknown sample family"):
        sample(grid, "soliton")
    with pytest.raises(ValueError, match="unknown gaussian parameters"):
        sample(grid, "gaussian", {"width": 1.0, "sigma": 2.0})
    with pytest.raises(ValueError, match="unknown random_bandlimited parameters"):
        sample(grid, "random_bandlimited", {"seed": 3})


def test_field_validates_shape():
    grid = make_grid(2, 16, 5.0)
    with pytest.raises(ValueError):
        Field(grid, np.zeros((16,)))
    # Only integer and float samples pass: strings were once parsed, bools
    # read as 0 and 1, and a complex array lost its imaginary part with no
    # more than a ComplexWarning.
    grid = make_grid(1, 8, 2.0)
    for values in (np.array(["0.5"] * 8), ["0.5"] * 8, np.ones(8, bool),
                   np.ones(8, complex), [1j] * 8, np.array([0.5] * 8, dtype=object)):
        with pytest.raises(ValueError, match="field values must have an integer or float"
                                             " dtype, got "):
            Field(grid, values)
    for values in (np.arange(8), np.arange(8, dtype=np.uint8), [0.5] * 8,
                   np.linspace(0.0, 1.0, 8, dtype=np.float32)):
        u = Field(grid, values)
        assert u.values.dtype == np.float64
        assert np.array_equal(u.values, np.asarray(values, dtype=float))


# ----------------------------------------------------------------------
# serialization


def test_field_container_round_trip(tmp_path):
    grid = make_grid(2, 32, 7.5)
    u = sample(grid, "random_bandlimited", {"cutoff": 0.5}, seed=5)
    path = tmp_path / "field.bin"
    save_field(u, path, s=0.5)
    v, s = load_field(path)
    assert s == 0.5
    assert v.grid == grid
    assert np.array_equal(v.values, u.values)


@pytest.mark.parametrize("s, message", [
    (math.nan, "s must lie in (0, 1), got nan"),
    (3.0, "s must lie in (0, 1), got 3.0"),
    (0.75, "2s must be smaller than the dimension: 2*0.75 >= 1"),
])
def test_field_container_checks_the_order(tmp_path, s, message):
    # The header's s obeys the window of ModelParams when it is written and
    # when it is read; a NaN or 3.0 was once written and read back.
    u = gaussian(make_grid(1, 32, 5.0), 1.0)
    path = tmp_path / "field.bin"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_field(u, path, s=s)
    assert not path.exists()
    save_field(u, path, s=0.4)
    raw = path.read_bytes()
    path.write_bytes(F.fields._HEADER.pack(1, 32, 5.0, s) + raw[F.fields._HEADER.size:])
    with pytest.raises(ValueError, match=re.escape(message)):
        load_field(path)


def test_field_container_truncation_detected(tmp_path):
    grid = make_grid(1, 32, 5.0)
    path = tmp_path / "field.bin"
    save_field(gaussian(grid, 1.0), path, s=0.4)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_field(path)


def test_field_container_size_must_match_header(tmp_path):
    # A payload longer than the header implies is rejected, not read as
    # its first grid, and a header implying an unaddressable payload is a
    # ValueError, not an OverflowError from the read.
    grid = make_grid(1, 32, 5.0)
    path = tmp_path / "field.bin"
    save_field(gaussian(grid, 1.0), path, s=0.4)
    raw = path.read_bytes()
    path.write_bytes(raw + bytes(8 * 64))
    with pytest.raises(ValueError, match="header implies 256 "):
        load_field(path)
    path.write_bytes(F.fields._HEADER.pack(3, 2 ** 20, 5.0, 0.4) + raw[F.fields._HEADER.size:])
    with pytest.raises(ValueError, match="header implies %d " % 2 ** 63):
        load_field(path)
