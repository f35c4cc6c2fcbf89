"""Fields: sampling, norms, the spectral operator, dilation, serialization."""

import math

import numpy as np
import pytest

import fracnlse as F
from fracnlse import (DecayGuardError, Field, dense_oracle_frac_laplacian,
                      dilate, field_to_csv, frac_laplacian, load_field,
                      lp_norm_pow, make_field, make_grid, sample, save_field,
                      seminorm_sq, summarize)

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
    two_star = F.derived_exponents(params_1d).two_star
    assert s4.B_star == pytest.approx(lp_norm_pow(u, two_star), rel=1e-14)
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


def test_operator_rejects_bad_order():
    grid = make_grid(1, 64, 10.0)
    u = gaussian(grid, 1.0)
    for s in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError, match="fractional order"):
            frac_laplacian(u, s)


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
    # every axis; the 1D Bluestein transform, run once per axis, is the
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


def test_dilation_decay_guard_fires_on_wide_fields():
    grid = make_grid(1, 256, 10.0)
    wide = gaussian(grid, 6.0)
    with pytest.raises(DecayGuardError) as excinfo:
        dilate(wide, -0.5)
    assert excinfo.value.fraction > 1e-8


def test_dilation_decay_guard_can_be_disabled():
    grid = make_grid(1, 256, 10.0)
    wide = gaussian(grid, 6.0)
    out = dilate(wide, -0.5, decay_guard=None)
    assert np.all(np.isfinite(out.values))


def test_boundary_mass_fraction_localized_vs_wide():
    grid = make_grid(1, 256, 10.0)
    assert F.boundary_mass_fraction(gaussian(grid, 0.5)) < 1e-12
    assert F.boundary_mass_fraction(gaussian(grid, 8.0)) > 1e-3


# ----------------------------------------------------------------------
# sampling families


def test_sample_gaussian_rejects_bad_width():
    grid = make_grid(1, 64, 10.0)
    with pytest.raises(ValueError, match="width"):
        sample(grid, "gaussian", {"width": 0.0})


def test_sample_bubble_profile_and_validation():
    grid = make_grid(2, 64, 10.0)
    u = sample(grid, "bubble", {"epsilon": 1.0, "s": 0.5})
    r2 = grid.radius() ** 2
    assert np.allclose(u.values, (1.0 + r2) ** -0.5)
    with pytest.raises(ValueError, match="scale"):
        sample(grid, "bubble", {"epsilon": 0.0, "s": 0.5})
    with pytest.raises(ValueError, match="2s < N"):
        sample(make_grid(1, 64, 10.0), "bubble", {"epsilon": 1.0, "s": 0.6})


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


def test_sample_rejects_unknown_family_and_extras():
    grid = make_grid(1, 64, 10.0)
    with pytest.raises(ValueError, match="unknown sample family"):
        sample(grid, "soliton")
    with pytest.raises(ValueError, match="unknown gaussian parameters"):
        sample(grid, "gaussian", {"width": 1.0, "sigma": 2.0})


def test_field_validates_shape():
    grid = make_grid(2, 16, 5.0)
    with pytest.raises(ValueError):
        make_field(grid, np.zeros((16,)))


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


def test_field_container_truncation_detected(tmp_path):
    grid = make_grid(1, 32, 5.0)
    path = tmp_path / "field.bin"
    save_field(gaussian(grid, 1.0), path, s=0.4)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_field(path)


def test_field_to_csv_layout(tmp_path):
    grid = make_grid(2, 16, 4.0)
    u = gaussian(grid, 1.0)
    path = tmp_path / "field.csv"
    field_to_csv(u, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + grid.num_points
    x1, x2, val = (float(tok) for tok in lines[1].split(","))
    assert (x1, x2) == (-4.0, -4.0)
    assert val == pytest.approx(u.values[0, 0], rel=1e-15)
