"""Energy, Pohozaev, multiplier, manifold identity, and the geometry gap."""

import math

import numpy as np
import pytest

import fracnlse as F
from fracnlse import (ConstantsReport, FieldSummary, GeometryReport,
                      ModelParams, energy, geometry_lower_bound, gradient_field,
                      lagrange_multiplier, make_grid,
                      manifold_identity_residual, pohozaev, rho, sample,
                      summarize)


def unit_summary():
    return FieldSummary(A=1.0, M=1.0, B_p=1.0, B_star=1.0)


def random_summary(rng):
    a, m, bp, bs = np.exp(rng.normal(size=4))
    return FieldSummary(A=a, M=m, B_p=bp, B_star=bs)


def test_energy_pohozaev_multiplier_on_unit_summary():
    # 2D, s = 1/2, p = 7/2, eta = 1: two_star = 4, zeta_p = 6/7, so
    # E = 1/2 - 1/4 - 2/7 = -1/28, P = 1 - 1 - 6/7 = -6/7, mu = -1.
    params = ModelParams(dim=2, s=0.5, p=3.5, eta=1.0, m=1.0)
    s4 = unit_summary()
    assert energy(s4, params) == pytest.approx(-1.0 / 28.0, rel=1e-14)
    assert pohozaev(s4, params) == pytest.approx(-6.0 / 7.0, rel=1e-14)
    assert lagrange_multiplier(s4, params) == pytest.approx(-1.0, rel=1e-14)


def test_energy_terms_scale_linearly(params_1d):
    s4 = unit_summary()
    doubled = FieldSummary(A=2.0, M=1.0, B_p=1.0, B_star=1.0)
    assert energy(doubled, params_1d) - energy(s4, params_1d) == pytest.approx(
        0.5, rel=1e-14)
    more_p = FieldSummary(A=1.0, M=1.0, B_p=3.0, B_star=1.0)
    assert energy(more_p, params_1d) - energy(s4, params_1d) == pytest.approx(
        -params_1d.eta * 2.0 / params_1d.p, rel=1e-14)


def test_manifold_identity_equals_half_pohozaev(params_1d, params_2d):
    rng = np.random.default_rng(42)
    for params in (params_1d, params_2d):
        for _ in range(25):
            s4 = random_summary(rng)
            lhs = manifold_identity_residual(s4, params)
            rhs = 0.5 * pohozaev(s4, params)
            scale = max(1.0, abs(energy(s4, params)), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_manifold_identity_vanishes_on_the_manifold(params_2d):
    rng = np.random.default_rng(7)
    for _ in range(10):
        profile = F.FiberProfile(base=random_summary(rng), params=params_2d)
        xi_star = F.fiber_root(profile)
        on_manifold = F.scale_summary(profile.base, xi_star, params_2d)
        scale = max(1.0, on_manifold.A)
        assert abs(pohozaev(on_manifold, params_2d)) <= 1e-11 * scale
        assert abs(manifold_identity_residual(on_manifold, params_2d)) <= 1e-11 * scale


def test_gradient_field_matches_finite_differences(params_1d):
    grid = make_grid(1, 128, 10.0)
    u = sample(grid, "gaussian", {"width": 1.0})
    v = sample(grid, "random_bandlimited", {"cutoff": 0.4, "envelope_width": 2.0},
               seed=9)
    g = gradient_field(u, params_1d)
    h = grid.cell_volume
    pairing = h * float(np.sum(g.values * v.values))
    eps = 1e-6
    e_plus = energy(summarize(F.Field(grid, u.values + eps * v.values),
                              params_1d), params_1d)
    e_minus = energy(summarize(F.Field(grid, u.values - eps * v.values),
                               params_1d), params_1d)
    fd = (e_plus - e_minus) / (2.0 * eps)
    assert pairing == pytest.approx(fd, rel=1e-5)


def test_multiplier_formula(params_1d):
    rng = np.random.default_rng(3)
    s4 = random_summary(rng)
    expected = (s4.A - s4.B_star - params_1d.eta * s4.B_p) / s4.M
    assert lagrange_multiplier(s4, params_1d) == pytest.approx(expected, rel=1e-14)


# ----------------------------------------------------------------------
# the small-seminorm geometry


def constants_report(S, C, params):
    return ConstantsReport(S_est=S, C_est=C, grid=make_grid(params.dim, 64, 20.0),
                           params=params, refinement={"S": [[64, S]], "C": [[64, C]]},
                           converged=True)


def test_rho_sobolev_branch_closed_form():
    # With S = 2, C = 1, m = 1, eta = 0.1 (2D, s = 1/2, p = 7/2) the
    # eta-independent branch wins: rho = (4/8)^1 * (2/2)^2 = 1/2.
    params = ModelParams(dim=2, s=0.5, p=3.5, eta=0.1, m=1.0)
    rep = rho(params, constants_report(2.0, 1.0, params))
    assert isinstance(rep, GeometryReport)
    assert rep.branch == 2
    assert rep.rho == pytest.approx(0.5, rel=1e-14)


def test_rho_coupling_branch_closed_form():
    # Same constants at eta = 10: the coupling branch takes over with
    # rho = (p / (8 eta 2^{p zeta/2}))^{4s/(Np-2N-4s)}.
    params = ModelParams(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0)
    rep = rho(params, constants_report(2.0, 1.0, params))
    assert rep.branch == 1
    expected = (3.5 / (8.0 * 10.0 * 2.0 ** 1.5)) ** 2
    assert rep.rho == pytest.approx(expected, rel=1e-14)


def test_rho_rejects_nonpositive_constants(params_2d):
    # A NaN C once fell through both comparisons of the minimum and
    # returned branch 2 with a finite rho. The lower bound read S = -1 as
    # a finite, wrong bound, S = NaN as NaN, and a negative A raised
    # numpy's RuntimeWarning.
    for bad in (0.0, -2.0, math.nan, math.inf, True):
        for call in (lambda rep: rho(params_2d, rep),
                     lambda rep: geometry_lower_bound(0.1, params_2d, rep)):
            with pytest.raises(ValueError, match="S_est must be finite and positive, got %r"
                                                 % bad):
                call(constants_report(bad, 1.0, params_2d))
            with pytest.raises(ValueError, match="C_est must be finite and positive, got %r"
                                                 % bad):
                call(constants_report(1.0, bad, params_2d))
    good = constants_report(1.0, 1.0, params_2d)
    for A in (-1.0, math.nan, math.inf, [0.1, -0.2]):
        with pytest.raises(ValueError, match="seminorm A must be finite and at least 0, "
                                             "got %r" % float(np.ravel(A)[-1])):
            geometry_lower_bound(A, params_2d, good)
    # A string, a bool or an array of strings once gave a finite bound.
    for A in ("0.4", True, np.array(["0.1", "0.2"]), 0.1 + 0j):
        with pytest.raises(ValueError, match="seminorm A must have an integer or float dtype, "
                                             "got "):
            geometry_lower_bound(A, params_2d, good)


def test_lower_bound_positive_up_to_rho(params_2d, constants_2d):
    rep = rho(params_2d, constants_2d)
    radii = np.geomspace(rep.rho * 1e-8, rep.rho, 500)
    vals = geometry_lower_bound(radii, params_2d, constants_2d)
    assert vals.shape == radii.shape
    assert np.all(vals > 0.0)
    scalar = geometry_lower_bound(rep.rho, params_2d, constants_2d)
    assert isinstance(scalar, float)
    assert scalar > 0.0


def test_lower_bound_dominated_by_linear_term_at_tiny_radius(params_2d,
                                                             constants_2d):
    rep = rho(params_2d, constants_2d)
    tiny = rep.rho * 1e-10
    assert geometry_lower_bound(tiny, params_2d, constants_2d) == pytest.approx(
        0.5 * tiny, rel=1e-4)


def test_rho_decreases_with_coupling(constants_2d):
    values = []
    for k in range(0, 7):
        params = ModelParams(dim=2, s=0.5, p=3.5, eta=10.0 ** k, m=1.0)
        values.append(rho(params, constants_2d).rho)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-8 * values[0]
