"""The dilation fiber at summary level: transport, derivative, root."""

import math

import numpy as np
import pytest

from fracnlse import (DegenerateFiberError, FiberProfile, FieldSummary,
                      ModelParams, fiber_derivative_residual, fiber_energy,
                      fiber_pohozaev, fiber_root, scale_summary)


def random_summary(rng):
    a, m, bp, bs = np.exp(rng.normal(size=4))
    return FieldSummary(A=a, M=m, B_p=bp, B_star=bs)


def test_scale_summary_group_law(params_1d, params_2d):
    rng = np.random.default_rng(0)
    for params in (params_1d, params_2d):
        for _ in range(20):
            s4 = random_summary(rng)
            a, b = rng.uniform(-2.0, 2.0, size=2)
            once = scale_summary(s4, a + b, params)
            twice = scale_summary(scale_summary(s4, a, params), b, params)
            for lhs, rhs in zip(once.as_tuple(), twice.as_tuple()):
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_scale_summary_preserves_mass(params_1d):
    rng = np.random.default_rng(1)
    s4 = random_summary(rng)
    for xi in (-2.0, -0.3, 0.9, 2.5):
        assert scale_summary(s4, xi, params_1d).M == s4.M


def test_scale_summary_exponent_rates(params_2d):
    s4 = FieldSummary(A=1.0, M=1.0, B_p=1.0, B_star=1.0)
    xi = 0.37
    out = scale_summary(s4, xi, params_2d)
    assert out.A == pytest.approx(math.exp(2.0 * 0.5 * xi), rel=1e-14)
    assert out.B_p == pytest.approx(math.exp((3.5 - 2.0) * xi), rel=1e-14)
    # 2*_s = 2N/(N - 2s) = 4 in 2D at s = 1/2.
    assert out.B_star == pytest.approx(math.exp((4.0 - 2.0) * xi), rel=1e-14)


def test_fiber_energy_matches_transported_energy(params_1d):
    from fracnlse import energy

    rng = np.random.default_rng(2)
    s4 = random_summary(rng)
    profile = FiberProfile(base=s4, params=params_1d)
    for xi in (-1.0, 0.0, 0.6):
        direct = energy(scale_summary(s4, xi, params_1d), params_1d)
        assert fiber_energy(profile, xi) == pytest.approx(direct, rel=1e-14)


def test_fiber_root_closed_form_without_subcritical_term():
    # With B_p = 0 the root is t* = (A/B_star)^{1/(two_star - 2)}; in 2D at
    # s = 1/2 with A = 1, B_star = 4 this gives t* = 1/2, xi* = ln(1/2)/s.
    params = ModelParams(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0)
    profile = FiberProfile(
        base=FieldSummary(A=1.0, M=1.0, B_p=0.0, B_star=4.0), params=params)
    xi_star = fiber_root(profile)
    assert xi_star == pytest.approx(math.log(0.5) / 0.5, abs=1e-9)
    assert xi_star == pytest.approx(-1.386294, abs=1e-6)


def test_fiber_root_contract_random_profiles(params_1d, params_2d):
    rng = np.random.default_rng(3)
    for params in (params_1d, params_2d):
        for _ in range(15):
            profile = FiberProfile(base=random_summary(rng), params=params)
            xi_star, iters = fiber_root(profile, return_iterations=True)
            assert iters <= 200
            bound = 1e-12 * math.exp(2.0 * params.s * xi_star) * profile.base.A
            assert abs(fiber_pohozaev(profile, xi_star)) <= bound
            for delta in (1e-3, 1e-2, 1e-1):
                assert fiber_energy(profile, xi_star + delta) < fiber_energy(
                    profile, xi_star)
                assert fiber_energy(profile, xi_star - delta) < fiber_energy(
                    profile, xi_star)


def test_fiber_root_agrees_with_dense_scan(params_1d):
    rng = np.random.default_rng(4)
    s4 = random_summary(rng)
    profile = FiberProfile(base=s4, params=params_1d)
    xi_star = fiber_root(profile)
    xi = np.linspace(xi_star - 2.0, xi_star + 2.0, 1_000_001)
    pvals = (np.exp(2.0 * 0.4 * xi) * s4.A
             - np.exp((params_1d.two_star - 2.0) * xi / 2.0) * s4.B_star
             - params_1d.eta * params_1d.zeta_p
             * np.exp((6.0 - 2.0) * xi / 2.0) * s4.B_p)
    sign_change = np.nonzero(np.diff(np.sign(pvals)))[0]
    assert len(sign_change) == 1
    lo, hi = xi[sign_change[0]], xi[sign_change[0] + 1]
    assert lo - 1e-6 <= xi_star <= hi + 1e-6


def test_fiber_root_transports_along_the_fiber(params_2d):
    rng = np.random.default_rng(5)
    s4 = random_summary(rng)
    base_root = fiber_root(FiberProfile(base=s4, params=params_2d))
    for shift in (-1.2, 0.4, 2.0):
        moved = scale_summary(s4, shift, params_2d)
        moved_root = fiber_root(FiberProfile(base=moved, params=params_2d))
        assert moved_root == pytest.approx(base_root - shift, abs=1e-9)


def test_fiber_derivative_identity(params_1d, params_2d):
    rng = np.random.default_rng(6)
    for params in (params_1d, params_2d):
        for _ in range(25):
            profile = FiberProfile(base=random_summary(rng), params=params)
            xi = rng.uniform(-2.0, 2.0)
            assert fiber_derivative_residual(profile, xi) <= 1e-6


def test_fiber_energy_diverges_negative(params_1d):
    rng = np.random.default_rng(8)
    profile = FiberProfile(base=random_summary(rng), params=params_1d)
    assert fiber_energy(profile, 30.0) < -1e10
    # Far down the fiber only the quadratic term survives.
    assert abs(fiber_energy(profile, -30.0)) < 1e-9


def test_pohozaev_sign_change_across_root(params_1d):
    rng = np.random.default_rng(9)
    profile = FiberProfile(base=random_summary(rng), params=params_1d)
    xi_star = fiber_root(profile)
    assert fiber_pohozaev(profile, xi_star - 0.5) > 0.0
    assert fiber_pohozaev(profile, xi_star + 0.5) < 0.0


def test_degenerate_profiles_rejected(params_1d):
    with pytest.raises(DegenerateFiberError, match="degenerate fiber"):
        FiberProfile(base=FieldSummary(A=0.0, M=1.0, B_p=1.0, B_star=1.0),
                     params=params_1d)
    with pytest.raises(DegenerateFiberError, match="degenerate fiber"):
        FiberProfile(base=FieldSummary(A=1.0, M=1.0, B_p=0.0, B_star=0.0),
                     params=params_1d)
    assert issubclass(DegenerateFiberError, ValueError)
