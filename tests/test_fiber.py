"""The dilation fiber at summary level: transport, derivative, root."""

import math

import numpy as np
import pytest

from fracnlse import (DegenerateFiberError, Field, FiberProfile, FieldSummary,
                      ModelParams, fiber_derivative_residual, fiber_energy,
                      fiber_pohozaev, fiber_root, make_grid, sample, scale_summary,
                      summarize)


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


def _bisection_root(profile):
    """The fiber root by plain bisection from the same doubling bracket,
    returning (xi, evaluations): the reference fiber_root must equal."""
    params = profile.params
    A, Bp, Bs = profile.base.A, profile.base.B_p, profile.base.B_star
    cp = params.eta * params.zeta_p
    e_star = params.two_star - 2.0
    e_p = params.zeta_p * params.p - 2.0

    def phi(t):
        return A - t ** e_star * Bs - cp * t ** e_p * Bp

    iters = 0
    lo = hi = 1.0
    f1 = phi(1.0)
    if f1 > 0.0:
        while phi(hi) > 0.0:
            hi *= 2.0
            iters += 1
        lo = hi / 2.0
    elif f1 < 0.0:
        while phi(lo) < 0.0:
            lo *= 0.5
            iters += 1
        hi = lo * 2.0
    while hi - lo > 1e-17 * hi and iters < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    return math.log(0.5 * (lo + hi)) / params.s, iters


def test_fiber_root_equals_bisection_bit_for_bit(params_1d, params_2d):
    # Every point fiber_root evaluates moves the bracket as a bisection
    # midpoint would, so it ends on the same adjacent pair. Profiles: random
    # ones, ones whose root sits 1e-12 .. 1e-2 from xi = 0 as in the solver's
    # projections, far roots behind 20 to 60 bracket doublings, the B_p = 0
    # closed form, and phi(1) = 0 exactly.
    rng = np.random.default_rng(10)
    profiles = []
    for params in (params_1d, params_2d):
        cp = params.eta * params.zeta_p
        for k in range(1200):
            s4 = random_summary(rng)
            if k % 3 == 1:
                xi0 = fiber_root(FiberProfile(base=s4, params=params))
                s4 = scale_summary(s4, xi0 + rng.normal() * 10.0 ** rng.uniform(-12, -2),
                                   params)
            elif k % 3 == 2 and k % 2:
                s4 = FieldSummary(A=s4.A * 2.0 ** rng.uniform(-60, 60), M=s4.M,
                                  B_p=s4.B_p, B_star=s4.B_star)
            elif k % 3 == 2:
                s4 = FieldSummary(A=s4.A, M=s4.M, B_p=0.0, B_star=s4.B_star)
            profiles.append(FiberProfile(base=s4, params=params))
        flat = [FieldSummary(A=3.0, M=1.0, B_p=2.0 / cp, B_star=1.0),
                FieldSummary(A=2.0, M=1.0, B_p=0.0, B_star=2.0)]
        assert flat[0].A - flat[0].B_star - cp * flat[0].B_p == 0.0
        for s4 in flat:
            assert fiber_root(FiberProfile(base=s4, params=params)) == 0.0
            profiles.append(FiberProfile(base=s4, params=params))
    deepest = 0.0
    for profile in profiles:
        xi_ref, iters_ref = _bisection_root(profile)
        xi, iters = fiber_root(profile, return_iterations=True)
        assert iters_ref < 200
        assert (xi, math.copysign(1.0, xi)) == (xi_ref, math.copysign(1.0, xi_ref)), profile
        deepest = max(deepest, abs(profile.params.s * xi) / math.log(2.0))
    assert deepest >= 20.0


def test_fiber_root_evaluations_near_the_root(params_1d, params_2d):
    # The solver's projections ask for roots within about 1e-2 of xi = 0,
    # where bisection spends about 53 evaluations and Newton a handful.
    rng = np.random.default_rng(11)
    counts = []
    for params in (params_1d, params_2d):
        for _ in range(500):
            s4 = random_summary(rng)
            xi0 = fiber_root(FiberProfile(base=s4, params=params))
            near = scale_summary(s4, xi0 + rng.normal() * 10.0 ** rng.uniform(-12, -2), params)
            counts.append(fiber_root(FiberProfile(base=near, params=params),
                                     return_iterations=True)[1])
    assert np.median(counts) <= 20


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
    # A non-finite component has no fiber maximum either. The summary of a
    # finite gaussian of amplitude 1e40 has B_star = inf, and its profile
    # once gave xi = -233.9 with a NaN fiber energy; a NaN A or B_p gave
    # xi = 0.
    grid = make_grid(1, 64, 10.0)
    loud = Field(grid, 1e40 * sample(grid, "gaussian", {"width": 1.0}).values)
    with np.errstate(over="ignore"):
        huge = summarize(loud, params_1d)
    assert huge.B_star == math.inf
    for base in (huge, FieldSummary(A=math.nan, M=1.0, B_p=1.0, B_star=1.0),
                 FieldSummary(A=1.0, M=1.0, B_p=math.nan, B_star=1.0)):
        with pytest.raises(DegenerateFiberError, match="degenerate fiber"):
            FiberProfile(base=base, params=params_1d)
    assert issubclass(DegenerateFiberError, ValueError)


def test_fiber_root_overflowing_bracket_fails_like_the_doubling_cap(params_1d):
    # The root sits near t = 1e75, past the point where t ** e_star (about 8
    # here) leaves the float range, about 128 doublings and before the cap
    # of 200: the overflow ends in the cap's RuntimeError, not OverflowError.
    profile = FiberProfile(base=FieldSummary(A=1e300, M=1.0, B_p=1e-300, B_star=1e-300),
                           params=params_1d)
    with pytest.raises(RuntimeError, match="fiber root bracket expansion failed"):
        fiber_root(profile)
