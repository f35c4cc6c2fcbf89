"""Release gate: eleven quantitative criteria, one test and one line each.

Each test prints a single line with the measured quantities and its
verdict, then asserts the stated tolerances. Two criteria are expected to
fail on the shipped grids and are left failing on purpose:

* criterion 5: at the baseline coupling (1D, eta = 1) the discrete
  Pohozaev manifold misses the discrete critical point, so the PDE
  residual floors near 2.6e-1 (tolerance 1e-6) and the multistart levels
  spread near 5.3e-4 relative (tolerance 1e-4);
* criterion 11: the same obstruction makes the baseline level drift with
  resolution, and the n = 1024 vs n = 2048 gap lands just above 1 percent.

Both record a real property of the discretized baseline problem, not a
solver defect; the compact regime (2D anchors, the coupling sweep) meets
every stated bound.
"""

import math

import numpy as np
import pytest

import fracnlse as F
from fracnlse import (Field, FieldSummary, FiberProfile, ModelParams,
                      compactness_threshold, dense_oracle_frac_laplacian,
                      dilate, energy, fiber_derivative_residual, fiber_root,
                      frac_laplacian, geometry_lower_bound, gn_quotient,
                      lp_norm_pow, make_grid,
                      manifold_identity_residual, pohozaev, probe_fields,
                      rho, sample, scale_summary, sobolev_quotient, summarize)


@pytest.fixture
def verdict(capsys):
    # The release record must show one verdict line per criterion even for
    # passing tests, so the print bypasses capture.
    def _verdict(num, label, ok, detail):
        with capsys.disabled():
            print("criterion %02d %s: %s -> %s"
                  % (num, label, detail, "PASS" if ok else "FAIL"),
                  flush=True)
        return "criterion %02d %s: %s" % (num, label, detail)

    return _verdict


def random_summary(rng):
    a, m, bp, bs = np.exp(rng.normal(size=4))
    return FieldSummary(A=a, M=m, B_p=bp, B_star=bs)


def rel_err(got, want):
    return abs(got - want) / abs(want)


# ----------------------------------------------------------------------


def test_criterion_01_operator_matches_dense_oracle(verdict):
    worst = 0.0
    for dim, n, s in [(1, 16, 0.4), (1, 32, 0.4), (2, 16, 0.5)]:
        grid = make_grid(dim, n, 10.0)
        fields = [sample(grid, "random_bandlimited", {"cutoff": 1.0}, seed=3),
                  sample(grid, "gaussian", {"width": 2.0})]
        for u in fields:
            fast = frac_laplacian(u, s).values
            dense = dense_oracle_frac_laplacian(u, s).values
            worst = max(worst, float(np.linalg.norm(fast - dense)
                                     / np.linalg.norm(dense)))
    ok = worst <= 1e-10
    msg = verdict(1, "operator-dense-oracle", ok,
                  "max rel deviation %.2e (tol 1e-10)" % worst)
    assert ok, msg


def test_criterion_02_dilation_scaling_laws(params_1d, params_2d, verdict):
    xis = (-1.0, -0.3, 0.5, 1.0)
    worst = 0.0

    def law_errors(u, params, keys):
        nonlocal worst
        base = summarize(u, params)
        for xi in xis:
            got = summarize(dilate(u, xi), params)
            want = scale_summary(base, xi, params)
            pairs = zip(got.as_tuple(), want.as_tuple())
            for key, (g, w) in zip(("A", "M", "B_p", "B_star"), pairs):
                if key in keys:
                    worst = max(worst, rel_err(g, w))

    # 1D, default grid: a mean-zero wavelet; its spectrum vanishes to
    # second order at k = 0, which suppresses the quadrature error of the
    # |k|^{2s} kink that a plain gaussian would feel at this resolution.
    g1 = make_grid(1, 1024, 40.0)
    r2 = g1.radius() ** 2
    law_errors(Field(g1, (1.0 - r2) * np.exp(-r2 / 2.0)), params_1d,
               ("A", "M", "B_p", "B_star"))

    # 2D needs a finer box than the default grid: holding a wavelet
    # resolved and decayed across e^{+-1} dilations takes n = 512, and the
    # |u|^p kink of the sign-changing wavelet caps its Lp quadrature near
    # 2.6e-6, so the Lp laws are witnessed on a gaussian instead.
    g2 = make_grid(2, 512, 32.0)
    r2 = g2.radius() ** 2
    law_errors(Field(g2, (2.0 - r2 / 0.49) * np.exp(-r2 / 0.98)),
               params_2d, ("A",))
    law_errors(Field(g2, np.exp(-r2 / 0.98)), params_2d,
               ("M", "B_p", "B_star"))

    # Summary-level action: group law and closed-form exponent transport.
    rng = np.random.default_rng(12)
    worst_summary = 0.0
    for params in (params_1d, params_2d):
        ex = F.derived_exponents(params)
        n = params.dim
        for _ in range(25):
            s4 = random_summary(rng)
            a, b = rng.uniform(-2.0, 2.0, size=2)
            once = scale_summary(s4, a + b, params)
            twice = scale_summary(scale_summary(s4, a, params), b, params)
            for g, w in zip(twice.as_tuple(), once.as_tuple()):
                worst_summary = max(worst_summary, rel_err(g, w))
            xi = a
            closed = (math.exp(2.0 * params.s * xi) * s4.A,
                      s4.M,
                      math.exp((params.p - 2.0) * n * xi / 2.0) * s4.B_p,
                      math.exp((ex.two_star - 2.0) * n * xi / 2.0) * s4.B_star)
            moved = scale_summary(s4, xi, params)
            for g, w in zip(moved.as_tuple(), closed):
                worst_summary = max(worst_summary, rel_err(g, w))

    ok = worst <= 1e-6 and worst_summary <= 1e-12
    msg = verdict(2, "dilation-scaling-laws", ok,
                  "max grid-law rel err %.2e (tol 1e-6), "
                  "summary action %.2e (tol 1e-12)" % (worst, worst_summary))
    assert ok, msg


def test_criterion_03_fiber_derivative_identity(params_1d, params_2d, verdict):
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(100):
        params = params_1d if i % 2 == 0 else params_2d
        profile = FiberProfile(base=random_summary(rng), params=params)
        xi = float(rng.uniform(-1.5, 1.5))
        worst = max(worst, fiber_derivative_residual(profile, xi))
    ok = worst <= 1e-6
    msg = verdict(3, "fiber-derivative-identity", ok,
                  "max residual %.2e over 100 pairs (tol 1e-6)" % worst)
    assert ok, msg


def test_criterion_04_manifold_energy_identity(params_1d, params_2d, verdict):
    rng = np.random.default_rng(6)
    worst = 0.0
    worst_on_manifold = 0.0
    for i in range(200):
        params = params_1d if i % 2 == 0 else params_2d
        s4 = random_summary(rng)
        res = manifold_identity_residual(s4, params)
        half_p = 0.5 * pohozaev(s4, params)
        scale = max(abs(half_p), s4.A + s4.B_star)
        worst = max(worst, abs(res - half_p) / scale)
        if i % 4 == 0:
            projected = scale_summary(
                s4, fiber_root(FiberProfile(base=s4, params=params)), params)
            worst_on_manifold = max(
                worst_on_manifold,
                abs(manifold_identity_residual(projected, params))
                / max(1.0, projected.A))
    ok = worst <= 1e-12 and worst_on_manifold <= 1e-12
    msg = verdict(4, "manifold-energy-identity", ok,
                  "max deviation from P/2: %.2e; at P = 0: %.2e "
                  "(tol 1e-12)" % (worst, worst_on_manifold))
    assert ok, msg


def test_criterion_05_baseline_ground_state(baseline_runs_1d, verdict):
    base = baseline_runs_1d["plain_1024"]
    seeds = baseline_runs_1d["noisy_1024"]
    energies = np.array([r.energy_level for r in seeds])
    spread = float((energies.max() - energies.min()) / energies.mean())
    ok = (base.converged
          and base.pohozaev_residual <= 1e-8
          and base.pde_residual <= 1e-6
          and base.mu < 0.0
          and base.energy_level > 0.0
          and spread <= 1e-4)
    msg = verdict(
        5, "baseline-ground-state", ok,
        "converged=%s |P|/A=%.1e (tol 1e-8) pde_residual=%.2e (tol 1e-6) "
        "mu=%.4f E=%.6f multistart spread=%.2e (tol 1e-4)"
        % (base.converged, base.pohozaev_residual, base.pde_residual,
           base.mu, base.energy_level, spread))
    assert ok, msg


def test_criterion_06_multiplier_identity(acceptance_sweep, anchor_2d, verdict):
    reports = [r for r in acceptance_sweep.reports if r is not None]
    reports.append(anchor_2d)
    assert all(r.converged for r in reports)
    worst = 0.0
    for r in reports:
        rel = r.mu_identity_residual / abs(r.mu * r.summary.M)
        worst = max(worst, rel)
    ok = worst <= 1e-8
    msg = verdict(6, "multiplier-identity", ok,
                  "max rel residual %.2e over %d converged solutions "
                  "(tol 1e-8)" % (worst, len(reports)))
    assert ok, msg


def test_criterion_07_level_decay_slope(acceptance_sweep, verdict):
    rep = acceptance_sweep
    energies = [e.energy for e in rep.entries]
    all_conv = all(e.converged for e in rep.entries)
    decreasing = all(a > b for a, b in zip(energies, energies[1:]))
    slope_ok = rep.slope is not None and abs(rep.slope - (-2.0)) <= 0.3
    ok = all_conv and decreasing and slope_ok
    msg = verdict(
        7, "level-decay-slope", ok,
        "slope %.4f vs -2 (tol +-0.3), E strictly decreasing=%s, "
        "levels %s" % (rep.slope, decreasing,
                       ", ".join("%.3e" % e for e in energies)))
    assert ok, msg


def test_criterion_08_compactness_threshold(acceptance_sweep, constants_2d,
                                            params_2d, verdict):
    threshold = compactness_threshold(params_2d, constants_2d)
    margins = [(e.eta, threshold - e.energy) for e in acceptance_sweep.entries
               if e.converged]
    positive = [eta for eta, margin in margins if margin > 0.0]
    empirical_eta = min(positive) if positive else None
    ok = (len(margins) == len(acceptance_sweep.entries)
          and len(positive) == len(margins)
          and all(b >= a for (_, a), (_, b) in zip(margins, margins[1:])))
    msg = verdict(
        8, "compactness-threshold", ok,
        "threshold %.4f, margins all positive=%s, empirical threshold "
        "eta=%s" % (threshold, len(positive) == len(margins), empirical_eta))
    assert ok, msg


def test_criterion_09_geometry_gap(params_2d, constants_2d, verdict):
    geo = rho(params_2d, constants_2d)
    radii = []
    for k in range(7):
        pk = ModelParams(dim=2, s=0.5, p=3.5, eta=10.0 ** k, m=1.0)
        radii.append(rho(pk, constants_2d).rho)
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(radii, radii[1:]))
    vanishing = radii[-1] < 1e-3 * radii[0]

    grid = make_grid(2, 256, 20.0)
    probes = probe_fields(grid, params_2d, count=200, seed=23)
    min_energy = math.inf
    for i, u in enumerate(probes):
        base = summarize(Field(grid, params_2d.m * u.values), params_2d)
        target = geo.rho * (0.005 + 0.995 * i / (len(probes) - 1))
        xi = math.log(target / base.A) / (2.0 * params_2d.s)
        min_energy = min(min_energy,
                         energy(scale_summary(base, xi, params_2d), params_2d))

    sweep = np.linspace(geo.rho * 1e-4, geo.rho, 2000)
    bounds = geometry_lower_bound(sweep, params_2d, constants_2d)
    ok = (geo.rho > 0.0 and nonincreasing and vanishing
          and min_energy > 0.0 and bool(np.all(bounds > 0.0)))
    msg = verdict(
        9, "geometry-gap", ok,
        "rho %.4g (branch %d), rho(1e6)/rho(1)=%.2e, min energy over 200 "
        "small-seminorm fields %.3e, min closed-form bound %.3e"
        % (geo.rho, geo.branch, radii[-1] / radii[0], min_energy,
           float(np.min(bounds))))
    assert ok, msg


def test_criterion_10_constants_stability(constants_1d, constants_2d, verdict):
    gaps = {}
    margins = {}
    for tag, rep in (("1d", constants_1d), ("2d", constants_2d)):
        for label in ("S", "C"):
            trace = rep.refinement[label]
            prev, last = trace[-2][1], trace[-1][1]
            gaps["%s-%s" % (tag, label)] = abs(last - prev) / abs(prev)
        grid = make_grid(rep.grid.dim, int(rep.refinement["S"][-1][0]),
                         rep.grid.half_length)
        sob, gn = math.inf, 0.0
        for u in probe_fields(grid, rep.params, count=50, seed=5):
            s4 = summarize(u, rep.params)
            sob = min(sob, sobolev_quotient(s4, rep.params))
            gn = max(gn, gn_quotient(s4, rep.params))
        margins[tag] = (sob - rep.S_est, rep.C_est ** rep.params.p - gn)
    ok = (constants_1d.converged and constants_2d.converged
          and all(g <= 0.05 for g in gaps.values())
          and all(m > 0.0 for pair in margins.values() for m in pair))
    msg = verdict(
        10, "constants-stability", ok,
        "doubling gaps %s (tol 5%%), probe margins (Sobolev, GN) %s"
        % ({k: "%.3f%%" % (100 * v) for k, v in sorted(gaps.items())},
           {k: "(%.3f, %.3f)" % v for k, v in sorted(margins.items())}))
    assert ok, msg


def test_criterion_11_grid_refinement(baseline_runs_1d, verdict):
    e_coarse = baseline_runs_1d["plain_1024"].energy_level
    e_fine = baseline_runs_1d["plain_2048"].energy_level
    gap = abs(e_fine - e_coarse) / e_coarse
    ok = gap <= 0.01
    msg = verdict(
        11, "grid-refinement", ok,
        "E(n=1024)=%.6f E(n=2048)=%.6f rel gap %.4f%% (tol 1%%)"
        % (e_coarse, e_fine, 100 * gap))
    assert ok, msg
