"""The invariant suite behind the verify subcommand.

Each check exercises one quantitative contract of the laboratory and is
keyed by a descriptive name. The four checks that read a constants report
(the geometry rows and the two probe sandwiches) are skipped (not failed)
when none is supplied. A report's S_est is the sharp Sobolev constant, so
the Sobolev sandwich checks resolved probes against the sharp inequality.
The compactness-threshold row reads the closed form and always runs.
Anchor solves are shared across checks through a lazy context so the whole
table runs in well under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fiber, functionals, solver
from .constants import gn_quotient, probe_fields, sobolev_quotient
from .fields import (Field, FieldSummary, _rfftn, _summary_values,
                     dense_oracle_frac_laplacian, dilate, frac_laplacian,
                     lp_norm_pow, sample, seminorm_sq, summarize)
from .grids import make_grid
from .params import ModelParams
from .solver import (SolveConfig, compactness_threshold, diagnose, pohozaev_project,
                     renormalize_mass, solve_ground_state)

PASS, FAIL, SKIP = "pass", "fail", "skip"
_SEED = 7  # with the registry position, seeds each row's generator


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str


class _Context:
    """Lazy shared state: anchor solves, probe summaries, and the random
    generator of the row being run (run_checks sets a fresh one per row).

    Rows take probe fields through probe_summaries, never as a list of
    fields: the probes are streamed and only their summaries are kept.
    """

    def __init__(self, constants=None):
        self.constants = constants
        self.rng = None
        self._cache: dict = {}

    def params1d(self) -> ModelParams:
        return ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0)

    def params2d(self) -> ModelParams:
        return ModelParams(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0)

    def random_summary(self) -> FieldSummary:
        vals = np.exp(self.rng.normal(size=4))
        return FieldSummary(A=vals[0], M=vals[1], B_p=vals[2], B_star=vals[3])

    def probe_summaries(self, grid, params, count, seed) -> list:
        """Summaries of probe_fields(grid, params, count, seed), in order,
        computed once per run and shared by every row that asks for the
        same set; each probe is summarized as it is drawn and then dropped."""
        key = ("probes", grid, params, count, seed)
        if key not in self._cache:
            self._cache[key] = [_summary_values(u, grid, params)
                                for u in probe_fields(grid, params, count, seed)]
        return self._cache[key]

    def anchor2d(self):
        """Converged compact solve: 2D, eta = 10, wide box."""
        if "anchor2d" not in self._cache:
            grid = make_grid(2, 256, 240.0)
            params = self.params2d()
            cfg = SolveConfig(grid=grid, tol_grad=5e-3, tol_pohozaev=1e-9)
            init = sample(grid, "gaussian", {"width": 12.0})
            self._cache["anchor2d"] = (solve_ground_state(init, params, cfg), params, cfg)
        return self._cache["anchor2d"]

    def anchor1d_pair(self):
        """Two-resolution compact 1D solves at eta = 10."""
        if "anchor1d" not in self._cache:
            params = ModelParams(dim=1, s=0.4, p=6.0, eta=10.0, m=1.0)
            out = []
            for n in (512, 1024):
                grid = make_grid(1, n, 40.0)
                cfg = SolveConfig(grid=grid, tol_grad=2e-3, tol_pohozaev=1e-9)
                init = sample(grid, "gaussian", {"width": 3.0})
                out.append(solve_ground_state(init, params, cfg))
            self._cache["anchor1d"] = (out, params)
        return self._cache["anchor1d"]


# ----------------------------------------------------------------------
# individual checks; each returns (ok, detail) or raises


def _check_transform_round_trip(ctx):
    worst = 0.0
    for dim, n, L in ((1, 64, 10.0), (2, 16, 5.0), (3, 8, 3.0)):
        grid = make_grid(dim, n, L)
        u = ctx.rng.standard_normal(grid.shape)
        back = np.fft.irfftn(_rfftn(u))
        worst = max(worst, float(np.max(np.abs(back - u)) / np.max(np.abs(u))))
    return worst <= 1e-12, "max round-trip error %.2e" % worst


def _check_operator_dense_oracle(ctx):
    """Spectral operator vs the dense oracle on random fields, and on a
    band-limited and a gaussian field at L = 10; deviations relative in
    max-abs and in L2."""
    fields = []
    for dim, n, L, s in ((1, 16, 4.0, 0.3), (1, 32, 10.0, 0.5), (2, 16, 5.0, 0.7)):
        grid = make_grid(dim, n, L)
        fields.append((Field(grid, ctx.rng.standard_normal(grid.shape)), s))
    for dim, n, s in ((1, 16, 0.4), (1, 32, 0.4), (2, 16, 0.5)):
        grid = make_grid(dim, n, 10.0)
        fields.append((sample(grid, "random_bandlimited", {"cutoff": 1.0}, seed=3), s))
        fields.append((sample(grid, "gaussian", {"width": 2.0}), s))
    worst_max, worst_l2 = 0.0, 0.0
    for u, s in fields:
        fast = frac_laplacian(u, s).values
        dense = dense_oracle_frac_laplacian(u, s).values
        worst_max = max(worst_max, float(np.max(np.abs(fast - dense))
                                         / np.max(np.abs(dense))))
        worst_l2 = max(worst_l2, float(np.linalg.norm(fast - dense)
                                       / np.linalg.norm(dense)))
    ok = worst_max <= 1e-10 and worst_l2 <= 1e-10
    return ok, ("max operator deviation %.2e (max-abs), %.2e (L2) over %d fields"
                % (worst_max, worst_l2, len(fields)))


def _check_operator_self_adjointness(ctx):
    grid = make_grid(1, 128, 10.0)
    s = 0.4
    worst = 0.0
    for _ in range(5):
        u = Field(grid, ctx.rng.standard_normal(grid.shape))
        v = Field(grid, ctx.rng.standard_normal(grid.shape))
        au = frac_laplacian(u, s).values
        av = frac_laplacian(v, s).values
        h = grid.cell_volume
        ip_uv = float(h * np.sum(au * v.values))
        ip_vu = float(h * np.sum(u.values * av))
        quad = float(h * np.sum(au * u.values))
        worst = max(worst, abs(ip_uv - ip_vu) / max(abs(ip_uv), 1e-300))
        worst = max(worst, abs(quad - seminorm_sq(u, s)) / max(quad, 1e-300))
    return worst <= 1e-10, "max symmetry/quadratic-form deviation %.2e" % worst


def _check_seminorm_classical_limit(ctx):
    grid = make_grid(1, 256, 20.0)
    u = sample(grid, "gaussian", {"width": 1.0})
    a_frac = seminorm_sq(u, 0.999)
    spec = np.fft.fftn(u.values)
    weight = grid.cell_volume / grid.num_points
    a_classic = float(weight * np.sum(grid.wavenumber_sq()
                                      * (spec.real ** 2 + spec.imag ** 2)))
    rel = abs(a_frac - a_classic) / a_classic
    return rel <= 0.02, "s=0.999 vs classical Dirichlet form: %.2e relative" % rel


def _wavelet_field(grid):
    """Mean-zero even bump: its spectrum vanishes to second order at k = 0.

    The seminorm quadrature's only slowly-converging contribution is the
    |k|^{2s} cusp at the origin, weighted by |u-hat(0)|^2. Fields with zero
    mean and zero second spectral moment suppress it, so the dilation laws
    can be resolved at full interpolation accuracy on the default grids.
    """
    r2 = grid.radius() ** 2
    return Field(grid, (grid.dim - r2) * np.exp(-r2 / 2.0))


def _check_dilation_scaling_laws(ctx):
    """All four summary transport laws under grid dilation, |xi| <= 1:
    the grid action agrees with fiber.scale_summary.

    The 1D default grid holds a single wavelet across the whole dilation
    range. In 2D the range e^{-1}..e^{1} of widths does not fit between the
    resolution floor and the decay ceiling of the 128-point default box, so
    the 2D case runs on a 512-point box of half-length 32; the seminorm law
    is measured on the wavelet (cusp-free spectrum) and the norm laws on a
    gaussian (smooth fractional powers).
    """
    worst = 0.0
    params1 = ctx.params1d()
    grid1 = make_grid(1, 1024, 40.0)
    u = _wavelet_field(grid1)
    base = summarize(u, params1)
    for xi in (-1.0, -0.8, -0.3, 0.5, 0.6, 1.0):
        got = summarize(dilate(u, xi), params1)
        want = fiber.scale_summary(base, xi, params1)
        for g, w in zip(got.as_tuple(), want.as_tuple()):
            worst = max(worst, abs(g - w) / abs(w))

    params2 = ctx.params2d()
    grid2 = make_grid(2, 512, 32.0)
    r2 = grid2.radius() ** 2
    wav = Field(grid2, (2.0 - r2 / 0.49) * np.exp(-r2 / 0.98))
    gau = Field(grid2, np.exp(-r2 / 0.98))
    base_w = summarize(wav, params2)
    base_g = summarize(gau, params2)
    for xi in (-1.0, -0.3, 0.5, 1.0):
        got_w = summarize(dilate(wav, xi), params2)
        want_w = fiber.scale_summary(base_w, xi, params2)
        worst = max(worst, abs(got_w.A - want_w.A) / want_w.A)
        got_g = summarize(dilate(gau, xi), params2)
        want_g = fiber.scale_summary(base_g, xi, params2)
        for g, w in zip(got_g.as_tuple()[1:], want_g.as_tuple()[1:]):
            worst = max(worst, abs(g - w) / abs(w))
    return worst <= 1e-6, "max scaling-law deviation %.2e" % worst


def _check_dilation_mass_invariance(ctx):
    grid = make_grid(1, 1024, 40.0)
    u = sample(grid, "random_bandlimited",
               {"cutoff": 0.2, "envelope_width": grid.half_length / 10.0}, seed=3)
    v = dilate(u, 0.5)
    m_in = lp_norm_pow(u, 2.0)
    m_out = lp_norm_pow(v, 2.0)
    rel = abs(m_out - m_in) / m_in
    return rel <= 1e-8, "mass change %.2e relative under xi = 0.5" % rel


def _check_summary_action_exactness(ctx):
    """fiber.scale_summary against its closed form, the group law
    xi -> a then b equals a + b, and mass invariance, in 1D and 2D."""
    worst_law, worst_closed = 0.0, 0.0
    for i in range(100):
        params = ctx.params1d() if i % 2 == 0 else ctx.params2d()
        n, s = params.dim, params.s
        base = ctx.random_summary()
        a, b = ctx.rng.uniform(-2, 2, size=2)
        moved = fiber.scale_summary(base, a, params)
        if moved.M != base.M:
            return False, "mass not invariant under the summary action"
        closed = (math.exp(2.0 * s * a) * base.A, base.M,
                  math.exp((params.p - 2.0) * n * a / 2.0) * base.B_p,
                  math.exp((params.two_star - 2.0) * n * a / 2.0) * base.B_star)
        for g, w in zip(moved.as_tuple(), closed):
            worst_closed = max(worst_closed, abs(g - w) / abs(w))
        once = fiber.scale_summary(moved, b, params)
        straight = fiber.scale_summary(base, a + b, params)
        for g, w in zip(once.as_tuple(), straight.as_tuple()):
            worst_law = max(worst_law, abs(g - w) / max(abs(w), 1e-300))
    ok = worst_law <= 1e-12 and worst_closed <= 1e-12
    return ok, ("max group-law deviation %.2e, closed-form transport %.2e"
                % (worst_law, worst_closed))


def _check_fiber_derivative_identity(ctx):
    worst = 0.0
    for i in range(100):
        params = ctx.params1d() if i % 2 == 0 else ctx.params2d()
        prof = fiber.FiberProfile(ctx.random_summary(), params)
        xi = float(ctx.rng.uniform(-1.5, 1.5))
        worst = max(worst, fiber.fiber_derivative_residual(prof, xi))
    return worst <= 1e-6, "max derivative-identity residual %.2e (100 pairs)" % worst


def _check_fiber_root_contract(ctx):
    worst_res, worst_iters, worst_shift = 0.0, 0, 0.0
    for i in range(50):
        params = ctx.params1d() if i % 2 == 0 else ctx.params2d()
        prof = fiber.FiberProfile(ctx.random_summary(), params)
        xi_star, iters = fiber.fiber_root(prof, return_iterations=True)
        worst_iters = max(worst_iters, iters)
        scale = math.exp(2.0 * params.s * xi_star) * prof.base.A
        worst_res = max(worst_res, abs(fiber.fiber_pohozaev(prof, xi_star)) / scale)
        e_star = fiber.fiber_energy(prof, xi_star)
        for delta in (1e-3, 1e-2, 1e-1):
            if (fiber.fiber_energy(prof, xi_star + delta) >= e_star
                    or fiber.fiber_energy(prof, xi_star - delta) >= e_star):
                return False, "fiber energy not maximal at the root"
        c = float(ctx.rng.uniform(-1, 1))
        shifted = fiber.FiberProfile(
            fiber.scale_summary(prof.base, c, params), params)
        worst_shift = max(worst_shift,
                          abs(fiber.fiber_root(shifted) - (xi_star - c)))
    ok = worst_res <= 1e-12 and worst_iters <= 200 and worst_shift <= 1e-9
    return ok, ("max residual %.1e, max iterations %d, max transport error %.1e"
                % (worst_res, worst_iters, worst_shift))


def _check_gradient_finite_difference(ctx):
    """Checks gradient_field, the gradient the descent forms, at mu = 0,
    against central differences of the energy."""
    grid = make_grid(1, 64, 8.0)
    params = ctx.params1d()
    h = grid.cell_volume
    worst = 0.0
    for _ in range(100):
        u = sample(grid, "random_bandlimited", {"cutoff": 0.3},
                   seed=int(ctx.rng.integers(0, 2 ** 31)))
        phi = sample(grid, "random_bandlimited", {"cutoff": 0.3},
                     seed=int(ctx.rng.integers(0, 2 ** 31)))
        g = functionals.gradient_field(u, params)
        pairing = float(h * np.sum(g.values * phi.values))
        eps = 1e-5
        ep = functionals.energy(summarize(Field(grid, u.values + eps * phi.values),
                                          params), params)
        em = functionals.energy(summarize(Field(grid, u.values - eps * phi.values),
                                          params), params)
        fd = (ep - em) / (2.0 * eps)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1.0))
    return worst <= 1e-5, "max gradient/FD deviation %.2e (100 pairs)" % worst


def _check_multiplier_sign_identity(ctx):
    worst = 0.0
    for i in range(100):
        params = ctx.params1d() if i % 2 == 0 else ctx.params2d()
        prof = fiber.FiberProfile(ctx.random_summary(), params)
        on_manifold = fiber.scale_summary(prof.base, fiber.fiber_root(prof), params)
        mu = functionals.lagrange_multiplier(on_manifold, params)
        worst = max(worst, functionals._multiplier_identity_rel(mu, on_manifold, params))
    return worst <= 1e-12, "max multiplier-identity deviation %.2e at P = 0" % worst


def _check_manifold_energy_identity(ctx):
    worst, worst_on_manifold = 0.0, 0.0
    for i in range(200):
        params = ctx.params1d() if i % 2 == 0 else ctx.params2d()
        summary = ctx.random_summary()
        res = functionals.manifold_identity_residual(summary, params)
        half_p = 0.5 * functionals.pohozaev(summary, params)
        scale = max(abs(half_p), summary.A + summary.B_star)
        worst = max(worst, abs(res - half_p) / scale)
        if i % 4 == 0:
            xi = fiber.fiber_root(fiber.FiberProfile(summary, params))
            projected = fiber.scale_summary(summary, xi, params)
            worst_on_manifold = max(
                worst_on_manifold,
                abs(functionals.manifold_identity_residual(projected, params))
                / max(1.0, projected.A))
    ok = worst <= 1e-12 and worst_on_manifold <= 1e-12
    return ok, ("max deviation from P/2 %.2e (200 summaries), at P = 0 %.2e"
                % (worst, worst_on_manifold))


def _check_quotient_invariance(ctx):
    params = ctx.params1d()
    worst = 0.0
    for _ in range(50):
        base = ctx.random_summary()
        s_q = sobolev_quotient(base, params)
        g_q = gn_quotient(base, params)
        for lam in (0.1, 3.0):
            scaled = FieldSummary(A=lam * lam * base.A, M=lam * lam * base.M,
                                  B_p=lam ** params.p * base.B_p,
                                  B_star=lam ** params.two_star * base.B_star)
            worst = max(worst, abs(sobolev_quotient(scaled, params) - s_q) / s_q)
            worst = max(worst, abs(gn_quotient(scaled, params) - g_q) / g_q)
        for xi in (-0.7, 1.2):
            moved = fiber.scale_summary(base, xi, params)
            worst = max(worst, abs(sobolev_quotient(moved, params) - s_q) / s_q)
            worst = max(worst, abs(gn_quotient(moved, params) - g_q) / g_q)
    return worst <= 1e-12, "max quotient drift %.2e under scaling and dilation" % worst


def _check_tangent_projection(ctx):
    """The solver's descent direction is tangent to the mass sphere at u:
    <d, u> relative to |d| |u|, on random 1D fields."""
    params = ctx.params1d()
    grid = make_grid(1, 128, 10.0)
    h = grid.cell_volume
    worst = 0.0
    for _ in range(20):
        u = ctx.rng.standard_normal(grid.shape)
        uh = _rfftn(u)
        S = _summary_values(u, grid, params, uh)
        _, d, _ = solver._direction(u, uh, S, params, grid)
        ip = abs(float(h * np.sum(d * u)))
        worst = max(worst, ip / math.sqrt(float(h * np.sum(d * d)) * S.M))
    return worst <= 1e-10, "max residual inner product %.2e relative" % worst


def _check_mass_renormalization(ctx):
    grid = make_grid(1, 128, 10.0)
    worst = 0.0
    for m in (0.5, 1.0, 2.5):
        u = Field(grid, ctx.rng.standard_normal(grid.shape))
        v = renormalize_mass(u, m)
        worst = max(worst, abs(lp_norm_pow(v, 2.0) - m * m) / (m * m))
    return worst <= 1e-12, "max mass error %.2e relative" % worst


def _check_pohozaev_projection(ctx):
    params = ctx.params1d()
    grid = make_grid(1, 1024, 40.0)
    u = renormalize_mass(sample(grid, "gaussian", {"width": 1.0}), 1.0)
    proj = pohozaev_project(u, params)
    s1 = summarize(proj, params)
    resid = abs(functionals.pohozaev(s1, params)) / s1.A
    twice = pohozaev_project(proj, params)
    drift = float(np.max(np.abs(twice.values - proj.values))
                  / np.max(np.abs(proj.values)))
    moved = pohozaev_project(dilate(u, 0.3), params)
    equiv = float(np.max(np.abs(moved.values - proj.values))
                  / np.max(np.abs(proj.values)))
    ok = resid <= 1e-6 and drift <= 1e-6 and equiv <= 1e-6
    return ok, ("post-projection |P|/A %.1e, idempotence drift %.1e, "
                "equivariance gap %.1e" % (resid, drift, equiv))


def _check_descent_monotone(ctx):
    report, _, _ = ctx.anchor2d()
    energies = [h[0] for h in report.history]
    flat = sum(1 for a, b in zip(energies, energies[1:]) if b >= a)
    return flat == 0, "%d accepted steps without a strict decrease over %d iterations" % (
        flat, len(energies))


def _check_converged_run(ctx):
    report, params, cfg = ctx.anchor2d()
    if not report.converged:
        return False, "anchor run did not converge"
    S = report.summary
    diag = diagnose(report, params)
    ok = (diag.all_ok
          and report.pde_residual <= cfg.tol_grad * max(1.0, S.A) / math.sqrt(S.M)
          and report.pohozaev_residual <= cfg.tol_pohozaev)
    return ok, ("E %.4e, mu %.3e, identity residuals %.1e/%.1e, PDE residual %.1e"
                % (report.energy_level, report.mu, diag.multiplier_identity_rel,
                   diag.energy_identity_rel, report.pde_residual))


def _check_grid_refinement(ctx):
    (coarse, fine), _ = ctx.anchor1d_pair()
    rel = abs(coarse.energy_level - fine.energy_level) / fine.energy_level
    return rel <= 0.01, "level agreement %.3e relative between n and 2n" % rel


def _check_geometry_gap(ctx):
    rep = ctx.constants
    params = rep.params
    geo = functionals.rho(params, rep)
    if not (geo.rho > 0):
        return False, "radius not positive"
    grid = make_grid(params.dim, 256, 20.0)
    count = 200
    worst = math.inf
    for i, u in enumerate(probe_fields(grid, params, count, seed=23)):
        base = _summary_values(params.m * u, grid, params)
        target_a = geo.rho * (0.005 + 0.995 * (i / max(1, count - 1)))
        xi = math.log(target_a / base.A) / (2.0 * params.s)
        small = fiber.scale_summary(base, xi, params)
        worst = min(worst, functionals.energy(small, params))
    sweep = np.linspace(geo.rho * 1e-4, geo.rho, 2000)
    bound = functionals.geometry_lower_bound(sweep, params, rep)
    ok = worst > 0.0 and bool(np.all(bound > 0.0))
    return ok, ("rho %.4g (branch %d), min sampled energy %.3e, min bound %.3e"
                % (geo.rho, geo.branch, worst, float(np.min(bound))))


def _check_geometry_radius_decay(ctx):
    rep = ctx.constants
    values = []
    branches = []
    for k in range(7):
        geo = functionals.rho(replace(rep.params, eta=10.0 ** k), rep)
        values.append(geo.rho)
        branches.append(geo.branch)
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    strict_after_1 = all(b < a for a, b, br in zip(values, values[1:], branches[1:])
                         if br == 1)
    ok = nonincreasing and strict_after_1 and values[-1] < 1e-3 * values[0]
    return ok, ("rho falls from %.4g to %.4g across eta = 1..1e6 (ratio %.2e)"
                % (values[0], values[-1], values[-1] / values[0]))


def _probe_summaries(ctx, rep):
    """The probe sandwich's 50 probes on the finest Sobolev rung's grid."""
    n_fine = rep.refinement["S"][-1][0]
    grid = make_grid(rep.grid.dim, int(n_fine), rep.grid.half_length)
    return ctx.probe_summaries(grid, rep.params, count=50, seed=5)


def _check_sobolev_inequality(ctx):
    rep = ctx.constants
    lo = math.inf
    for summary in _probe_summaries(ctx, rep):
        lo = min(lo, sobolev_quotient(summary, rep.params))
    return lo > rep.S_est, ("min probe quotient %.4f vs sharp S %.4f, margin %.3f"
                            % (lo, rep.S_est, lo - rep.S_est))


def _check_gn_inequality(ctx):
    rep = ctx.constants
    hi = 0.0
    for summary in _probe_summaries(ctx, rep):
        hi = max(hi, gn_quotient(summary, rep.params))
    cap = rep.C_est ** rep.params.p
    return hi < cap, ("max probe quotient %.4f vs estimate^p %.4f, margin %.3f"
                      % (hi, cap, cap - hi))


def _check_threshold_margin(ctx):
    """Both anchor levels (2D, and the 1D pair's n = 512 run) below the
    compactness threshold of their (N, s)."""
    report2d, params2d, _ = ctx.anchor2d()
    (report1d, _), params1d = ctx.anchor1d_pair()
    margins, parts = [], []
    for tag, report, params in (("2D", report2d, params2d), ("1D", report1d, params1d)):
        threshold = compactness_threshold(params)
        margins.append(threshold - report.energy_level)
        parts.append("%s threshold %.4f, level %.4f, margin %.4f"
                     % (tag, threshold, report.energy_level, margins[-1]))
    return min(margins) > 0.0, "; ".join(parts)


CHECKS = [
    ("transform-round-trip", _check_transform_round_trip),
    ("operator-dense-oracle", _check_operator_dense_oracle),
    ("operator-self-adjointness", _check_operator_self_adjointness),
    ("seminorm-classical-limit", _check_seminorm_classical_limit),
    ("dilation-scaling-laws", _check_dilation_scaling_laws),
    ("dilation-mass-invariance", _check_dilation_mass_invariance),
    ("summary-action-exactness", _check_summary_action_exactness),
    ("fiber-derivative-identity", _check_fiber_derivative_identity),
    ("fiber-root-contract", _check_fiber_root_contract),
    ("gradient-finite-difference", _check_gradient_finite_difference),
    ("multiplier-sign-identity", _check_multiplier_sign_identity),
    ("manifold-energy-identity", _check_manifold_energy_identity),
    ("quotient-invariance", _check_quotient_invariance),
    ("tangent-projection-orthogonality", _check_tangent_projection),
    ("mass-renormalization", _check_mass_renormalization),
    ("pohozaev-projection-contract", _check_pohozaev_projection),
    ("descent-monotone-energy", _check_descent_monotone),
    ("converged-run-diagnostics", _check_converged_run),
    ("grid-refinement-agreement", _check_grid_refinement),
    ("geometry-gap-positivity", _check_geometry_gap),
    ("geometry-radius-decay", _check_geometry_radius_decay),
    ("sobolev-inequality-with-estimate", _check_sobolev_inequality),
    ("gn-inequality-with-estimate", _check_gn_inequality),
    ("compactness-threshold-margin", _check_threshold_margin),
]

# Rows that read the constants estimates; without them they are skipped.
_NEEDS_CONSTANTS = {"geometry-gap-positivity", "geometry-radius-decay",
                    "sobolev-inequality-with-estimate", "gn-inequality-with-estimate"}


def run_checks(constants=None, names=None) -> list:
    """Run the table, or the rows it names (an unknown name raises
    ValueError); returns CheckResult rows in registry order.

    Each row draws from its own generator, seeded by (_SEED, registry
    position), so its detail does not depend on which rows are selected.
    """
    if names is not None:
        unknown = sorted(set(names) - {name for name, _ in CHECKS})
        if unknown:
            raise ValueError("unknown verify rows: %s" % ", ".join(unknown))
    ctx = _Context(constants=constants)
    rows = []
    for position, (name, fn) in enumerate(CHECKS):
        if names is not None and name not in names:
            continue
        if constants is None and name in _NEEDS_CONSTANTS:
            rows.append(CheckResult(name, SKIP, "requires constants estimates"))
            continue
        ctx.rng = np.random.default_rng([_SEED, position])
        try:
            ok, detail = fn(ctx)
        except Exception as exc:  # noqa: BLE001 - failures become table rows
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        rows.append(CheckResult(name, PASS if ok else FAIL, detail))
    return rows
