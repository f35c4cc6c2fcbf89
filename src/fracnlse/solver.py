"""Ground-state computation by manifold-projected descent on the mass
sphere, plus the verdict on a converged state (its identities and its
margin below the closed-form compactness threshold) and the coupling sweep.

The iteration follows the constrained first-order optimality structure:
renormalize the mass, move the iterate onto the zero set of the Pohozaev
functional along its dilation fiber, then descend the energy along the
tangent-projected, multiplier-shifted gradient

    g = (-Delta)^s u - |u|^{2*-2} u - eta |u|^{p-2} u - mu u,
    mu = (A - B_star - eta B_p)/M,

so the fixed point solves the Euler-Lagrange equation on the sphere. The
loop keeps no copy of a formula: the gradient, in Fourier space, and the
multiplier come from functionals, the fiber root and the dilation
transport of summaries from fiber, and the projection returns the
spectrum and summary it measured last, so no state is transformed or
summarized twice.

Two performance choices matter. The loop works in Fourier space on the
rfftn half spectrum uh, which it carries beside the iterate u: the
gradient is formed as (|k|^{2s} - mu) uh - F[N(u)], preconditioned by
1/(1 + max(0, -mu) + |k|^{2s}), without which the stiff high-frequency
part of the operator makes plain descent impractically slow, and its
norm, the multiplier shift and both tangent projections are Plancherel
sums on the half spectra, so an iteration needs one forward transform of
N(u) and one inverse transform for the direction d. And each trial step
is prescreened with the exact fiber algebra (trial summary, fiber root,
closed-form projected energy) so that only steps already passing the
decrease test on the exact prediction pay for a grid dilation. A trial's
seminorm and mass are quadratic in the step and come in closed form from
spectra already in hand, so a trial touches the grid only for B_p and
B_star. The prescreen's summary and fiber root then start the realized
projection: its first dilation uses that root, so the trial itself is
never transformed unless it already lies on the Pohozaev set. Acceptance
always uses the realized post-projection energy: every state a dilation
produces is transformed and summarized afresh, and the last transform is
the next uh, which therefore equals the rfftn of the iterate exactly.
(Reusing the prescreen's transported summary for the realized state
instead, and carrying uh without a transform, left the 2D sweep unchanged
but made 1D baseline solves run for hundreds to thousands of extra
iterations.)

Both decrease tests compare the decrease itself, E - E_trial >= c al |g|^2.
The subtraction is exact for nearby energies, so a step that leaves E
unchanged is rejected even when c al |g|^2 is below half an ulp of E
(where the form E_trial <= E - c al |g|^2 would accept it). Every accepted
step therefore strictly lowers E, and once the guaranteed decrease falls
below the grid's projection noise the line search runs out of halvings
and the run ends there. Every report names its exit in stop_reason (see
STOP_REASONS).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import functionals
from .fields import (Field, FieldSummary, _check_dim, _dilate_values, _guard_decay,
                     _lp_values, _plancherel, _quadratic_price, _renorm, _rfftn,
                     _seminorm_sq_values, _summary_values, sample)
from .fiber import DegenerateFiberError, FiberProfile, fiber_root, scale_summary
from .grids import GridSpec, make_grid
from .params import ModelParams, _count, _positive, _real

_STEP_INIT = 1e-2       # first line-search step
_ARMIJO = 1e-4          # sufficient-decrease coefficient
_LINE_SEARCH_MAX = 60   # step halvings per iteration
# Why a descent ended: the tolerance test passed, the iteration budget ran
# out, or no step of the line search passed the decrease test.
STOP_REASONS = ("converged", "max-iters", "line-search")


@dataclass
class SolveConfig:
    grid: GridSpec | None = None
    tol_grad: float = 1e-8
    tol_pohozaev: float = 1e-8
    max_iters: int = 50000
    seed: int = 0
    init_noise: float = 0.0

    def __post_init__(self):
        _positive("tol_grad", self.tol_grad)
        _positive("tol_pohozaev", self.tol_pohozaev)
        _count("max_iters", self.max_iters)
        _count("seed", self.seed, least=0)
        _real(self.init_noise, lambda x: 0.0 <= x < math.inf,
              "init_noise must be finite and at least 0, got %r")


@dataclass
class SolveReport:
    final_field: Field
    summary: FieldSummary
    energy_level: float
    pohozaev_residual: float
    mu: float
    pde_residual: float
    iterations: int
    dilations: int  # grid dilations of the initial, realized and final projections
    history: list
    converged: bool
    stop_reason: str

    def to_dict(self) -> dict:
        """Every result but the final field and the history, which a run
        writes to files of their own."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("final_field", "history")}
        d["summary"] = asdict(self.summary)
        return d


# ----------------------------------------------------------------------
# elementary projections


def renormalize_mass(u: Field, m: float) -> Field:
    _positive("mass parameter m", m)
    return Field(u.grid, _renorm(u.values, u.grid, m))


# ----------------------------------------------------------------------
# the Pohozaev projection


def _project(values: np.ndarray, grid: GridSpec, params: ModelParams, rounds: int,
             tol: float, start: tuple | None = None) -> tuple:
    """Iterated fiber projection onto the Pohozaev zero set at mass m, at
    most `rounds` dilations; tol is relative to the current seminorm.
    Returns the projected values, their rfftn half spectrum and their
    summary, all measured on the returned values, and the number of
    dilations made.

    Each round measures its state (one transform and a summary), stops if
    it meets tol, and else dilates by the state's fiber root. With start =
    (S, xi), a summary of values found without a transform and its fiber
    root, the first round tests and dilates with those instead of
    measuring; every state a dilation produces is still measured."""
    dilations = 0
    if start is not None:
        S, xi = start
        if abs(functionals.pohozaev(S, params)) <= tol * S.A:
            rounds = 0
        else:
            values = _renorm(_dilate_values(values, grid, xi), grid, params.m)
            dilations += 1
            rounds -= 1
    for _ in range(rounds):
        spectrum = _rfftn(values)
        S = _summary_values(values, grid, params, spectrum)
        if abs(functionals.pohozaev(S, params)) <= tol * S.A:
            return values, spectrum, S, dilations
        xi = fiber_root(FiberProfile(S, params))
        values = _renorm(_dilate_values(values, grid, xi), grid, params.m)
        dilations += 1
    spectrum = _rfftn(values)
    return values, spectrum, _summary_values(values, grid, params, spectrum), dilations


def pohozaev_project(u: Field, params: ModelParams, rounds: int = 8,
                     decay_guard: bool = True) -> Field:
    """Move u along its dilation fiber to the Pohozaev zero set, stopping
    once |P| <= 1e-10 A or after the given number of rounds.

    The projected field keeps the input's mass. With decay_guard=True the
    boundary-decay check of dilate applies to the input at its default
    bound (a bound of one's own is dilate's keyword); the solver's internal
    path skips it and polices degeneracy itself. rounds is an int >= 1.
    """
    if not isinstance(decay_guard, bool):
        raise ValueError("pohozaev_project takes decay_guard=True or False, got %r; "
                         "a boundary mass bound is dilate's decay_guard" % (decay_guard,))
    _count("rounds", rounds)
    _check_dim(u.grid, params)
    if decay_guard:
        _guard_decay(u)
    mass = math.sqrt(_lp_values(u.values, u.grid, 2.0))
    values, _, _, _ = _project(u.values, u.grid, replace(params, m=mass), rounds, 1e-10)
    return Field(u.grid, values)


# ----------------------------------------------------------------------
# the solve loop


def solve_ground_state(init: Field, params: ModelParams,
                       config: SolveConfig) -> SolveReport:
    """Minimize the energy over the Pohozaev zero set of the mass sphere.

    Non-convergence within the iteration budget, or a line search that
    finds no decrease at the grid's projection noise floor, yields a
    report with converged=False and the exit in stop_reason; only a
    degenerate collapse of the iterate's seminorm raises.
    """
    grid = init.grid
    if config.grid is not None and config.grid != grid:
        raise ValueError("config grid does not match the initializer's grid")
    _check_dim(grid, params)
    u = np.array(init.values, dtype=float)
    try:  # an overflowed mass would renormalize to a zero field (m / inf = 0)
        with np.errstate(over="raise", invalid="raise"):
            if config.init_noise > 0.0:
                rng = np.random.default_rng(config.seed)
                rms = math.sqrt(float(np.mean(u * u)))
                u = u + config.init_noise * rms * rng.standard_normal(grid.shape)
            u = _renorm(u, grid, params.m)
    except FloatingPointError:
        raise ValueError("the initializer's mass overflows float64 (init_noise %r)"
                         % config.init_noise) from None
    A0 = _seminorm_sq_values(u, grid, params.s)
    if A0 <= 0.0:
        raise ValueError("initializer has zero seminorm (constant fields are inadmissible)")

    try:
        return _descend(u, A0, params, config, grid)
    except DegenerateFiberError as exc:
        raise RuntimeError("fiber degenerated") from exc


def _direction(u, uh, S, params, grid):
    """Descent data at the projected iterate u, with uh its rfftn half
    spectrum and S its summary, formed in Fourier space.

    The tangent-projected gradient g_hat is functionals._gradient_half
    minus its uh component, and the direction d is the tangent projection
    of F^-1[g_hat / (c0 + |k|^{2s})] with c0 = 1 + max(0, -mu); every inner
    product is taken by Plancherel on the half spectra. Returns
    (|g|^2, d, price), where price(al) gives (A, M) of u - al d
    (fields._quadratic_price).
    """
    sym = grid.symbol(params.s)
    mu = functionals.lagrange_multiplier(S, params)
    gh = functionals._gradient_half(u, uh, grid, params, mu)
    gh -= (_plancherel(grid, gh, uh) / S.M) * uh
    gn2 = _plancherel(grid, gh, gh)
    dh = gh / ((1.0 + max(0.0, -mu)) + sym)
    dh -= (_plancherel(grid, dh, uh) / S.M) * uh
    price = _quadratic_price(S.A, S.M,
                             _plancherel(grid, uh, dh, sym), _plancherel(grid, dh, dh, sym),
                             _plancherel(grid, uh, dh), _plancherel(grid, dh, dh))
    return gn2, np.fft.irfftn(dh), price


def _descend(u, A0, params, config, grid):
    m = params.m
    u, uh, S, dilations = _project(u, grid, params, rounds=30, tol=config.tol_pohozaev)
    E = functionals.energy(S, params)
    al = _STEP_INIT
    history = []
    stop_reason = "max-iters"
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        A = S.A
        if A < 1e-12 * A0:
            raise RuntimeError("fiber degenerated")
        gn2, d, price = _direction(u, uh, S, params, grid)
        gn = math.sqrt(gn2)
        absP = abs(functionals.pohozaev(S, params))
        history.append((E, absP, gn))
        if gn <= config.tol_grad * max(1.0, A) and absP <= config.tol_pohozaev * A:
            stop_reason = "converged"
            break

        accepted = False
        for _ in range(_LINE_SEARCH_MAX):
            # The trial is priced at mass m by the amplitude law (A ~ lam^2,
            # B_beta ~ lam^beta), with A and M in closed form; only B_p and
            # B_star touch the grid. The realized projection starts from
            # the priced summary and its fiber root, and measures every
            # state it dilates to afresh; its last transform is the next uh.
            v = u - al * d
            Av, Mv = price(al)
            lam = m / math.sqrt(Mv)
            Sv = FieldSummary(A=lam * lam * Av, M=m * m,
                              B_p=lam ** params.p * _lp_values(v, grid, params.p),
                              B_star=lam ** params.two_star * _lp_values(v, grid, params.two_star))
            xi = fiber_root(FiberProfile(Sv, params))
            if E - functionals.energy(scale_summary(Sv, xi, params), params) < _ARMIJO * al * gn2:
                al *= 0.5
                continue
            w, wh, Sw, k = _project(lam * v, grid, params, rounds=3,
                                    tol=config.tol_pohozaev, start=(Sv, xi))
            dilations += k
            Ew = functionals.energy(Sw, params)
            if E - Ew >= _ARMIJO * al * gn2:
                u, uh, S, E = w, wh, Sw, Ew
                accepted = True
                break
            al *= 0.5
        if not accepted:
            stop_reason = "line-search"
            break
        al = min(2.0 * al, 1e3)

    u, uh, S, k = _project(u, grid, params, rounds=25, tol=1e-12)
    dilations += k
    # The line-search exit skips the loop's guard, so the final
    # state is checked too: a collapsed iterate never comes back as a report.
    if S.A < 1e-12 * A0:
        raise RuntimeError("fiber degenerated")
    E = functionals.energy(S, params)
    mu = functionals.lagrange_multiplier(S, params)
    rh = functionals._gradient_half(u, uh, grid, params, mu)  # Euler-Lagrange residual
    return SolveReport(
        final_field=Field(grid, u),
        summary=S,
        energy_level=E,
        pohozaev_residual=abs(functionals.pohozaev(S, params)) / S.A,
        mu=mu,
        pde_residual=math.sqrt(_plancherel(grid, rh, rh) / S.M),
        iterations=iterations,
        dilations=dilations,
        history=history,
        converged=stop_reason == "converged",
        stop_reason=stop_reason,
    )


def compactness_threshold(params: ModelParams) -> float:
    """s S^{N/2s} / N with S the sharp Sobolev constant of (N, s), the level
    below which Palais-Smale sequences are compact."""
    S = functionals.sobolev_sharp_constant(params.dim, params.s)
    return params.s * S ** (params.dim / (2.0 * params.s)) / params.dim


# ----------------------------------------------------------------------
# diagnostics


@dataclass
class Diagnostics:
    multiplier_identity_rel: float
    energy_identity_rel: float
    threshold_margin: float
    all_ok: bool


def diagnose(report: SolveReport, params: ModelParams) -> Diagnostics:
    """The verdict on a converged ground state: all_ok holds when the
    multiplier is negative, the level positive, the multiplier identity
    mu M = eta (zeta_p - 1) B_p and the manifold energy identity hold to
    1e-8 relative, and the level sits below the compactness threshold."""
    if not report.converged:
        raise ValueError("diagnose requires a converged report")
    S = report.summary
    E = report.energy_level
    mu = report.mu
    mu_rel = functionals._multiplier_identity_rel(mu, S, params)
    e_rel = (abs(functionals.manifold_identity_residual(S, params))
             / max(abs(E), 1e-300))
    margin = compactness_threshold(params) - E
    return Diagnostics(
        multiplier_identity_rel=mu_rel,
        energy_identity_rel=e_rel,
        threshold_margin=margin,
        all_ok=(mu < 0.0 and E > 0.0 and mu_rel <= 1e-8 and e_rel <= 1e-8
                and margin > 0.0),
    )


# ----------------------------------------------------------------------
# the coupling sweep


@dataclass
class SweepEntry:
    eta: float
    report: SolveReport | None  # None when the solve raised
    error: str | None = None


@dataclass
class SweepReport:
    entries: list
    slope: float | None
    reference_slope: float
    note: str | None = None

    @property
    def reports(self) -> list:
        """Each entry's SolveReport, None where its solve raised."""
        return [e.report for e in self.entries]


def sweep_eta(params_base: ModelParams, eta_list, config: SolveConfig,
              eta_ref: float | None = None,
              width_ref: float | None = None) -> SweepReport:
    """Solve across couplings with self-similar grids and tolerances.

    The soliton width grows like eta^{d/2s} (d the level decay exponent),
    so the box and initializer width track that power at fixed n, and the
    gradient tolerance tracks the level's own eta^{-d} scale; without the
    tracking, large-eta entries either outgrow the box or pass a tolerance
    that is vacuous relative to their magnitude. eta_ref, the coupling the
    grid, tol_grad and width_ref belong to, defaults to the smallest eta
    and may not exceed it: below eta_ref the box would shrink and the
    tolerance loosen. width_ref defaults to L/40 of the reference box.
    The couplings, strictly ascending, are finite positive numbers (no bool).
    """
    etas = list(eta_list)
    if not etas:
        raise ValueError("eta list must not be empty")
    etas = [_positive("eta", e) for e in etas]
    if not all(a < b for a, b in zip(etas, etas[1:])):
        raise ValueError("eta list must be sorted strictly ascending, got %r" % (etas,))
    if config.grid is None:
        raise ValueError("sweep needs a reference grid in the solve config")

    decay = params_base.level_decay_exponent
    growth = decay / (2.0 * params_base.s)
    eta_ref = _real(etas[0] if eta_ref is None else eta_ref, lambda e: 0.0 < e <= etas[0],
                    "eta_ref must be positive and at most the smallest eta %g, got %%r" % etas[0])
    L_ref = config.grid.half_length
    n = config.grid.points_per_axis
    width_ref = L_ref / 40.0 if width_ref is None else _positive("width_ref", width_ref)

    entries = []
    for eta in etas:
        scale = (eta / eta_ref) ** growth
        grid_i = make_grid(params_base.dim, n, L_ref * scale)
        params_i = replace(params_base, eta=eta)
        tol_i = config.tol_grad * (eta_ref / eta) ** decay
        config_i = replace(config, grid=grid_i, tol_grad=tol_i)
        init = sample(grid_i, "gaussian", {"width": width_ref * scale})
        try:
            entries.append(SweepEntry(eta, solve_ground_state(init, params_i, config_i)))
        except Exception as exc:
            entries.append(SweepEntry(eta, None, str(exc)))

    good = [(e.eta, e.report.energy_level) for e in entries
            if e.report is not None and e.report.converged and e.report.energy_level > 0]
    slope = None
    note = None
    if len(good) >= 2:
        lx = np.log([g[0] for g in good])
        ly = np.log([g[1] for g in good])
        slope = float(np.polyfit(lx, ly, 1)[0])
    elif len(etas) == 1:
        note = "single-coupling sweep: table emitted, no slope fitted"
    else:
        note = "fewer than two converged entries: no slope fitted"
    return SweepReport(entries=entries, slope=slope, reference_slope=-decay, note=note)
