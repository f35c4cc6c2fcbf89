"""Ground-state computation by manifold-projected descent on the mass
sphere, plus diagnostics, the coupling sweep, and radial symmetrization.

The iteration follows the constrained first-order optimality structure:
renormalize the mass, move the iterate onto the zero set of the Pohozaev
functional along its dilation fiber, then descend the energy along the
tangent-projected, multiplier-shifted gradient

    g = (-Delta)^s u - |u|^{2*-2} u - eta |u|^{p-2} u - mu u,
    mu = (A - B_star - eta B_p)/M,

so the fixed point solves the Euler-Lagrange equation on the sphere. Two
performance choices matter. The descent direction is preconditioned in
Fourier space by 1/(1 + max(0, -mu) + |k|^{2s}), without which the stiff
high-frequency part of the operator makes plain descent impractically
slow. And each trial step is prescreened with the exact fiber algebra
(trial summary, fiber root, closed-form projected energy) so that only
steps already passing the decrease test on the exact prediction pay for a
grid dilation; acceptance itself always uses the realized post-projection
energy.

Each realized projection re-injects a small amount of box-truncation noise
into the energy, so once the guaranteed decrease falls below that noise
the line search cannot terminate. A stall guard therefore ends runs that
make no measurable progress over a trailing window and reports them as
unconverged rather than burning the full iteration budget.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import functionals
from .fields import (Field, FieldSummary, _dilate_values, _lp_values,
                     _summary_values, sample)
from .fiber import DegenerateFiberError, _fiber_root_t
from .grids import GridSpec, make_grid
from .params import ModelParams, derived_exponents, exponents_for


@dataclass
class SolveConfig:
    grid: GridSpec | None = None
    step_init: float = 1e-2
    armijo: float = 1e-4
    tol_grad: float = 1e-8
    tol_pohozaev: float = 1e-8
    max_iters: int = 50000
    radial_projection_every: int = 0
    seed: int = 0
    init_noise: float = 0.0
    stall_window: int = 200
    line_search_max: int = 60

    def __post_init__(self):
        if not (self.tol_grad > 0.0 and self.tol_pohozaev > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.armijo < 1.0):
            raise ValueError("armijo coefficient must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (math.isfinite(self.step_init) and self.step_init > 0.0):
            raise ValueError("step_init must be finite and positive")
        if self.stall_window < 1:
            raise ValueError("stall_window must be at least 1")
        if self.line_search_max < 1:
            raise ValueError("line_search_max must be at least 1")


@dataclass
class SolveReport:
    final_field: Field
    summary: FieldSummary
    energy_level: float
    pohozaev_residual: float
    mu: float
    mu_identity_residual: float
    pde_residual: float
    iterations: int
    history: list
    converged: bool
    compactness_margin: float | None = None

    def to_dict(self) -> dict:
        return {
            "energy_level": self.energy_level,
            "pohozaev_residual": self.pohozaev_residual,
            "mu": self.mu,
            "mu_identity_residual": self.mu_identity_residual,
            "pde_residual": self.pde_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "compactness_margin": self.compactness_margin,
            "summary": {"A": self.summary.A, "M": self.summary.M,
                        "B_p": self.summary.B_p, "B_star": self.summary.B_star},
        }


# ----------------------------------------------------------------------
# elementary projections


def project_tangent(gradient: Field, u: Field) -> Field:
    """L2-orthogonal projection of a gradient onto the tangent space of
    the mass sphere at u."""
    hN = u.grid.cell_volume
    M = float(hN * np.sum(u.values * u.values))
    if M <= 0.0:
        raise ValueError("tangent projection undefined at the zero field")
    coef = float(hN * np.sum(gradient.values * u.values)) / M
    return Field(u.grid, gradient.values - coef * u.values)


def renormalize_mass(u: Field, m: float) -> Field:
    norm = math.sqrt(_lp_values(u.values, u.grid, 2.0))
    if norm == 0.0:
        raise ValueError("cannot renormalize the zero field")
    return Field(u.grid, (m / norm) * u.values)


def radial_symmetrize(u: Field) -> Field:
    """Angular average: each sample is replaced by the mean over its
    radius bin (bin width h), then the mass is rescaled to the input's.
    In one dimension this is the identity (with a warning)."""
    if u.grid.dim == 1:
        warnings.warn("radial symmetrization is the identity in one dimension")
        return u
    grid = u.grid
    r = grid.radius()
    bins = np.floor(r / grid.spacing).astype(np.int64).reshape(-1)
    vals = u.values.reshape(-1)
    count = np.bincount(bins)
    mean = np.bincount(bins, weights=vals) / count
    out = mean[bins].reshape(grid.shape)
    mass_in = _lp_values(u.values, grid, 2.0)
    mass_out = _lp_values(out, grid, 2.0)
    if mass_out <= 1e-30 * mass_in:
        return Field(grid, np.zeros(grid.shape))
    return Field(grid, out * math.sqrt(mass_in / mass_out))


# ----------------------------------------------------------------------
# workspace: ndarray-level kernels shared by the hot loop


class _Workspace:
    def __init__(self, grid: GridSpec, params: ModelParams):
        self.grid = grid
        self.params = params
        ex = exponents_for(params.dim, params.s, params.p)
        self.q = ex.two_star
        self.zeta = ex.zeta_p
        self.pz = params.p * ex.zeta_p
        self.hN = grid.cell_volume
        self.weight = self.hN / grid.num_points
        self.sym = grid.symbol(params.s)
        self.eta = params.eta
        self.p = params.p
        self.s = params.s
        self.m = params.m

    def summ(self, values: np.ndarray) -> FieldSummary:
        return _summary_values(values, self.grid, self.params)

    def energy(self, summary: FieldSummary) -> float:
        return functionals.energy(summary, self.params)

    def poho(self, summary: FieldSummary) -> float:
        return functionals.pohozaev(summary, self.params)

    def flap(self, values: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(self.sym * np.fft.fftn(values)).real

    def renorm(self, values: np.ndarray) -> np.ndarray:
        return values * (self.m / math.sqrt(self.hN * np.sum(values * values)))

    def project(self, values: np.ndarray, rounds: int, tol: float) -> np.ndarray:
        """Iterated fiber projection onto the Pohozaev zero set, keeping
        the mass at m. tol is relative to the current seminorm."""
        for _ in range(rounds):
            S = self.summ(values)
            if abs(self.poho(S)) <= tol * S.A:
                break
            t = _fiber_root_t(S, self.params)
            xi = math.log(t) / self.s
            values = self.renorm(_dilate_values(values, self.grid, xi))
        return values


def pohozaev_project(u: Field, params: ModelParams, rounds: int = 8,
                     tol: float = 1e-10, decay_guard: bool = True) -> Field:
    """Move u along its dilation fiber to the Pohozaev zero set.

    The projected field keeps the input's mass. With decay_guard the
    boundary-decay check of dilate applies to the input; the solver's
    internal path disables it and polices degeneracy itself.
    """
    if decay_guard:
        from .fields import DECAY_GUARD_DEFAULT, DecayGuardError, boundary_mass_fraction
        frac = boundary_mass_fraction(u)
        if frac >= DECAY_GUARD_DEFAULT:
            raise DecayGuardError(frac)
    mass = math.sqrt(_lp_values(u.values, u.grid, 2.0))
    ws = _Workspace(u.grid, replace(params, m=mass))
    return Field(u.grid, ws.project(u.values, rounds=rounds, tol=tol))


def stationarity_residual(field: Field, params: ModelParams, mu: float) -> float:
    """Relative L2 residual of the Euler-Lagrange equation at (field, mu)."""
    ws = _Workspace(field.grid, params)
    u = field.values
    r = (ws.flap(u) - functionals.odd_power(u, ws.q)
         - params.eta * functionals.odd_power(u, params.p) - mu * u)
    return math.sqrt(_lp_values(r, field.grid, 2.0) / _lp_values(u, field.grid, 2.0))


# ----------------------------------------------------------------------
# the solve loop


def solve_ground_state(init: Field, params: ModelParams, config: SolveConfig,
                       constants=None) -> SolveReport:
    """Minimize the energy over the Pohozaev zero set of the mass sphere.

    Non-convergence within the iteration budget (or a stall at the grid's
    projection noise floor) yields a report with converged=False; only a
    degenerate collapse of the iterate's seminorm raises.
    """
    grid = init.grid
    if config.grid is not None and config.grid != grid:
        raise ValueError("config grid does not match the initializer's grid")
    if params.dim != grid.dim:
        raise ValueError("params dimension does not match the grid")
    ws = _Workspace(grid, params)

    u = np.array(init.values, dtype=float)
    if config.init_noise > 0.0:
        rng = np.random.default_rng(config.seed)
        rms = math.sqrt(float(np.mean(u * u)))
        u = u + config.init_noise * rms * rng.standard_normal(grid.shape)
    u = ws.renorm(u)
    A0 = ws.summ(u).A
    if A0 <= 0.0:
        raise ValueError("initializer has zero seminorm (constant fields are inadmissible)")

    try:
        return _descend(ws, u, A0, params, config, constants, grid)
    except DegenerateFiberError as exc:
        raise RuntimeError("fiber degenerated") from exc


def _descend(ws, u, A0, params, config, constants, grid):
    u = ws.project(u, rounds=30, tol=config.tol_pohozaev)
    S = ws.summ(u)
    E = ws.energy(S)
    al = config.step_init
    history = []
    converged = False
    gn = math.inf
    best = E
    since_best = 0
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        A, M = S.A, S.M
        if A < 1e-12 * A0:
            raise RuntimeError("fiber degenerated")
        mu = (A - S.B_star - ws.eta * S.B_p) / M
        g = (ws.flap(u) - functionals.odd_power(u, ws.q)
             - ws.eta * functionals.odd_power(u, ws.p) - mu * u)
        g -= (ws.hN * np.sum(g * u) / M) * u
        gn2 = float(ws.hN * np.sum(g * g))
        gn = math.sqrt(gn2)
        absP = abs(ws.poho(S))
        history.append((E, absP, gn))
        if gn <= config.tol_grad * max(1.0, A) and absP <= config.tol_pohozaev * A:
            converged = True
            break

        c0 = 1.0 + max(0.0, -mu)
        d = np.fft.ifftn(np.fft.fftn(g) / (c0 + ws.sym)).real
        d -= (ws.hN * np.sum(d * u) / M) * u

        accepted = False
        for _ in range(config.line_search_max):
            v = u - al * d
            lam = ws.m / math.sqrt(ws.hN * np.sum(v * v))
            Sv = ws.summ(v)
            Svn = FieldSummary(A=lam * lam * Sv.A, M=ws.m * ws.m,
                               B_p=lam ** ws.p * Sv.B_p,
                               B_star=lam ** ws.q * Sv.B_star)
            t = _fiber_root_t(Svn, params)
            Shat = FieldSummary(A=t * t * Svn.A, M=ws.m * ws.m,
                                B_p=t ** ws.pz * Svn.B_p,
                                B_star=t ** ws.q * Svn.B_star)
            if ws.energy(Shat) > E - config.armijo * al * gn2:
                al *= 0.5
                continue
            w = ws.project(lam * v, rounds=3, tol=config.tol_pohozaev)
            Sw = ws.summ(w)
            Ew = ws.energy(Sw)
            if Ew <= E - config.armijo * al * gn2:
                u, S, E = w, Sw, Ew
                accepted = True
                break
            al *= 0.5
        if not accepted:
            break

        if (config.radial_projection_every > 0 and grid.dim >= 2
                and iterations % config.radial_projection_every == 0):
            u = ws.renorm(radial_symmetrize(Field(grid, u)).values)
            u = ws.project(u, rounds=1, tol=config.tol_pohozaev)
            S = ws.summ(u)
            E = ws.energy(S)

        if E < best - 1e-14 * max(1.0, abs(best)):
            best = E
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.stall_window:
                break
        al = min(2.0 * al, 1e3)

    u = ws.project(u, rounds=25, tol=1e-12)
    S = ws.summ(u)
    E = ws.energy(S)
    mu = functionals.lagrange_multiplier(S, params)
    ex = derived_exponents(params)
    mu_identity = abs(mu * S.M - params.eta * (ex.zeta_p - 1.0) * S.B_p)
    final = Field(grid, u)
    margin = None
    if constants is not None:
        margin = compactness_threshold(params, constants) - E
    return SolveReport(
        final_field=final,
        summary=S,
        energy_level=E,
        pohozaev_residual=abs(ws.poho(S)) / S.A,
        mu=mu,
        mu_identity_residual=mu_identity,
        pde_residual=stationarity_residual(final, params, mu),
        iterations=iterations,
        history=history,
        converged=converged,
        compactness_margin=margin,
    )


def compactness_threshold(params: ModelParams, constants) -> float:
    """s S^{N/2s} / N with the provided Sobolev estimate."""
    S = constants.S_est if hasattr(constants, "S_est") else float(constants)
    return params.s * S ** (params.dim / (2.0 * params.s)) / params.dim


# ----------------------------------------------------------------------
# diagnostics


@dataclass
class Diagnostics:
    below_threshold: bool
    threshold_margin: float
    multiplier_negative: bool
    mu: float
    multiplier_identity_ok: bool
    multiplier_identity_rel: float
    energy_identity_ok: bool
    energy_identity_rel: float
    energy_positive: bool
    energy: float

    @property
    def all_ok(self) -> bool:
        return (self.below_threshold and self.multiplier_negative
                and self.multiplier_identity_ok and self.energy_identity_ok
                and self.energy_positive)

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["all_ok"] = self.all_ok
        return d


def diagnose(report: SolveReport, constants, params: ModelParams) -> Diagnostics:
    """The five checks a converged ground state must satisfy: the level
    sits below the compactness threshold, the multiplier is negative, the
    multiplier identity and the manifold energy identity hold, and the
    level is positive."""
    if not report.converged:
        raise ValueError("diagnose requires a converged report")
    S = report.summary
    ex = derived_exponents(params)
    E = report.energy_level
    mu = report.mu
    threshold = compactness_threshold(params, constants)
    mu_rhs = params.eta * (ex.zeta_p - 1.0) * S.B_p
    mu_rel = abs(mu * S.M - mu_rhs) / max(abs(mu * S.M), 1e-300)
    bracket = ((params.eta / (2.0 * params.p)) * (ex.zeta_p * params.p - 2.0) * S.B_p
               + (params.s / params.dim) * S.B_star)
    e_rel = abs(E - bracket) / max(abs(E), 1e-300)
    return Diagnostics(
        below_threshold=E < threshold,
        threshold_margin=threshold - E,
        multiplier_negative=mu < 0.0,
        mu=mu,
        multiplier_identity_ok=mu_rel <= 1e-8,
        multiplier_identity_rel=mu_rel,
        energy_identity_ok=e_rel <= 1e-8,
        energy_identity_rel=e_rel,
        energy_positive=E > 0.0,
        energy=E,
    )


# ----------------------------------------------------------------------
# the coupling sweep


@dataclass
class SweepEntry:
    eta: float
    energy: float | None
    mu: float | None
    pohozaev_residual: float | None
    iterations: int
    converged: bool
    error: str | None = None

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class SweepReport:
    entries: list
    slope: float | None
    reference_slope: float
    eta_ref: float
    half_length_ref: float
    width_ref: float
    note: str | None = None
    reports: list = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "slope": self.slope,
            "reference_slope": self.reference_slope,
            "eta_ref": self.eta_ref,
            "half_length_ref": self.half_length_ref,
            "width_ref": self.width_ref,
            "note": self.note,
        }


def _thread_cap() -> int:
    raw = os.environ.get("FRAC_NLSE_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("FRAC_NLSE_THREADS must be a positive integer, got %r" % (raw,))
    return cap


def sweep_eta(params_base: ModelParams, eta_list, config: SolveConfig,
              eta_ref: float | None = None, width_ref: float | None = None,
              scale_box: bool = True, scale_tol: bool = True) -> SweepReport:
    """Solve across couplings with self-similar grids and tolerances.

    The soliton width grows like eta^{d/2s} (d the level decay exponent),
    so the box and initializer width track that power at fixed n, and the
    gradient tolerance tracks the level's own eta^{-d} scale; without the
    tracking, large-eta entries either outgrow the box or pass a tolerance
    that is vacuous relative to their magnitude.
    """
    etas = [float(e) for e in eta_list]
    if not etas:
        raise ValueError("eta list must not be empty")
    if any(e <= 0.0 for e in etas):
        raise ValueError("eta values must be positive")
    if etas != sorted(etas):
        raise ValueError("eta list must be sorted ascending")
    if config.grid is None:
        raise ValueError("sweep needs a reference grid in the solve config")

    ex = exponents_for(params_base.dim, params_base.s, params_base.p)
    decay = ex.level_decay_exponent
    growth = decay / (2.0 * params_base.s)
    eta_ref = float(eta_ref if eta_ref is not None else etas[0])
    L_ref = config.grid.half_length
    n = config.grid.points_per_axis
    width_ref = float(width_ref if width_ref is not None else L_ref / 40.0)

    def run_one(eta: float):
        scale = (eta / eta_ref) ** growth if scale_box else 1.0
        grid_i = make_grid(params_base.dim, n, L_ref * scale)
        params_i = replace(params_base, eta=eta)
        tol_i = config.tol_grad * ((eta_ref / eta) ** decay if scale_tol else 1.0)
        config_i = replace(config, grid=grid_i, tol_grad=tol_i)
        init = sample(grid_i, "gaussian", {"width": width_ref * scale})
        return solve_ground_state(init, params_i, config_i)

    results: dict = {}
    cap = _thread_cap()
    if cap > 1 and len(etas) > 1:
        with ThreadPoolExecutor(max_workers=cap) as pool:
            futures = {eta: pool.submit(run_one, eta) for eta in etas}
        for eta, fut in futures.items():
            try:
                results[eta] = fut.result()
            except Exception as exc:
                results[eta] = exc
    else:
        for eta in etas:
            try:
                results[eta] = run_one(eta)
            except Exception as exc:
                results[eta] = exc

    entries, reports = [], []
    for eta in etas:
        res = results[eta]
        if isinstance(res, Exception):
            entries.append(SweepEntry(eta=eta, energy=None, mu=None,
                                      pohozaev_residual=None, iterations=0,
                                      converged=False, error=str(res)))
            reports.append(None)
        else:
            entries.append(SweepEntry(eta=eta, energy=res.energy_level, mu=res.mu,
                                      pohozaev_residual=res.pohozaev_residual,
                                      iterations=res.iterations,
                                      converged=res.converged))
            reports.append(res)

    good = [(e.eta, e.energy) for e in entries if e.converged and e.energy and e.energy > 0]
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
    return SweepReport(entries=entries, slope=slope, reference_slope=-decay,
                       eta_ref=eta_ref, half_length_ref=L_ref, width_ref=width_ref,
                       note=note, reports=reports)
