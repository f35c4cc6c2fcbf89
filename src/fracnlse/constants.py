"""Estimation of the optimal Sobolev and Gagliardo-Nirenberg constants by
scale-invariant quotient optimization.

On the periodic box both quotients degenerate through the constant mode:
constants have zero seminorm, so the Sobolev quotient can descend to zero
and the GN quotient diverges along nearly-constant fields. Neither limit
exists on the whole space the inequalities live on, so both optimizers
project iterates and gradients onto the mean-zero subspace at every step;
that single restriction restores the decaying-field optimization problem
and is the only regularization used (grid-scale spikes are not competitive
for either quotient and need no special handling).

Estimates are grid-relative: the refinement ladder reruns the optimization
at doubled resolution and the report's converged flag records whether the
last doubling moved the estimate by less than 5 percent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import (Field, FieldSummary, _frac_laplacian_values, _lp_values,
                     _seminorm_sq_values, sample)
from .functionals import odd_power
from .grids import GridSpec, make_grid
from .params import ModelParams, exponents_for


def sobolev_quotient(summary: FieldSummary, params: ModelParams) -> float:
    """A / B_star^{2/2*_s}; its infimum over nonzero fields is S."""
    if summary.B_star <= 0.0:
        raise ValueError("Sobolev quotient undefined on the zero field")
    ex = exponents_for(params.dim, params.s, params.p)
    return summary.A / summary.B_star ** (2.0 / ex.two_star)


def gn_quotient(summary: FieldSummary, params: ModelParams) -> float:
    """B_p / (A^{p zeta/2} M^{p(1-zeta)/2}); its supremum is C^p."""
    if summary.A <= 0.0 or summary.M <= 0.0 or summary.B_p <= 0.0:
        raise ValueError("GN quotient undefined on a degenerate summary")
    ex = exponents_for(params.dim, params.s, params.p)
    zeta = ex.zeta_p
    return summary.B_p / (summary.A ** (params.p * zeta / 2.0)
                          * summary.M ** (params.p * (1.0 - zeta) / 2.0))


@dataclass
class ConstantsReport:
    S_est: float
    C_est: float
    grid: GridSpec
    params: ModelParams
    refinement: dict = dataclass_field(default_factory=dict)
    converged: bool = False

    def to_dict(self) -> dict:
        return {
            "S_est": self.S_est,
            "C_est": self.C_est,
            "grid": {"dim": self.grid.dim, "n": self.grid.points_per_axis,
                     "L": self.grid.half_length},
            "params": {"dim": self.params.dim, "s": self.params.s, "p": self.params.p,
                       "eta": self.params.eta, "m": self.params.m},
            "refinement": self.refinement,
            "converged": self.converged,
        }


def save_constants(report: ConstantsReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_constants(path) -> ConstantsReport:
    with open(path) as fh:
        raw = json.load(fh)
    grid = make_grid(raw["grid"]["dim"], raw["grid"]["n"], raw["grid"]["L"])
    pr = raw["params"]
    params = ModelParams(dim=pr["dim"], s=pr["s"], p=pr["p"], eta=pr["eta"], m=pr["m"])
    return ConstantsReport(S_est=raw["S_est"], C_est=raw["C_est"], grid=grid,
                           params=params, refinement=raw["refinement"],
                           converged=raw["converged"])


# ----------------------------------------------------------------------
# optimizers

_STEP_INIT = 0.5
_ARMIJO = 1e-4
_MAX_ITERS = 30000
_STALL_REL = 1e-12
_STALL_WINDOW = 30


def _mean_zero(values: np.ndarray) -> np.ndarray:
    return values - np.mean(values)


def _unit_mass(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    norm = np.sqrt(grid.cell_volume * np.sum(values * values))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero field")
    return values / norm


def _descend_quotient(grid: GridSpec, u0: np.ndarray, evaluate, direction) -> tuple:
    """Backtracking descent of a scale-invariant quotient from u0.

    evaluate(u) returns (value, state) and direction(u, state) returns
    (d, slope) with slope the pairing of the gradient with d; trial points
    u - al d are put back on the unit-mass, mean-zero subspace. Returns
    (best value, iterations, stalled, best field); stalled is False only
    when the iteration budget ran out while the value was still falling.
    """
    u = _unit_mass(_mean_zero(u0), grid)
    val, state = evaluate(u)
    al = _STEP_INIT
    stall = 0
    for it in range(_MAX_ITERS):
        d, slope = direction(u, state)
        if slope <= 0.0:
            return val, it + 1, True, u
        for _ in range(60):
            v = _unit_mass(_mean_zero(u - al * d), grid)
            val_v, state_v = evaluate(v)
            if val_v <= val - _ARMIJO * al * slope:
                break
            al *= 0.5
        else:
            return val, it + 1, True, u
        rel = (val - val_v) / max(abs(val), 1e-300)
        u, val, state = v, val_v, state_v
        stall = stall + 1 if rel < _STALL_REL else 0
        if stall >= _STALL_WINDOW:
            return val, it + 1, True, u
        al = min(2.0 * al, 1e2)
    return val, _MAX_ITERS, False, u


def _descend_sobolev(grid: GridSpec, params: ModelParams, u0: np.ndarray) -> tuple:
    """Preconditioned descent on the Sobolev quotient from u0.

    The quotient gradient is 2 B*^{-2/q} [(-Delta)^s u - (A/B*) |u|^{q-2} u];
    the constant in front is irrelevant to the direction and dropped.
    """
    q = exponents_for(params.dim, params.s, params.p).two_star
    hN = grid.cell_volume
    pre = 1.0 / (1.0 + grid.half_symbol(params.s))

    def evaluate(u):
        spec = np.fft.rfftn(u)
        A = _seminorm_sq_values(u, grid, params.s, spec)
        Bs = _lp_values(u, grid, q)
        return A / Bs ** (2.0 / q), (spec, A, Bs)

    def direction(u, state):
        spec, A, Bs = state
        lap = _frac_laplacian_values(u, grid, params.s, spec)
        g = _mean_zero(lap - (A / Bs) * odd_power(u, q))
        d = _mean_zero(np.fft.irfftn(np.fft.rfftn(g) * pre))
        return d, float(hN * np.sum(g * d))

    return _descend_quotient(grid, u0, evaluate, direction)


def _descend_neg_gn(grid: GridSpec, params: ModelParams, u0: np.ndarray) -> tuple:
    """Plain gradient descent on the negated GN quotient from u0.

    Negation is exact in floating point: the value and the gradient (the
    quotient's gradient with its two terms subtracted the other way round)
    are the exact negatives of those of the quotient, so this takes the
    same steps as gradient ascent on it. The value returned is negated.
    """
    p = params.p
    zeta = exponents_for(params.dim, params.s, p).zeta_p
    ea, eb = p * zeta / 2.0, p * (1.0 - zeta) / 2.0
    hN = grid.cell_volume

    def evaluate(u):
        spec = np.fft.rfftn(u)
        A = _seminorm_sq_values(u, grid, params.s, spec)
        M = _lp_values(u, grid, 2.0)
        Bp = _lp_values(u, grid, p)
        den = A ** ea * M ** eb
        return -(Bp / den), (spec, A, M, Bp, den)

    def direction(u, state):
        spec, A, M, Bp, den = state
        lap = _frac_laplacian_values(u, grid, params.s, spec)
        g = _mean_zero((Bp / den) * (p * zeta * lap / A + p * (1.0 - zeta) * u / M)
                       - p * odd_power(u, p) / den)
        return g, float(hN * np.sum(g * g))

    return _descend_quotient(grid, u0, evaluate, direction)


def _starts(grid: GridSpec, params: ModelParams) -> list:
    """Multistart pool: bubbles, gaussians, and smoothed noise."""
    pool = []
    for eps in (0.5, 1.0, 2.0):
        pool.append(sample(grid, "bubble", {"epsilon": eps, "s": params.s}).values)
    for w in (0.5, 1.0, 2.0):
        pool.append(sample(grid, "gaussian", {"width": w}).values)
    pool.append(sample(grid, "random_bandlimited",
                       {"cutoff": 0.1, "envelope_width": grid.half_length / 6.0},
                       seed=11).values)
    return pool


def _refine_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral upsampling to the doubled grid (warm start for the next
    refinement rung; even-order Nyquist coefficients are dropped)."""
    n, d = grid.points_per_axis, grid.dim
    spec = np.fft.fftshift(np.fft.fftn(values))
    n2 = 2 * n
    pad = [(n2 // 2 - n // 2, n2 // 2 - (n - n // 2))] * d
    big = np.pad(spec, pad)
    out = np.fft.ifftn(np.fft.ifftshift(big)).real * (2 ** d)
    return out


def _run_ladder(grid: GridSpec, params: ModelParams, rungs: int, optimizer) -> tuple:
    """Shared ladder driver: multistart at the base grid, warm-started
    doublings after that; the lowest value wins. Returns (final value,
    trace)."""
    trace = []
    g = grid
    best_u = None
    for rung in range(rungs):
        starts = _starts(g, params) if rung == 0 else [best_u]
        results = []
        for u0 in starts:
            val, iters, stalled, u_opt = optimizer(g, params, u0)
            if not stalled:
                raise RuntimeError(
                    "quotient optimization still improving after %d iterations "
                    "(trace so far: %r)" % (iters, trace)
                )
            results.append((val, u_opt))
        val, best_u = min(results, key=lambda r: r[0])
        trace.append((g.points_per_axis, val))
        if rung + 1 < rungs:
            big = make_grid(g.dim, 2 * g.points_per_axis, g.half_length)
            best_u = _refine_values(best_u, g)
            g = big
    return trace[-1][1], trace


def estimate_sobolev(grid: GridSpec, params: ModelParams, rungs: int = 3) -> dict:
    """Minimize the Sobolev quotient; refinement trace over the ladder."""
    value, trace = _run_ladder(grid, params, rungs, _descend_sobolev)
    return {"value": value, "refinement": trace, "converged": _ladder_converged(trace)}


def estimate_gn(grid: GridSpec, params: ModelParams, rungs: int = 3) -> dict:
    """Maximize the GN quotient; the constant estimate is the p-th root of
    the optimal quotient."""
    neg_ratio, trace = _run_ladder(grid, params, rungs, _descend_neg_gn)
    trace = [(n, (-r) ** (1.0 / params.p)) for n, r in trace]
    return {"value": (-neg_ratio) ** (1.0 / params.p), "refinement": trace,
            "converged": _ladder_converged(trace)}


def _ladder_converged(trace: list) -> bool:
    if len(trace) < 2:
        return False
    prev, last = trace[-2][1], trace[-1][1]
    return abs(last - prev) <= 0.05 * abs(prev)


def estimate_constants(grid: GridSpec, params: ModelParams,
                       rungs: int = 3) -> ConstantsReport:
    s_frag = estimate_sobolev(grid, params, rungs)
    c_frag = estimate_gn(grid, params, rungs)
    return ConstantsReport(
        S_est=s_frag["value"],
        C_est=c_frag["value"],
        grid=grid,
        params=params,
        refinement={"S": [list(t) for t in s_frag["refinement"]],
                    "C": [list(t) for t in c_frag["refinement"]]},
        converged=s_frag["converged"] and c_frag["converged"],
    )


# ----------------------------------------------------------------------
# probe fields


def probe_fields(grid: GridSpec, params: ModelParams, count: int = 50,
                 seed: int = 0) -> list:
    """Deterministic set of resolved, mean-zero, unit-mass test fields.

    Families: plain gaussians, bubbles, offset gaussians, cosine-modulated
    gaussians, and band-limited noise under a decaying envelope. Widths and
    scales are kept at or above half a unit so every probe is resolved on
    the grids the estimators use; under-resolved spikes overshoot the
    quadrature and do not witness the continuum inequalities.
    """
    rng = np.random.default_rng(seed)
    L = grid.half_length
    mesh = grid.meshgrid()
    r2 = sum(c * c for c in mesh)
    out = []

    def push(values):
        values = _mean_zero(values)
        out.append(Field(grid, _unit_mass(values, grid)))

    for w in np.geomspace(0.5, L / 6.0, 12):
        push(np.exp(-r2 / (2.0 * w * w)))
    for eps in np.geomspace(0.5, 4.0, 8):
        push((eps * eps + r2) ** (-(grid.dim - 2.0 * params.s) / 2.0))
    for _ in range(10):
        w = rng.uniform(0.8, L / 8.0)
        center = rng.uniform(-L / 4.0, L / 4.0, size=grid.dim)
        shifted = sum((c - x0) ** 2 for c, x0 in zip(mesh, center))
        push(np.exp(-shifted / (2.0 * w * w)))
    for _ in range(10):
        w = rng.uniform(1.0, L / 8.0)
        mode = rng.integers(1, max(2, grid.points_per_axis // 8), size=grid.dim)
        phase = sum(np.pi * m / L * c for m, c in zip(mode, mesh))
        push(np.cos(phase) * np.exp(-r2 / (2.0 * w * w)))
    while len(out) < count + 10:
        cutoff = rng.uniform(0.05, 0.25)
        noise = sample(grid, "random_bandlimited",
                       {"cutoff": cutoff, "envelope_width": L / 6.0},
                       seed=int(rng.integers(0, 2 ** 31))).values
        push(noise)
    return out[:count]
