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

The ladder descends the public quotients, sobolev_quotient and the negated
gn_quotient, that the verify rows check, with the solver's mass projection
(at unit mass) and trial pricing.

Both descents share one kernel, built like the solver's. The direction is
the gradient preconditioned by 1 / (1 + |k|^{2s}), formed on the iterate's
carried rfftn half spectrum, with its slope taken by Plancherel. A trial's A
and M come from the quadratic laws in the step length, so a trial touches
the grid only for its power sum; one that passes on this priced value is
transformed once and accepted on its measured value. Both tests compare
the decrease itself, so every accepted step strictly lowers the quotient.
From a start's second iterate on, the first trial step is the
preconditioned Barzilai-Borwein step <s, y> / <y, P y> of the last accepted
step s and gradient change y (P the preconditioner), which the line search
rarely halves: 1.02-1.10 trials per accepted step on the ladder grids,
against about 1.9 when the last accepted step is doubled instead.
A start ends at the first iterate whose slope <g, d> is at most
_SLOPE_TOL |value| (first-order stationarity), or earlier if its line
search finds no decreasing step. The slope is the squared gradient norm in
the preconditioner's metric, which near a minimum is of the order of the
decrease still available, so the remaining descent to the rounding floor
moves a ladder value by at most 3.3e-10 relative (2D S at 256^2, 8.1e-11
or less elsewhere) while taking about a quarter of its iterations.

A rung with more than one start (the first rung's multistart pool) screens
and then finishes. Every start descends only to slope <= _SCREEN_TOL |value|;
the start with the lowest screened value then descends on to _SLOPE_TOL,
restarting without its Barzilai-Borwein memory, and only that finished
value enters the refinement trace. The screen cut the directions formed
per quotient from 180/174/186/207 to 128/124/67/149 (1D S, 1D C, 2D S, 2D
C on the benchmark ladders) and moved every rung by at most 9.2e-11
relative. The price is the ranking: a screen ranks basins only to about
_SCREEN_TOL relative, so of two distinct minima closer than that the
higher one may be finished, and the ladder's 5 percent drift test would
not see it.

The continuum constants have a closed-form reference for the Sobolev side:
sobolev_sharp_constant gives the sharp S of Lieb and Cotsiolis-Tavoularis,
against which the grid estimate can be read.

Estimates are grid-relative: the refinement ladder reruns the optimization
at doubled resolution and the report's converged flag records whether the
last doubling moved the estimate by less than 5 percent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice
from numbers import Integral

import numpy as np

from .fields import FieldSummary, _lp_values, _plancherel, _quadratic_price, _renorm, sample
from .functionals import odd_power
from .grids import GridSpec, make_grid
from .params import ModelParams


def sobolev_quotient(summary: FieldSummary, params: ModelParams) -> float:
    """A / B_star^{2/2*_s}; its infimum over nonzero fields is S."""
    if summary.B_star <= 0.0:
        raise ValueError("Sobolev quotient undefined on the zero field")
    return summary.A / summary.B_star ** (2.0 / params.two_star)


def gn_quotient(summary: FieldSummary, params: ModelParams) -> float:
    """B_p / (A^{p zeta/2} M^{p(1-zeta)/2}); its supremum is C^p."""
    if summary.A <= 0.0 or summary.M <= 0.0 or summary.B_p <= 0.0:
        raise ValueError("GN quotient undefined on a degenerate summary")
    zeta = params.zeta_p
    return summary.B_p / (summary.A ** (params.p * zeta / 2.0)
                          * summary.M ** (params.p * (1.0 - zeta) / 2.0))


def sobolev_sharp_constant(dim: int, s: float) -> float:
    """The sharp constant S of ||(-Delta)^{s/2} u||^2 >= S ||u||_{2*_s}^2 on
    R^N (Lieb, Ann. Math. 118 (1983); Cotsiolis-Tavoularis, JMAA 295 (2004)):
    2^{2s} pi^s Gamma((N+2s)/2) / Gamma((N-2s)/2) (Gamma(N/2) / Gamma(N))^{2s/N}."""
    if not (0.0 < s < 1.0) or not (2.0 * s < dim):
        raise ValueError("sharp Sobolev constant needs 0 < s < 1 and 2s < N, got "
                         "N=%r, s=%r" % (dim, s))
    return (2.0 ** (2.0 * s) * math.pi ** s
            * math.gamma((dim + 2.0 * s) / 2.0) / math.gamma((dim - 2.0 * s) / 2.0)
            * (math.gamma(dim / 2.0) / math.gamma(dim)) ** (2.0 * s / dim))


@dataclass
class ConstantsReport:
    S_est: float
    C_est: float
    grid: GridSpec
    params: ModelParams
    refinement: dict
    converged: bool

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


def _check_positive(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (math.isfinite(value) and value > 0.0)):
        raise ValueError("%s must be a finite positive number, got %r" % (name, value))


def load_constants(path) -> ConstantsReport:
    """Read a report written by save_constants. A file that is not JSON, a
    report that is not an object, lacks a key, holds a grid or params that
    make_grid or ModelParams rejects, a grid and params of different
    dimensions, a refinement that is not an object whose S and C are
    non-empty lists of [n, value] (n a grid size of the report's dimension,
    value finite and positive), or an S_est, C_est or converged that is not
    what the estimators read off those traces raises ValueError naming the
    file and the key."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("the top level must be a JSON object, got %r" % (raw,))
        for key in ("S_est", "C_est"):
            _check_positive(key, raw[key])
        for key in ("grid", "params", "refinement"):
            if not isinstance(raw[key], dict):
                raise ValueError("%s must be a JSON object, got %r" % (key, raw[key]))
        g, pr = raw["grid"], raw["params"]
        grid = make_grid(g["dim"], g["n"], g["L"])
        params = ModelParams(dim=pr["dim"], s=pr["s"], p=pr["p"], eta=pr["eta"], m=pr["m"])
        if grid.dim != params.dim:
            raise ValueError("grid dimension %d and params dimension %d differ"
                             % (grid.dim, params.dim))
        for label in ("S", "C"):
            trace = raw["refinement"].get(label)
            if not (isinstance(trace, list) and trace
                    and all(isinstance(r, list) and len(r) == 2 for r in trace)):
                raise ValueError("refinement %s must be a non-empty list of [n, value], "
                                 "got %r" % (label, trace))
            for n, value in trace:
                try:
                    make_grid(grid.dim, n, grid.half_length)
                except (TypeError, ValueError) as exc:
                    raise ValueError("refinement %s grid size: %s" % (label, exc)) from None
                _check_positive("refinement %s value" % label, value)
            if raw[label + "_est"] != trace[-1][1]:
                raise ValueError("%s_est %r is not %r, the value of the last refinement %s "
                                 "rung" % (label, raw[label + "_est"], trace[-1][1], label))
        if not isinstance(raw["converged"], bool):
            raise ValueError("converged must be true or false, got %r" % (raw["converged"],))
        if raw["converged"] != all(_ladder_converged(raw["refinement"][k]) for k in "SC"):
            raise ValueError("converged %s disagrees with the refinement traces' 5 percent "
                             "drift test" % json.dumps(raw["converged"]))
        return ConstantsReport(S_est=raw["S_est"], C_est=raw["C_est"], grid=grid, params=params,
                               refinement=raw["refinement"], converged=raw["converged"])
    except KeyError as exc:
        raise ValueError("constants report %s: missing key %s" % (path, exc))
    except (TypeError, ValueError) as exc:
        raise ValueError("constants report %s: %s" % (path, exc))


# ----------------------------------------------------------------------
# optimizers

_STEP_INIT = 0.5
_ARMIJO = 1e-4
_SLOPE_TOL = 1e-10      # a start ends once slope <= _SLOPE_TOL |value|
_SCREEN_TOL = 1e-3      # a multistart rung screens its starts to this slope
_MAX_ITERS = 30000
_LINE_SEARCH_MAX = 60


def _mean_zero(values: np.ndarray) -> np.ndarray:
    return values - np.mean(values)


class _Quotient:
    """A scale-invariant quotient of (A, M, B) on one grid, with
    B = h^N sum |u|^r.

    value(A, M, B) is the quotient, and gradient(A, M, B) gives the
    coefficients (a, b, c) of its L2 gradient a (-Delta)^s u + b u
    - c |u|^{r-2} u up to a positive factor, which the direction drops.
    sym is |k|^{2s} on the half spectrum and pre the preconditioner
    1 / (1 + |k|^{2s}) both quotients share.
    """

    def __init__(self, grid: GridSpec, s: float, r: float, value, gradient):
        self.grid, self.r, self.value, self.gradient = grid, r, value, gradient
        self.sym = grid.half_symbol(s)
        self.pre = 1.0 / (1.0 + self.sym)


def _measure(u: np.ndarray, quotient: _Quotient) -> tuple:
    """(uh, A, M) of real samples u, with uh their rfftn half spectrum:
    the one transform the kernel spends on a state it keeps."""
    grid = quotient.grid
    uh = np.fft.rfftn(u)
    return uh, _plancherel(grid, uh, uh, quotient.sym), _lp_values(u, grid, 2.0)


def _direction(u, uh, parts, quotient):
    """Preconditioned descent data at u, with uh its rfftn half spectrum
    and parts its (A, M, B), formed in Fourier space like the solver's.

    The gradient's spectrum is g_hat = (a |k|^{2s} + b) uh - c F[|u|^{r-2} u]
    with its zero mode removed (the mean-zero projection), and the
    direction is d = F^-1[g_hat / (1 + |k|^{2s})]. Returns (slope, d,
    price, gh, dh): slope = <g, d> by Plancherel, gh and dh are the half
    spectra of g and d, and price(al) gives (A, M) of u - al d
    (fields._quadratic_price). Since (1 + (-Delta)^s) d = g, the seminorm
    terms are <u, d>_s = <u, g> - <u, d> and A(d) = <g, d> - M(d), and the
    M terms are sums over the grid.
    """
    A, M, B = parts
    grid, sym = quotient.grid, quotient.sym
    a, b, c = quotient.gradient(A, M, B)
    gh = (a * sym + b) * uh - c * np.fft.rfftn(odd_power(u, quotient.r))
    gh.flat[0] = 0.0
    dh = gh * quotient.pre
    d = np.fft.irfftn(dh)
    slope = _plancherel(grid, gh, dh)
    M_ud = grid.cell_volume * float(np.vdot(u, d))
    M_dd = grid.cell_volume * float(np.vdot(d, d))
    price = _quadratic_price(A, M, _plancherel(grid, uh, gh) - M_ud, slope - M_dd,
                             M_ud, M_dd)
    return slope, d, price, gh, dh


def _descend_quotient(u0: np.ndarray, quotient: _Quotient, slope_tol: float) -> tuple:
    """Preconditioned backtracking descent of a scale-invariant quotient
    from u0, kept on the unit-mass, mean-zero subspace.

    Each iteration forms the direction on the carried half spectrum (one
    forward transform of the nonlinear term, one inverse transform for d).
    A trial lam (u - al d), with lam putting it back on unit mass, is
    priced: A and M from the quadratic laws, so it touches the grid only
    for its power sum B. A trial whose priced value passes is measured
    with one rfftn and accepted on the measured value. Both tests compare
    the decrease itself, val - val_trial >= c al slope, so every accepted
    step strictly lowers the measured quotient.

    The first trial at the start's first iterate is _STEP_INIT. After an
    accepted step s = v - u, with y the change of the gradient and P y
    that of the direction (P = 1 / (1 + |k|^{2s})), it is the
    Barzilai-Borwein step <s, y> / <y, P y> capped at 1e2, every inner
    product a Plancherel sum on the half spectra the kernel already has.
    Where <s, y> <= 0 the doubled last accepted step (capped) is used.

    A start has two exits: the slope test slope <= slope_tol |val|, taken
    before any trial at the iterate, and a line search that halves
    _LINE_SEARCH_MAX times without a decrease. Returns (value, iterations,
    ended, field); iterations counts the directions formed, and ended is
    False only when the iteration budget ran out first.
    """
    grid, r, value = quotient.grid, quotient.r, quotient.value
    u = _renorm(_mean_zero(u0), grid, 1.0)
    uh, A, M = _measure(u, quotient)
    parts = (A, M, _lp_values(u, grid, r))
    val = value(*parts)
    al, last = _STEP_INIT, None
    for it in range(_MAX_ITERS):
        slope, d, price, gh, dh = _direction(u, uh, parts, quotient)
        if slope <= slope_tol * abs(val):
            return val, it + 1, True, u
        if last is not None:
            sh, gh_old, dh_old = last
            yh = gh - gh_old
            sy = _plancherel(grid, sh, yh)
            if sy > 0.0:
                al = min(sy / _plancherel(grid, yh, dh - dh_old), 1e2)
        for _ in range(_LINE_SEARCH_MAX):
            Av, Mv = price(al)
            lam = 1.0 / math.sqrt(Mv)
            v = u - al * d
            v *= lam
            Bv = _lp_values(v, grid, r)
            if val - value(lam * lam * Av, lam * lam * Mv, Bv) >= _ARMIJO * al * slope:
                vh, Aw, Mw = _measure(v, quotient)
                val_v = value(Aw, Mw, Bv)
                if val - val_v >= _ARMIJO * al * slope:
                    break
            al *= 0.5
        else:
            return val, it + 1, True, u
        last = (vh - uh, gh, dh)
        u, uh, parts, val = v, vh, (Aw, Mw, Bv), val_v
        al = min(2.0 * al, 1e2)
    return val, _MAX_ITERS, False, u


def _sobolev(grid: GridSpec, params: ModelParams) -> _Quotient:
    """The Sobolev quotient A / B*^{2/q} on grid.

    Its gradient is 2 B*^{-2/q} [(-Delta)^s u - (A/B*) |u|^{q-2} u]; the
    constant in front is irrelevant to the direction and dropped.
    """
    return _Quotient(grid, params.s, params.two_star,
                     value=lambda A, M, B: sobolev_quotient(FieldSummary(A, M, 0.0, B), params),
                     gradient=lambda A, M, B: (1.0, 0.0, A / B))


def _neg_gn(grid: GridSpec, params: ModelParams) -> _Quotient:
    """The negated GN quotient -Q, Q = gn_quotient = B_p / den with
    den = A^{p zeta/2} M^{p(1-zeta)/2}, on grid.

    Negation is exact in floating point: the value and the gradient
    Q [p zeta (-Delta)^s u / A + p (1 - zeta) u / M] - p |u|^{p-2} u / den
    are the exact negatives of those of the quotient, so descending it
    takes the same steps as ascent on the quotient.
    """
    p, zeta = params.p, params.zeta_p
    ea, eb = p * zeta / 2.0, p * (1.0 - zeta) / 2.0

    def gradient(A, M, B):
        Q = gn_quotient(FieldSummary(A, M, B, 0.0), params)
        return Q * p * zeta / A, Q * p * (1.0 - zeta) / M, p / (A ** ea * M ** eb)

    return _Quotient(grid, params.s, p,
                     value=lambda A, M, B: -gn_quotient(FieldSummary(A, M, B, 0.0), params),
                     gradient=gradient)


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


def _run_ladder(grid: GridSpec, params: ModelParams, rungs: int, quotient_on) -> tuple:
    """Shared ladder driver: multistart at the base grid, warm-started
    doublings after that; quotient_on(grid, params) is the quotient
    descended on each rung. A rung with more than one start screens them,
    descending each to slope <= _SCREEN_TOL |value|, and finishes only the
    one with the lowest screened value, descending it on to _SLOPE_TOL; a
    rung with one start descends it to _SLOPE_TOL. Only finished values
    enter the trace, which is returned."""
    if isinstance(rungs, bool) or not isinstance(rungs, Integral) or rungs < 1:
        raise ValueError("rungs must be an int >= 1, got %r" % (rungs,))
    trace = []

    def descend(u0, quotient, slope_tol):
        val, iters, ended, u_opt = _descend_quotient(u0, quotient, slope_tol)
        if not ended:
            raise RuntimeError(
                "quotient optimization still improving after %d iterations "
                "(trace so far: %r)" % (iters, trace)
            )
        return val, u_opt

    g = grid
    best_u = None
    for rung in range(rungs):
        starts = _starts(g, params) if rung == 0 else [best_u]
        quotient = quotient_on(g, params)
        if len(starts) > 1:
            # a generator keeps only the lowest screened state alive
            screened = (descend(u0, quotient, _SCREEN_TOL) for u0 in starts)
            starts = [min(screened, key=lambda r: r[0])[1]]
        val, best_u = descend(starts[0], quotient, _SLOPE_TOL)
        trace.append((g.points_per_axis, val))
        if rung + 1 < rungs:
            big = make_grid(g.dim, 2 * g.points_per_axis, g.half_length)
            best_u = _refine_values(best_u, g)
            g = big
    return trace


def _estimate(trace: list) -> dict:
    """An estimator's result, read off its trace as load_constants checks."""
    return {"value": trace[-1][1], "refinement": trace, "converged": _ladder_converged(trace)}


def _ladder_converged(trace: list) -> bool:
    if len(trace) < 2:
        return False
    prev, last = trace[-2][1], trace[-1][1]
    return abs(last - prev) <= 0.05 * abs(prev)


def estimate_sobolev(grid: GridSpec, params: ModelParams, rungs: int = 3) -> dict:
    """Minimize the Sobolev quotient; refinement trace over the ladder."""
    return _estimate(_run_ladder(grid, params, rungs, _sobolev))


def estimate_gn(grid: GridSpec, params: ModelParams, rungs: int = 3) -> dict:
    """Maximize the GN quotient; the constant estimate is the p-th root of
    the optimal quotient."""
    trace = _run_ladder(grid, params, rungs, _neg_gn)
    return _estimate([(n, (-r) ** (1.0 / params.p)) for n, r in trace])


def estimate_constants(grid: GridSpec, params: ModelParams,
                       rungs: int = 3) -> ConstantsReport:
    frags = {"S": estimate_sobolev(grid, params, rungs), "C": estimate_gn(grid, params, rungs)}
    return ConstantsReport(
        S_est=frags["S"]["value"], C_est=frags["C"]["value"], grid=grid, params=params,
        refinement={k: [list(t) for t in f["refinement"]] for k, f in frags.items()},
        converged=all(f["converged"] for f in frags.values()))


# ----------------------------------------------------------------------
# probe fields


def probe_fields(grid: GridSpec, params: ModelParams, count: int = 50,
                 seed: int = 0):
    """Yield a deterministic sequence of resolved test fields as mean-zero,
    unit-mass arrays, one at a time, stopping after count; nothing past the
    last yielded probe is drawn.

    Families: plain gaussians, bubbles, offset gaussians, cosine-modulated
    gaussians, and band-limited noise under a decaying envelope. Widths and
    scales are kept at or above half a unit so every probe is resolved on
    the grids the estimators use; under-resolved spikes overshoot the
    quadrature and do not witness the continuum inequalities.

    The set is a prefix: the first k probes of any count >= k are the same
    fields, bit for bit, so count only says where the sequence stops.
    """
    rng = np.random.default_rng(seed)
    L = grid.half_length
    mesh = grid.meshgrid()
    r2 = sum(c * c for c in mesh)

    def families():
        for w in np.geomspace(0.5, L / 6.0, 12):
            yield np.exp(-r2 / (2.0 * w * w))
        for eps in np.geomspace(0.5, 4.0, 8):
            yield (eps * eps + r2) ** (-(grid.dim - 2.0 * params.s) / 2.0)
        for _ in range(10):
            w = rng.uniform(0.8, L / 8.0)
            center = rng.uniform(-L / 4.0, L / 4.0, size=grid.dim)
            shifted = sum((c - x0) ** 2 for c, x0 in zip(mesh, center))
            yield np.exp(-shifted / (2.0 * w * w))
        for _ in range(10):
            w = rng.uniform(1.0, L / 8.0)
            mode = rng.integers(1, max(2, grid.points_per_axis // 8), size=grid.dim)
            phase = sum(np.pi * m / L * c for m, c in zip(mode, mesh))
            yield np.cos(phase) * np.exp(-r2 / (2.0 * w * w))
        while True:
            cutoff = rng.uniform(0.05, 0.25)
            yield sample(grid, "random_bandlimited",
                         {"cutoff": cutoff, "envelope_width": L / 6.0},
                         seed=int(rng.integers(0, 2 ** 31))).values

    for values in islice(families(), count):
        yield _renorm(_mean_zero(values), grid, 1.0)
