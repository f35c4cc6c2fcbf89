"""The Sobolev and Gagliardo-Nirenberg constants: S from its closed form,
C by scale-invariant quotient optimization on a refinement ladder. S_est and
C_est feed rho, geometry_lower_bound and the verify rows that take a
constants report.

estimate_sobolev reports the sharp Sobolev constant on R^N,
functionals.sobolev_sharp_constant (Lieb; Cotsiolis-Tavoularis), on every
rung of the ladder's grids, so its doubling gap is 0 by construction. A
lattice descent of sobolev_quotient converges to grid-scale spikes instead,
31 percent above the sharp constant in 1D (s = 0.4) and 2.6 percent below
it in 2D (s = 1/2).

On the periodic box the GN quotient diverges along nearly-constant fields,
a limit that does not exist on the whole space, so the optimizer projects
iterates and gradients onto the mean-zero subspace at every step; that is
the only regularization used. It does not keep the optimum resolved: the
quotient is invariant under amplitude and dilation, so on a periodic grid
the optimum depends on n alone and the maximizers are grid-scale spikes
(one to three samples above half their maximum). C_est is a lattice
constant, not a continuum one. The ladder ascends the public gn_quotient
Q, whose values the verify rows check, with the solver's mass projection
(at unit mass) and trial pricing.

The kernel is built like the solver's. Its direction d is the gradient of
-Q preconditioned by 1 / (1 + |k|^{2s}), formed on the iterate's carried
rfftn half spectrum, with its slope taken by Plancherel, so a trial
u - al d raises Q. A trial's A and M come from the quadratic laws in the
step length, so a trial touches the grid only for its power sum; one that
passes on this priced value is transformed once and accepted on its
measured value. Both tests compare the rise itself, so every accepted step
strictly raises the quotient. From a start's second iterate on, the first
trial step is the preconditioned Barzilai-Borwein step <s, y> / <y, P y>
of the last accepted step s and gradient change y (P the preconditioner),
which the line search rarely halves: 1.02-1.10 trials per accepted step on
the ladder grids, against about 1.9 when the last accepted step is doubled
instead. A start ends at the first iterate whose slope <g, d> is at most
_SLOPE_TOL Q (first-order stationarity), or earlier if its line search
finds no rising step. The slope is the squared gradient norm in the
preconditioner's metric, which near a maximum is of the order of the rise
still available, so the remaining ascent to the rounding floor moves a
ladder value by at most 8.1e-11 relative while taking about a quarter of
its iterations.

A rung with more than one start (the first rung's multistart pool) screens
and then finishes. Every start ascends only to slope <= _SCREEN_TOL Q; the
start with the highest screened value then ascends on to _SLOPE_TOL,
restarting without its Barzilai-Borwein memory, and only that finished
value enters the refinement trace. The price is the ranking: a screen ranks
basins only to about _SCREEN_TOL relative, so of two distinct maxima closer
than that the lower one may be finished, and the ladder's 5 percent drift
test would not see it. The report's converged flag records whether the
last doubling moved each estimate by less than 5 percent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fields import (FieldSummary, _bandlimited, _check_dim, _lp_values, _plancherel,
                     _quadratic_price, _renorm, _rfftn, sample)
from .functionals import odd_power, sobolev_sharp_constant
from .grids import GridSpec, make_grid
from .params import ModelParams, _count, _positive


def sobolev_quotient(summary: FieldSummary, params: ModelParams) -> float:
    """A / B_star^{2/2*_s}; its infimum over nonzero fields is S."""
    if not (0.0 <= summary.A < math.inf and 0.0 < summary.B_star < math.inf):
        raise ValueError("Sobolev quotient undefined on the zero field or a non-finite summary")
    return summary.A / summary.B_star ** (2.0 / params.two_star)


def gn_quotient(summary: FieldSummary, params: ModelParams) -> float:
    """B_p / (A^{p zeta/2} M^{p(1-zeta)/2}); its supremum is C^p."""
    if not (0.0 < summary.A < math.inf and 0.0 < summary.M < math.inf
            and 0.0 < summary.B_p < math.inf):
        raise ValueError("GN quotient undefined on a degenerate or non-finite summary")
    zeta = params.zeta_p
    return summary.B_p / (summary.A ** (params.p * zeta / 2.0)
                          * summary.M ** (params.p * (1.0 - zeta) / 2.0))


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


def load_constants(path) -> ConstantsReport:
    """Read a report written by save_constants. A file that is not JSON, a
    report that is not an object, lacks a key, holds a grid or params that
    make_grid or ModelParams rejects, a grid and params of different
    dimensions, a refinement that is not an object whose S and C are
    non-empty ladders of [n, value] (n an int, the report grid's n on the
    first rung and doubled on each next, value finite and positive), an S rung
    whose value is not sobolev_sharp_constant(N, s) (a lattice estimate
    written by an older version), or an S_est,
    C_est or converged that is not what the estimators read off those
    traces raises ValueError naming the file and the key."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("the top level must be a JSON object, got %r" % (raw,))
        for key in ("S_est", "C_est"):
            _positive(key, raw[key])
        for key in ("grid", "params", "refinement"):
            if not isinstance(raw[key], dict):
                raise ValueError("%s must be a JSON object, got %r" % (key, raw[key]))
        g, pr = raw["grid"], raw["params"]
        grid = make_grid(g["dim"], g["n"], g["L"])
        params = ModelParams(dim=pr["dim"], s=pr["s"], p=pr["p"], eta=pr["eta"], m=pr["m"])
        _check_dim(grid, params)
        sharp = sobolev_sharp_constant(params.dim, params.s)
        for label in ("S", "C"):
            trace = raw["refinement"].get(label)
            if not (isinstance(trace, list) and trace
                    and all(isinstance(r, list) and len(r) == 2 for r in trace)):
                raise ValueError("refinement %s must be a non-empty list of [n, value], "
                                 "got %r" % (label, trace))
            for rung, (n, value) in enumerate(trace):
                _count("refinement %s grid size" % label, n)
                if n != grid.points_per_axis * 2 ** rung:
                    raise ValueError("refinement %s rung %d has grid size %r, not %d (the "
                                     "report grid's n doubled per rung)"
                                     % (label, rung, n, grid.points_per_axis * 2 ** rung))
                _positive("refinement %s value" % label, value)
                if label == "S" and value != sharp:
                    raise ValueError("refinement S rung %d value %r is not %r, the sharp "
                                     "Sobolev constant of N=%d, s=%r"
                                     % (rung, value, sharp, params.dim, params.s))
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
_SLOPE_TOL = 1e-10      # a start ends once slope <= _SLOPE_TOL Q
_SCREEN_TOL = 1e-3      # a multistart rung screens its starts to this slope
_MAX_ITERS = 30000
_LINE_SEARCH_MAX = 60


def _mean_zero(values: np.ndarray) -> np.ndarray:
    return values - np.mean(values)


def _measure(u: np.ndarray, grid: GridSpec, sym: np.ndarray) -> tuple:
    """(uh, A, M) of real samples u, with uh their rfftn half spectrum:
    the one transform the kernel spends on a state it keeps."""
    uh = _rfftn(u)
    return uh, _plancherel(grid, uh, uh, sym), _lp_values(u, grid, 2.0)


def _direction(u, uh, parts, grid, params, sym, pre):
    """Preconditioned ascent data at u, with uh its rfftn half spectrum and
    parts its (A, M, Q), Q = gn_quotient = B_p / den with
    den = A^{p zeta/2} M^{p(1-zeta)/2}, formed in Fourier space like the
    solver's; sym is |k|^{2s} on the half spectrum and pre the
    preconditioner 1 / (1 + |k|^{2s}).

    The gradient of -Q is, up to a positive factor that the direction
    drops, g = a (-Delta)^s u + b u - c |u|^{p-2} u with a = Q p zeta / A,
    b = Q p (1 - zeta) / M and c = p / den. Its spectrum
    g_hat = (a |k|^{2s} + b) uh - c F[|u|^{p-2} u] has its zero mode
    removed (the mean-zero projection), and the direction is
    d = F^-1[g_hat pre], so u - al d raises Q. Returns (slope, d, price,
    gh, dh): slope = <g, d> by Plancherel, gh and dh are the half spectra
    of g and d, and price(al) gives (A, M) of u - al d
    (fields._quadratic_price). Since (1 + (-Delta)^s) d = g, the seminorm
    terms are <u, d>_s = <u, g> - <u, d> and A(d) = <g, d> - M(d), and the
    M terms are sums over the grid.
    """
    A, M, Q = parts
    p, zeta = params.p, params.zeta_p
    a, b = Q * p * zeta / A, Q * p * (1.0 - zeta) / M
    c = p / (A ** (p * zeta / 2.0) * M ** (p * (1.0 - zeta) / 2.0))
    gh = (a * sym + b) * uh - c * _rfftn(odd_power(u, p))
    gh.flat[0] = 0.0
    dh = gh * pre
    d = np.fft.irfftn(dh)
    slope = _plancherel(grid, gh, dh)
    M_ud = grid.cell_volume * float(np.vdot(u, d))
    M_dd = grid.cell_volume * float(np.vdot(d, d))
    price = _quadratic_price(A, M, _plancherel(grid, uh, gh) - M_ud, slope - M_dd,
                             M_ud, M_dd)
    return slope, d, price, gh, dh


def _ascend_gn(u0: np.ndarray, grid: GridSpec, params: ModelParams, slope_tol: float) -> tuple:
    """Preconditioned backtracking ascent of the GN quotient Q from u0 on
    grid, kept on the unit-mass, mean-zero subspace.

    Each iteration forms the direction on the carried half spectrum (one
    forward transform of the nonlinear term, one inverse transform for d).
    A trial lam (u - al d), with lam putting it back on unit mass, is
    priced: A and M from the quadratic laws, so it touches the grid only
    for its power sum B_p. A trial whose priced value passes is measured
    with one rfftn and accepted on the measured value. Both tests compare
    the rise itself, Q_trial - Q >= c al slope, so every accepted step
    strictly raises the measured quotient.

    The first trial at the start's first iterate is _STEP_INIT. After an
    accepted step s = v - u, with y the change of the gradient and P y
    that of the direction (P = 1 / (1 + |k|^{2s})), it is the
    Barzilai-Borwein step <s, y> / <y, P y> capped at 1e2, every inner
    product a Plancherel sum on the half spectra the kernel already has.
    Where <s, y> <= 0 the doubled last accepted step (capped) is used.

    A start has two exits: the slope test slope <= slope_tol Q, taken
    before any trial at the iterate, and a line search that halves
    _LINE_SEARCH_MAX times without a rise. Returns (Q, iterations, ended,
    field); iterations counts the directions formed, and ended is False
    only when the iteration budget ran out first.
    """
    p = params.p
    sym = grid.symbol(params.s)
    pre = 1.0 / (1.0 + sym)

    def quotient(A, M, B):
        return gn_quotient(FieldSummary(A, M, B, 0.0), params)

    u = _renorm(_mean_zero(u0), grid, 1.0)
    uh, A, M = _measure(u, grid, sym)
    val = quotient(A, M, _lp_values(u, grid, p))
    al, last = _STEP_INIT, None
    for it in range(_MAX_ITERS):
        slope, d, price, gh, dh = _direction(u, uh, (A, M, val), grid, params, sym, pre)
        if slope <= slope_tol * val:
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
            Bv = _lp_values(v, grid, p)
            if quotient(lam * lam * Av, lam * lam * Mv, Bv) - val >= _ARMIJO * al * slope:
                vh, Aw, Mw = _measure(v, grid, sym)
                val_v = quotient(Aw, Mw, Bv)
                if val_v - val >= _ARMIJO * al * slope:
                    break
            al *= 0.5
        else:
            return val, it + 1, True, u
        last = (vh - uh, gh, dh)
        u, uh, A, M, val = v, vh, Aw, Mw, val_v
        al = min(2.0 * al, 1e2)
    return val, _MAX_ITERS, False, u


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


def _estimate(trace: list) -> dict:
    """An estimator's result, read off its trace as load_constants checks."""
    return {"value": trace[-1][1], "refinement": trace, "converged": _ladder_converged(trace)}


def _ladder_converged(trace: list) -> bool:
    if len(trace) < 2:
        return False
    prev, last = trace[-2][1], trace[-1][1]
    return abs(last - prev) <= 0.05 * abs(prev)


def estimate_sobolev(grid: GridSpec, params: ModelParams, rungs: int = 3) -> dict:
    """The sharp Sobolev constant of (N, s) on every rung of the ladder's
    grids n, 2n, 4n, ...; S has a closed form, so no ascent runs."""
    _check_dim(grid, params)
    _count("rungs", rungs)
    sharp = sobolev_sharp_constant(params.dim, params.s)
    return _estimate([(grid.points_per_axis * 2 ** k, sharp) for k in range(rungs)])


def estimate_gn(grid: GridSpec, params: ModelParams, rungs: int = 3) -> dict:
    """Maximize the GN quotient on the ladder's grids n, 2n, 4n, ...; each
    rung's constant estimate is the p-th root of its optimal quotient.

    The first rung screens the multistart pool, ascending each start to
    slope <= _SCREEN_TOL Q, and finishes only the one with the highest
    screened value, ascending it on to _SLOPE_TOL; each later rung ascends
    the previous optimum, refined to its grid, to _SLOPE_TOL. Only finished
    values enter the trace."""
    _check_dim(grid, params)
    _count("rungs", rungs)
    trace = []

    def ascend(u0, g, slope_tol):
        val, iters, ended, u_opt = _ascend_gn(u0, g, params, slope_tol)
        if not ended:
            raise RuntimeError(
                "quotient optimization still improving after %d iterations "
                "(trace so far: %r)" % (iters, trace)
            )
        return val, u_opt

    g, best_u = grid, None
    for rung in range(rungs):
        if rung == 0:
            # a generator keeps only the highest screened state alive
            screened = (ascend(u0, g, _SCREEN_TOL) for u0 in _starts(g, params))
            best_u = max(screened, key=lambda r: r[0])[1]
        val, best_u = ascend(best_u, g, _SLOPE_TOL)
        trace.append((g.points_per_axis, val ** (1.0 / params.p)))
        if rung + 1 < rungs:
            best_u = _refine_values(best_u, g)
            g = make_grid(g.dim, 2 * g.points_per_axis, g.half_length)
    return _estimate(trace)


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
    """An iterator over a deterministic sequence of resolved test fields as
    mean-zero, unit-mass arrays, one at a time, stopping after count (an
    int >= 1); nothing past the last yielded probe is drawn. Params of
    another dimension than the grid, or a count or a seed (an int >= 0)
    that is malformed, raise ValueError at the call.

    Families: plain gaussians, bubbles, offset gaussians, cosine-modulated
    gaussians, and band-limited noise under a decaying envelope. Widths and
    scales are kept at or above half a unit so every probe is resolved on
    the grids the estimators use; under-resolved spikes overshoot the
    quadrature and do not witness the continuum inequalities.

    The set is a prefix: the first k probes of any count >= k are the same
    fields, bit for bit, so count only says where the sequence stops. Each
    probe is one array, evaluated, centred and normalized in place; the
    band-limited probes are sample's random_bandlimited fields, drawn
    without building a Field.
    """
    _check_dim(grid, params)
    _count("count", count)
    _count("seed", seed, least=0)
    rng = np.random.default_rng(seed)
    L = grid.half_length
    mesh = grid.meshgrid()
    r2 = sum(c * c for c in mesh)

    def gaussian(sq, w, out=None):
        out = np.negative(sq, out=out)
        out /= 2.0 * w * w
        return np.exp(out, out=out)

    def families():
        for w in np.geomspace(0.5, L / 6.0, 12):
            yield gaussian(r2, w)
        for eps in np.geomspace(0.5, 4.0, 8):
            out = r2 + eps * eps
            out **= -(grid.dim - 2.0 * params.s) / 2.0
            yield out
        for _ in range(10):
            w = rng.uniform(0.8, L / 8.0)
            center = rng.uniform(-L / 4.0, L / 4.0, size=grid.dim)
            shifted = sum((c - x0) ** 2 for c, x0 in zip(mesh, center))
            yield gaussian(shifted, w, out=shifted)
        for _ in range(10):
            w = rng.uniform(1.0, L / 8.0)
            mode = rng.integers(1, max(2, grid.points_per_axis // 8), size=grid.dim)
            phase = sum(np.pi * m / L * c for m, c in zip(mode, mesh))
            out = np.cos(phase, out=phase)
            out *= gaussian(r2, w)
            yield out
        envelope = np.exp(-grid.radius() ** 2 / (2.0 * (L / 6.0) ** 2))
        while True:
            cutoff = rng.uniform(0.05, 0.25)
            yield _bandlimited(grid, cutoff, envelope, int(rng.integers(0, 2 ** 31)))

    def probes():
        for values in islice(families(), count):
            values -= np.mean(values)
            yield _renorm(values, grid, 1.0, out=values)

    return probes()
