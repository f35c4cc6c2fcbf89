#!/usr/bin/env python3
"""Closed-loop benchmark of the fracnlse package.

Run from the repository root:

    python3 perfbench/run.py --workload sweep2d --seed 0 --seconds 20 --trace 0

Workloads (rationale in BENCHMARK.json and perfbench/README.md):

    sweep2d     the paper's coupling sweep through ``sweep_eta`` (5 couplings, n=256)
    baseline1d  the 1D baseline problem behind acceptance criteria 5 and 11
    ladder      two Sobolev/GN constants ladders plus their probe-sandwich rows

Each workload is a closed loop with one caller: a pass starts when the
previous one has returned, and passes repeat until ``--seconds`` have
elapsed (at least one pass). Every operation of a pass (a solve, a slope
fit, a ladder) is checked against an oracle written here with numpy only.
An operation fails if it raises, returns non-finite values, reports
``converged=False`` or fails its oracle; failures are counted, never fatal.
``correct`` is false only when an output is wrong: non-finite values, a
report that disagrees with its own final field, a success claim that its
oracle refutes, or passes on the same inputs that disagree.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate run that records a span around each call
into a package layer and times single calls of each layer on the
workload's grid. Every run writes its full record (environment, all
metrics, operations, spans) to ``perfbench/out/``; the last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import time

# A cold set-up (``--setup-probe``) counts the imports below, numpy included.
_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("sweep2d", "baseline1d", "ladder")
SWEEP_ETAS = [float(e) for e in np.geomspace(10.0, 1000.0, 5)]
ETA_TAGS = ("10", "32", "100", "316", "1000")
SETUP_REPEATS = 5
PROBE_REPEATS = 7
LADDER_ROWS = ("sobolev-inequality-with-estimate", "gn-inequality-with-estimate")
# Layers a pass calls directly; "bench" is the benchmark's own code.
TRACED_LAYERS = ("solver", "constants", "verify", "bench")


class SetupError(RuntimeError):
    """The package sources are not where the benchmark expects them."""


def import_package():
    """Import fracnlse from this checkout's ``src`` (never an installed copy)."""
    init = os.path.join(SRC, "fracnlse", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError("package sources not found at %s" % init)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fracnlse

    if os.path.dirname(os.path.dirname(os.path.abspath(fracnlse.__file__))) != SRC:
        raise SetupError("imported fracnlse from %s, not from %s" % (fracnlse.__file__, SRC))
    return fracnlse


# ----------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, label: str | None = None, **kwargs):
        """fn(*args, **kwargs) inside a span named ``<layer>.<function>``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        name = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)
        if label is not None:
            name += "[%s]" % label
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list) -> dict:
    """Self time per layer: each span's duration minus its children's.

    Spans named ``pass...`` belong to the benchmark's own layer ``bench``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for (name, start, end, _), inner in zip(spans, child):
        layer = "bench" if name.startswith("pass") else name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - inner
    return out


def spans_named(spans: list, name: str) -> list:
    return [end - start for n, start, end, _ in spans if n == name]


# ----------------------------------------------------------------------
# operations and their oracles


@dataclass
class Outcome:
    """One operation: failed counts toward fail_frac, correct=False marks a wrong output."""

    op: str
    failed: bool = False
    correct: bool = True
    reason: str = "ok"


def exponents(dim: int, s: float, p: float) -> tuple:
    """(2*_s, zeta_p, level decay exponent), computed here independently."""
    q = 2.0 * dim / (dim - 2.0 * s)
    zeta = (dim * p - 2.0 * dim) / (2.0 * p * s)
    decay = 4.0 * s / (dim * p - 2.0 * dim - 4.0 * s)
    return q, zeta, decay


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _nanmax(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return max(values) if values else math.nan


def classify_solve(rep, params, tol_pohozaev: float, op: str = "solve") -> Outcome:
    """Scalar oracles of a SolveReport-like object (criteria 4-6)."""
    S = rep.summary
    if not _finite(rep.energy_level, rep.mu, rep.pohozaev_residual, rep.pde_residual,
                   S.A, S.M, S.B_p, S.B_star):
        return Outcome(op, failed=True, correct=False, reason="non-finite report")
    if not rep.converged:
        return Outcome(op, failed=True, reason="unconverged")
    _, zeta, _ = exponents(params.dim, params.s, params.p)
    mu_m = rep.mu * S.M
    mu_rel = abs(mu_m - params.eta * (zeta - 1.0) * S.B_p) / max(abs(mu_m), 1e-300)
    problems = []
    if not rep.pohozaev_residual <= tol_pohozaev:
        problems.append("|P|/A %.2e > %.0e" % (rep.pohozaev_residual, tol_pohozaev))
    if not mu_rel <= 1e-8:
        problems.append("multiplier identity %.2e > 1e-8" % mu_rel)
    if not rep.mu < 0.0:
        problems.append("mu %.4g >= 0" % rep.mu)
    if not rep.energy_level > 0.0:
        problems.append("E %.4g <= 0" % rep.energy_level)
    if problems:
        return Outcome(op, failed=True, correct=False, reason="; ".join(problems))
    return Outcome(op)


def audit_solve(rep, params) -> tuple:
    """Recompute the summary, level and Euler-Lagrange residual from the
    final field with numpy only. Returns (worst relative mismatch against
    the report, independent PDE residual)."""
    u = np.asarray(rep.final_field.values, dtype=float)
    grid = rep.final_field.grid
    n, L, dim = grid.points_per_axis, grid.half_length, grid.dim
    h = 2.0 * L / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    ksq = sum(c * c for c in np.meshgrid(*([k] * dim), indexing="ij"))
    sym = ksq ** params.s
    q, _, _ = exponents(dim, params.s, params.p)
    uh = np.fft.fftn(u)
    hN = h ** dim
    A = float(hN / n ** dim * np.sum(sym * np.abs(uh) ** 2))
    M = float(hN * np.sum(u * u))
    Bp = float(hN * np.sum(np.abs(u) ** params.p))
    Bs = float(hN * np.sum(np.abs(u) ** q))
    E = 0.5 * A - Bs / q - params.eta / params.p * Bp
    S = rep.summary
    mismatch = max(abs(a - b) / max(abs(b), 1e-300)
                   for a, b in ((A, S.A), (M, S.M), (Bp, S.B_p), (Bs, S.B_star)))
    mismatch = max(mismatch, abs(M - params.m ** 2) / params.m ** 2,
                   abs(E - rep.energy_level) / max(A, 1e-300))
    r = (np.fft.ifftn(sym * uh).real - np.sign(u) * np.abs(u) ** (q - 1.0)
         - params.eta * np.sign(u) * np.abs(u) ** (params.p - 1.0) - rep.mu * u)
    pde = math.sqrt(float(np.sum(r * r)) / float(np.sum(u * u)))
    mismatch = max(mismatch, abs(pde - rep.pde_residual) / max(pde, 1e-12))
    return mismatch, pde


def check_solve(rep, params, tol_pohozaev: float, op: str) -> tuple:
    """classify_solve plus the independent audit; returns (Outcome, residual)."""
    out = classify_solve(rep, params, tol_pohozaev, op)
    if not out.correct:
        return out, math.nan
    mismatch, pde = audit_solve(rep, params)
    if not mismatch <= 1e-8:
        out.correct = False
        out.failed = True
        out.reason = "report disagrees with its final field by %.2e" % mismatch
    return out, pde


def fit_slope(etas, levels) -> float:
    """Least-squares slope of log E against log eta."""
    return float(np.polyfit(np.log(etas), np.log(levels), 1)[0])


def classify_slope(slope, reference, etas, levels, op: str = "slope") -> Outcome:
    """Criterion 7: |slope + 2| <= 0.3, and the slope matches an independent fit."""
    if len(levels) < 2:
        return Outcome(op, failed=True, reason="fewer than two converged entries")
    if not _finite(slope, *levels):
        return Outcome(op, failed=True, correct=False, reason="non-finite slope")
    own = fit_slope(etas, levels)
    if abs(own - slope) > 1e-10 * abs(own):
        return Outcome(op, failed=True, correct=False,
                       reason="slope %.6f differs from refit %.6f" % (slope, own))
    if abs(slope - reference) > 0.3:
        return Outcome(op, failed=True, correct=False,
                       reason="slope %.4f outside %.1f +- 0.3" % (slope, reference))
    return Outcome(op)


def classify_ladder(report, rows, op: str = "ladder") -> Outcome:
    """Criterion 10: a converged, finite ladder inside the probe sandwich."""
    values = [v for label in ("S", "C") for _, v in report.refinement[label]]
    if not _finite(report.S_est, report.C_est, *values):
        return Outcome(op, failed=True, correct=False, reason="non-finite estimate")
    bad = ["%s: %s" % (r.name, r.detail) for r in rows if r.status != "pass"]
    if len(rows) != len(LADDER_ROWS) or bad:
        return Outcome(op, failed=True, correct=False,
                       reason="probe rows failed: %s" % "; ".join(bad or ["missing rows"]))
    if not report.converged:
        return Outcome(op, failed=True, reason="ladder unconverged")
    return Outcome(op)


def guarded(op: str, fn, *args, **kwargs):
    """(result, None) or (None, failed Outcome) when fn raises."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
        return None, Outcome(op, failed=True, reason="raised %s: %s" % (type(exc).__name__, exc))


# ----------------------------------------------------------------------
# workloads


@dataclass
class PassResult:
    outcomes: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    reports: list = field(default_factory=list)   # SolveReports, for boundary mass
    entries: dict = field(default_factory=dict)   # solve key -> (level, iterations)
    constants: dict = field(default_factory=dict)  # "1d"/"2d" -> (S, C)
    rows: list = field(default_factory=list)       # verify CheckResults


class Sweep2D:
    """The paper's coupling sweep on self-similar boxes (criterion 7)."""

    name = "sweep2d"

    def __init__(self, F, seed: int):
        self.F = F
        self.params = F.ModelParams(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0)
        self.config = F.SolveConfig(grid=F.make_grid(2, 256, 240.0), tol_grad=5e-3,
                                    tol_pohozaev=1e-9, max_iters=900)
        _, _, decay = exponents(2, 0.5, 3.5)
        growth = decay / (2.0 * self.params.s)
        self.reference_slope = -decay
        # sweep_eta's own scaling, for the per-entry solves of the traced pass
        self.entries = []
        for tag, eta in zip(ETA_TAGS, SWEEP_ETAS):
            scale = (eta / 10.0) ** growth
            grid = F.make_grid(2, 256, 240.0 * scale)
            grid.symbol(self.params.s)
            config = F.SolveConfig(grid=grid, tol_grad=5e-3 * (10.0 / eta) ** decay,
                                   tol_pohozaev=1e-9, max_iters=900)
            init = F.sample(grid, "gaussian", {"width": 12.0 * scale})
            self.entries.append((tag, eta, F.ModelParams(dim=2, s=0.5, p=3.5, eta=eta, m=1.0),
                                 config, init))

    def probe_setting(self):
        _, _, params, _, init = self.entries[0]
        return params, init

    def run(self, tr: Tracer) -> PassResult:
        res = PassResult()
        with tr.span("pass.sweep2d"):
            if tr.enabled:
                # sweep_eta with one thread, split into its public parts
                reports = []
                for tag, eta, params, config, init in self.entries:
                    rep, fail = guarded("solve[eta=%s]" % tag, tr.call, self.F.solve_ground_state,
                                        init, params, config, label="eta=" + tag)
                    reports.append(rep if fail is None else fail)
                slope = None
            else:
                sweep, fail = guarded("sweep", tr.call, self.F.sweep_eta, self.params,
                                      SWEEP_ETAS, self.config, eta_ref=10.0, width_ref=12.0)
                if fail is not None:
                    res.outcomes.append(fail)
                    return res
                reports = [rep if rep is not None else
                           Outcome("solve[eta=%s]" % tag, failed=True, reason="raised: %s" % e.error)
                           for tag, rep, e in zip(ETA_TAGS, sweep.reports, sweep.entries)]
                slope = sweep.slope
            good_eta, good_level, pde = [], [], []
            for (tag, eta, params, config, _), rep in zip(self.entries, reports):
                if isinstance(rep, Outcome):
                    res.outcomes.append(rep)
                    continue
                out, resid = check_solve(rep, params, config.tol_pohozaev, "solve[eta=%s]" % tag)
                res.outcomes.append(out)
                res.reports.append(rep)
                res.entries[tag] = (rep.energy_level, rep.iterations)
                pde.append(resid)
                if rep.converged and rep.energy_level > 0.0:
                    good_eta.append(eta)
                    good_level.append(rep.energy_level)
            if slope is None and len(good_level) >= 2:
                slope = fit_slope(good_eta, good_level)
            res.outcomes.append(classify_slope(slope, self.reference_slope, good_eta, good_level))
            res.quality["pde_residual_max"] = _nanmax(pde)
            res.quality["slope_err"] = (abs(slope - self.reference_slope)
                                        if slope is not None else math.nan)
        return res


class Baseline1D:
    """The 1D baseline problem behind criteria 5 (multistart) and 11 (refinement)."""

    name = "baseline1d"

    def __init__(self, F, seed: int):
        self.F = F
        self.params = F.ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0)
        grid = F.make_grid(1, 1024, 40.0)
        grid2 = F.make_grid(1, 2048, 40.0)
        for g in (grid, grid2):
            g.symbol(self.params.s)
        self.init = F.sample(grid, "gaussian", {"width": 1.0})
        self.init2 = F.sample(grid2, "gaussian", {"width": 1.0})
        self.config = F.SolveConfig(grid=grid)
        self.config2 = F.SolveConfig(grid=grid2)
        self.seed = seed
        self.passes = 0

    def multistart(self) -> list:
        """Noise seeds 5k+1..5k+5 for pass k = 1000*seed + (passes so far).

        Every pass draws fresh noise, so a run's median covers many noise
        draws instead of one; seed 0 starts with criterion 5's seeds 1..5.
        """
        k = 1000 * self.seed + self.passes
        self.passes += 1
        return [self.F.SolveConfig(grid=self.config.grid, seed=5 * k + j, init_noise=0.01)
                for j in range(1, 6)]

    def probe_setting(self):
        return self.params, self.init

    def run(self, tr: Tracer) -> PassResult:
        res = PassResult()
        F = self.F
        with tr.span("pass.baseline1d"):
            # (operation, key of its level, initial field, config)
            jobs = ([("plain_1024", "plain_1024", self.init, self.config)]
                    + [("noisy_1024", "noisy_1024[seed=%d]" % c.seed, self.init, c)
                       for c in self.multistart()]
                    + [("plain_2048", "plain_2048", self.init2, self.config2)])
            pde = []
            for op, key, init, config in jobs:
                rep, fail = guarded(op, tr.call, F.solve_ground_state, init, self.params, config)
                if fail is not None:
                    res.outcomes.append(fail)
                    continue
                out, resid = check_solve(rep, self.params, config.tol_pohozaev, op)
                res.outcomes.append(out)
                res.reports.append(rep)
                res.entries[key] = (rep.energy_level, rep.iterations)
                pde.append(resid)
            levels = {key: level for key, (level, _) in res.entries.items()}
            noisy = [v for k, v in levels.items() if k.startswith("noisy")]
            res.quality["pde_residual_max"] = _nanmax(pde)
            res.quality["level_spread"] = ((max(noisy) - min(noisy)) / statistics.fmean(noisy)
                                           if len(noisy) == 5 else math.nan)
            coarse, fine = levels.get("plain_1024"), levels.get("plain_2048")
            res.quality["refine_drift"] = (abs(fine - coarse) / coarse
                                           if coarse is not None and fine is not None
                                           else math.nan)
        return res


class Ladder:
    """Sobolev/GN constants ladders checked by the probe sandwich (criterion 10)."""

    name = "ladder"

    def __init__(self, F, seed: int):
        self.F = F
        p1 = F.ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0)
        p2 = F.ModelParams(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0)
        self.ladders = [("1d", F.make_grid(1, 512, 20.0), p1, 3),
                        ("2d", F.make_grid(2, 128, 20.0), p2, 2)]
        for _, grid, params, _ in self.ladders:
            grid.symbol(params.s)
        # Layer probes at the ladder's largest arrays (2D, 256^2) need a
        # field on the Pohozaev manifold; the eta=10 ground state does not
        # fit the ladder's L=20 box, so they use the anchor box L=240.
        probe_grid = F.make_grid(2, 256, 240.0)
        probe_grid.symbol(p2.s)
        self.probe_init = F.sample(probe_grid, "gaussian", {"width": 12.0})

    def probe_setting(self):
        return self.ladders[1][2], self.probe_init

    def run(self, tr: Tracer) -> PassResult:
        res = PassResult()
        F = self.F
        drift = []
        with tr.span("pass.ladder"):
            for tag, grid, params, rungs in self.ladders:
                op = "ladder[%s]" % tag
                if tr.enabled:
                    # estimate_constants split into its public parts
                    parts, fail = guarded(op, lambda: (
                        tr.call(F.estimate_sobolev, grid, params, rungs=rungs, label=tag),
                        tr.call(F.estimate_gn, grid, params, rungs=rungs, label=tag)))
                    rep = None if fail else F.ConstantsReport(
                        S_est=parts[0]["value"], C_est=parts[1]["value"], grid=grid,
                        params=params,
                        refinement={"S": [list(t) for t in parts[0]["refinement"]],
                                    "C": [list(t) for t in parts[1]["refinement"]]},
                        converged=parts[0]["converged"] and parts[1]["converged"])
                else:
                    rep, fail = guarded(op, F.estimate_constants, grid, params, rungs=rungs)
                if fail is not None:
                    res.outcomes.append(fail)
                    continue
                rows, fail = guarded(op, tr.call, F.run_checks, constants=rep,
                                     names=set(LADDER_ROWS))
                out = fail or classify_ladder(rep, rows, op)
                res.rows.extend(rows or [])
                res.outcomes.append(out)
                res.constants[tag] = (rep.S_est, rep.C_est)
                for label in ("S", "C"):
                    (_, prev), (_, last) = rep.refinement[label][-2:]
                    drift.append(abs(last - prev) / abs(prev))
            res.quality["ladder_drift"] = _nanmax(drift)
        return res


WORKLOAD_CLASSES = {cls.name: cls for cls in (Sweep2D, Baseline1D, Ladder)}


# ----------------------------------------------------------------------
# set-up measurement


def setup_probe(workload: str) -> dict:
    """Cold set-up in this process: import plus building the workload."""
    F = import_package()
    t_import = time.perf_counter()
    cls = WORKLOAD_CLASSES[workload]
    params, init = cls(F, 0).probe_setting()
    t_built = time.perf_counter()
    # a grid whose cache key this process has not seen: a cold symbol build
    g = init.grid
    fresh = F.make_grid(g.dim, g.points_per_axis, g.half_length * (1.0 + 2.0 ** -40))
    t0 = time.perf_counter()
    fresh.symbol(params.s)
    symbol_ms = 1e3 * (time.perf_counter() - t0)
    return {"setup_s": t_built - _T_START, "import_s": t_import - _T_START,
            "symbol_ms": symbol_ms}


def measure_setup(workload: str) -> list:
    """SETUP_REPEATS cold set-ups, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-probe", workload],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ----------------------------------------------------------------------
# per-layer probes on the workload's grid


def _median_ms(fn, make_arg, repeats: int = PROBE_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        arg = make_arg()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layer_probes(F, params, init) -> dict:
    """Single calls of each layer, timed from outside on fresh inputs."""
    grid = init.grid
    u = F.renormalize_mass(init, params.m)
    on = F.pohozaev_project(u, params, decay_guard=False)
    off = F.dilate(on, 0.02, decay_guard=None)
    off_summary = F.summarize(off, params)
    profile = F.FiberProfile(off_summary, params)
    xi, iters = F.fiber_root(profile, return_iterations=True)
    fresh = lambda: F.Field(grid, on.values)  # noqa: E731 - no cached spectrum
    g = F.gradient_field(on, params).values
    step = 1e-2 * math.sqrt(float(np.mean(on.values ** 2)) / float(np.mean(g * g)))
    trial_field = F.Field(grid, on.values - step * g)

    def trial(v):
        w = F.renormalize_mass(v, params.m)
        S = F.summarize(w, params)
        t = F.fiber_root(F.FiberProfile(S, params))
        F.energy(F.scale_summary(S, t, params), params)
        w = F.pohozaev_project(w, params, rounds=3, decay_guard=False)
        return F.energy(F.summarize(w, params), params)

    return {
        "fields.dilate_ms": _median_ms(lambda f: F.dilate(f, xi, decay_guard=None), fresh),
        "fields.summarize_ms": _median_ms(lambda f: F.summarize(f, params), fresh),
        "fields.frac_laplacian_ms": _median_ms(lambda f: F.frac_laplacian(f, params.s), fresh),
        "functionals.gradient_ms": _median_ms(lambda f: F.gradient_field(f, params), fresh),
        "fiber.root_us": 1e3 * _median_ms(F.fiber_root, lambda: profile,
                                          repeats=201),
        "fiber.root_iters": iters,
        "solver.trial_ms": _median_ms(trial, lambda: trial_field),
        "solver.project_ms": _median_ms(
            lambda f: F.pohozaev_project(f, params, decay_guard=False), lambda: off),
    }


# ----------------------------------------------------------------------
# the run


def environment(seed: int, threads_env) -> dict:
    fracnlse = import_package()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "fracnlse": fracnlse.__version__, "nproc": available_cpus(), "cpu": cpu,
            "FRAC_NLSE_THREADS": threads_env, "seed": seed, "commit": git_commit(),
            "source_sha256": source_digest()}


def source_digest() -> str:
    """SHA-256 over the package sources; names the code where git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fracnlse")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "none" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_passes(work, seconds: float, tracers: list) -> tuple:
    """Closed loop: the next pass starts when the previous one returns.

    Cycles through ``tracers`` (untraced, then traced in a traced run) and
    stops once ``seconds`` have elapsed and each has run at least once.
    Returns the pass times per tracer and the (tracer, PassResult) pairs.
    """
    times = [[] for _ in tracers]
    results = []
    start = time.perf_counter()
    i = 0
    while i < len(tracers) or time.perf_counter() - start < seconds:
        tr = tracers[i % len(tracers)]
        t0 = time.perf_counter()
        results.append((tr, work.run(tr)))
        times[i % len(tracers)].append(time.perf_counter() - t0)
        i += 1
    return times, results


def consistency(results: list) -> list:
    """Passes on the same inputs must agree bit for bit, including traced
    passes that split sweep_eta and estimate_constants into their parts
    and passes with more threads."""
    seen, differ = {}, set()
    for r in results:
        for key, value in list(r.entries.items()) + list(r.constants.items()):
            if seen.setdefault(key, value) != value:
                differ.add(key)
    if not differ:
        return []
    return [Outcome("repeatability", failed=True, correct=False,
                    reason="passes disagree on %s" % ", ".join(sorted(differ)))]


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def traced_layers(F, seed: int, work, times: list, traced: Tracer, results: list,
                  setups: list) -> tuple:
    """Per-layer metrics of a traced run, plus the extra passes it made.

    Entry times come from the traced sweep2d pass and constants times from
    the traced ladder pass: this workload's own traced passes where it is
    one of those, otherwise one extra traced pass of it, recorded by the
    same tracer after the self times of this workload's passes are taken.
    """
    plain_s, traced_s = times
    layers = {"trace.overhead_frac": statistics.median(traced_s) / statistics.median(plain_s) - 1.0}
    own = self_times(traced.spans)
    total = sum(own.values())
    for layer in TRACED_LAYERS:
        layers["trace.self_share.%s" % layer] = own.get(layer, 0.0) / total

    mine = [r for tr, r in results if tr.enabled]
    extra, source = [], {}
    for name in ("sweep2d", "ladder"):
        if name == work.name:
            source[name] = (mine[0], len(mine))
        else:
            extra.append(WORKLOAD_CLASSES[name](F, seed).run(traced))
            source[name] = (extra[-1], 1)

    sweep, _ = source["sweep2d"]
    entry_s = []
    for tag in ETA_TAGS:
        entry_s.append(statistics.median(
            spans_named(traced.spans, "solver.solve_ground_state[eta=%s]" % tag)))
        layers["solver.entry_s.%s" % tag] = entry_s[-1]
        layers["solver.entry_iters.%s" % tag] = sweep.entries.get(tag, (None, 0))[1]
    layers["solver.entry_imbalance"] = max(entry_s) / sum(entry_s)

    ladder, passes = source["ladder"]
    for tag in ("1d", "2d"):
        for fn, key in (("estimate_sobolev", "sobolev_s"), ("estimate_gn", "gn_s")):
            layers["constants.%s.%s" % (key, tag)] = statistics.median(
                spans_named(traced.spans, "constants.%s[%s]" % (fn, tag)))
    layers["verify.rows_s"] = sum(spans_named(traced.spans, "verify.run_checks")) / passes
    layers["verify.rows_failed"] = sum(row.status != "pass" for row in ladder.rows)

    # the first traced pass has the same inputs in every run with this seed
    layers["solver.iterations"] = sum(rep.iterations for rep in mine[0].reports)
    layers["solver.converged"] = sum(rep.converged for rep in mine[0].reports)
    layers["fields.boundary_mass_max"] = max(
        F.boundary_mass_fraction(rep.final_field) for rep in mine[0].reports or sweep.reports)

    os.environ["FRAC_NLSE_THREADS"] = str(available_cpus())
    try:
        t0 = time.perf_counter()
        extra.append(work.run(Tracer(False)))
        layers["solver.thread_speedup"] = statistics.median(plain_s) / (time.perf_counter() - t0)
    finally:
        os.environ["FRAC_NLSE_THREADS"] = "1"

    layers["grids.symbol_ms"] = statistics.median(s["symbol_ms"] for s in setups)
    layers.update(layer_probes(F, *work.probe_setting()))
    return layers, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.setup_probe)))
            return 0
        return run(args)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


def run(args) -> int:
    F = import_package()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    threads_env = os.environ.get("FRAC_NLSE_THREADS")
    os.environ["FRAC_NLSE_THREADS"] = "1"
    setups = measure_setup(args.workload)
    env = environment(args.seed, threads_env)
    work = WORKLOAD_CLASSES[args.workload](F, args.seed)

    traced = Tracer(True)
    times, results = run_passes(work, args.seconds,
                                [Tracer(False), traced] if args.trace else [Tracer(False)])
    passes = [r for _, r in results]
    layers = {}
    if args.trace:
        layers, extra = traced_layers(F, args.seed, work, times, traced, results, setups)
        passes += extra
    outcomes = [o for r in passes for o in r.outcomes] + consistency(passes)
    plain_s = times[0]
    e2e = {
        "run_s": statistics.median(plain_s),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(o.failed for o in outcomes)
    first = passes[0].outcomes
    quality = passes[0].quality

    q1, med, q3 = quartiles(plain_s)
    lines = ["env %s" % json.dumps(env),
             "workload %s seed %d trace %d passes %d" % (args.workload, args.seed,
                                                         args.trace, len(results)),
             "run_s %.6g s (median; q1 %.6g, q3 %.6g; n=%d)" % (med, q1, q3, len(plain_s)),
             "setup_s %.6g s (median of %d cold set-ups)" % (e2e["setup_s"], len(setups)),
             "peak_rss_mb %.6g MB" % e2e["peak_rss_mb"],
             "fail_frac %.6g (%d/%d in the first pass; %d/%d in the run)" % (
                 failed / len(outcomes), sum(o.failed for o in first), len(first),
                 failed, len(outcomes))]
    # quality of the first pass; with seed 0 that is criterion 5's seeds 1..5
    lines += ["%s %.6g 1" % kv for kv in sorted(quality.items())]
    lines += ["%s %.6g" % kv for kv in sorted(layers.items())]
    reasons = {}
    for o in outcomes:
        if o.failed:
            reasons.setdefault((o.op, o.reason), 0)
            reasons[(o.op, o.reason)] += 1
    lines += ["failed %s x%d: %s" % (op, n, why) for (op, why), n in sorted(reasons.items())]
    print("\n".join(lines))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                             args.trace))
    with open(path, "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds, "pass_s": times,
                   "setups": setups, "end_to_end": e2e, "quality": quality,
                   "per_layer": layers, "outcomes": [o.__dict__ for o in outcomes],
                   "spans": traced.spans}, fh, indent=1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": all(o.correct for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
