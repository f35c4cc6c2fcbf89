"""Shared fixtures: model parameters, constants ladders, anchor solves,
and a counter of spectral transforms.

Everything expensive is session-scoped so the cost is paid once: the two
constants ladders, the converged 2D anchor, the baseline 1D runs at two
resolutions, and the five-point coupling sweep that backs the level-decay,
multiplier-identity, and threshold acceptance tests.
"""

import numpy as np
import pytest

import fracnlse as F
from fracnlse import constants, fields, functionals, solver


@pytest.fixture(scope="session")
def params_1d():
    return F.ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0)


@pytest.fixture(scope="session")
def params_2d():
    return F.ModelParams(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0)


@pytest.fixture(scope="session")
def constants_1d(params_1d):
    """Three-rung refinement ladder 512 -> 1024 -> 2048 on [-20, 20)."""
    return F.estimate_constants(F.make_grid(1, 512, 20.0), params_1d, rungs=3)


@pytest.fixture(scope="session")
def constants_2d(params_2d):
    """Two-rung refinement ladder 128 -> 256 on [-20, 20)^2."""
    return F.estimate_constants(F.make_grid(2, 128, 20.0), params_2d, rungs=2)


@pytest.fixture(scope="session")
def anchor_2d(params_2d):
    """Converged compact ground state: 2D, eta = 10, wide box."""
    grid = F.make_grid(2, 256, 240.0)
    init = F.sample(grid, "gaussian", {"width": 12.0})
    cfg = F.SolveConfig(grid=grid, tol_grad=5e-3, tol_pohozaev=1e-9,
                        max_iters=2000)
    return F.solve_ground_state(init, params_2d, cfg)


@pytest.fixture(scope="session")
def baseline_runs_1d(params_1d):
    """Baseline runs at default tolerances on the default 1D grid.

    Returns a dict with the plain gaussian run at n = 1024, five
    noise-perturbed multistart runs (seeds 1..5, 1 percent noise), and the
    plain run at n = 2048. These runs end unconverged on line-search
    exhaustion (stop_reason "line-search"): at this coupling the discrete
    Pohozaev manifold misses the discrete critical point, so the tangent
    gradient floors at the projection noise level while the energy
    stabilizes, and once the guaranteed decrease falls below that noise
    no step strictly lowers the energy.
    """
    out = {}
    grid = F.make_grid(1, 1024, 40.0)
    init = F.sample(grid, "gaussian", {"width": 1.0})
    out["plain_1024"] = F.solve_ground_state(
        init, params_1d, F.SolveConfig(grid=grid))
    out["noisy_1024"] = [
        F.solve_ground_state(
            init, params_1d,
            F.SolveConfig(grid=grid, seed=seed, init_noise=0.01))
        for seed in range(1, 6)
    ]
    grid2 = F.make_grid(1, 2048, 40.0)
    init2 = F.sample(grid2, "gaussian", {"width": 1.0})
    out["plain_2048"] = F.solve_ground_state(
        init2, params_1d, F.SolveConfig(grid=grid2))
    return out


@pytest.fixture(scope="session")
def acceptance_sweep(params_2d):
    """Five-point coupling sweep eta in [10, 1000] on self-similar grids.

    This is the long-running fixture (109 s by pytest --durations, on
    one core of a shared 2-vCPU host with numpy 2.4 and OpenBLAS); it
    backs the level-decay slope, the multiplier identity at converged
    solutions, and the compactness-threshold margins.
    """
    grid = F.make_grid(2, 512, 480.0)
    cfg = F.SolveConfig(grid=grid, tol_grad=2e-3, tol_pohozaev=1e-9,
                        max_iters=900)
    etas = [float(e) for e in np.geomspace(10.0, 1000.0, 5)]
    return F.sweep_eta(params_2d, etas, cfg, width_ref=12.0)


@pytest.fixture
def transform_count(monkeypatch):
    """A one-element list counting spectral transforms from here on: each
    fields._rfftn is one transform, although it makes one numpy call per
    axis, and every other np.fft call is one."""
    count, inside = [0], [False]

    def counted(fn):
        def wrapper(*args, **kwargs):
            if not inside[0]:
                count[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    forward = fields._rfftn

    def rfftn(values):
        count[0] += 1
        inside[0] = True
        try:
            return forward(values)
        finally:
            inside[0] = False

    for module in (fields, functionals, solver, constants):
        monkeypatch.setattr(module, "_rfftn", rfftn)
    return count
