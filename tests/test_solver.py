"""Constrained descent: projections, anchor solves, sweeps, diagnostics."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fracnlse import (Field, ModelParams, SolveConfig, compactness_threshold,
                      diagnose, frac_laplacian, gradient_field, lp_norm_pow,
                      make_grid, pohozaev, pohozaev_project, renormalize_mass,
                      sample, solve_ground_state, summarize, sweep_eta)
from fracnlse import solver
from fracnlse.fields import _summary_values
from fracnlse.functionals import odd_power
from fracnlse.solver import STOP_REASONS, _direction, _project

# Energy levels pinned from converged (2D) and unconverged-but-stable (1D,
# line-search exit) runs of this package; both are deterministic.
ANCHOR_2D_ENERGY = 1.71900545e-2
ANCHOR_1D_ENERGY = 0.049350345


# ----------------------------------------------------------------------
# projections


def test_renormalize_mass_exact(params_1d):
    grid = make_grid(1, 256, 20.0)
    u = sample(grid, "gaussian", {"width": 2.0})
    for m in (1.0, 3.5):
        v = renormalize_mass(u, m)
        assert lp_norm_pow(v, 2.0) == pytest.approx(m * m, rel=1e-12)
    zero = Field(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError, match="zero field"):
        renormalize_mass(zero, 1.0)


def test_pohozaev_projection_contract(params_1d):
    grid = make_grid(1, 1024, 40.0)
    u = renormalize_mass(sample(grid, "gaussian", {"width": 1.0}), 1.0)
    v = pohozaev_project(u, params_1d)
    s4 = summarize(v, params_1d)
    assert abs(pohozaev(s4, params_1d)) <= 1e-6 * s4.A
    assert lp_norm_pow(v, 2.0) == pytest.approx(1.0, rel=1e-12)
    again = pohozaev_project(v, params_1d)
    rel_move = (np.linalg.norm(again.values - v.values)
                / np.linalg.norm(v.values))
    assert rel_move <= 1e-6


@pytest.mark.parametrize("keyword, bad", [("decay_guard", 1e-3), ("decay_guard", 0),
                                          ("decay_guard", None), ("decay_guard", "yes"),
                                          ("rounds", 0), ("rounds", -3), ("rounds", 2.0),
                                          ("rounds", True)])
def test_pohozaev_projection_rejects_malformed_keywords(params_1d, keyword, bad):
    # A number for decay_guard used to run the default bound (or none at
    # all for 0), and rounds < 1 returned the input unprojected.
    grid = make_grid(1, 256, 20.0)
    u = renormalize_mass(sample(grid, "gaussian", {"width": 1.0}), 1.0)
    match = "dilate" if keyword == "decay_guard" else "rounds"
    with pytest.raises(ValueError, match=match):
        pohozaev_project(u, params_1d, **{keyword: bad})


@pytest.mark.parametrize("rounds, tol", [(30, 1e-10), (1, 0.0)])
def test_project_returns_the_summary_of_its_values(params_1d, rounds, tol):
    params = replace(params_1d, m=1.5)
    grid = make_grid(1, 1024, 40.0)
    u = renormalize_mass(sample(grid, "gaussian", {"width": 1.0}), params.m)
    values, spectrum, S, dilations = _project(u.values, grid, params, rounds, tol)
    assert S == _summary_values(values, grid, params)
    assert 1 <= dilations <= rounds
    assert np.array_equal(spectrum, np.fft.rfftn(values))
    assert math.sqrt(S.M) == pytest.approx(params.m, abs=1e-12)
    # tol = 0 cannot be met, so (1, 0.0) measures after its last dilation.
    assert (abs(pohozaev(S, params)) <= tol * S.A) == (tol > 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_trial_pricing_matches_measured_summary(params_1d, params_2d, dim):
    # A(u - al d) and M(u - al d) in closed form from the spectra in hand
    # must equal the summary measured on the trial itself.
    if dim == 1:
        params, grid, width = params_1d, make_grid(1, 1024, 40.0), 1.0
    else:
        params, grid, width = params_2d, make_grid(2, 128, 120.0), 12.0
    u = renormalize_mass(sample(grid, "gaussian", {"width": width}), params.m)
    values, spectrum, S, _ = _project(u.values, grid, params, 30, 1e-10)
    gn2, d, price = _direction(values, spectrum, S, params, grid)
    assert gn2 > 0.0
    for al in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        A, M = price(al)
        measured = _summary_values(values - al * d, grid, params)
        assert A == pytest.approx(measured.A, rel=1e-12)
        assert M == pytest.approx(measured.M, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_direction_is_tangent_to_the_mass_sphere(params_1d, params_2d, dim):
    # The step direction is projected inside _direction, on the half
    # spectra; on the grid it must be L2-orthogonal to the iterate.
    if dim == 1:
        params, grid, width = params_1d, make_grid(1, 1024, 40.0), 1.0
    else:
        params, grid, width = params_2d, make_grid(2, 128, 120.0), 12.0
    u = renormalize_mass(sample(grid, "gaussian", {"width": width}), params.m)
    values, spectrum, S, _ = _project(u.values, grid, params, 30, 1e-10)
    _, d, _ = _direction(values, spectrum, S, params, grid)
    inner = grid.cell_volume * float(np.sum(d * values))
    norms = math.sqrt(lp_norm_pow(Field(grid, d), 2.0) * S.M)
    assert abs(inner) <= 1e-12 * norms


def test_carried_spectrum_is_the_transform_of_the_iterate(monkeypatch, params_2d):
    # The loop hands its carried half spectrum to _direction at every
    # iteration, the first and every one after an accepted step.
    seen = []

    def spy(u, uh, S, params, grid):
        seen.append(np.array_equal(uh, np.fft.rfftn(u)))
        return direction(u, uh, S, params, grid)

    direction = solver._direction
    monkeypatch.setattr(solver, "_direction", spy)
    grid = make_grid(2, 128, 120.0)
    init = sample(grid, "gaussian", {"width": 12.0})
    rep = solve_ground_state(init, params_2d,
                             SolveConfig(grid=grid, tol_grad=2e-2,
                                         tol_pohozaev=1e-9))
    assert rep.converged and rep.iterations > 5
    assert seen == [True] * rep.iterations


def test_transforms_per_accepted_step(monkeypatch, transform_count, params_2d):
    # An iteration transforms N(u) forward and d back (2), and each realized
    # projection transforms only the states it measures: every state a
    # dilation produces, or the priced trial itself when it already meets
    # the tolerance. The trial's first fiber root comes from the prescreen.
    fft_calls = transform_count
    dilations = [0]
    dilate = solver._dilate_values

    def counting_dilate(*args):
        dilations[0] += 1
        return dilate(*args)

    monkeypatch.setattr(solver, "_dilate_values", counting_dilate)
    expected, seen = [0], []
    project = solver._project

    def counting_project(*args, start=None, **kwargs):
        before = dilations[0]
        out = project(*args, start=start, **kwargs)
        if start is not None:
            expected[0] += max(1, dilations[0] - before)
        return out

    monkeypatch.setattr(solver, "_project", counting_project)
    direction = solver._direction

    def counting_direction(*args):
        seen.append((fft_calls[0], expected[0]))
        expected[0] += 2
        return direction(*args)

    monkeypatch.setattr(solver, "_direction", counting_direction)
    grid = make_grid(2, 128, 120.0)
    init = sample(grid, "gaussian", {"width": 12.0})
    rep = solve_ground_state(init, params_2d,
                             SolveConfig(grid=grid, tol_grad=2e-2,
                                         tol_pohozaev=1e-9))
    assert rep.converged and rep.iterations > 5
    calls0, expected0 = seen[0]
    assert [calls - calls0 for calls, _ in seen] == [exp - expected0 for _, exp in seen]


def test_dilations_per_solve(monkeypatch, params_1d):
    # SolveReport.dilations counts every field dilation of the initial,
    # realized and final projections; an independent counter on the
    # dilation itself must agree, and the count repeats exactly.
    calls = [0]
    dilate = solver._dilate_values

    def counting_dilate(*args):
        calls[0] += 1
        return dilate(*args)

    monkeypatch.setattr(solver, "_dilate_values", counting_dilate)
    grid = make_grid(1, 512, 40.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    config = SolveConfig(grid=grid, max_iters=40)
    reports = []
    for _ in range(2):
        calls[0] = 0
        reports.append(solve_ground_state(init, params_1d, config))
        assert reports[-1].dilations == calls[0] > 0
    first, second = reports
    assert first.dilations == second.dilations
    assert first.to_dict()["dilations"] == first.dilations
    assert np.array_equal(first.final_field.values, second.final_field.values)


# ----------------------------------------------------------------------
# solve contracts


def test_solve_validates_inputs(params_1d, params_2d):
    grid = make_grid(1, 128, 20.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    with pytest.raises(ValueError, match="does not match"):
        solve_ground_state(init, params_1d,
                           SolveConfig(grid=make_grid(1, 64, 20.0)))
    with pytest.raises(ValueError, match="dimension"):
        solve_ground_state(init, params_2d, SolveConfig())
    flat = Field(grid, np.full(grid.shape, 0.3))
    with pytest.raises(ValueError, match="zero seminorm"):
        solve_ground_state(flat, params_1d, SolveConfig())
    # -1 once returned -u/||u||, and NaN failed as non-finite field values.
    for m in (0.0, -1.0, math.nan, math.inf, True, "1"):
        with pytest.raises(ValueError, match="mass parameter m must be finite and positive"):
            renormalize_mass(init, m)


def test_solve_config_validation():
    # An infinite tolerance would pass the stopping test on the first step.
    # A bool is an int to isinstance, and True once passed as a tolerance
    # or a noise level of 1.
    for name in ("tol_grad", "tol_pohozaev"):
        for bad in (0.0, math.inf, True, "1e-8"):
            with pytest.raises(ValueError, match=re.escape("%s must be finite and positive, "
                                                           "got %r" % (name, bad))):
                SolveConfig(**{name: bad})
    with pytest.raises(ValueError, match="init_noise .* got True"):
        SolveConfig(init_noise=True)
    # A float budget once died in range() and True ran one iteration.
    for iters in (0, 1.5, True):
        with pytest.raises(ValueError, match="max_iters"):
            SolveConfig(max_iters=iters)
    for noise in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="init_noise"):
            SolveConfig(init_noise=noise)
    # A float seed once passed here and died in the noise draw.
    for seed in (1.5, True, -1):
        with pytest.raises(ValueError, match="seed must be an int >= 0"):
            SolveConfig(seed=seed, init_noise=0.01)


def test_iteration_budget_reports_unconverged(params_1d):
    grid = make_grid(1, 128, 20.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    report = solve_ground_state(init, params_1d,
                                SolveConfig(grid=grid, max_iters=1))
    assert not report.converged
    assert report.iterations == 1
    assert report.stop_reason == "max-iters"
    assert report.to_dict()["stop_reason"] == "max-iters"


def test_exhausted_line_search_names_its_exit(monkeypatch, params_1d):
    monkeypatch.setattr(solver, "_LINE_SEARCH_MAX", 0)
    grid = make_grid(1, 128, 20.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    report = solve_ground_state(init, params_1d, SolveConfig(grid=grid))
    assert (report.stop_reason, report.iterations) == ("line-search", 1)
    assert not report.converged
    assert set(STOP_REASONS) == {"converged", "max-iters", "line-search"}


def test_accepted_steps_strictly_decrease_the_energy(params_1d):
    # The decrease test compares E - E_trial, which is exact for nearby
    # energies, so a step that leaves E unchanged bit for bit is rejected
    # even where the required decrease is below half an ulp of E.
    grid = make_grid(1, 512, 40.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    report = solve_ground_state(init, params_1d, SolveConfig(grid=grid))
    energies = [row[0] for row in report.history]
    assert len(energies) > 1
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_windowed_collapse_raises(params_2d):
    # A soliton wider than the box cannot hold a fiber maximum: the
    # iterate's seminorm collapses and the solve reports it as an error.
    grid = make_grid(2, 64, 40.0)
    init = sample(grid, "gaussian", {"width": 12.0})
    with pytest.raises(RuntimeError, match="fiber degenerated"):
        solve_ground_state(init, params_2d,
                           SolveConfig(grid=grid, tol_grad=1e-2))


@pytest.mark.parametrize("n", [48, 64, 96])
@pytest.mark.parametrize("width", [10.0, 12.0, 14.0])
def test_collapsed_solve_never_returns_a_report(params_2d, n, width):
    # Solitons wider than the box collapse to a constant field (A ~ 1e-32).
    # Whichever exit the descent takes, a solve either raises or returns a
    # state whose seminorm kept at least the degeneracy floor 1e-12 A0.
    grid = make_grid(2, n, 40.0)
    init = sample(grid, "gaussian", {"width": width})
    A0 = summarize(renormalize_mass(init, params_2d.m), params_2d).A
    try:
        rep = solve_ground_state(init, params_2d, SolveConfig(grid=grid, tol_grad=1e-2))
    except RuntimeError as exc:
        assert str(exc) == "fiber degenerated"
        return
    assert rep.summary.A >= 1e-12 * A0


@pytest.mark.parametrize("call", [gradient_field, pohozaev_project],
                         ids=lambda f: f.__name__)
def test_other_dimension_params_fail_loudly(params_2d, call):
    # 2D parameters on a 1D field fail as they do in summarize:
    # pohozaev_project once raised a DegenerateFiberError from the fiber
    # root, and gradient_field returned a field.
    field = sample(make_grid(1, 128, 20.0), "gaussian", {"width": 1.0})
    with pytest.raises(ValueError, match="params dimension 2 does not match grid dimension 1"):
        call(field, params_2d)


def test_anchor_2d_converges_to_pinned_level(anchor_2d, params_2d):
    rep = anchor_2d
    assert rep.converged
    assert rep.stop_reason == "converged"
    assert rep.iterations <= 60
    assert rep.energy_level == pytest.approx(ANCHOR_2D_ENERGY, rel=1e-4)
    assert rep.mu == pytest.approx(-1.6424e-2, rel=1e-3)
    assert rep.pohozaev_residual <= 1e-12
    assert diagnose(rep, params_2d).multiplier_identity_rel <= 1e-8


def test_anchor_2d_history_monotone(anchor_2d):
    energies = [row[0] for row in anchor_2d.history]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert len(energies) == anchor_2d.iterations


def test_anchor_2d_pde_residual_consistent(anchor_2d, params_2d):
    # The report's residual is a Plancherel sum on the descent's
    # Fourier-space gradient; recompute it from the real-space equation.
    field, p, mu = anchor_2d.final_field, params_2d, anchor_2d.mu
    u = field.values
    r = (frac_laplacian(field, p.s).values - odd_power(u, p.two_star)
         - p.eta * odd_power(u, p.p) - mu * u)
    recomputed = math.sqrt(np.sum(r * r) / np.sum(u * u))
    assert recomputed == pytest.approx(anchor_2d.pde_residual, rel=1e-10)


def test_anchor_2d_diagnostics_all_ok(anchor_2d, params_2d):
    diag = diagnose(anchor_2d, params_2d)
    assert diag.all_ok
    assert anchor_2d.mu < 0.0 and anchor_2d.energy_level > 0.0
    # The 2D threshold at s = 1/2 is pi/4 (S = sqrt(pi)).
    assert diag.threshold_margin == pytest.approx(
        math.pi / 4.0 - anchor_2d.energy_level, rel=1e-12)
    # A level at or above the threshold fails the verdict.
    high = replace(anchor_2d, energy_level=compactness_threshold(params_2d))
    assert not diagnose(high, params_2d).all_ok


def test_diagnose_requires_convergence(params_1d):
    grid = make_grid(1, 128, 20.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    stalled = solve_ground_state(init, params_1d,
                                 SolveConfig(grid=grid, max_iters=1))
    with pytest.raises(ValueError, match="converged"):
        diagnose(stalled, params_1d)


def test_compactness_threshold_closed_form(params_1d, params_2d):
    # s S^{N/2s} / N with the sharp Sobolev constant: pi/4 at (2, 1/2),
    # and at (1, 0.4) the Gamma formula written out.
    assert compactness_threshold(params_2d) == pytest.approx(math.pi / 4.0, abs=1e-15)
    N, s = 1, 0.4
    S = (2.0 ** (2 * s) * math.pi ** s * math.gamma((N + 2 * s) / 2) / math.gamma((N - 2 * s) / 2)
         * (math.gamma(N / 2) / math.gamma(N)) ** (2 * s / N))
    assert compactness_threshold(params_1d) == pytest.approx(s * S ** (N / (2 * s)) / N,
                                                              rel=1e-14)
    assert compactness_threshold(params_1d) == pytest.approx(0.16343593824100233, rel=1e-14)


def test_anchor_1d_level_is_stable_despite_gradient_floor():
    # At this coupling the discrete Pohozaev manifold misses the discrete
    # critical point, so the tangent gradient floors above the tolerance
    # and the run ends unconverged (its line search runs out after 15
    # iterations); the level and the manifold residual are still sharp
    # anchors.
    params = ModelParams(dim=1, s=0.4, p=6.0, eta=10.0, m=1.0)
    grid = make_grid(1, 512, 40.0)
    init = sample(grid, "gaussian", {"width": 3.0})
    rep = solve_ground_state(init, params,
                             SolveConfig(grid=grid, tol_grad=2e-3,
                                         tol_pohozaev=1e-9))
    assert not rep.converged
    assert rep.energy_level == pytest.approx(ANCHOR_1D_ENERGY, rel=1e-4)
    assert rep.pohozaev_residual <= 1e-12
    assert rep.mu < 0.0


# ----------------------------------------------------------------------
# sweeps


def test_sweep_validations(params_2d):
    cfg = SolveConfig(grid=make_grid(2, 64, 60.0))
    with pytest.raises(ValueError, match="must not be empty"):
        sweep_eta(params_2d, [], cfg)
    with pytest.raises(ValueError, match="eta must be finite and positive, got -1.0"):
        sweep_eta(params_2d, [-1.0, 2.0], cfg)
    with pytest.raises(ValueError, match="eta must be finite and positive, got inf"):
        sweep_eta(params_2d, [10.0, math.inf], cfg)
    with pytest.raises(ValueError, match="sorted"):
        sweep_eta(params_2d, [10.0, 5.0], cfg)
    # A repeated coupling once gave an invented slope with a RankWarning.
    with pytest.raises(ValueError, match="sorted"):
        sweep_eta(params_2d, [10.0, 10.0], cfg)
    # float(True) is 1.0; a bool is not a coupling.
    with pytest.raises(ValueError, match="eta must be finite and positive, got True"):
        sweep_eta(params_2d, [True], cfg)
    with pytest.raises(ValueError, match="reference grid"):
        sweep_eta(params_2d, [10.0], SolveConfig())
    # Below eta_ref the box would shrink and the scaled tolerance loosen.
    with pytest.raises(ValueError, match="eta_ref"):
        sweep_eta(params_2d, [1.0, 3.0, 10.0], cfg, eta_ref=10.0, width_ref=6.0)
    # These once ran as eta_ref = 1, width_ref = 1 and width_ref = 1.5.
    with pytest.raises(ValueError, match="eta_ref .* got True"):
        sweep_eta(params_2d, [10.0], cfg, eta_ref=True)
    for width in (True, "1.5", 0.0, math.nan):
        with pytest.raises(ValueError, match="width_ref must be finite and positive"):
            sweep_eta(params_2d, [10.0], cfg, width_ref=width)


def test_mini_sweep_slope_and_scaling(params_2d):
    cfg = SolveConfig(grid=make_grid(2, 128, 120.0), tol_grad=2e-2,
                      tol_pohozaev=1e-9)
    etas = [10.0, 10.0 ** 1.5]
    rep = sweep_eta(params_2d, etas, cfg, eta_ref=10.0, width_ref=12.0)
    assert [r.converged for r in rep.reports] == [True, True]
    assert rep.reports[0].energy_level == pytest.approx(0.016867117, rel=1e-4)
    assert rep.reports[1].energy_level == pytest.approx(0.0017742518, rel=1e-4)
    assert rep.slope == pytest.approx(-1.9561, abs=2e-3)
    assert rep.reference_slope == pytest.approx(-2.0, rel=1e-14)
    assert rep.note is None
    assert [e.report for e in rep.entries] == rep.reports
    assert [e.error for e in rep.entries] == [None, None]


def test_single_coupling_sweep_notes_missing_slope(params_2d):
    cfg = SolveConfig(grid=make_grid(2, 128, 120.0), tol_grad=2e-2,
                      tol_pohozaev=1e-9)
    rep = sweep_eta(params_2d, [10.0], cfg, width_ref=12.0)
    assert rep.slope is None
    assert "single-coupling" in rep.note
    assert rep.entries[0].report.converged


def test_sweep_entry_error_capture(params_2d):
    # The first coupling runs on a box far too small for its soliton and
    # collapses; the sweep must record the error and keep going.
    cfg = SolveConfig(grid=make_grid(2, 64, 40.0), tol_grad=2e-2,
                      tol_pohozaev=1e-9)
    rep = sweep_eta(params_2d, [10.0], cfg, width_ref=12.0)
    entry = rep.entries[0]
    assert entry.report is None
    assert entry.error == "fiber degenerated"
    assert rep.reports == [None]
    assert rep.slope is None
