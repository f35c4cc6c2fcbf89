"""Constrained descent: projections, anchor solves, sweeps, diagnostics."""

import math

import numpy as np
import pytest

import fracnlse as F
from fracnlse import (Field, ModelParams, SolveConfig, compactness_threshold,
                      diagnose, lp_norm_pow, make_field, make_grid, pohozaev,
                      pohozaev_project, project_tangent, radial_symmetrize,
                      renormalize_mass, sample, solve_ground_state,
                      stationarity_residual, summarize, sweep_eta)

# Energy levels pinned from converged (2D) and stalled-but-stable (1D) runs
# of this package; both are deterministic.
ANCHOR_2D_ENERGY = 1.71900545e-2
ANCHOR_1D_ENERGY = 0.049350345


# ----------------------------------------------------------------------
# projections


def test_project_tangent_orthogonality_and_idempotence(params_1d):
    grid = make_grid(1, 256, 20.0)
    u = sample(grid, "gaussian", {"width": 1.0})
    g = sample(grid, "random_bandlimited", {"cutoff": 0.5}, seed=4)
    proj = project_tangent(g, u)
    h = grid.cell_volume
    inner = h * float(np.sum(proj.values * u.values))
    assert abs(inner) <= 1e-12 * math.sqrt(
        lp_norm_pow(g, 2.0) * lp_norm_pow(u, 2.0))
    twice = project_tangent(proj, u)
    assert np.allclose(twice.values, proj.values, atol=1e-14)


def test_project_tangent_rejects_zero_base(params_1d):
    grid = make_grid(1, 64, 10.0)
    zero = make_field(grid, np.zeros(grid.shape))
    g = sample(grid, "gaussian", {"width": 1.0})
    with pytest.raises(ValueError, match="zero field"):
        project_tangent(g, zero)


def test_renormalize_mass_exact(params_1d):
    grid = make_grid(1, 256, 20.0)
    u = sample(grid, "gaussian", {"width": 2.0})
    for m in (1.0, 3.5):
        v = renormalize_mass(u, m)
        assert lp_norm_pow(v, 2.0) == pytest.approx(m * m, rel=1e-12)
    zero = make_field(grid, np.zeros(grid.shape))
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


def test_radial_symmetrize_is_constant_on_radius_bins():
    grid = make_grid(2, 64, 10.0)
    rng = np.random.default_rng(11)
    u = make_field(grid, rng.normal(size=grid.shape))
    out = radial_symmetrize(u)
    bins = np.floor(grid.radius() / grid.spacing).astype(np.int64).reshape(-1)
    vals = out.values.reshape(-1)
    for b in np.unique(bins):
        group = vals[bins == b]
        assert np.max(group) - np.min(group) <= 1e-12 * max(1.0, np.max(np.abs(vals)))


def test_radial_symmetrize_fixes_radial_fields_and_mass():
    grid = make_grid(2, 64, 10.0)
    u = sample(grid, "gaussian", {"width": 2.0})
    out = radial_symmetrize(u)
    assert lp_norm_pow(out, 2.0) == pytest.approx(lp_norm_pow(u, 2.0),
                                                  rel=1e-12)
    rel = np.linalg.norm(out.values - u.values) / np.linalg.norm(u.values)
    assert rel <= 5e-2
    twice = radial_symmetrize(out)
    assert np.allclose(twice.values, out.values, atol=1e-13)


def test_radial_symmetrize_is_identity_in_1d():
    grid = make_grid(1, 64, 10.0)
    u = sample(grid, "gaussian", {"width": 1.0})
    with pytest.warns(UserWarning, match="identity in one dimension"):
        out = radial_symmetrize(u)
    assert np.array_equal(out.values, u.values)


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
    flat = make_field(grid, np.full(grid.shape, 0.3))
    with pytest.raises(ValueError, match="zero seminorm"):
        solve_ground_state(flat, params_1d, SolveConfig())


def test_solve_config_validation():
    with pytest.raises(ValueError, match="tolerances"):
        SolveConfig(tol_grad=0.0)
    with pytest.raises(ValueError, match="armijo"):
        SolveConfig(armijo=1.5)
    with pytest.raises(ValueError, match="max_iters"):
        SolveConfig(max_iters=0)
    for bad in (0.0, -1e-2, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step_init"):
            SolveConfig(step_init=bad)
    with pytest.raises(ValueError, match="stall_window"):
        SolveConfig(stall_window=0)
    with pytest.raises(ValueError, match="line_search_max"):
        SolveConfig(line_search_max=0)


def test_iteration_budget_reports_unconverged(params_1d):
    grid = make_grid(1, 128, 20.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    report = solve_ground_state(init, params_1d,
                                SolveConfig(grid=grid, max_iters=1))
    assert not report.converged
    assert report.iterations == 1


def test_windowed_collapse_raises(params_2d):
    # A soliton wider than the box cannot hold a fiber maximum: the
    # iterate's seminorm collapses and the solve reports it as an error.
    grid = make_grid(2, 64, 40.0)
    init = sample(grid, "gaussian", {"width": 12.0})
    with pytest.raises(RuntimeError, match="fiber degenerated"):
        solve_ground_state(init, params_2d,
                           SolveConfig(grid=grid, tol_grad=1e-2))


def test_anchor_2d_converges_to_pinned_level(anchor_2d, params_2d):
    rep = anchor_2d
    assert rep.converged
    assert rep.iterations <= 60
    assert rep.energy_level == pytest.approx(ANCHOR_2D_ENERGY, rel=1e-4)
    assert rep.mu == pytest.approx(-1.6424e-2, rel=1e-3)
    assert rep.pohozaev_residual <= 1e-12
    assert rep.mu_identity_residual <= 1e-8 * abs(rep.mu * rep.summary.M)
    assert rep.compactness_margin is None


def test_anchor_2d_history_monotone(anchor_2d):
    energies = [row[0] for row in anchor_2d.history]
    assert all(a >= b - 1e-14 for a, b in zip(energies, energies[1:]))
    assert len(energies) == anchor_2d.iterations


def test_anchor_2d_pde_residual_consistent(anchor_2d, params_2d):
    recomputed = stationarity_residual(anchor_2d.final_field, params_2d,
                                       anchor_2d.mu)
    assert recomputed == pytest.approx(anchor_2d.pde_residual, rel=1e-10)


def test_anchor_2d_diagnostics_all_ok(anchor_2d, constants_2d, params_2d):
    diag = diagnose(anchor_2d, constants_2d, params_2d)
    assert diag.all_ok
    assert diag.mu < 0.0
    assert diag.energy > 0.0
    assert diag.threshold_margin == pytest.approx(
        compactness_threshold(params_2d, constants_2d)
        - anchor_2d.energy_level, rel=1e-12)
    as_dict = diag.to_dict()
    assert as_dict["all_ok"] is True


def test_diagnose_requires_convergence(anchor_2d, constants_2d, params_2d,
                                        params_1d):
    grid = make_grid(1, 128, 20.0)
    init = sample(grid, "gaussian", {"width": 1.0})
    stalled = solve_ground_state(init, params_1d,
                                 SolveConfig(grid=grid, max_iters=1))
    with pytest.raises(ValueError, match="converged"):
        diagnose(stalled, constants_2d, params_1d)


def test_anchor_1d_level_is_stable_despite_gradient_floor():
    # At this coupling the discrete Pohozaev manifold misses the discrete
    # critical point, so the tangent gradient floors above the tolerance
    # and the run ends on the stall guard; the level and the manifold
    # residual are still sharp anchors.
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


def test_solve_with_constants_reports_margin(params_2d, constants_2d):
    grid = make_grid(2, 128, 120.0)
    init = sample(grid, "gaussian", {"width": 12.0})
    rep = solve_ground_state(init, params_2d,
                             SolveConfig(grid=grid, tol_grad=2e-2,
                                         tol_pohozaev=1e-9),
                             constants=constants_2d)
    assert rep.converged
    expected = compactness_threshold(params_2d, constants_2d) - rep.energy_level
    assert rep.compactness_margin == pytest.approx(expected, rel=1e-12)


def test_radial_projection_hook_lands_near_plain_minimum(params_2d):
    # The angular average perturbs the constraint each time it fires, so the
    # run may stall instead of formally converging; the final projection must
    # still leave the iterate on the constraint set at an energy level close
    # to (here slightly below) the plain run's minimum.
    grid = make_grid(2, 128, 120.0)
    init = sample(grid, "gaussian", {"width": 12.0})
    rep = solve_ground_state(init, params_2d,
                             SolveConfig(grid=grid, tol_grad=2e-2,
                                         tol_pohozaev=1e-9,
                                         radial_projection_every=10))
    assert rep.pohozaev_residual <= 1e-9
    assert rep.energy_level == pytest.approx(0.016867117, rel=5e-3)


# ----------------------------------------------------------------------
# sweeps


def test_sweep_validations(params_2d):
    cfg = SolveConfig(grid=make_grid(2, 64, 60.0))
    with pytest.raises(ValueError, match="must not be empty"):
        sweep_eta(params_2d, [], cfg)
    with pytest.raises(ValueError, match="positive"):
        sweep_eta(params_2d, [-1.0, 2.0], cfg)
    with pytest.raises(ValueError, match="sorted"):
        sweep_eta(params_2d, [10.0, 5.0], cfg)
    with pytest.raises(ValueError, match="reference grid"):
        sweep_eta(params_2d, [10.0], SolveConfig())


@pytest.mark.parametrize("raw", ["two", "", "0", "-3", "1.5"])
def test_sweep_rejects_malformed_thread_cap(params_2d, monkeypatch, raw):
    monkeypatch.setenv("FRAC_NLSE_THREADS", raw)
    cfg = SolveConfig(grid=make_grid(2, 64, 60.0))
    with pytest.raises(ValueError, match="FRAC_NLSE_THREADS.*%r" % (raw,)):
        sweep_eta(params_2d, [10.0, 20.0], cfg)


def test_thread_cap_reads_positive_integers(monkeypatch):
    monkeypatch.delenv("FRAC_NLSE_THREADS", raising=False)
    assert F.solver._thread_cap() == 1
    monkeypatch.setenv("FRAC_NLSE_THREADS", "3")
    assert F.solver._thread_cap() == 3


def test_mini_sweep_slope_and_scaling(params_2d):
    cfg = SolveConfig(grid=make_grid(2, 128, 120.0), tol_grad=2e-2,
                      tol_pohozaev=1e-9)
    etas = [10.0, 10.0 ** 1.5]
    rep = sweep_eta(params_2d, etas, cfg, eta_ref=10.0, width_ref=12.0)
    assert [e.converged for e in rep.entries] == [True, True]
    assert rep.entries[0].energy == pytest.approx(0.016867117, rel=1e-4)
    assert rep.entries[1].energy == pytest.approx(0.0017742518, rel=1e-4)
    assert rep.slope == pytest.approx(-1.9561, abs=2e-3)
    assert rep.reference_slope == pytest.approx(-2.0, rel=1e-14)
    assert rep.note is None
    assert len(rep.reports) == 2
    assert rep.reports[1].converged


def test_single_coupling_sweep_notes_missing_slope(params_2d):
    cfg = SolveConfig(grid=make_grid(2, 128, 120.0), tol_grad=2e-2,
                      tol_pohozaev=1e-9)
    rep = sweep_eta(params_2d, [10.0], cfg, width_ref=12.0)
    assert rep.slope is None
    assert "single-coupling" in rep.note
    assert rep.entries[0].converged


def test_sweep_entry_error_capture(params_2d):
    # The first coupling runs on a box far too small for its soliton and
    # collapses; the sweep must record the error and keep going.
    cfg = SolveConfig(grid=make_grid(2, 64, 40.0), tol_grad=2e-2,
                      tol_pohozaev=1e-9)
    rep = sweep_eta(params_2d, [10.0], cfg, width_ref=12.0)
    entry = rep.entries[0]
    assert not entry.converged
    assert entry.error is not None
    assert "fiber degenerated" in entry.error
    assert rep.reports[0] is None
    assert rep.slope is None
