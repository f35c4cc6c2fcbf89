"""Release gate: eleven quantitative criteria, one test and one line each.

Each test prints a single line with the measured quantities and its
verdict, then asserts the stated tolerances. Criteria 1-4, 9 and 10 are
closed-form and inequality contracts that the verify battery already
implements: they run those rows through ``run_checks``, pass when every
row passes, and print the rows' details, so each contract has one home in
``fracnlse.verify``. The other criteria judge the solves of the session
fixtures in ``conftest.py``. Two criteria are expected to fail on the
shipped grids and are left failing on purpose:

* criterion 5: at the baseline coupling (1D, eta = 1) the discrete
  Pohozaev manifold misses the discrete critical point, so the PDE
  residual floors near 2.6e-1 (tolerance 1e-6) and the multistart levels
  spread near 5.3e-4 relative (tolerance 1e-4);
* criterion 11: the same obstruction makes the baseline level drift with
  resolution, and the n = 1024 vs n = 2048 gap lands just above 1 percent.

Both record a real property of the discretized baseline problem, not a
solver defect; the compact regime (2D anchors, the coupling sweep) meets
every stated bound.
"""

from dataclasses import replace

import numpy as np
import pytest

from fracnlse import compactness_threshold, diagnose, run_checks


@pytest.fixture
def verdict(capsys):
    # The release record must show one verdict line per criterion even for
    # passing tests, so the print bypasses capture.
    def _verdict(num, label, ok, detail):
        with capsys.disabled():
            print("criterion %02d %s: %s -> %s"
                  % (num, label, detail, "PASS" if ok else "FAIL"),
                  flush=True)
        return "criterion %02d %s: %s" % (num, label, detail)

    return _verdict


def battery_rows(names, constants=None):
    """The verify rows named (run_checks rejects an unknown name);
    (all passed, detail)."""
    rows = run_checks(names=names, constants=constants)
    detail = "; ".join("%s: %s" % (r.name, r.detail) for r in rows)
    return all(r.status == "pass" for r in rows), detail


# ----------------------------------------------------------------------


def test_criterion_01_operator_matches_dense_oracle(verdict):
    ok, detail = battery_rows(["operator-dense-oracle"])
    msg = verdict(1, "operator-dense-oracle", ok, detail + " (tol 1e-10)")
    assert ok, msg


def test_criterion_02_dilation_scaling_laws(verdict):
    ok, detail = battery_rows(["dilation-scaling-laws",
                               "summary-action-exactness"])
    msg = verdict(2, "dilation-scaling-laws", ok,
                  detail + " (tol 1e-6 grid, 1e-12 summary)")
    assert ok, msg


def test_criterion_03_fiber_derivative_identity(verdict):
    ok, detail = battery_rows(["fiber-derivative-identity"])
    msg = verdict(3, "fiber-derivative-identity", ok, detail + " (tol 1e-6)")
    assert ok, msg


def test_criterion_04_manifold_energy_identity(verdict):
    ok, detail = battery_rows(["manifold-energy-identity"])
    msg = verdict(4, "manifold-energy-identity", ok, detail + " (tol 1e-12)")
    assert ok, msg


def test_criterion_05_baseline_ground_state(baseline_runs_1d, verdict):
    base = baseline_runs_1d["plain_1024"]
    seeds = baseline_runs_1d["noisy_1024"]
    energies = np.array([r.energy_level for r in seeds])
    spread = float((energies.max() - energies.min()) / energies.mean())
    ok = (base.converged
          and base.pohozaev_residual <= 1e-8
          and base.pde_residual <= 1e-6
          and base.mu < 0.0
          and base.energy_level > 0.0
          and spread <= 1e-4)
    msg = verdict(
        5, "baseline-ground-state", ok,
        "converged=%s |P|/A=%.1e (tol 1e-8) pde_residual=%.2e (tol 1e-6) "
        "mu=%.4f E=%.6f multistart spread=%.2e (tol 1e-4)"
        % (base.converged, base.pohozaev_residual, base.pde_residual,
           base.mu, base.energy_level, spread))
    assert ok, msg


def test_criterion_06_multiplier_identity(acceptance_sweep, anchor_2d, params_2d,
                                          verdict):
    solved = [(e.report, replace(params_2d, eta=e.eta))
              for e in acceptance_sweep.entries if e.report is not None]
    solved.append((anchor_2d, params_2d))
    assert all(r.converged for r, _ in solved)
    worst = max(diagnose(r, params).multiplier_identity_rel for r, params in solved)
    ok = worst <= 1e-8
    msg = verdict(6, "multiplier-identity", ok,
                  "max rel residual %.2e over %d converged solutions "
                  "(tol 1e-8)" % (worst, len(solved)))
    assert ok, msg


def test_criterion_07_level_decay_slope(acceptance_sweep, verdict):
    rep = acceptance_sweep
    all_conv = all(r is not None and r.converged for r in rep.reports)
    energies = [r.energy_level for r in rep.reports if r is not None]
    decreasing = all(a > b for a, b in zip(energies, energies[1:]))
    slope_ok = rep.slope is not None and abs(rep.slope - (-2.0)) <= 0.3
    ok = all_conv and decreasing and slope_ok
    msg = verdict(
        7, "level-decay-slope", ok,
        "slope %.4f vs -2 (tol +-0.3), E strictly decreasing=%s, "
        "levels %s" % (rep.slope, decreasing,
                       ", ".join("%.3e" % e for e in energies)))
    assert ok, msg


def test_criterion_08_compactness_threshold(acceptance_sweep, params_2d, verdict):
    threshold = compactness_threshold(params_2d)
    margins = [(e.eta, threshold - e.report.energy_level)
               for e in acceptance_sweep.entries
               if e.report is not None and e.report.converged]
    positive = [eta for eta, margin in margins if margin > 0.0]
    empirical_eta = min(positive) if positive else None
    ok = (len(margins) == len(acceptance_sweep.entries)
          and len(positive) == len(margins)
          and all(b >= a for (_, a), (_, b) in zip(margins, margins[1:])))
    msg = verdict(
        8, "compactness-threshold", ok,
        "threshold %.4f, margins all positive=%s, empirical threshold "
        "eta=%s" % (threshold, len(positive) == len(margins), empirical_eta))
    assert ok, msg


def test_criterion_09_geometry_gap(constants_2d, verdict):
    ok, detail = battery_rows(["geometry-gap-positivity",
                               "geometry-radius-decay"], constants_2d)
    msg = verdict(9, "geometry-gap", ok, detail)
    assert ok, msg


def test_criterion_10_constants_stability(constants_1d, constants_2d, verdict):
    # converged is the ladder's own test that the last doubling moved each
    # estimate by at most 5 percent; the gaps are printed for the record.
    # The S gap is 0 by construction: every S rung is the sharp Sobolev
    # constant's closed form.
    ok, parts = True, []
    for tag, rep in (("1d", constants_1d), ("2d", constants_2d)):
        gaps = []
        for label in ("S", "C"):
            (_, prev), (_, last) = rep.refinement[label][-2:]
            gaps.append("%s %.3f%%" % (label, 100 * abs(last - prev) / abs(prev)))
        rows_ok, detail = battery_rows(["sobolev-inequality-with-estimate",
                                        "gn-inequality-with-estimate"], rep)
        ok = ok and rep.converged and rows_ok
        parts.append("%s converged=%s, doubling gaps %s (tol 5%%); %s"
                     % (tag, rep.converged, ", ".join(gaps), detail))
    msg = verdict(10, "constants-stability", ok, "; ".join(parts))
    assert ok, msg


def test_criterion_11_grid_refinement(baseline_runs_1d, verdict):
    e_coarse = baseline_runs_1d["plain_1024"].energy_level
    e_fine = baseline_runs_1d["plain_2048"].energy_level
    gap = abs(e_fine - e_coarse) / e_coarse
    ok = gap <= 0.01
    msg = verdict(
        11, "grid-refinement", ok,
        "E(n=1024)=%.6f E(n=2048)=%.6f rel gap %.4f%% (tol 1%%)"
        % (e_coarse, e_fine, 100 * gap))
    assert ok, msg
