"""Sobolev and Gagliardo-Nirenberg constant estimation."""

import json
import math
import re

import numpy as np
import pytest

from fracnlse import (ConstantsReport, Field, FieldSummary, gn_quotient,
                      load_constants, make_grid, probe_fields, sample,
                      save_constants, scale_summary, sobolev_quotient,
                      sobolev_sharp_constant, summarize)
from fracnlse import constants
from fracnlse.constants import estimate_constants, estimate_gn, estimate_sobolev
from fracnlse.fields import _lp_values, _renorm, _summary_values

# GN refinement-ladder values pinned from converged runs of this package;
# the estimator is deterministic (fixed multistart set, fixed descent), so
# these serve as regression anchors. The S rungs are the closed form.
C_LADDER_1D = [(512, 1.0520989024117415),
               (1024, 1.0600641686698145),
               (2048, 1.0649851528334895)]
C_LADDER_2D = [(128, 0.7587712609400542), (256, 0.7590886588635374)]
# The sharp Sobolev constant at params_1d's (N, s) = (1, 0.4): the S value
# of every hand-built 1D report below.
S_1D = sobolev_sharp_constant(1, 0.4)


def amplitude_scaled(s4, c, params):
    return FieldSummary(A=c * c * s4.A, M=c * c * s4.M,
                        B_p=abs(c) ** params.p * s4.B_p,
                        B_star=abs(c) ** params.two_star * s4.B_star)


def test_quotients_amplitude_invariant(params_1d):
    rng = np.random.default_rng(0)
    s4 = FieldSummary(*np.exp(rng.normal(size=4)))
    for c in (0.1, 3.0, 17.0):
        scaled = amplitude_scaled(s4, c, params_1d)
        assert sobolev_quotient(scaled, params_1d) == pytest.approx(
            sobolev_quotient(s4, params_1d), rel=1e-12)
        assert gn_quotient(scaled, params_1d) == pytest.approx(
            gn_quotient(s4, params_1d), rel=1e-12)


def test_quotients_dilation_invariant(params_2d):
    rng = np.random.default_rng(1)
    s4 = FieldSummary(*np.exp(rng.normal(size=4)))
    for xi in (-1.5, 0.8):
        moved = scale_summary(s4, xi, params_2d)
        assert sobolev_quotient(moved, params_2d) == pytest.approx(
            sobolev_quotient(s4, params_2d), rel=1e-12)
        assert gn_quotient(moved, params_2d) == pytest.approx(
            gn_quotient(s4, params_2d), rel=1e-12)


def test_quotients_reject_degenerate_summaries(params_1d):
    with pytest.raises(ValueError):
        sobolev_quotient(FieldSummary(A=1.0, M=1.0, B_p=1.0, B_star=0.0),
                         params_1d)
    with pytest.raises(ValueError):
        gn_quotient(FieldSummary(A=0.0, M=1.0, B_p=1.0, B_star=1.0), params_1d)
    # A NaN summary once gave a NaN quotient, and A = inf an infinite one.
    for base in (FieldSummary(A=math.nan, M=1.0, B_p=1.0, B_star=1.0),
                 FieldSummary(A=1.0, M=math.inf, B_p=1.0, B_star=1.0),
                 FieldSummary(A=1.0, M=1.0, B_p=math.nan, B_star=1.0)):
        with pytest.raises(ValueError, match="GN quotient undefined"):
            gn_quotient(base, params_1d)
    for base in (FieldSummary(A=math.inf, M=1.0, B_p=1.0, B_star=1.0),
                 FieldSummary(A=math.nan, M=1.0, B_p=1.0, B_star=1.0),
                 FieldSummary(A=1.0, M=1.0, B_p=1.0, B_star=math.inf)):
        with pytest.raises(ValueError, match="Sobolev quotient undefined"):
            sobolev_quotient(base, params_1d)


def test_ladder_1d_regression(constants_1d):
    rep = constants_1d
    assert rep.converged
    assert rep.refinement["S"] == [[n, S_1D] for n in (512, 1024, 2048)]
    for (n_exp, v_exp), (n_got, v_got) in zip(C_LADDER_1D, rep.refinement["C"]):
        assert n_got == n_exp
        assert v_got == pytest.approx(v_exp, rel=1e-6)
    assert rep.S_est == rep.refinement["S"][-1][1]
    assert rep.C_est == rep.refinement["C"][-1][1]


def test_ladder_2d_regression(constants_2d):
    rep = constants_2d
    assert rep.converged
    assert rep.refinement["S"] == [[n, sobolev_sharp_constant(2, 0.5)] for n in (128, 256)]
    for (n_exp, v_exp), (n_got, v_got) in zip(C_LADDER_2D, rep.refinement["C"]):
        assert n_got == n_exp
        assert v_got == pytest.approx(v_exp, rel=1e-6)


@pytest.mark.parametrize("rungs", [1, 2, 3])
def test_sobolev_ladder_is_the_closed_form(params_1d, params_2d, rungs):
    # Every rung of the ladder's grids reads the sharp constant exactly, so
    # the doubling gap is 0 and two rungs or more are converged.
    for grid, params in ((make_grid(1, 512, 20.0), params_1d),
                         (make_grid(2, 128, 20.0), params_2d)):
        sharp = sobolev_sharp_constant(params.dim, params.s)
        n = grid.points_per_axis
        frag = estimate_sobolev(grid, params, rungs=rungs)
        assert frag["refinement"] == [(n * 2 ** k, sharp) for k in range(rungs)]
        assert frag["value"] == sharp
        assert frag["converged"] is (rungs > 1)


def test_constants_descend_only_the_gn_quotient(monkeypatch, params_1d):
    # The ladder's kernel runs for C alone: the seven first-rung screens and
    # one finish per rung, each an ascent of the GN quotient.
    grid = make_grid(1, 128, 20.0)
    calls = ladder_calls(monkeypatch)
    rep = estimate_constants(grid, params_1d, rungs=2)
    assert len(calls) == len(constants._starts(grid, params_1d)) + 2
    assert rep.refinement["C"] == [[n, out[0] ** (1.0 / params_1d.p)]
                                   for _, n, _, out in calls[-2:]]


@pytest.mark.parametrize("rungs", [0, -1, 1.5, True])
@pytest.mark.parametrize("estimate", [estimate_sobolev, estimate_gn, estimate_constants])
def test_ladders_reject_a_malformed_rung_count(params_1d, estimate, rungs):
    with pytest.raises(ValueError, match="rungs"):
        estimate(make_grid(1, 128, 20.0), params_1d, rungs=rungs)


@pytest.mark.parametrize("count", [0, -1, 2.5, True])
def test_probe_fields_reject_a_malformed_count(params_1d, count):
    # -1 and 2.5 once raised islice's own error, and True drew one probe.
    with pytest.raises(ValueError, match="count must be an int >= 1"):
        probe_fields(make_grid(1, 128, 20.0), params_1d, count=count)


@pytest.mark.parametrize("seed", [True, 1.5, "3", -1, None])
def test_probe_fields_reject_a_malformed_seed(params_1d, seed):
    # True once drew seed 1's probes and None fresh ones; 1.5, "3" and -1
    # raised numpy's errors.
    with pytest.raises(ValueError, match=re.escape("seed must be an int >= 0, got %r" % (seed,))):
        probe_fields(make_grid(1, 128, 20.0), params_1d, seed=seed)


@pytest.mark.parametrize("call", [estimate_sobolev, estimate_gn, estimate_constants,
                                  probe_fields])
def test_estimators_and_probes_reject_params_of_another_dimension(monkeypatch, params_2d,
                                                                  call):
    # 2D params on a 1D grid once ran the whole ladder and returned a
    # converged report that load_constants rejects; now the call raises
    # before any ascent.
    def no_ascent(*args):
        raise AssertionError("an ascent ran")

    monkeypatch.setattr(constants, "_ascend_gn", no_ascent)
    with pytest.raises(ValueError, match="params dimension 2 does not match grid dimension 1"):
        call(make_grid(1, 128, 20.0), params_2d)


def test_single_rung_is_not_converged(params_1d):
    rep = estimate_constants(make_grid(1, 128, 20.0), params_1d, rungs=1)
    assert not rep.converged
    assert len(rep.refinement["S"]) == 1


def test_estimators_report_traces(params_1d):
    frag = estimate_sobolev(make_grid(1, 128, 20.0), params_1d, rungs=2)
    assert len(frag["refinement"]) == 2
    assert frag["value"] == frag["refinement"][-1][1]
    frag = estimate_gn(make_grid(1, 128, 20.0), params_1d, rungs=2)
    assert len(frag["refinement"]) == 2
    assert frag["value"] == frag["refinement"][-1][1]


def test_probe_fields_contract(params_1d):
    grid = make_grid(1, 512, 20.0)
    probes = list(probe_fields(grid, params_1d, count=50, seed=0))
    again = list(probe_fields(grid, params_1d, count=50, seed=0))
    assert len(probes) == 50
    for u, v in zip(probes, again):
        assert np.array_equal(u, v)
    for u in probes:
        assert u.shape == grid.shape
        assert abs(float(np.mean(u))) <= 1e-12
        assert _lp_values(u, grid, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_probe_fields_are_a_prefix_of_longer_sets(params_1d, params_2d):
    # count only says where the sequence stops: a shorter set is the head of
    # a longer one, bit for bit, in every family block (5 in the gaussians,
    # 40 at the end of the cosine block, 50 inside the noise block).
    for grid, params in ((make_grid(1, 512, 20.0), params_1d),
                         (make_grid(2, 64, 20.0), params_2d)):
        full = list(probe_fields(grid, params, count=200, seed=23))
        assert len(full) == 200
        for k in (5, 40, 50):
            head = list(probe_fields(grid, params, count=k, seed=23))
            assert len(head) == k
            for u, v in zip(head, full):
                assert np.array_equal(u, v)


def test_bandlimited_probes_are_the_public_sampler(monkeypatch, params_1d, params_2d):
    # The probe path draws band-limited values without building a Field;
    # each such probe must be sample's field for the same cutoff and seed,
    # centred and normalized, bit for bit.
    draws = []
    bandlimited = constants._bandlimited

    def spy(grid, cutoff, envelope, seed):
        draws.append((cutoff, seed))
        return bandlimited(grid, cutoff, envelope, seed)

    monkeypatch.setattr(constants, "_bandlimited", spy)
    for grid, params in ((make_grid(1, 512, 20.0), params_1d),
                         (make_grid(2, 64, 20.0), params_2d)):
        draws.clear()
        probes = list(probe_fields(grid, params, count=60, seed=23))[40:]
        assert len(draws) == len(probes) == 20
        for u, (cutoff, seed) in zip(probes, draws):
            ref = sample(grid, "random_bandlimited",
                         {"cutoff": cutoff, "envelope_width": grid.half_length / 6.0}, seed)
            assert np.array_equal(u, _renorm(constants._mean_zero(ref.values), grid, 1.0))


def test_probes_witness_both_inequalities(params_1d, constants_1d):
    grid = make_grid(1, 512, 20.0)
    summaries = [_summary_values(u, grid, params_1d)
                 for u in probe_fields(grid, params_1d, count=50, seed=0)]
    sob = [sobolev_quotient(summary, params_1d) for summary in summaries]
    gn = [gn_quotient(summary, params_1d) for summary in summaries]
    assert min(sob) >= constants_1d.S_est
    assert max(gn) <= constants_1d.C_est ** params_1d.p


def test_bubble_quotient_dominates_estimate(params_1d, constants_1d):
    # The estimated infimum is taken over mean-zero fields, so project the
    # slowly decaying bubble onto that subspace before comparing quotients.
    grid = make_grid(1, 1024, 40.0)
    for epsilon in (0.25, 0.5, 1.0, 2.0):
        u = sample(grid, "bubble", {"epsilon": epsilon, "s": params_1d.s})
        v = Field(grid, u.values - np.mean(u.values))
        q = sobolev_quotient(summarize(v, params_1d), params_1d)
        assert q >= constants_1d.S_est


def test_constants_round_trip(tmp_path, constants_1d):
    path = tmp_path / "constants.json"
    save_constants(constants_1d, path)
    back = load_constants(path)
    assert back.S_est == constants_1d.S_est
    assert back.C_est == constants_1d.C_est
    assert back.grid == constants_1d.grid
    assert back.params == constants_1d.params
    assert back.converged == constants_1d.converged
    assert back.refinement == constants_1d.refinement


def test_report_requires_its_refinement_and_verdict(params_1d):
    # Their defaults ({} and False) once built a report that save_constants
    # wrote and load_constants rejected.
    grid = make_grid(1, 128, 20.0)
    with pytest.raises(TypeError, match="'refinement' and 'converged'"):
        ConstantsReport(S_est=S_1D, C_est=1.06, grid=grid, params=params_1d)
    with pytest.raises(TypeError, match="'converged'"):
        ConstantsReport(S_est=S_1D, C_est=1.06, grid=grid, params=params_1d,
                        refinement={"S": [[128, S_1D]], "C": [[128, 1.06]]})


# None stands for a missing key.
@pytest.mark.parametrize("bad, key", [
    *(pytest.param(bad, key, id="%r-%s" % (bad, key))
      for bad in (math.nan, math.inf, 0.0, -0.5) for key in ("S_est", "C_est")),
    pytest.param(None, "grid", id="missing-grid"),
    pytest.param(None, "S_est", id="missing-S_est"),
    pytest.param(True, "S_est", id="True-S_est"),
    pytest.param([1, 128, 20], "grid", id="list-grid"),
    pytest.param("x", "params", id="str-params"),
    pytest.param([1, 2], "top level", id="list-report"),
    pytest.param({"dim": 2, "s": 0.4, "p": 3.0, "eta": 1.0, "m": 1.0}, "params",
                 id="2d-params-on-1d-grid"),
    pytest.param({}, "refinement", id="empty-refinement"),
    pytest.param("x", "refinement", id="str-refinement"),
    pytest.param({"S": [], "C": [[128, 1.06]]}, "refinement", id="empty-S-trace"),
    pytest.param({"S": [[128, S_1D]], "C": "x"}, "refinement", id="str-C-trace"),
    pytest.param({"S": [[128]], "C": [[128, 1.06]]}, "refinement", id="short-rung"),
    pytest.param({"S": [["a", S_1D]], "C": [[128, 1.06]]}, "refinement", id="str-n"),
    pytest.param({"S": [[129, S_1D]], "C": [[128, 1.06]]}, "refinement", id="odd-n"),
    pytest.param({"S": [[4, S_1D]], "C": [[128, 1.06]]}, "refinement", id="small-n"),
    pytest.param({"S": [[128, S_1D]], "C": [[128, -1.0]]}, "refinement",
                 id="negative-rung-value"),
    pytest.param({"S": [[128, math.nan]], "C": [[128, 1.06]]}, "refinement",
                 id="nan-rung-value"),
    pytest.param({"S": [[128, True]], "C": [[128, 1.06]]}, "refinement",
                 id="bool-rung-value"),
    pytest.param({"S": [[1024, S_1D], [256, S_1D]], "C": [[64, 1.05], [64, 1.06]]},
                 "refinement", id="rungs-off-the-ladder"),
    pytest.param({"S": [[256, S_1D]], "C": [[128, 1.06]]}, "refinement",
                 id="first-rung-off-the-grid"),
    pytest.param({"S": [[128, S_1D], [128, S_1D]], "C": [[128, 1.06]]}, "refinement",
                 id="repeated-rung"),
    pytest.param({"S": [[128, S_1D], [512, S_1D]], "C": [[128, 1.06]]}, "refinement",
                 id="skipped-doubling"),
    pytest.param({"S": [[128, 0.64]], "C": [[128, 1.06]]}, "refinement", id="lattice-S-rung"),
    pytest.param("yes", "converged", id="str-converged"),
    pytest.param(1, "converged", id="int-converged"),
    pytest.param(5.0, "S_est", id="S_est-not-the-last-rung"),
    pytest.param(1.0, "C_est", id="C_est-not-the-last-rung"),
    pytest.param(True, "converged", id="converged-on-one-rung"),
])
def test_load_constants_rejects_nonpositive_or_nonfinite(tmp_path, params_1d, bad, key):
    # A negative S_est once made the 1D compactness threshold complex and a NaN
    # passed through every comparison; both must fail at load time, and so
    # must a report without one of its keys, a bool for a number (bool is
    # an int to isinstance), a non-object for grid or params or for the
    # whole report, and params of another dimension than the grid (which
    # would pair 1D probes with 2D exponents), each naming the file and
    # the key. So must a refinement that is not an object of two non-empty
    # [n, value] traces with grid sizes and positive values (the probe
    # sandwich reads its grid from the last S rung, and once raised inside
    # verify's rows instead) or whose rungs are not the report grid's n,
    # 2n, 4n, ... (the sandwich then probed a grid the ladder never ran),
    # and a converged that is not a JSON boolean, or an S rung that is not
    # the sharp Sobolev constant (a lattice report of an older version). A
    # report takes its numbers from its trace: S_est and C_est must be the
    # last rungs' values (the sandwich rows read them), and converged what the
    # 5 percent drift test says of both traces (one rung never converges).
    raw = ConstantsReport(S_est=S_1D, C_est=1.06, grid=make_grid(1, 128, 20.0),
                          params=params_1d, refinement={"S": [[128, S_1D]], "C": [[128, 1.06]]},
                          converged=False).to_dict()
    if key == "top level":
        raw = bad
    elif bad is None:
        del raw[key]
    else:
        raw[key] = bad
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=key) as info:
        load_constants(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("section, key, bad, reason", [
    pytest.param("grid", "dim", 1.0, "unsupported dimension 1.0", id="grid-dim"),
    pytest.param("grid", "n", 4, "grid size 4 too small", id="grid-n"),
    pytest.param("grid", "n", "128", "points per axis must be an integer, got '128'",
                 id="grid-n-string"),
    pytest.param("params", "dim", 1.0, "unsupported dimension 1.0", id="params-dim"),
    pytest.param("params", "s", 1.5, "s must lie in (0, 1)", id="params-s"),
    pytest.param("params", "s", "x", "s must lie in (0, 1), got 'x'", id="params-s-string"),
    pytest.param("grid", "L", None, "half length must be finite and positive, got None",
                 id="grid-L-null"),
    pytest.param(None, None, "{bad", "Expecting property name", id="not-json"),
])
def test_load_constants_names_the_file_in_grid_and_params_errors(tmp_path, params_1d,
                                                                 section, key, bad, reason):
    # make_grid and ModelParams reject these entries with their own
    # messages, as json does a file that is not JSON (a section of None:
    # bad is the file's text); the loader puts the file in front of them.
    raw = ConstantsReport(S_est=S_1D, C_est=1.06, grid=make_grid(1, 128, 20.0),
                          params=params_1d, refinement={"S": [[128, S_1D]], "C": [[128, 1.06]]},
                          converged=False).to_dict()
    path = tmp_path / "constants.json"
    if section is None:
        path.write_text(bad)
    else:
        raw[section][key] = bad
        path.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as info:
        load_constants(path)
    assert str(info.value).startswith("constants report %s: %s" % (path, reason))


@pytest.mark.parametrize("dim, s, expected", [(1, 0.4, 0.488686),
                                              (2, 0.5, math.sqrt(math.pi)),
                                              (3, 0.75, 4.107827)])
def test_sobolev_sharp_constant_closed_form(dim, s, expected):
    assert sobolev_sharp_constant(dim, s) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("dim, s, message", [
    pytest.param(1, 0.5, "2s must be smaller than the dimension: 2*0.5 >= 1", id="1-0.5"),
    pytest.param(1, 0.0, "s must lie in (0, 1), got 0.0", id="1-0.0"),
    pytest.param(2, 1.0, "s must lie in (0, 1), got 1.0", id="2-1.0"),
    # Once the 1D constant and a TypeError.
    pytest.param(True, 0.4, "unsupported dimension True (must be 1, 2, or 3)", id="True-0.4"),
    pytest.param(1, "0.4", "s must lie in (0, 1), got '0.4'", id="1-str"),
])
def test_sobolev_sharp_constant_rejects_inadmissible_exponents(dim, s, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sobolev_sharp_constant(dim, s)


# ----------------------------------------------------------------------
# the ascent kernel

def kernel_case(dim, params_1d, params_2d):
    # Small grids of each dimension with a start from the multistart pool,
    # so a whole ascent runs in well under a second and still takes more
    # than 20 directions: the width-1 gaussian in 1D, the band-limited noise
    # in 2D (the 2D gaussian reaches the slope tolerance in 17-18).
    if dim == 1:
        grid, params, start = make_grid(1, 512, 20.0), params_1d, 4
    else:
        grid, params, start = make_grid(2, 64, 20.0), params_2d, 6
    return grid, params, constants._starts(grid, params)[start]


@pytest.mark.parametrize("dim", [1, 2])
def test_accepted_steps_strictly_raise_the_quotient(monkeypatch, params_1d, params_2d, dim):
    # The rise test compares val_trial - val, so a step that leaves the
    # measured quotient unchanged bit for bit is never accepted. The
    # quotient is re-measured here from the public summary of each iterate
    # the kernel forms a direction at (the start and every accepted step).
    grid, params, u0 = kernel_case(dim, params_1d, params_2d)
    seen = []

    def spy(u, *args):
        seen.append(gn_quotient(summarize(Field(grid, u), params), params))
        return direction(u, *args)

    direction = constants._direction
    monkeypatch.setattr(constants, "_direction", spy)
    val, iters, ended, _ = constants._ascend_gn(u0, grid, params, constants._SLOPE_TOL)
    assert ended and iters == len(seen) > 20
    assert val == seen[-1]
    assert all(b > a for a, b in zip(seen, seen[1:]))


@pytest.mark.parametrize("dim", [1, 2])
def test_trial_pricing_matches_measured_parts(params_1d, params_2d, dim):
    # A(u - al d) and M(u - al d) from the quadratic laws must equal the
    # summary measured on the trial itself.
    grid, params, u0 = kernel_case(dim, params_1d, params_2d)
    sym = grid.symbol(params.s)
    u = _renorm(constants._mean_zero(u0), grid, 1.0)
    uh, A, M = constants._measure(u, grid, sym)
    Q = gn_quotient(FieldSummary(A, M, _lp_values(u, grid, params.p), 0.0), params)
    slope, d, price, _, _ = constants._direction(u, uh, (A, M, Q), grid, params, sym,
                                                 1.0 / (1.0 + sym))
    assert slope > 0.0
    for al in (1e-6, 1e-3, 1e-1, 1.0, 10.0, 100.0):
        A_al, M_al = price(al)
        measured = _summary_values(u - al * d, grid, params)
        assert A_al == pytest.approx(measured.A, rel=1e-12)
        assert M_al == pytest.approx(measured.M, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_transforms_per_accepted_step(monkeypatch, transform_count, params_1d, params_2d, dim):
    # A direction transforms the nonlinear term forward and d back (2), a
    # priced trial transforms nothing, and a measured trial one rfftn: an
    # accepted step costs at most 3 transforms plus one per trial that
    # passed on its priced value and failed on its measured one.
    grid, params, u0 = kernel_case(dim, params_1d, params_2d)
    fft_calls, measures, steps = transform_count, [0], []
    measure, direction = constants._measure, constants._direction

    def counting_measure(*args):
        measures[0] += 1
        return measure(*args)

    def counting_direction(*args):
        steps.append((fft_calls[0], measures[0]))
        return direction(*args)

    monkeypatch.setattr(constants, "_measure", counting_measure)
    monkeypatch.setattr(constants, "_direction", counting_direction)
    _, iters, ended, _ = constants._ascend_gn(u0, grid, params, constants._SLOPE_TOL)
    assert ended and iters == len(steps) > 20
    for (f0, m0), (f1, m1) in zip(steps, steps[1:]):
        rejected = m1 - m0 - 1
        assert f1 - f0 <= 3 + rejected


@pytest.mark.parametrize("dim", [1, 2])
def test_trials_per_accepted_step(monkeypatch, params_1d, params_2d, dim):
    # From the second direction of a start on, the first trial is the
    # preconditioned Barzilai-Borwein step, which is well scaled: the line
    # search rarely halves it. Doubling the last accepted step instead costs
    # about 1.9 trials per accepted step on these cases.
    grid, params, u0 = kernel_case(dim, params_1d, params_2d)
    direction = constants._direction
    trials = []

    def spy(*args):
        slope, d, price, gh, dh = direction(*args)
        trials.append(0)

        def counted(al):
            trials[-1] += 1
            return price(al)

        return slope, d, counted, gh, dh

    monkeypatch.setattr(constants, "_direction", spy)
    _, iters, ended, _ = constants._ascend_gn(u0, grid, params, constants._SLOPE_TOL)
    assert ended and iters == len(trials) > 20
    # every direction but the last is followed by an accepted step
    accepted = trials[:-1]
    assert sum(accepted) / len(accepted) <= 1.5


def slope_test_spy(monkeypatch, slope_tol):
    """Record, per direction the kernel forms, whether its slope passes
    slope <= slope_tol Q, with Q the quotient it is formed at."""
    direction, passed = constants._direction, []

    def spy(u, uh, parts, *args):
        out = direction(u, uh, parts, *args)
        passed.append(out[0] <= slope_tol * parts[2])
        return out

    monkeypatch.setattr(constants, "_direction", spy)
    return passed


@pytest.mark.parametrize("dim", [1, 2])
def test_start_ends_at_the_slope_tolerance(monkeypatch, params_1d, params_2d, dim):
    # A start ends at the first direction whose slope <g, d> is at most
    # _SLOPE_TOL Q, and no direction is formed after it. Running on to the
    # rounding floor (the exit at slope <= 0) moves the value by less than
    # 1e-9 relative.
    grid, params, u0 = kernel_case(dim, params_1d, params_2d)
    stationary = slope_test_spy(monkeypatch, constants._SLOPE_TOL)
    val, iters, ended, _ = constants._ascend_gn(u0, grid, params, constants._SLOPE_TOL)
    assert ended and iters == len(stationary)
    assert stationary[-1] and not any(stationary[:-1])

    floor_val, floor_iters, floor_ended, _ = constants._ascend_gn(u0, grid, params, 0.0)
    assert floor_ended and floor_iters > iters
    assert val == pytest.approx(floor_val, rel=1e-9)


def test_descent_budget_still_raises(monkeypatch, params_1d):
    # Each start needs more than 5 iterations to reach the slope tolerance
    # or run its line search out; a start still ascending when the budget
    # ends is an error.
    monkeypatch.setattr(constants, "_MAX_ITERS", 5)
    with pytest.raises(RuntimeError, match="still improving after 5 iterations"):
        estimate_gn(make_grid(1, 128, 20.0), params_1d, rungs=1)


@pytest.mark.parametrize("dim", [1, 2])
def test_screen_ends_at_its_slope_tolerance(monkeypatch, params_1d, params_2d, dim):
    # slope_tol takes the place of _SLOPE_TOL in the slope test: a screen
    # ends at the first direction with slope <= _SCREEN_TOL Q, well before
    # the same start reaches _SLOPE_TOL.
    grid, params, u0 = kernel_case(dim, params_1d, params_2d)
    screened = slope_test_spy(monkeypatch, constants._SCREEN_TOL)
    _, iters, ended, _ = constants._ascend_gn(u0, grid, params, constants._SCREEN_TOL)
    assert ended and iters == len(screened)
    assert screened[-1] and not any(screened[:-1])
    _, full_iters, _, _ = constants._ascend_gn(u0, grid, params, constants._SLOPE_TOL)
    assert full_iters > iters


def ladder_calls(monkeypatch):
    """Record (u0, n, slope_tol, result) of every kernel call."""
    ascend, calls = constants._ascend_gn, []

    def spy(u0, grid, params, slope_tol):
        out = ascend(u0, grid, params, slope_tol)
        calls.append((u0, grid.points_per_axis, slope_tol, out))
        return out

    monkeypatch.setattr(constants, "_ascend_gn", spy)
    return calls


def test_first_rung_screens_every_start_then_finishes_the_highest(monkeypatch, params_1d):
    # The first rung ascends each start to _SCREEN_TOL, then the state of
    # the highest screened value on to _SLOPE_TOL; each later rung ascends
    # its one warm start to _SLOPE_TOL. Only finished values are traced.
    grid = make_grid(1, 128, 20.0)
    starts = constants._starts(grid, params_1d)
    calls = ladder_calls(monkeypatch)
    frag = estimate_gn(grid, params_1d, rungs=3)
    assert len(calls) == len(starts) + 3
    screens, finishes = calls[:len(starts)], calls[len(starts):]
    for (u0, n, tol, _), start in zip(screens, starts):
        assert n == 128 and tol == constants._SCREEN_TOL
        assert np.array_equal(u0, start)
    values = [out[0] for _, _, _, out in screens]
    assert min(values) < max(values)
    highest = max(screens, key=lambda call: call[3][0])[3]
    assert finishes[0][0] is highest[3]
    assert [(n, tol) for _, n, tol, _ in finishes] == [
        (128, constants._SLOPE_TOL), (256, constants._SLOPE_TOL), (512, constants._SLOPE_TOL)]
    assert frag["refinement"] == [(n, out[0] ** (1.0 / params_1d.p)) for _, n, _, out in finishes]


def test_screening_keeps_the_ladder_values(monkeypatch, params_1d):
    # Finishing only the highest screened start lands, rung by rung, where
    # ascending every start to _SLOPE_TOL does.
    grid = make_grid(1, 128, 20.0)
    screened = estimate_constants(grid, params_1d, rungs=2)
    monkeypatch.setattr(constants, "_SCREEN_TOL", constants._SLOPE_TOL)
    full = estimate_constants(grid, params_1d, rungs=2)
    for key in ("S", "C"):
        assert [n for n, _ in screened.refinement[key]] == [128, 256]
        for (n, got), (_, want) in zip(screened.refinement[key], full.refinement[key]):
            assert got == pytest.approx(want, rel=1e-10)
    assert screened.S_est == pytest.approx(full.S_est, rel=1e-10)
    assert screened.C_est == pytest.approx(full.C_est, rel=1e-10)


@pytest.mark.parametrize("stage", ["screen", "finish"])
def test_a_screen_or_finish_out_of_budget_raises(monkeypatch, params_1d, stage):
    # A start that reports its budget spent is an error in either stage.
    spent = constants._SCREEN_TOL if stage == "screen" else constants._SLOPE_TOL
    ascend = constants._ascend_gn

    def spy(u0, grid, params, slope_tol):
        val, iters, ended, u = ascend(u0, grid, params, slope_tol)
        return val, iters, ended and slope_tol != spent, u

    monkeypatch.setattr(constants, "_ascend_gn", spy)
    with pytest.raises(RuntimeError, match="still improving"):
        estimate_gn(make_grid(1, 128, 20.0), params_1d, rungs=1)
