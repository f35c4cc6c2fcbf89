"""The self-verification battery: full table, filtering, failure detection."""

import dataclasses
import math
import re
import tracemalloc

import pytest

import fracnlse.constants
import fracnlse.fiber
import fracnlse.functionals
import fracnlse.solver
import fracnlse.verify
from fracnlse import GridSpec, run_checks
from fracnlse.verify import CHECKS

CONSTANT_DEPENDENT = {
    "geometry-gap-positivity",
    "geometry-radius-decay",
    "sobolev-inequality-with-estimate",
    "gn-inequality-with-estimate",
}


def test_full_battery_passes_with_constants(constants_1d):
    rows = run_checks(constants=constants_1d)
    assert [r.name for r in rows] == [name for name, _ in CHECKS]
    failures = [(r.name, r.detail) for r in rows if r.status != "pass"]
    assert failures == []


def test_constant_dependent_rows_skip_without_constants():
    rows = run_checks(names=sorted(CONSTANT_DEPENDENT))
    assert {r.name for r in rows} == CONSTANT_DEPENDENT
    assert all(r.status == "skip" for r in rows)


def test_name_filter_preserves_registry_order():
    wanted = ["manifold-energy-identity", "fiber-derivative-identity"]
    rows = run_checks(names=wanted)
    # Registry order, not request order.
    assert [r.name for r in rows] == ["fiber-derivative-identity",
                                      "manifold-energy-identity"]


def test_unknown_row_names_raise():
    # An unknown name is an error, not an empty or shorter table.
    with pytest.raises(ValueError, match="unknown verify rows: no-such-check, zz-check$"):
        run_checks(names=["zz-check", "manifold-energy-identity", "no-such-check"])


RANDOMIZED = [
    "transform-round-trip", "operator-dense-oracle",
    "operator-self-adjointness", "summary-action-exactness",
    "fiber-derivative-identity", "fiber-root-contract",
    "gradient-finite-difference", "multiplier-sign-identity",
    "manifold-energy-identity", "quotient-invariance",
    "tangent-projection-orthogonality", "mass-renormalization",
]


def test_battery_detects_broken_identities(monkeypatch):
    # Break one identity at a time: the checks that compare independent
    # computations of it must fail, while a check that never touches it
    # must keep passing. This guards the battery itself.
    with monkeypatch.context() as patch:
        # Flip the sign of the Pohozaev functional.
        true_pohozaev = fracnlse.functionals.pohozaev
        patch.setattr(fracnlse.functionals, "pohozaev",
                      lambda s4, params: -true_pohozaev(s4, params))
        rows = {r.name: r.status for r in run_checks(
            names=["fiber-derivative-identity", "manifold-energy-identity",
                   "multiplier-sign-identity"])}
        assert rows["fiber-derivative-identity"] == "fail"
        assert rows["manifold-energy-identity"] == "fail"
        assert rows["multiplier-sign-identity"] == "pass"

    with monkeypatch.context() as patch:
        # A wrong B_star exponent in the summary action: the grid laws and
        # the closed form catch it; the group law holds for any exponent.
        true_scale = fracnlse.fiber.scale_summary

        def wrong_scale(summary, xi, params):
            out = true_scale(summary, xi, params)
            return dataclasses.replace(out, B_star=out.B_star * math.exp(0.1 * xi))

        patch.setattr(fracnlse.fiber, "scale_summary", wrong_scale)
        rows = {r.name: r for r in run_checks(
            names=["dilation-scaling-laws", "summary-action-exactness"])}
        assert rows["dilation-scaling-laws"].status == "fail"
        assert rows["summary-action-exactness"].status == "fail"
        law, closed = re.search(
            r"group-law deviation (\S+), closed-form transport (\S+)",
            rows["summary-action-exactness"].detail).groups()
        assert float(law) <= 1e-12 < float(closed)

    with monkeypatch.context() as patch:
        # A descent direction that leaves the tangent space of the mass
        # sphere: the row reads the solver's own direction, so it fails.
        true_direction = fracnlse.solver._direction

        def off_sphere(u, uh, S, params, grid):
            gn2, d, price = true_direction(u, uh, S, params, grid)
            return gn2, d + 1e-3 * u, price

        patch.setattr(fracnlse.solver, "_direction", off_sphere)
        rows = run_checks(names=["tangent-projection-orthogonality"])
        assert rows[0].status == "fail", rows[0].detail


def test_dense_oracle_does_not_read_the_cached_symbol(monkeypatch):
    # The oracle builds its own multiplier, so a fault in the cached symbol
    # that the fast operator reads shows as a deviation. When both read the
    # cached array, a 1% error passed at 1.3e-14.
    true_symbol = GridSpec.symbol
    monkeypatch.setattr(GridSpec, "symbol", lambda grid, s: 1.01 * true_symbol(grid, s))
    row, = run_checks(names=["operator-dense-oracle"])
    assert row.status == "fail", row.detail


def test_seed_controls_randomized_rows(monkeypatch):
    names = ["fiber-derivative-identity"]
    a = run_checks(names=names)[0]
    assert run_checks(names=names)[0].detail == a.detail
    # Each row draws its own inputs: alone it reads as inside a larger run.
    together = {r.name: r.detail for r in run_checks(names=RANDOMIZED)}
    for name in RANDOMIZED:
        assert run_checks(names=[name])[0].detail == together[name], name
    # The module seed is what the rows draw from.
    monkeypatch.setattr(fracnlse.verify, "_SEED", 1)
    assert run_checks(names=names)[0].detail != a.detail


SANDWICH = ["sobolev-inequality-with-estimate", "gn-inequality-with-estimate"]


def test_sandwich_rows_share_one_probe_pass(monkeypatch, constants_2d):
    # Both rows read the same 50 probes (40 from the analytic families, 10
    # band-limited noise draws); one pass serves both rows.
    draws = []
    bandlimited = fracnlse.constants._bandlimited

    def counting_bandlimited(grid, *args):
        draws.append("random_bandlimited")
        return bandlimited(grid, *args)

    monkeypatch.setattr(fracnlse.constants, "_bandlimited", counting_bandlimited)
    rows = run_checks(constants=constants_2d, names=SANDWICH)
    assert [r.status for r in rows] == ["pass", "pass"]
    assert draws == ["random_bandlimited"] * 10


def test_probe_rows_stream_their_fields(constants_2d):
    # At 256^2 one probe is 0.5 MB: a row that held its probe list would
    # peak at 30 MB (sandwich) or 100 MB (geometry gap).
    for names in (SANDWICH, ["geometry-gap-positivity"]):
        tracemalloc.start()
        try:
            rows = run_checks(constants=constants_2d, names=names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.status == "pass" for r in rows), rows
        assert peak < 16e6, (names, peak / 1e6)
