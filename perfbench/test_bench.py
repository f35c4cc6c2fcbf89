"""Self-tests of the benchmark's own code: the metric contract in
BENCHMARK.json, the layer map, failure accounting and span arithmetic.

Run with ``python3 -m pytest -q perfbench``; no test runs a workload.
"""

import importlib.util
import json
import math
import os
import re
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PARAMS_2D = SimpleNamespace(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0)


def load(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name)) as fh:
        return json.load(fh)


def test_benchmark_json_is_well_formed():
    spec = load("BENCHMARK.json")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][1].startswith("perfbench/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_map_covers_every_layer_metric():
    spec = load("BENCHMARK.json")
    layer_map = load("metric_map.json")["per_layer"]
    assert set(layer_map) == {m["name"] for m in spec["per_layer"]}
    targets = {m["name"] for m in spec["end_to_end"]} | set(load("metric_map.json")["quality"])
    for name, entry in layer_map.items():
        assert set(entry) <= {"moves", "steady", "note"}, name
        for key in ("moves", "steady"):
            for metric, workloads in entry.get(key, {}).items():
                assert metric in targets, (name, metric)
                assert set(workloads) <= set(bench.WORKLOADS), (name, workloads)


def solve_report(**changes):
    # a converged 2D report that satisfies every scalar oracle
    _, zeta, _ = bench.exponents(2, 0.5, 3.5)
    S = SimpleNamespace(A=2.0, M=1.0, B_p=0.01, B_star=0.5)
    rep = SimpleNamespace(converged=True, energy_level=0.02, pohozaev_residual=1e-12,
                          pde_residual=1e-3, summary=S,
                          mu=PARAMS_2D.eta * (zeta - 1.0) * S.B_p / S.M)
    rep.__dict__.update(changes)
    return rep


def test_converged_report_passes():
    out = bench.classify_solve(solve_report(), PARAMS_2D, 1e-9)
    assert (out.failed, out.correct) == (False, True)


def test_unconverged_report_counts_as_failure():
    out = bench.classify_solve(solve_report(converged=False), PARAMS_2D, 1e-9)
    assert out.failed and out.correct and out.reason == "unconverged"


@pytest.mark.parametrize("field", ["energy_level", "mu", "pde_residual"])
def test_nan_report_is_a_wrong_output(field):
    out = bench.classify_solve(solve_report(**{field: math.nan}), PARAMS_2D, 1e-9)
    assert out.failed and not out.correct


@pytest.mark.parametrize("changes", [{"pohozaev_residual": 1e-6}, {"mu": 0.1},
                                     {"energy_level": -0.1}, {"mu": -1.0}])
def test_converged_claim_refuted_by_oracle(changes):
    out = bench.classify_solve(solve_report(**changes), PARAMS_2D, 1e-9)
    assert out.failed and not out.correct


def ladder_report(converged=True, S=0.7):
    return SimpleNamespace(S_est=S, C_est=1.06, converged=converged,
                           refinement={"S": [[512, 0.70], [1024, S]],
                                       "C": [[512, 1.05], [1024, 1.06]]})


def rows(*statuses):
    return [SimpleNamespace(name=n, status=st, detail="")
            for n, st in zip(bench.LADDER_ROWS, statuses)]


def test_ladder_outcomes():
    assert not bench.classify_ladder(ladder_report(), rows("pass", "pass")).failed
    failed_row = bench.classify_ladder(ladder_report(), rows("pass", "fail"))
    assert failed_row.failed and not failed_row.correct
    assert bench.classify_ladder(ladder_report(), rows("pass")).failed
    unconverged = bench.classify_ladder(ladder_report(converged=False), rows("pass", "pass"))
    assert unconverged.failed and unconverged.correct
    nan = bench.classify_ladder(ladder_report(S=math.nan), rows("pass", "pass"))
    assert nan.failed and not nan.correct


def test_slope_outcomes():
    etas = [10.0, 100.0, 1000.0]
    levels = [1e-2 * (e / 10.0) ** -2.0 for e in etas]
    slope = bench.fit_slope(etas, levels)
    assert not bench.classify_slope(slope, -2.0, etas, levels).failed
    assert bench.classify_slope(slope, -2.0, etas[:1], levels[:1]).failed
    off = [1e-2 * (e / 10.0) ** -1.5 for e in etas]
    out = bench.classify_slope(bench.fit_slope(etas, off), -2.0, etas, off)
    assert out.failed and not out.correct
    out = bench.classify_slope(slope + 0.01, -2.0, etas, levels)
    assert out.failed and not out.correct


def test_raising_operation_is_counted():
    def boom():
        raise RuntimeError("fiber degenerated")

    result, out = bench.guarded("solve", boom)
    assert result is None and out.failed and "fiber degenerated" in out.reason


def test_passes_must_repeat_bit_for_bit():
    a = bench.PassResult(entries={"10": (0.0172, 17)})
    b = bench.PassResult(entries={"10": (0.0172, 17)})
    assert bench.consistency([a, b]) == []
    c = bench.PassResult(entries={"10": (0.0173, 17)})
    (out,) = bench.consistency([a, c])
    assert out.failed and not out.correct


def test_self_times_subtract_children():
    spans = [["pass.x", 0.0, 10.0, None],
             ["solver.solve_ground_state", 1.0, 7.0, 0],
             ["fields.sample", 7.0, 8.0, 0]]
    assert bench.self_times(spans) == {"bench": 3.0, "solver": 6.0, "fields": 1.0}


def test_tracer_records_nested_spans():
    tr = bench.Tracer(True)
    with tr.span("pass.x"):
        assert tr.call(max, 1, 2, label="a") == 2
    (root, child) = tr.spans
    assert root[0] == "pass.x" and root[3] is None
    assert child[0] == "builtins.max[a]" and child[3] == 0
    assert root[1] <= child[1] <= child[2] <= root[2]
    off = bench.Tracer(False)
    assert off.call(max, 1, 2) == 2 and off.spans == []


def test_git_commit_is_a_hash_or_none():
    commit = bench.git_commit()
    assert commit == "none" or re.fullmatch(r"[0-9a-f]{40}", commit)
