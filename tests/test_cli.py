"""End-to-end command-line runs in subprocesses: artifacts, exit codes."""

import configparser
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracnlse
from fracnlse.cli import _INI, build_parser

SOLVE_2D = ["--grid", "2:128:120", "--params", "0.5,3.5,10,1",
            "--init-width", "12", "--tol-grad", "2e-2",
            "--tol-pohozaev", "1e-9"]


# The child interpreter imports the same package as this test process, even
# when only pytest's own sys.path (not PYTHONPATH) points at it.
PACKAGE_ROOT = str(Path(fracnlse.__file__).resolve().parent.parent)


def run_cli(*argv, cwd=None):
    path = filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "fracnlse.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=600)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    proc = run_cli("solve", *SOLVE_2D, "--out", str(out))
    return proc, out


def test_solve_exit_zero_and_artifacts(solve_run):
    proc, out = solve_run
    assert proc.returncode == 0, proc.stderr
    assert "converged=True" in proc.stdout
    for name in ("report.json", "history.csv", "field.bin", "profile.svg",
                 "manifest.json"):
        assert (out / name).exists(), name


def test_solve_report_contents(solve_run):
    _, out = solve_run
    manifest = json.loads((out / "manifest.json").read_text())
    # The run directory holds exactly the files its manifest records.
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["artifacts"],
                                                            "manifest.json"])
    config = manifest["config"]
    assert config["params"] == {"dim": "2", "s": "0.5", "p": "3.5", "eta": "10.0",
                                "m": "1.0"}
    assert config["grid"] == {"n": "128", "L": "120.0"}
    assert config["solve"]["tol_grad"] == "0.02"
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"report", "diagnostics"}
    body = report["report"]
    assert body["converged"] is True
    assert body["stop_reason"] == "converged"
    assert body["energy_level"] == pytest.approx(0.016867117, rel=1e-4)
    assert body["mu"] < 0.0
    # Every converged solve gets the verdict; without constants there is
    # no threshold margin.
    assert report["diagnostics"]["all_ok"] is True
    assert report["diagnostics"]["threshold_margin"] is None


def test_readme_names_every_stop_reason():
    # The README sentence on stop_reason lists exactly solver.STOP_REASONS.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"`stop_reason` says how the descent ended:(.*?)\.\s", readme, re.S)
    assert sentence is not None
    names = re.findall(r"`([^`]+)`", sentence.group(1))
    assert sorted(names) == sorted(fracnlse.solver.STOP_REASONS)


def test_solve_knobs_agree_across_ini_config_and_report(solve_run):
    # A knob removed from one of the four lists must not linger in another.
    _, out = solve_run
    knobs = {f.name for f in dataclasses.fields(fracnlse.SolveConfig)} - {"grid"}
    cli_knobs = knobs | {"init_width"}
    assert set(_INI["solve"]) == cli_knobs
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["config"]["solve"]) == cli_knobs
    # Beside its own flags, each solving subcommand takes one flag per knob.
    common = {"command", "func", "out", "config", "grid", "params"}
    for command, own in (("solve", {"constants"}), ("sweep", {"eta"})):
        dests = set(vars(build_parser().parse_args([command])))
        assert dests - common - own == cli_knobs, command


def test_solve_history_csv_matches_iterations(solve_run):
    _, out = solve_run
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,pohozaev_abs,grad_norm"
    report = json.loads((out / "report.json").read_text())
    assert len(lines) - 1 == report["report"]["iterations"]


def test_manifest_checksums_reproduce(solve_run):
    _, out = solve_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["config"]["params"]["eta"] == "10.0"
    assert manifest["inputs"] == {}
    assert sorted(manifest["artifacts"]) == ["field.bin", "history.csv",
                                             "profile.svg", "report.json"]
    for name, digest in manifest["artifacts"].items():
        assert sha256(out / name) == digest, name


def test_readme_lists_every_manifest_key(solve_run):
    # The README's list of manifest keys is exactly what a run writes.
    _, out = solve_run
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"`manifest.json`, the one record of the run:\n(.*?)\n\n", readme, re.S)
    assert block is not None
    names = re.findall(r"^- `([^`]+)`", block.group(1), re.M)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(names) == sorted(manifest)


def test_readme_lists_every_diagnostics_key():
    # The README's list of diagnostics keys is exactly Diagnostics' fields.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"`diagnostics` block, the\s+verdict on the state:\n(.*?)\n\n", readme,
                      re.S)
    assert block is not None
    names = re.findall(r"^  - `([^`]+)`", block.group(1), re.M)
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(fracnlse.Diagnostics))


CONSTANTS_FILE = "<constants.json>"


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "1:128:20", "--params", "0.4,6,10,1", "--eta", "10,20",
     "--init-width", "3", "--max-iters", "3", "--init-noise", "0.01", "--seed", "4"],
    ["solve", *SOLVE_2D, "--constants", CONSTANTS_FILE],
    ["constants", "--grid", "1:128:20", "--rungs", "2"],
], ids=["sweep", "solve-constants", "constants"])
def test_run_replays_from_its_manifest(tmp_path, request, argv):
    # The manifest's config block is the resolved INI state, so rerunning
    # from it with a fresh --out reproduces every artifact byte for byte.
    if CONSTANTS_FILE in argv:
        path = tmp_path / "constants.json"
        fracnlse.save_constants(request.getfixturevalue("constants_2d"), path)
        argv = [str(path) if arg == CONSTANTS_FILE else arg for arg in argv]
    first = run_cli(*argv, "--out", str(tmp_path / "first"))
    assert first.returncode in (0, 2), first.stderr
    manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
    assert sorted(p.name for p in (tmp_path / "first").iterdir()) == sorted(
        [*manifest["artifacts"], "manifest.json"])
    ini = configparser.ConfigParser(interpolation=None)
    ini.optionxform = str
    ini.read_dict(manifest["config"])
    with open(tmp_path / "replay.ini", "w") as fh:
        ini.write(fh)
    inputs = []
    for flag, record in manifest["inputs"].items():
        assert sha256(Path(record["path"])) == record["sha256"], flag
        inputs += ["--" + flag, record["path"]]
    replay = run_cli(manifest["command"], "--config", str(tmp_path / "replay.ini"),
                     *inputs, "--out", str(tmp_path / "replay"))
    assert replay.returncode == first.returncode, replay.stderr
    assert manifest["artifacts"]
    for name, digest in manifest["artifacts"].items():
        assert sha256(tmp_path / "replay" / name) == digest, name


def test_plot_regenerates_profile_byte_identically(solve_run, tmp_path):
    _, out = solve_run
    original = (out / "profile.svg").read_bytes()
    (out / "profile.svg").unlink()
    proc = run_cli("plot", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "profile.svg").read_bytes() == original


def test_solve_unconverged_exit_two(tmp_path):
    proc = run_cli("solve", *SOLVE_2D, "--max-iters", "1",
                   "--out", str(tmp_path / "stall"))
    assert proc.returncode == 2
    assert "converged=False" in proc.stdout


def test_inadmissible_parameters_exit_one(tmp_path):
    proc = run_cli("solve", "--params", "0.4,2.1,1,1",
                   "--out", str(tmp_path / "bad"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "error:" in proc.stderr
    assert "p must exceed" in proc.stderr


def test_degenerate_solve_exit_one_without_traceback(tmp_path):
    # A soliton wider than the box collapses its fiber; the solver raises
    # RuntimeError, which the CLI reports as one error line.
    proc = run_cli("solve", "--grid", "2:64:40", "--params", "0.5,3.5,10,1",
                   "--init-width", "12", "--tol-grad", "2e-2",
                   "--tol-pohozaev", "1e-9", "--out", str(tmp_path / "d"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: fiber degenerated\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--max-iters", "abc"], "invalid int value: 'abc'"),
    (["solve", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
    (["solve", "--radial-every", "10"], "unrecognized arguments: --radial-every 10"),
    (["verify", "--init-noise", "-1", "--tol-grad", "-5", "--max-iters", "0"],
     "unrecognized arguments: --init-noise -1 --tol-grad -5 --max-iters 0"),
    (["plot", "--out", "run", "--grid", "2:64:40", "--tol-grad", "1e-3"],
     "unrecognized arguments: --grid 2:64:40 --tol-grad 1e-3"),
    (["constants", "--grid", "1:128:20", "--rungs", "0"], "rungs must be an int >= 1, got 0"),
    (["solve", "--grid", "1:128:20", "--params", "0.4,6,10,1", "--seed", "-1",
      "--init-noise", "0.01", "--max-iters", "2"], "seed must be an int >= 0, got -1"),
], ids=["bad-int", "unknown-flag", "no-command", "radial-every", "verify-solve-flags",
        "plot-solve-flags", "zero-rungs", "negative-seed"])
def test_usage_error_exit_one(tmp_path, argv, message):
    # Exit 2 is reserved for a run that failed its quality gate, and a run
    # that exits 1 leaves no run directory (runs/<command> by default).
    proc = run_cli(*argv, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert not any(tmp_path.iterdir())


def test_help_exit_zero():
    proc = run_cli("solve", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: fracnlse solve")


@pytest.mark.parametrize("noise", ["-1", "nan"])
def test_bad_init_noise_exit_one(tmp_path, noise):
    proc = run_cli("solve", "--grid", "1:256:40", "--params", "0.4,6,10,1",
                   "--init-noise", noise, "--out", str(tmp_path / "n"))
    assert proc.returncode == 1
    assert "init_noise must be finite and at least 0" in proc.stderr
    assert not (tmp_path / "n").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--init-width", "nan", "gaussian width must be finite and positive"),
    ("--tol-grad", "inf", "tolerances must be finite and positive"),
    ("--params", "0.4,6,inf,1", "eta must be finite and positive"),
    ("--grid", "1:128:nan", "half length must be finite and positive"),
    ("--init-noise", "1e308", "init_noise"),
], ids=["width-nan", "tol-grad-inf", "eta-inf", "half-length-nan", "init-noise-overflow"])
def test_non_finite_input_exit_one(tmp_path, flag, value, message):
    # Rejected before any descent step, as one error line and no numpy
    # warning; an init_noise that overflows the initializer's mass is
    # caught where the noise is drawn.
    proc = run_cli("solve", "--grid", "1:128:20", "--params", "0.4,6,10,1",
                   flag, value, "--out", str(tmp_path / "w"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert not (tmp_path / "w").exists()


def test_bad_grid_flag_exit_one(tmp_path):
    proc = run_cli("solve", "--grid", "2x128x120", "--out", str(tmp_path / "g"))
    assert proc.returncode == 1
    assert "bad --grid value" in proc.stderr


def test_config_file_with_flag_overrides(tmp_path):
    # Option names are case-sensitive: the grid half-length key is "L".
    config = tmp_path / "run.ini"
    config.write_text(
        "[params]\ndim = 2\ns = 0.5\np = 3.5\neta = 10\nm = 1\n"
        "[grid]\nn = 128\nL = 120\n"
        "[solve]\ntol_grad = 1e-1\ntol_pohozaev = 1e-9\ninit_width = 12\n"
        "[output]\ndir = %s\n" % (tmp_path / "from_config"))
    proc = run_cli("solve", "--config", str(config), "--tol-grad", "2e-2")
    assert proc.returncode == 0, proc.stderr
    config = json.loads((tmp_path / "from_config" / "manifest.json").read_text())["config"]
    assert config["params"]["dim"] == "2"
    assert config["grid"] == {"n": "128", "L": "120"}
    # The flag beats the config value.
    assert config["solve"]["tol_grad"] == "0.02"
    assert config["solve"]["tol_pohozaev"] == "1e-9"


@pytest.mark.parametrize("text, message", [
    ("[solve]\ntol_grd = 1e-2\n", "unknown key 'tol_grd' in section [solve]"),
    ("[solv]\ntol_grad = 1e-2\n", "unknown section [solv]"),
    ("tol_grad = 1e-2\n", "malformed config file"),
    ("[sweep]\neta_ref = 10\n", "unknown key 'eta_ref' in section [sweep]"),
    ("[sweep]\nwidth_ref = 12\n", "unknown key 'width_ref' in section [sweep]"),
])
def test_bad_config_file_exit_one(tmp_path, text, message):
    config = tmp_path / "typo.ini"
    config.write_text(text)
    proc = run_cli("solve", "--config", str(config), "--out", str(tmp_path / "t"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert message in proc.stderr
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command, text, message", [
    ("constants", "[constants]\nrungs = 1.5\n", "[constants] rungs must be an integer, got '1.5'"),
    ("solve", "[solve]\nmax_iters = 1e3\n", "[solve] max_iters must be an integer, got '1e3'"),
    ("solve", "[grid]\nn = abc\n", "[grid] n must be an integer, got 'abc'"),
    ("sweep", "[params]\ndim = two\n", "[params] dim must be an integer, got 'two'"),
    ("solve", "[params]\ns = half\n", "[params] s must be a number, got 'half'"),
    ("solve", "[solve]\ninit_width = wide\n",
     "[solve] init_width must be a number, got 'wide'"),
], ids=["rungs-float", "max-iters-exponent", "n-word", "dim-word", "s-word", "width-word"])
def test_bad_config_value_names_section_and_key(tmp_path, command, text, message):
    # int() and float() once reported these as "invalid literal for int()
    # with base 10: '1.5'", naming neither the section nor the key.
    config = tmp_path / "bad.ini"
    config.write_text(text)
    proc = run_cli(command, "--config", str(config), "--out", str(tmp_path / "b"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: %s\n" % message
    assert not (tmp_path / "b").exists()


def test_missing_config_file_exit_one(tmp_path):
    proc = run_cli("solve", "--config", str(tmp_path / "nope.ini"))
    assert proc.returncode == 1
    assert "config file not found" in proc.stderr


def test_sweep_single_coupling(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli("sweep", *SOLVE_2D, "--eta", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == ("eta,energy,mu,poho_residual,iterations,converged,"
                        "stop_reason,error")
    assert len(lines) == 2
    assert lines[1].split(",")[5:] == ["1", "converged", ""]
    slope = json.loads((out / "slope.json").read_text())
    assert slope["slope"] is None
    assert (out / "sweep.svg").exists()
    assert (out / "manifest.json").exists()


def test_sweep_error_row(tmp_path):
    # The eta = 10 entry collapses on a box far too small for it; its row
    # carries the error and no numbers, and the sweep exits 2.
    out = tmp_path / "sweep"
    proc = run_cli("sweep", "--grid", "2:64:40", "--params", "0.5,3.5,10,1",
                   "--eta", "10,20", "--tol-grad", "2e-2", "--tol-pohozaev", "1e-9",
                   "--init-width", "12", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == "10,,,,0,0,,fiber degenerated"
    assert "converged=False error=fiber degenerated" in proc.stdout.splitlines()[0]


def test_sweep_requires_eta_list(tmp_path):
    proc = run_cli("sweep", *SOLVE_2D, "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "non-empty eta list" in proc.stderr


def test_sweep_rejects_malformed_eta(tmp_path):
    proc = run_cli("sweep", *SOLVE_2D, "--eta", "10,abc",
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 1
    assert "[sweep] eta must be a comma-separated list of numbers, got '10,abc'" in proc.stderr


def test_constants_single_rung_exit_two(tmp_path):
    out = tmp_path / "consts"
    proc = run_cli("constants", "--grid", "1:128:20", "--rungs", "1",
                   "--out", str(out))
    assert proc.returncode == 2
    assert "converged=False" in proc.stdout
    assert "S trace:" in proc.stdout
    assert "sharp Sobolev constant 0.488686: relative deviation" in proc.stdout
    report = json.loads((out / "constants.json").read_text())
    assert report["converged"] is False
    assert len(report["refinement"]["S"]) == 1


# A whole report measured at (N, s) = (2, 0.5), valid on its own.
REPORT_2D = fracnlse.ConstantsReport(
    S_est=1.7, C_est=0.76, grid=fracnlse.make_grid(2, 128, 20.0),
    params=fracnlse.ModelParams(dim=2, s=0.5, p=3.5, eta=10.0, m=1.0),
    refinement={"S": [[128, 1.7]], "C": [[128, 0.76]]}, converged=False).to_dict()


# A key of None stands for the whole report and a bad value of None for a
# missing key; a whole report given as a str is the file's text. Each
# message is the one error line, with {path} the report's path.
@pytest.mark.parametrize("key, bad, message", [
    pytest.param("S_est", -0.5, "constants report {path}: S_est must be a finite "
                 "positive number, got -0.5", id="S_est--0.5"),
    pytest.param("C_est", float("nan"), "constants report {path}: C_est must be a "
                 "finite positive number, got nan", id="C_est-nan"),
    pytest.param("grid", None, "constants report {path}: missing key 'grid'",
                 id="missing-grid"),
    pytest.param(None, REPORT_2D, "constants report was measured at (N, s) = (2, 0.5), "
                 "the run is at (N, s) = (1, 0.4)", id="other-dim-and-s"),
    pytest.param("grid", [1, 128, 20], "constants report {path}: grid must be a "
                 "JSON object, got [1, 128, 20]", id="grid-not-object"),
    pytest.param("grid", {"dim": 1.0, "n": 128, "L": 20.0}, "constants report {path}: "
                 "unsupported dimension 1.0 (must be 1, 2, or 3)", id="float-grid-dim"),
    pytest.param(None, [1, 2], "constants report {path}: the top level must be a "
                 "JSON object, got [1, 2]", id="report-not-object"),
    pytest.param("params", {"dim": 1, "s": "x", "p": 6.0, "eta": 1.0, "m": 1.0},
                 "constants report {path}: '<' not supported between instances of "
                 "'float' and 'str'", id="string-s"),
    pytest.param("grid", {"dim": 1, "n": 128, "L": None}, "constants report {path}: "
                 "float() argument must be a string or a real number, not 'NoneType'",
                 id="null-L"),
    pytest.param(None, "{bad", "constants report {path}: Expecting property name "
                 "enclosed in double quotes: line 1 column 2 (char 1)", id="not-json"),
    pytest.param("params", {"dim": 2, "s": 0.4, "p": 3.0, "eta": 1.0, "m": 1.0},
                 "constants report {path}: grid dimension 1 and params dimension 2 "
                 "differ", id="grid-and-params-dims-differ"),
])
def test_solve_rejects_bad_constants_report(tmp_path, key, bad, message):
    # A negative S_est once made the 1D threshold complex and the solve
    # died in a traceback with report.json cut off; it is now an input error,
    # as are a missing key, a grid that is not a JSON object or that
    # make_grid rejects, a report that is not an object (once a TypeError
    # traceback) and a report measured at another (N, s), whose threshold
    # would certify the solve against the wrong constant. So are a string
    # s, a null L, a file that is not JSON and a report whose grid and
    # params disagree on the dimension.
    report = fracnlse.ConstantsReport(
        S_est=0.64, C_est=1.06, grid=fracnlse.make_grid(1, 128, 20.0),
        params=fracnlse.ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0),
        refinement={"S": [[128, 0.64]], "C": [[128, 1.06]]}, converged=False).to_dict()
    if key is None:
        report = bad
    elif bad is None:
        del report[key]
    else:
        report[key] = bad
    path = tmp_path / "constants.json"
    path.write_text(report if isinstance(report, str) else json.dumps(report))
    out = tmp_path / "run"
    proc = run_cli("solve", "--grid", "1:128:20", "--params", "0.4,6,1,1",
                   "--constants", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: " + message.format(path=path)]
    assert not out.exists()


@pytest.fixture(scope="module")
def solve_constants_run(tmp_path_factory, constants_2d):
    tmp = tmp_path_factory.mktemp("solve_constants")
    path = tmp / "constants.json"
    fracnlse.save_constants(constants_2d, path)
    proc = run_cli("solve", *SOLVE_2D, "--constants", str(path), "--out", str(tmp / "run"))
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp / "run" / "report.json").read_text())


def test_solve_with_constants_writes_diagnostics(solve_constants_run, constants_2d,
                                                 params_2d):
    # The threshold margin of a converged solve lives in the diagnostics
    # block, and only there.
    report = solve_constants_run
    diagnostics = report["diagnostics"]
    assert diagnostics["all_ok"] is True
    expected = (fracnlse.compactness_threshold(params_2d, constants_2d)
                - report["report"]["energy_level"])
    assert diagnostics["threshold_margin"] == pytest.approx(expected, rel=1e-12)
    assert "compactness_margin" not in report["report"]


def test_diagnostics_restate_no_report_key(solve_constants_run):
    # The level and the multiplier live in the report block only.
    report = solve_constants_run
    assert set(report["diagnostics"]) & set(report["report"]) == set()


def test_constants_then_verify_full_pass(tmp_path):
    out = tmp_path / "consts"
    proc = run_cli("constants", "--grid", "1:512:20", "--rungs", "3",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "converged=True" in proc.stdout
    proc = run_cli("verify", "--constants", str(out / "constants.json"))
    assert proc.returncode == 0, proc.stderr
    assert "24 pass, 0 fail, 0 skipped" in proc.stdout


@pytest.mark.parametrize("key, bad, message", [
    pytest.param("refinement", {}, "refinement S must be a non-empty list of [n, value], "
                 "got None", id="empty-refinement"),
    pytest.param("refinement", {"S": [["a", 0.64]], "C": [[128, 1.06]]},
                 "refinement S grid size: points per axis must be an integer, got 'a'",
                 id="str-n"),
    pytest.param("refinement", {"S": [["128", 0.64]], "C": [[128, 1.06]]},
                 "refinement S grid size: points per axis must be an integer, got '128'",
                 id="digit-str-n"),
    pytest.param("converged", "yes", "converged must be true or false, got 'yes'",
                 id="str-converged"),
])
def test_verify_rejects_malformed_constants_report(tmp_path, key, bad, message):
    # These once loaded: the two probe-sandwich rows then failed with a
    # raised KeyError or ValueError (exit 2), and a string converged passed
    # (exit 0). They are input errors now, before any row runs.
    report = fracnlse.ConstantsReport(
        S_est=0.64, C_est=1.06, grid=fracnlse.make_grid(1, 128, 20.0),
        params=fracnlse.ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0),
        refinement={"S": [[128, 0.64]], "C": [[128, 1.06]]}, converged=False).to_dict()
    report[key] = bad
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(report))
    proc = run_cli("verify", "--constants", str(path))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: constants report %s: %s" % (path, message)]
    assert proc.stdout == ""


def test_verify_without_constants_reports_skips(tmp_path):
    proc = run_cli("verify", "--out", str(tmp_path / "v"))
    assert proc.returncode == 2
    assert "0 fail, 5 skipped" in proc.stdout
    rows = json.loads((tmp_path / "v" / "verify.json").read_text())["rows"]
    assert sum(1 for r in rows if r["status"] == "skip") == 5
    assert sum(1 for r in rows if r["status"] == "fail") == 0


def test_plot_without_inputs_exit_one(tmp_path):
    proc = run_cli("plot", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "no plottable inputs" in proc.stderr
    # The profile is drawn from field.bin alone: a stray table does not stand in.
    (tmp_path / "field.csv").write_text("x1,value\n0,1\n")
    proc = run_cli("plot", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "no plottable inputs (field.bin or sweep.csv)" in proc.stderr


def test_profile_axis_brackets_the_field_values(solve_run):
    # The y axis spans the field's own values, padded by 5% of their range.
    _, out = solve_run
    field, _ = fracnlse.load_field(out / "field.bin")
    lo, hi = float(field.values.min()), float(field.values.max())
    svg = (out / "profile.svg").read_text()
    labels = [float(t) for t in re.findall(r'text-anchor="end">([^<]+)</text>', svg)]
    assert len(labels) == 5
    assert labels == sorted(labels)
    assert labels[0] <= lo
    # The labels carry six significant digits.
    assert hi <= labels[-1] <= (hi + 0.05 * (hi - lo)) * (1.0 + 1e-5)


def test_plot_detects_corrupt_csv(tmp_path, solve_run):
    _, out = solve_run
    sweep_csv = ["eta,energy,mu,poho_residual,iterations,converged,stop_reason,error"]
    sweep_csv += ["%g,%g,1,0,5,1,converged," % (10.0 * 2 ** k, 0.1 / 4 ** k)
                  for k in range(5)]
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "sweep.csv").write_text(
        "\n".join(sweep_csv[:5] + ["not,a,number"]) + "\n")
    proc = run_cli("plot", "--out", str(broken))
    assert proc.returncode == 1
    assert "corrupt CSV" in proc.stderr
    assert "line 6" in proc.stderr
    # A "None" cell is corrupt too: the writers leave a missing value empty.
    cells = sweep_csv[5].split(",")
    cells[1] = "None"
    (broken / "sweep.csv").write_text("\n".join(sweep_csv[:5] + [",".join(cells)]) + "\n")
    proc = run_cli("plot", "--out", str(broken))
    assert proc.returncode == 1
    assert "corrupt CSV %s at line 6 (non-numeric cell)" % (broken / "sweep.csv") in proc.stderr
    # A field container cut short is one error line too.
    truncated = tmp_path / "truncated"
    truncated.mkdir()
    (truncated / "field.bin").write_bytes((out / "field.bin").read_bytes()[:-8])
    proc = run_cli("plot", "--out", str(truncated))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
