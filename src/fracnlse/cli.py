"""Batch command-line surface: solve, sweep, constants, verify, plot.

Configuration comes from an INI-style file plus command-line flags, with
flags winning. Every run of solve, sweep and constants writes a manifest.
Its "config" block is the resolved INI state (every section after flags),
so `--config` on that block with a fresh `--out` reproduces every artifact
bit-identically on the same numpy and BLAS build; "artifacts" holds the
SHA-256 checksums of the files the run wrote. Exit codes: 0 success, 1
usage or error, 2 ran but unconverged or failed checks.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path

from .constants import estimate_constants, load_constants, save_constants
from .fields import load_field, sample, save_field
from .grids import make_grid
from .params import ModelParams
from .solver import SolveConfig, diagnose, solve_ground_state, sweep_eta
from .svg import loglog_svg, profile_svg, write_svg
from .verify import FAIL, PASS, SKIP, run_checks


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError (exit 1), since exit 2 means a
    run that failed its quality gate."""

    def error(self, message):
        raise CliError("%s: %s" % (self.prog, message))


# ----------------------------------------------------------------------
# configuration assembly

# The solver knobs are the fields of SolveConfig besides its grid. Each is
# one [solve] key and one flag of solve and sweep, of its field's type;
# init_width rides along with them.
_SOLVE_KNOBS = {f.name: type(f.default) for f in dataclass_fields(SolveConfig)
                if f.name != "grid"}
_SOLVE_FLAGS = {**_SOLVE_KNOBS, "init_width": float}


def _etas(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


# Every INI key: its default as a file holds it, and its type (init_width is unset).
_INI = {
    "params": {"dim": ("1", int), "s": ("0.4", float), "p": ("6.0", float),
               "eta": ("1.0", float), "m": ("1.0", float)},
    "grid": {"n": ("1024", int), "L": ("40.0", float)},
    "solve": {name: (str(getattr(SolveConfig, name, "")), kind)
              for name, kind in _SOLVE_FLAGS.items()},
    "sweep": {"eta": ("", _etas)},
    "constants": {"rungs": ("3", int)},
    "output": {"dir": ("", str)},
}
_WANT = {int: "an integer", float: "a number", _etas: "a comma-separated list of numbers"}

# The config key each single-valued flag overrides, by argparse dest.
_FLAG_KEYS = {**{name: ("solve", name) for name in _SOLVE_FLAGS},
              "eta": ("sweep", "eta"), "rungs": ("constants", "rungs"),
              "out": ("output", "dir")}
# The two multi-valued flags: their separator, their form, and the config
# key each token sets.
_SPLIT_FLAGS = {
    "grid": (":", "N:n:L", [("params", "dim"), ("grid", "n"), ("grid", "L")]),
    "params": (",", "s,p,eta,m", [("params", key) for key in ("s", "p", "eta", "m")]),
}


def _load_config(path: str | None) -> dict:
    conf = {sec: {key: default for key, (default, _) in keys.items()}
            for sec, keys in _INI.items()}
    if path:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise CliError("malformed config file %s: %s" % (path, exc))
        if not read:
            raise CliError("config file not found: %s" % path)
        for sec in parser.sections():
            if sec not in conf:
                raise CliError("unknown section [%s] in config file %s" % (sec, path))
            for key, val in parser[sec].items():
                if key not in conf[sec]:
                    raise CliError("unknown key %r in section [%s] of config file %s"
                                   % (key, sec, path))
                conf[sec][key] = val
    return conf


def _apply_flags(conf: dict, args: argparse.Namespace) -> dict:
    """conf with each flag given written over it as typed (a --grid or
    --params value split into its tokens); _parse_run converts them."""
    for dest, (sep, form, keys) in _SPLIT_FLAGS.items():
        raw = getattr(args, dest, None)
        if raw is not None:
            tokens = raw.split(sep)
            if len(tokens) != len(keys):
                raise CliError("bad --%s value %r (want %s)" % (dest, raw, form))
            for (sec, key), tok in zip(keys, tokens):
                conf[sec][key] = tok.strip()
    for dest, (sec, key) in _FLAG_KEYS.items():
        val = getattr(args, dest, None)
        if val is not None:
            conf[sec][key] = val
    return conf


def _convert(sec: str, key: str, kind, raw: str):
    """raw as kind (an empty init_width as None), or an error naming it."""
    try:
        return None if key == "init_width" and not raw else kind(raw)
    except ValueError:
        raise CliError("[%s] %s must be %s, got %r" % (sec, key, _WANT[kind], raw)) from None


def _parse_run(conf: dict, command: str) -> tuple:
    """(params, grid, solve_cfg, init_width, etas, rungs, outdir) of a run;
    every INI value is converted here."""
    val = {sec: {key: _convert(sec, key, kind, conf[sec][key]) for key, (_, kind) in keys.items()}
           for sec, keys in _INI.items()}
    params = ModelParams(**val["params"])
    grid = make_grid(params.dim, val["grid"]["n"], val["grid"]["L"])
    solve_cfg = SolveConfig(grid=grid, **{name: val["solve"][name] for name in _SOLVE_KNOBS})
    return (params, grid, solve_cfg, val["solve"]["init_width"], val["sweep"]["eta"],
            val["constants"]["rungs"], Path(val["output"]["dir"] or "runs/%s" % command))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _dump_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir: Path, command: str, conf: dict, artifact_names: list) -> None:
    """The one record of a run: the resolved config it replays from, and
    the checksums of its artifacts."""
    _dump_json(outdir / "manifest.json", {
        "command": command,
        "config": conf,
        "artifacts": {name: _sha256(outdir / name) for name in sorted(artifact_names)},
    })


# ----------------------------------------------------------------------
# plotting from persisted artifacts (shared by solve/sweep/plot)


def _read_csv_rows(path: Path) -> list:
    """The first two columns of a table, with an empty cell read as nan."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise CliError("corrupt CSV %s at line 1 (bad header)" % path)
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 2:
                raise CliError("corrupt CSV %s at line %d (short row)" % (path, lineno))
            try:
                rows.append([float(cell) if cell else math.nan for cell in row[:2]])
            except ValueError:
                raise CliError("corrupt CSV %s at line %d (non-numeric cell)"
                               % (path, lineno))
    return rows


def _plot_profile(outdir: Path) -> None:
    field, _ = load_field(outdir / "field.bin")
    write_svg(outdir / "profile.svg",
              profile_svg(field.grid.radius().ravel().tolist(),
                          field.values.ravel().tolist(), "converged profile"))


def _plot_sweep(outdir: Path) -> None:
    rows = [r for r in _read_csv_rows(outdir / "sweep.csv") if r[1] > 0]  # drops nan
    if not rows:
        raise CliError("sweep table %s has no positive energies to plot"
                       % (outdir / "sweep.csv"))
    ref = None
    slope_path = outdir / "slope.json"
    if slope_path.exists():
        with open(slope_path) as fh:
            ref = json.load(fh).get("reference_slope")
    write_svg(outdir / "sweep.svg", loglog_svg([r[0] for r in rows], [r[1] for r in rows],
                                               ref, "level decay"))


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    conf = _apply_flags(_load_config(args.config), args)
    params, grid, solve_cfg, init_width, _, _, outdir = _parse_run(conf, "solve")
    if init_width is None:
        init_width = grid.half_length / 10.0

    init = sample(grid, "gaussian", {"width": init_width})
    report = solve_ground_state(init, params, solve_cfg)
    diagnostics = asdict(diagnose(report, params)) if report.converged else None

    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "energy", "pohozaev_abs", "grad_norm"])
        for i, (e, p_abs, g) in enumerate(report.history):
            writer.writerow([i, "%.17g" % e, "%.17g" % p_abs, "%.17g" % g])
    save_field(report.final_field, outdir / "field.bin", s=params.s)
    _dump_json(outdir / "report.json",
               {"report": report.to_dict(), "diagnostics": diagnostics})
    _plot_profile(outdir)
    _write_manifest(outdir, "solve", conf,
                    ["report.json", "history.csv", "field.bin", "profile.svg"])
    print("solve: converged=%s stop=%s E=%.8g mu=%.6g |P|/A=%.3e iterations=%d"
          % (report.converged, report.stop_reason, report.energy_level, report.mu,
             report.pohozaev_residual, report.iterations))
    return 0 if report.converged else 2


def cmd_sweep(args) -> int:
    conf = _apply_flags(_load_config(args.config), args)
    params, _, solve_cfg, init_width, etas, _, outdir = _parse_run(conf, "sweep")
    if not etas:
        raise CliError("sweep needs a non-empty eta list (--eta or [sweep] eta)")

    sweep = sweep_eta(params, etas, solve_cfg, width_ref=init_width)

    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eta", "energy", "mu", "poho_residual", "iterations",
                         "converged", "stop_reason", "error"])
        for e in sweep.entries:
            r = e.report
            if r is None:
                writer.writerow(["%.17g" % e.eta, "", "", "", 0, 0, "", e.error])
            else:
                writer.writerow(["%.17g" % e.eta, "%.17g" % r.energy_level, "%.17g" % r.mu,
                                 "%.17g" % r.pohozaev_residual, r.iterations,
                                 int(r.converged), r.stop_reason, ""])
    _dump_json(outdir / "slope.json", {
        "slope": sweep.slope,
        "reference_slope": sweep.reference_slope,
        "note": sweep.note,
        "entries": len(sweep.entries),
    })
    _plot_sweep(outdir)
    _write_manifest(outdir, "sweep", conf, ["sweep.csv", "slope.json", "sweep.svg"])
    for e in sweep.entries:
        r = e.report
        print("eta=%-10g E=%-14s mu=%-14s converged=%s%s"
              % (e.eta, "n/a" if r is None else "%.6g" % r.energy_level,
                 "n/a" if r is None else "%.6g" % r.mu,
                 r is not None and r.converged, (" error=" + e.error) if e.error else ""))
    if sweep.slope is not None:
        print("fitted slope %.4f (reference %.4f)" % (sweep.slope, sweep.reference_slope))
    else:
        print("no slope fitted: %s" % sweep.note)
    all_ok = all(r is not None and r.converged for r in sweep.reports)
    return 0 if all_ok else 2


def cmd_constants(args) -> int:
    conf = _apply_flags(_load_config(args.config), args)
    params, grid, _, _, _, rungs, outdir = _parse_run(conf, "constants")
    report = estimate_constants(grid, params, rungs=rungs)
    outdir.mkdir(parents=True, exist_ok=True)
    save_constants(report, outdir / "constants.json")
    _write_manifest(outdir, "constants", conf, ["constants.json"])
    print("constants: S_est=%.6g C_est=%.6g converged=%s"
          % (report.S_est, report.C_est, report.converged))
    for label, trace in sorted(report.refinement.items()):
        print("  %s trace: %s" % (label, ", ".join("n=%d %.6g" % (n, v)
                                                   for n, v in trace)))
    print("  S is the sharp Sobolev constant's closed form; C is maximized on each rung")
    return 0 if report.converged else 2


def cmd_verify(args) -> int:
    constants = load_constants(args.constants) if args.constants else None
    rows = run_checks(constants=constants)
    width = max(len(r.name) for r in rows)
    for r in rows:
        print("%-*s  %-4s  %s" % (width, r.name, r.status, r.detail))
    n_fail = sum(1 for r in rows if r.status == FAIL)
    n_skip = sum(1 for r in rows if r.status == SKIP)
    print("verify: %d pass, %d fail, %d skipped"
          % (sum(1 for r in rows if r.status == PASS), n_fail, n_skip))
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _dump_json(outdir / "verify.json",
                   {"rows": [{"name": r.name, "status": r.status, "detail": r.detail}
                             for r in rows]})
    if n_fail or n_skip:
        return 2
    return 0


def cmd_plot(args) -> int:
    if not args.out:
        raise CliError("plot needs --out pointing at a run directory")
    outdir = Path(args.out)
    made = 0
    for source, plot, target in (("field.bin", _plot_profile, "profile.svg"),
                                 ("sweep.csv", _plot_sweep, "sweep.svg")):
        if (outdir / source).exists():
            plot(outdir)
            print("wrote %s" % (outdir / target))
            made += 1
    if made == 0:
        raise CliError("no plottable inputs (field.bin or sweep.csv) in %s" % outdir)
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; flags override it")
    sub.add_argument("--grid", help="grid as N:n:L")
    sub.add_argument("--params", help="model parameters as s,p,eta,m")


def _add_solve_flags(sub: argparse.ArgumentParser) -> None:
    for name in _SOLVE_FLAGS:
        sub.add_argument("--" + name.replace("_", "-"), dest=name)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads, so a flag it would
    ignore is a usage error."""
    parser = _Parser(
        prog="fracnlse",
        description="Ground-state laboratory for a fractional NLS energy "
                    "with combined critical and subcritical nonlinearities.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("sweep", cmd_sweep),
                     ("constants", cmd_constants), ("verify", cmd_verify),
                     ("plot", cmd_plot)):
        sub = subs.add_parser(name)
        sub.add_argument("--out", help="output directory")
        if name in ("solve", "sweep", "constants"):
            _add_run_flags(sub)
        if name in ("solve", "sweep"):
            _add_solve_flags(sub)
        if name == "verify":
            sub.add_argument("--constants", help="path to a constants report JSON")
        if name == "sweep":
            sub.add_argument("--eta", help="comma-separated coupling list")
        if name == "constants":
            sub.add_argument("--rungs", help="refinement ladder length")
        sub.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
