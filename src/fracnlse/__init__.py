"""Numerical laboratory for normalized ground states of a fractional NLS
energy combining a Sobolev-critical power with a mass-supercritical,
Sobolev-subcritical perturbation on a periodic box.

The package provides spectral operators for the fractional Laplacian,
exact scaling transport of the invariant summary under mass-preserving
dilations, fiber-map analysis on the constraint manifold, constrained
descent to the ground state, estimation of the critical Sobolev and
Gagliardo-Nirenberg constants, and a battery of self-verification checks
covering the identities and inequalities the solver relies on.
"""

from importlib import import_module as _import_module

from .fiber import (DegenerateFiberError, FiberProfile,
                    fiber_derivative_residual, fiber_energy, fiber_pohozaev,
                    fiber_root, scale_summary)
from .fields import (DecayGuardError, Field, FieldSummary,
                     boundary_mass_fraction, dense_oracle_frac_laplacian,
                     dilate, frac_laplacian, load_field, lp_norm_pow,
                     sample, save_field, seminorm_sq, summarize)
from .functionals import (GeometryReport, energy, geometry_lower_bound,
                          gradient_field, lagrange_multiplier,
                          manifold_identity_residual, pohozaev, rho,
                          sobolev_sharp_constant)
from .grids import GridSpec, make_grid
from .params import ModelParams
from .solver import (Diagnostics, SolveConfig, SolveReport, SweepEntry,
                     SweepReport, compactness_threshold, diagnose,
                     pohozaev_project, renormalize_mass, solve_ground_state,
                     sweep_eta)

# The constants ladder and the verify battery load on first access (PEP 562),
# so a solve or a sweep never compiles them.
_LAZY = {name: "constants" for name in (
    "ConstantsReport", "estimate_constants", "estimate_gn", "estimate_sobolev",
    "gn_quotient", "load_constants", "probe_fields", "save_constants",
    "sobolev_quotient")}
_LAZY.update(CheckResult="verify", run_checks="verify")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConstantsReport",
    "DecayGuardError",
    "DegenerateFiberError",
    "Diagnostics",
    "FiberProfile",
    "Field",
    "FieldSummary",
    "GeometryReport",
    "GridSpec",
    "ModelParams",
    "SolveConfig",
    "SolveReport",
    "SweepEntry",
    "SweepReport",
    "boundary_mass_fraction",
    "compactness_threshold",
    "dense_oracle_frac_laplacian",
    "diagnose",
    "dilate",
    "energy",
    "estimate_constants",
    "estimate_gn",
    "estimate_sobolev",
    "fiber_derivative_residual",
    "fiber_energy",
    "fiber_pohozaev",
    "fiber_root",
    "frac_laplacian",
    "geometry_lower_bound",
    "gn_quotient",
    "gradient_field",
    "lagrange_multiplier",
    "load_constants",
    "load_field",
    "lp_norm_pow",
    "make_grid",
    "manifold_identity_residual",
    "pohozaev",
    "pohozaev_project",
    "probe_fields",
    "renormalize_mass",
    "rho",
    "run_checks",
    "sample",
    "save_constants",
    "save_field",
    "scale_summary",
    "seminorm_sq",
    "sobolev_quotient",
    "sobolev_sharp_constant",
    "solve_ground_state",
    "summarize",
    "sweep_eta",
    "__version__",
]
