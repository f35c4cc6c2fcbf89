"""The variational objects: energy, Pohozaev functional, the energy
gradient (written once, on the rfftn half spectrum, for the descent, the
PDE residual and gradient_field), Lagrange multiplier, the manifold energy
identity, and the small-seminorm geometry radius rho(m, eta).

Everything scalar-valued acts on a FieldSummary (A, M, B_p, B_star), so
the algebraic identities among these functionals hold to rounding with no
grid error. In particular, with zeta = zeta_p and q = 2*_s:

    mu * M  - eta * (zeta - 1) * B_p             = P          (multiplier identity)
    E - [(eta/2p)(zeta p - 2) B_p + (s/N) B_star] = P / 2     (manifold energy identity)

both of which reduce to the Pohozaev functional P = A - B_star - eta zeta B_p;
the reductions are checked term by term in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, FieldSummary, _abs_power
from .grids import GridSpec
from .params import ModelParams


def energy(summary: FieldSummary, params: ModelParams) -> float:
    """I(u) = A/2 - B_star/2*_s - (eta/p) B_p."""
    return (0.5 * summary.A - summary.B_star / params.two_star
            - (params.eta / params.p) * summary.B_p)


def pohozaev(summary: FieldSummary, params: ModelParams) -> float:
    """P(u) = A - B_star - eta zeta_p B_p."""
    return summary.A - summary.B_star - params.eta * params.zeta_p * summary.B_p


def odd_power(values: np.ndarray, q: float) -> np.ndarray:
    """|u|^{q-2} u, the odd extension used throughout; an integer q - 2
    takes the multiply chain of _abs_power."""
    return _abs_power(values, q - 2.0) * values


def _gradient_half(u: np.ndarray, uh: np.ndarray, grid: GridSpec, params: ModelParams,
                   mu: float) -> np.ndarray:
    """The rfftn half spectrum of (-Delta)^s u - |u|^{2*_s - 2} u
    - eta |u|^{p-2} u - mu u, the multiplier-shifted L2 gradient at real
    samples u with half spectrum uh."""
    nonlinear = odd_power(u, params.two_star) + params.eta * odd_power(u, params.p)
    return (grid.half_symbol(params.s) - mu) * uh - np.fft.rfftn(nonlinear)


def gradient_field(field: Field, params: ModelParams) -> Field:
    """Unconstrained L2 gradient of the energy,
    (-Delta)^s u - |u|^{2*_s - 2} u - eta |u|^{p-2} u: the descent's
    gradient at mu = 0, transformed back."""
    u = field.values
    return Field(field.grid, np.fft.irfftn(_gradient_half(u, np.fft.rfftn(u), field.grid,
                                                          params, 0.0)))


def lagrange_multiplier(summary: FieldSummary, params: ModelParams) -> float:
    """mu = (A - B_star - eta B_p) / M."""
    if summary.M <= 0.0:
        raise ValueError("Lagrange multiplier undefined at zero mass")
    return (summary.A - summary.B_star - params.eta * summary.B_p) / summary.M


def _multiplier_identity_rel(mu: float, summary: FieldSummary, params: ModelParams) -> float:
    """|mu M - eta (zeta_p - 1) B_p| / |mu M|, zero where P = 0."""
    return (abs(mu * summary.M - params.eta * (params.zeta_p - 1.0) * summary.B_p)
            / max(abs(mu * summary.M), 1e-300))


def manifold_identity_residual(summary: FieldSummary, params: ModelParams) -> float:
    """energy - [(eta/2p)(zeta_p p - 2) B_p + (s/N) B_star].

    Equals pohozaev(summary)/2 identically; at P = 0 the bracket is the
    energy itself, which is how the positivity of the ground-state level
    is read off.
    """
    bracket = (params.eta / (2.0 * params.p)) * (params.zeta_p * params.p - 2.0) * summary.B_p
    bracket += (params.s / params.dim) * summary.B_star
    return energy(summary, params) - bracket


@dataclass(frozen=True)
class GeometryReport:
    """rho(m, eta) with the active branch of the two-term minimum."""

    rho: float
    branch: int


def rho(params: ModelParams, constants) -> GeometryReport:
    """Radius of the small-seminorm region where the energy stays positive:

        rho = min{ (p / (8 eta C^p 2^{p zeta/2} m^{p(1-zeta)}))^{4s/(Np-2N-4s)},
                   (2*_s/8)^{(N-2s)/2s} (S/2)^{N/2s} }

    with branch 1 the eta-dependent term and branch 2 the Sobolev term.
    """
    S, C = float(constants.S_est), float(constants.C_est)
    if S <= 0.0 or C <= 0.0:
        raise ValueError("constants estimates must be positive, got S=%r C=%r" % (S, C))
    zeta, q = params.zeta_p, params.two_star
    n, s, p = params.dim, params.s, params.p
    b1 = (p / (8.0 * params.eta * C ** p * 2.0 ** (p * zeta / 2.0)
               * params.m ** (p * (1.0 - zeta)))) ** params.level_decay_exponent
    b2 = (q / 8.0) ** ((n - 2.0 * s) / (2.0 * s)) * (S / 2.0) ** (n / (2.0 * s))
    if b1 <= b2:
        return GeometryReport(rho=b1, branch=1)
    return GeometryReport(rho=b2, branch=2)


def geometry_lower_bound(A, params: ModelParams, constants):
    """Closed-form lower bound for the energy at seminorm A on the mass
    sphere: A/2 minus the two inequality-controlled nonlinear terms. The
    radius rho is engineered so this stays positive on (0, rho]."""
    S, C = float(constants.S_est), float(constants.C_est)
    zeta, q = params.zeta_p, params.two_star
    A = np.asarray(A, dtype=float)
    crit = (2.0 ** (q / 2.0) / (q * S ** (q / 2.0))) * A ** (q / 2.0)
    sub = ((params.eta * C ** params.p / params.p) * 2.0 ** (params.p * zeta / 2.0)
           * params.m ** (params.p * (1.0 - zeta)) * A ** (params.p * zeta / 2.0))
    out = 0.5 * A - crit - sub
    return float(out) if out.ndim == 0 else out
