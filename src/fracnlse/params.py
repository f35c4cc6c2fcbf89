"""Model parameters and derived exponents.

The problem quintuple is (N, s, p, eta, m): dimension, fractional order,
extra nonlinearity power, its coupling, and the prescribed L2 mass. The
admissible window for p is the mass-supercritical range below the critical
exponent,

    2 + 4s/N < p < 2N/(N - 2s),

which makes zeta_p = (Np - 2N)/(2ps) lie in (0, 1) with zeta_p * p > 2.
ModelParams computes its derived exponents once, while validating p, and
every law of the package reads them there.

The helpers below are the one home of the package's input checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np


def _real(value, ok, message: str) -> float:
    """float(value) for a real number, not a bool, that ok accepts as a
    float; anything else, an int past the float range included, raises
    ValueError(message % value)."""
    try:
        x = None if isinstance(value, bool) or not isinstance(value, Real) else float(value)
    except OverflowError:
        x = None
    if x is None or not ok(x):
        raise ValueError(message % (value,))
    return x


def _real_array(name: str, values) -> np.ndarray:
    """values as a float array; only an integer or float dtype passes."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError("%s must have an integer or float dtype, got %s" % (name, array.dtype))
    return array.astype(float, copy=False)


def _positive(name: str, value) -> float:
    """float(value) for a finite real number > 0, not a bool."""
    return _real(value, lambda x: 0.0 < x < math.inf,
                 name + " must be finite and positive, got %r")


def _count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless value is an int >= least and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError("%s must be an int >= %d, got %r" % (name, least, value))


def _dimension(dim) -> None:
    """Raise ValueError unless dim is an int of 1, 2 or 3 and not a bool:
    the dimension rule of ModelParams and make_grid."""
    if isinstance(dim, bool) or not isinstance(dim, Integral) or dim not in (1, 2, 3):
        raise ValueError("unsupported dimension %r (must be 1, 2, or 3)" % (dim,))


def _order(s, dim=None) -> float:
    """float(s) for a fractional order s in (0, 1), a real number and not a
    bool; given a dimension, also 2s < dim, the paper's window."""
    x = _real(s, lambda x: 0.0 < x < 1.0, "s must lie in (0, 1), got %r")
    if dim is not None and not 2.0 * x < dim:
        raise ValueError("2s must be smaller than the dimension: 2*%g >= %d" % (x, dim))
    return x


@dataclass(frozen=True)
class ModelParams:
    """Validated problem parameters (N, s, p, eta, m); the derived exponents
    are set on construction and take no part in ==, hash or repr."""

    dim: int
    s: float
    p: float
    eta: float
    m: float
    two_star: float = field(init=False, compare=False, repr=False)
    zeta_p: float = field(init=False, compare=False, repr=False)
    level_decay_exponent: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _dimension(self.dim)
        _order(self.s, self.dim)
        _real(self.p, math.isfinite, "p must be a finite real number, got %r")
        _positive("eta", self.eta)
        _positive("mass parameter m", self.m)
        n, s, p = float(self.dim), self.s, self.p
        two_star = 2.0 * n / (n - 2.0 * s)
        zeta_p = (n * p - 2.0 * n) / (2.0 * p * s)
        mass_critical_p = 2.0 + 4.0 * s / n
        # At p exactly mass-critical the decay exponent blows up; inf keeps
        # the window test below well defined.
        denom = n * p - 2.0 * n - 4.0 * s
        level_decay_exponent = math.inf if denom == 0.0 else 4.0 * s / denom
        # The exponents must agree with the window in floating point too: a
        # p an ulp above 2 + 4s/N can round zeta_p * p to exactly 2.
        if not (p > mass_critical_p and zeta_p * p > 2.0 and level_decay_exponent > 0.0):
            raise ValueError(
                "p must exceed 2 + 4s/N = %.6g (got p = %r)" % (mass_critical_p, p)
            )
        if not (p < two_star and zeta_p < 1.0):
            raise ValueError(
                "p must stay below the critical exponent 2N/(N-2s) = %.6g (got p = %g)"
                % (two_star, p)
            )
        object.__setattr__(self, "two_star", two_star)
        object.__setattr__(self, "zeta_p", zeta_p)
        object.__setattr__(self, "level_decay_exponent", level_decay_exponent)
