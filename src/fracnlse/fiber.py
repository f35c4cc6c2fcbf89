"""Dilation fiber calculus on summaries.

The mass-preserving dilation acts on the invariant quadruple exactly:

    A -> e^{2 s xi} A,   M -> M,   B_beta -> e^{(beta-2) N xi / 2} B_beta,

so every fiber quantity is a closed-form function of the base summary and
no grid resampling is involved. Substituting t = e^{s xi} turns the fiber
Pohozaev functional into t^2 * phi(t) with

    phi(t) = A - t^{q-2} B_star - eta zeta t^{p zeta - 2} B_p,   q = 2*_s,

strictly decreasing because 2 < p zeta < q, which makes bisection for the
unique fiber root unconditionally safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import functionals
from .fields import FieldSummary
from .params import ModelParams


class DegenerateFiberError(ValueError):
    """The summary has no fiber maximum: A = 0 or no nonlinear term left."""


@dataclass(frozen=True)
class FiberProfile:
    """A base summary together with its parameters; xi is an argument of
    the operations, not state."""

    base: FieldSummary
    params: ModelParams

    def __post_init__(self):
        if self.base.A <= 0.0 or (self.base.B_star <= 0.0 and self.base.B_p <= 0.0):
            raise DegenerateFiberError(
                "degenerate fiber profile (needs A > 0 and a nonzero nonlinear term)"
            )


def scale_summary(summary: FieldSummary, xi: float, params: ModelParams) -> FieldSummary:
    n = params.dim
    return FieldSummary(
        A=math.exp(2.0 * params.s * xi) * summary.A,
        M=summary.M,
        B_p=math.exp((params.p - 2.0) * n * xi / 2.0) * summary.B_p,
        B_star=math.exp((params.two_star - 2.0) * n * xi / 2.0) * summary.B_star,
    )


def fiber_energy(profile: FiberProfile, xi: float) -> float:
    return functionals.energy(scale_summary(profile.base, xi, profile.params), profile.params)


def fiber_pohozaev(profile: FiberProfile, xi: float) -> float:
    return functionals.pohozaev(scale_summary(profile.base, xi, profile.params), profile.params)


def fiber_derivative_residual(profile: FiberProfile, xi: float) -> float:
    """|d/dxi of the fiber energy - s * fiber Pohozaev| at xi, by central
    differences of step 1e-6, normalized by max(1, |s P|)."""
    step = 1e-6
    deriv = (fiber_energy(profile, xi + step) - fiber_energy(profile, xi - step)) / (2.0 * step)
    target = profile.params.s * fiber_pohozaev(profile, xi)
    return abs(deriv - target) / max(1.0, abs(target))


def fiber_root(profile: FiberProfile, return_iterations: bool = False):
    """The unique xi* with fiber_pohozaev(profile, xi*) = 0; the fiber
    energy is maximal there. The root t* = e^{s xi*} of phi is bracketed by
    doubling from t = 1 and then bisected."""
    params = profile.params
    A, Bp, Bs = profile.base.A, profile.base.B_p, profile.base.B_star
    cp = params.eta * params.zeta_p
    e_star = params.two_star - 2.0
    e_p = params.zeta_p * params.p - 2.0

    def phi(t):
        return A - t ** e_star * Bs - cp * t ** e_p * Bp

    iters = 0
    lo = hi = 1.0
    f1 = phi(1.0)
    if f1 > 0.0:
        while phi(hi) > 0.0:
            hi *= 2.0
            iters += 1
            if iters > 200:
                raise RuntimeError("fiber root bracket expansion failed")
        lo = hi / 2.0
    elif f1 < 0.0:
        while phi(lo) < 0.0:
            lo *= 0.5
            iters += 1
            if iters > 200:
                raise RuntimeError("fiber root bracket expansion failed")
        hi = lo * 2.0
    while hi - lo > 1e-17 * hi and iters < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    xi = math.log(0.5 * (lo + hi)) / params.s
    return (xi, iters) if return_iterations else xi
