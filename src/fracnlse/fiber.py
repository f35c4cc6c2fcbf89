"""Dilation fiber calculus on summaries.

The mass-preserving dilation acts on the invariant quadruple exactly:

    A -> e^{2 s xi} A,   M -> M,   B_beta -> e^{(beta-2) N xi / 2} B_beta,

so every fiber quantity is a closed-form function of the base summary and
no grid resampling is involved. Substituting t = e^{s xi} turns the fiber
Pohozaev functional into t^2 * phi(t) with

    phi(t) = A - t^{q-2} B_star - eta zeta t^{p zeta - 2} B_p,   q = 2*_s,

strictly decreasing because 2 < p zeta < q, and concave in log t, so the
fiber root is unique and Newton steps in log t find it fast. fiber_root
keeps every point it evaluates inside a sign bracket and updates the
bracket as bisection would, so it returns bisection's root to the bit in
a fraction of the evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import functionals
from .fields import FieldSummary
from .params import ModelParams


class DegenerateFiberError(ValueError):
    """The summary has no fiber maximum: A = 0, no nonlinear term left, or
    a component that is not finite."""


@dataclass(frozen=True)
class FiberProfile:
    """A base summary together with its parameters; xi is an argument of
    the operations, not state."""

    base: FieldSummary
    params: ModelParams

    def __post_init__(self):
        A, M, B_p, B_star = self.base.as_tuple()
        if not (0.0 < A < math.inf and math.isfinite(M) and math.isfinite(B_p)
                and math.isfinite(B_star) and (B_star > 0.0 or B_p > 0.0)):
            raise DegenerateFiberError("degenerate fiber profile (needs a finite summary "
                                       "with A > 0 and a nonzero nonlinear term)")


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
    doubling from t = 1, and the bracket [lo, hi], phi(lo) >= 0 >= phi(hi),
    is then closed to adjacent floats.

    Every point evaluated inside the bracket moves lo or hi exactly as a
    bisection midpoint would, so the result is the one bisection returns,
    bit for bit: log((lo + hi)/2)/s at the adjacent pair around the one
    place where the computed phi, monotone like pow, turns non-positive.
    The points are chosen by Newton steps in log t, in which phi is concave,
    from the last point evaluated. A Newton point that is not strictly
    inside the bracket means Newton has closed in on the end it came
    from; the next points then step off that end by 1, 2, 4, ... ulps
    until one lands on the other side, and a step that would leave the
    bracket takes its midpoint. iterations counts the doublings and the
    evaluations inside the bracket; both together stop at 200. Only a root
    behind more than about 147 doublings differs: bisection's halvings
    reach that cap before its pair is adjacent, and this root is the closer
    one.
    """
    params = profile.params
    A, Bp, Bs = profile.base.A, profile.base.B_p, profile.base.B_star
    cp = params.eta * params.zeta_p
    e_star = params.two_star - 2.0
    e_p = params.zeta_p * params.p - 2.0

    def phi(t):
        """phi(t) and -d phi / d log t."""
        star = t ** e_star * Bs
        sub = cp * t ** e_p * Bp
        return A - star - sub, e_star * star + e_p * sub

    iters = 0
    lo = hi = 1.0
    f_lo = f_hi = phi(1.0)
    try:
        if f_lo[0] > 0.0:
            while f_hi[0] > 0.0:
                lo, f_lo = hi, f_hi
                hi *= 2.0
                iters += 1
                if iters > 200:
                    raise RuntimeError("fiber root bracket expansion failed")
                f_hi = phi(hi)
        elif f_lo[0] < 0.0:
            while f_lo[0] < 0.0:
                hi, f_hi = lo, f_lo
                lo *= 0.5
                iters += 1
                if iters > 200:
                    raise RuntimeError("fiber root bracket expansion failed")
                f_lo = phi(lo)
    except OverflowError:
        # t ** e_star leaves the float range before the doubling cap
        raise RuntimeError("fiber root bracket expansion failed") from None
    # Start from the end with the shorter Newton step |phi| / slope.
    if abs(f_lo[0]) * f_hi[1] < abs(f_hi[0]) * f_lo[1]:
        x, (f, slope) = lo, f_lo
    else:
        x, (f, slope) = hi, f_hi
    ulps = 0.0
    while iters < 200:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        t = x * math.exp(max(-1.0, min(1.0, f / slope))) if slope > 0.0 else mid
        if not lo < t < hi:
            ulps = 2.0 * ulps if ulps else math.ulp(x)
            t = x - ulps if x == hi else x + ulps
            if not lo < t < hi:
                t = mid
        f, slope = phi(t)
        iters += 1
        if f > 0.0:
            lo = t
        else:
            hi = t
        x = t
    xi = math.log(0.5 * (lo + hi)) / params.s
    return (xi, iters) if return_iterations else xi
