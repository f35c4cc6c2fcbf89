"""Periodic grids for the spectral laboratory.

The computational domain is the periodic cube [-L, L)^N with n samples per
axis, spacing h = 2L/n. Wavenumbers follow the standard DFT layout: the
per-axis frequencies are integer multiples of pi/L with the zero mode first.
Derived arrays that operator evaluations reuse (coordinates, the multiplier
|k|^{2s}, the boundary mask) are cached on the grid's methods: GridSpec is
frozen and hashable, so equal grids share one cached array, which is
therefore read-only (an in-place write raises instead of corrupting every
equal grid). The multiplier is cached on the rfftn half spectrum, all that
an operator reads. The full |k|^2, computed on demand, builds it, the dense
oracle's own multiplier and the classical-limit check. Meshes are open: one
array per axis, shaped to broadcast. The cell volume h^N, a factor of every
quadrature sum, is computed once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .params import _dimension, _positive, _real


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^N."""

    dim: int
    points_per_axis: int
    half_length: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points_per_axis

    @property
    def frequencies(self) -> np.ndarray:
        """Per-axis wavenumbers (pi/L times integers, DFT order)."""
        n = self.points_per_axis
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def num_points(self) -> int:
        return self.points_per_axis ** self.dim

    @cached_property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @cache
    def axis_coordinates(self) -> np.ndarray:
        """Sample positions along one axis: -L + h*j."""
        return _read_only(-self.half_length + self.spacing * np.arange(self.points_per_axis))

    def meshgrid(self) -> tuple:
        """Open coordinate mesh: one array per axis, shaped to broadcast."""
        return np.meshgrid(*([self.axis_coordinates()] * self.dim), indexing="ij", sparse=True)

    def radius(self) -> np.ndarray:
        """Euclidean distance from the origin at every grid point."""
        mesh = self.meshgrid()
        return np.sqrt(sum(c * c for c in mesh))

    def wavenumber_sq(self) -> np.ndarray:
        """|k|^2 on the full N-dimensional frequency grid (not cached)."""
        mesh = np.meshgrid(*([self.frequencies] * self.dim), indexing="ij", sparse=True)
        return sum(c * c for c in mesh)

    @cache
    def symbol(self, s: float) -> np.ndarray:
        """Multiplier |k|^{2s} of (-Delta)^s on the rfftn half spectrum, the
        last axis's first n//2 + 1 frequencies: its last is -n/2 in DFT order
        and +n/2 in rfft order, which the even symbol does not tell apart."""
        return _read_only(self.wavenumber_sq()[..., : self.points_per_axis // 2 + 1] ** float(s))

    @cache
    def boundary_tail_mask(self) -> np.ndarray:
        """Boolean mask of points with |x|_inf > L/2 (the outer shell)."""
        return _read_only(reduce(np.maximum, map(np.abs, self.meshgrid()))
                          > 0.5 * self.half_length)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def make_grid(dim: int, points_per_axis: int, half_length: float) -> GridSpec:
    """Validated GridSpec constructor."""
    _dimension(dim)
    _real(points_per_axis, float.is_integer, "points per axis must be an integer, got %r")
    n = int(points_per_axis)
    if n % 2 != 0:
        raise ValueError("odd grid size %r (points per axis must be even)" % (points_per_axis,))
    if n < 8:
        raise ValueError("grid size %d too small (need at least 8 points per axis)" % n)
    L = _positive("half length", half_length)
    return GridSpec(dim=dim, points_per_axis=n, half_length=L)
