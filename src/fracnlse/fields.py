"""Fields on periodic grids: sampling, norms, the fractional Laplacian,
mass-preserving dilation, and serialization.

The fractional Laplacian is the Fourier multiplier |k|^{2s}. All integrals
use the rectangle rule h^N * sum, which is spectrally accurate for smooth
periodic integrands and consistent with the DFT normalization, so the
Plancherel form of the Gagliardo seminorm

    A = [u]^2 = (h^N / n^N) * sum_k |k|^{2s} |u_hat(k)|^2

agrees with <(-Delta)^s u, u> to rounding.

Dilation (xi * u)(x) = e^{N xi / 2} u(e^xi x) is realized by evaluating the
trigonometric interpolant of u at the scaled points, one axis at a time with
the same one-axis map. Points mapped outside the box are set to zero, which
is harmless exactly when the field decays (the guard below enforces that).
The map has two implementations, chosen by dimension:

- In 1D it is a DFT at a non-integer frequency spacing, done with a
  Bluestein chirp transform whose quadratic phase is reduced modulo 2 pi in
  extended precision before exponentiation; without the reduction the phase
  loses digits once n^2 * |xi| outgrows the 53-bit mantissa. It costs
  O(n log n), so it beats an explicit matrix on a single axis, and it is the
  reference the matrix is tested against.
- In 2D and 3D the map is the real n x n matrix of the interpolant, the
  Dirichlet kernel in closed form (no FFT), built once per call and applied
  along every axis with BLAS products. Its O(n^2) set-up is shared by all
  n^{N-1} lines of every axis, where the Bluestein path pays padded
  complex FFTs on every line of every axis.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, make_grid
from .params import ModelParams, exponents_for

_LD = np.longdouble
_TWO_PI = 2.0 * np.pi

XI_MAX_DEFAULT = 3.0
DECAY_GUARD_DEFAULT = 1e-8


class DecayGuardError(ValueError):
    """Raised when a field carries too much mass near the box boundary.

    Carries the measured fraction of mass outside |x|_inf > L/2 so callers
    can report how badly the decay assumption failed.
    """

    def __init__(self, fraction: float):
        self.fraction = float(fraction)
        super().__init__(
            "field mass fraction %.3e outside |x|_inf > L/2 exceeds the decay guard %.0e"
            % (self.fraction, DECAY_GUARD_DEFAULT)
        )


class Field:
    """Real samples of a candidate state on a periodic grid.

    Immutable after construction; the spectrum is computed lazily and
    cached. Use make_field / sample to construct instances.
    """

    __slots__ = ("grid", "values", "_spectrum")

    def __init__(self, grid: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(
                "values shape %r does not match grid shape %r" % (values.shape, grid.shape)
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_spectrum", None)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def spectrum(self) -> np.ndarray:
        """Cached forward DFT of the samples."""
        if self._spectrum is None:
            spec = np.fft.fftn(self.values)
            spec.setflags(write=False)
            object.__setattr__(self, "_spectrum", spec)
        return self._spectrum


def make_field(grid: GridSpec, values: np.ndarray) -> Field:
    return Field(grid, values)


@dataclass(frozen=True)
class FieldSummary:
    """The invariant quadruple (A, M, B_p, B_star) through which the energy,
    the Pohozaev functional, and the dilation fiber act exactly."""

    A: float
    M: float
    B_p: float
    B_star: float

    def as_tuple(self) -> tuple:
        return (self.A, self.M, self.B_p, self.B_star)


# ----------------------------------------------------------------------
# sampling


def sample(grid: GridSpec, family: str, family_params: dict | None = None,
           seed: int | None = None) -> Field:
    """Analytic test families evaluated at grid points.

    gaussian:           exp(-|x|^2 / (2 w^2)),  params {"width": w}
    bubble:             (eps^2 + |x|^2)^{-(N-2s)/2},  params {"epsilon": eps, "s": s}
    random_bandlimited: white noise with modes above cutoff*k_max removed,
                        params {"cutoff": f in (0,1], "envelope_width": w or None},
                        deterministic given seed
    """
    fp = dict(family_params or {})
    if "seed" in fp:
        seed = fp.pop("seed")
    r2 = grid.radius() ** 2
    if family == "gaussian":
        w = float(fp.pop("width", 1.0))
        if w <= 0.0:
            raise ValueError("gaussian width must be positive, got %r" % (w,))
        _reject_extras(family, fp)
        return Field(grid, np.exp(-r2 / (2.0 * w * w)))
    if family == "bubble":
        eps = float(fp.pop("epsilon", 1.0))
        s = float(fp.pop("s"))
        if eps <= 0.0:
            raise ValueError("bubble scale must be positive, got %r" % (eps,))
        if not (0.0 < s < 1.0) or not (2.0 * s < grid.dim):
            raise ValueError("bubble exponent needs 0 < s < 1 and 2s < N")
        _reject_extras(family, fp)
        power = -(grid.dim - 2.0 * s) / 2.0
        return Field(grid, (eps * eps + r2) ** power)
    if family == "random_bandlimited":
        cutoff = float(fp.pop("cutoff", 0.25))
        env = fp.pop("envelope_width", None)
        if not (0.0 < cutoff <= 1.0):
            raise ValueError("cutoff fraction must lie in (0, 1], got %r" % (cutoff,))
        _reject_extras(family, fp)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(grid.shape)
        spec = np.fft.fftn(noise)
        kmax = np.pi * grid.points_per_axis / (2.0 * grid.half_length)
        keep = np.sqrt(grid.wavenumber_sq()) <= cutoff * kmax
        vals = np.fft.ifftn(spec * keep).real
        if env is not None:
            vals = vals * np.exp(-r2 / (2.0 * float(env) ** 2))
        peak = np.max(np.abs(vals))
        if peak > 0:
            vals = vals / peak
        return Field(grid, vals)
    raise ValueError("unknown sample family %r" % (family,))


def _reject_extras(family: str, leftover: dict):
    if leftover:
        raise ValueError("unknown %s parameters: %s" % (family, sorted(leftover)))


# ----------------------------------------------------------------------
# operator and norms


def frac_laplacian(field: Field, s: float) -> Field:
    """Apply (-Delta)^s as the Fourier multiplier |k|^{2s}."""
    _check_s(s)
    out = np.fft.ifftn(field.grid.symbol(s) * field.spectrum)
    scale = np.max(np.abs(out))
    if scale > 0 and np.max(np.abs(out.imag)) > 1e-12 * scale:
        raise ValueError("imaginary residue above 1e-12 of output magnitude")
    return Field(field.grid, out.real)


def dense_oracle_frac_laplacian(field: Field, s: float) -> Field:
    """Reference operator built from the explicit dense DFT matrix.

    Semantically identical to frac_laplacian; kept independent of the fast
    path (matrix conjugation of the diagonal multiplier) so the two can
    cross-check each other. Guarded to small grids.
    """
    _check_s(s)
    grid = field.grid
    n, d = grid.points_per_axis, grid.dim
    total = grid.num_points
    if total > 4096:
        raise ValueError("grid too large for the dense oracle (n^N = %d > 4096)" % total)
    j = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(j, j) / n)
    dft = w
    for _ in range(d - 1):
        dft = np.kron(dft, w)
    mult = grid.symbol(s).reshape(-1)
    op = (dft.conj() / total) @ (mult[:, None] * dft)
    out = op @ field.values.reshape(-1)
    return Field(grid, out.real.reshape(grid.shape))


def seminorm_sq(field: Field, s: float) -> float:
    _check_s(s)
    return _seminorm_sq_values(field.values, field.grid, s, field.spectrum)


def _seminorm_sq_values(values: np.ndarray, grid: GridSpec, s: float,
                        spectrum: np.ndarray | None = None) -> float:
    if spectrum is None:
        spectrum = np.fft.fftn(values)
    weight = grid.cell_volume / grid.num_points
    return float(weight * np.sum(grid.symbol(s) * (spectrum.real ** 2 + spectrum.imag ** 2)))


def lp_norm_pow(field: Field, q: float) -> float:
    if q < 1.0:
        raise ValueError("norm exponent must satisfy q >= 1, got %r" % (q,))
    return _lp_values(field.values, field.grid, q)


def _lp_values(values: np.ndarray, grid: GridSpec, q: float) -> float:
    if q == 2.0:
        return float(grid.cell_volume * np.sum(values * values))
    return float(grid.cell_volume * np.sum(np.abs(values) ** q))


def summarize(field: Field, params: ModelParams) -> FieldSummary:
    if params.dim != field.grid.dim:
        raise ValueError("params dimension %d does not match grid dimension %d"
                         % (params.dim, field.grid.dim))
    return _summary_values(field.values, field.grid, params, field.spectrum)


def _summary_values(values: np.ndarray, grid: GridSpec, params: ModelParams,
                    spectrum: np.ndarray | None = None) -> FieldSummary:
    ex = exponents_for(params.dim, params.s, params.p)
    return FieldSummary(
        A=_seminorm_sq_values(values, grid, params.s, spectrum),
        M=_lp_values(values, grid, 2.0),
        B_p=_lp_values(values, grid, params.p),
        B_star=_lp_values(values, grid, ex.two_star),
    )


def boundary_mass_fraction(field_or_values, grid: GridSpec | None = None) -> float:
    """Fraction of the L2 mass outside |x|_inf > L/2."""
    if isinstance(field_or_values, Field):
        values, grid = field_or_values.values, field_or_values.grid
    else:
        values = np.asarray(field_or_values)
    total = float(np.sum(values * values))
    if total == 0.0:
        return 0.0
    tail = float(np.sum(values[grid.boundary_tail_mask()] ** 2))
    return tail / total


# ----------------------------------------------------------------------
# dilation


def _scaled_dft(b: np.ndarray, phi: float, m: int) -> np.ndarray:
    """X_j = sum_l b_l exp(i phi j l) for j < m, via Bluestein.

    The chirp phase phi * k^2 / 2 is reduced modulo 2 pi in long double
    before exponentiation to keep the quadratic phase accurate at large n.
    """
    nk = b.shape[-1]
    kk = np.arange(max(nk, m), dtype=_LD)
    ph = np.mod(_LD(phi) * kk * kk / 2.0, _LD(_TWO_PI)).astype(np.float64)
    chirp = np.exp(1j * ph)
    a = b * chirp[:nk]
    nfft = 1 << int(np.ceil(np.log2(nk + m - 1)))
    mm = np.arange(nfft)
    mm = np.minimum(mm, nfft - mm)
    phm = np.mod(_LD(phi) * mm.astype(_LD) ** 2 / 2.0, _LD(_TWO_PI)).astype(np.float64)
    kernel = np.fft.fft(np.exp(-1j * phm), nfft)
    out = np.fft.ifft(np.fft.fft(a, nfft, axis=-1) * kernel, axis=-1)[..., :m]
    return out * chirp[:m]


def _resample_axis(u: np.ndarray, xi: float, n: int, L: float) -> np.ndarray:
    """Evaluate e^{xi/2} * (trig interpolant of u)(e^xi x_j) along the last
    axis, zeroing points that leave the box."""
    h = 2.0 * L / n
    x = -L + h * np.arange(n)
    uh = np.fft.fft(u, axis=-1)
    order = np.argsort(np.fft.fftfreq(n) * n)
    c = uh[..., order].astype(complex)
    # Symmetric spectrum: split the Nyquist coefficient between +-n/2 so the
    # interpolant stays real.
    c_ext = np.concatenate([c, c[..., :1]], axis=-1)
    c_ext[..., 0] *= 0.5
    c_ext[..., -1] *= 0.5
    sc = float(np.exp(xi))
    ktil = np.arange(-(n // 2), n // 2 + 1)
    ph0 = np.mod(_LD(np.pi) * (_LD(1.0) - _LD(sc)) * ktil.astype(_LD),
                 _LD(_TWO_PI)).astype(np.float64)
    b = c_ext * np.exp(1j * ph0)
    phi = _TWO_PI * sc / n
    X = _scaled_dft(b, phi, n)
    phj = np.mod(_LD(phi) * _LD(n // 2) * np.arange(n, dtype=_LD),
                 _LD(_TWO_PI)).astype(np.float64)
    v = np.exp(0.5 * xi) * (X * np.exp(-1j * phj)).real / n
    v[..., np.abs(sc * x) >= L] = 0.0
    return v


def _resampling_matrix(xi: float, n: int, L: float) -> np.ndarray:
    """Real matrix R with (R @ u)_j = e^{xi/2} * (trig interpolant of u)(e^xi x_j).

    The interpolant with the Nyquist term split is the Dirichlet kernel, so
    R_jl = (e^{xi/2}/n) sin(n theta/2) / tan(theta/2) with
    theta = pi (e^xi x_j - x_l) / L, and e^{xi/2} where theta = 0. For even
    n the kernel is 2 pi periodic, so theta needs no reduction. Rows of
    points that leave the box are zero, as in _resample_axis.
    """
    h = 2.0 * L / n
    x = -L + h * np.arange(n)
    sc = float(np.exp(xi))
    theta = (np.pi / L) * (sc * x[:, None] - x[None, :])
    kernel = np.full((n, n), float(n))
    np.divide(np.sin((0.5 * n) * theta), np.tan(0.5 * theta), out=kernel,
              where=theta != 0.0)
    kernel *= np.exp(0.5 * xi) / n
    kernel[np.abs(sc * x) >= L] = 0.0
    return kernel


def _dilate_values(values: np.ndarray, grid: GridSpec, xi: float) -> np.ndarray:
    """(xi * u) samples, no guards.

    1D uses the Bluestein scaled DFT, O(n log n) per call. From 2D on, one
    resampling matrix serves every axis: each pass contracts the leading
    axis with it and appends the result as the trailing axis, so after N
    passes the axes are back in order (R @ u @ R.T in 2D).
    """
    if xi == 0.0:
        return values.copy()
    n, L = grid.points_per_axis, grid.half_length
    if grid.dim == 1:
        return _resample_axis(values, xi, n, L)
    kernel = _resampling_matrix(xi, n, L)
    v = values
    for _ in range(grid.dim):
        v = np.tensordot(v, kernel, axes=(0, 1))
    return v


def dilate(field: Field, xi: float, xi_max: float = XI_MAX_DEFAULT,
           decay_guard: float | None = DECAY_GUARD_DEFAULT) -> Field:
    """Mass-preserving dilation (xi * u)(x) = e^{N xi/2} u(e^xi x).

    decay_guard is the admissible boundary mass fraction; pass None to skip
    the check (only sensible for callers that police decay themselves).
    """
    if abs(xi) > xi_max:
        raise ValueError("dilation parameter |xi| = %g exceeds the limit %g" % (abs(xi), xi_max))
    if decay_guard is not None:
        frac = boundary_mass_fraction(field)
        if frac >= decay_guard:
            raise DecayGuardError(frac)
    return Field(field.grid, _dilate_values(field.values, field.grid, xi))


# ----------------------------------------------------------------------
# serialization

_HEADER = struct.Struct("<qqdd")  # dim, n, L, s


def save_field(field: Field, path, s: float = 0.0) -> None:
    """Flat binary container: header (dim, n, L, s), then row-major
    little-endian float64 samples."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(field.grid.dim, field.grid.points_per_axis,
                              field.grid.half_length, float(s)))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path) -> tuple:
    """Inverse of save_field; returns (field, s)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated field container header")
        dim, n, L, s = _HEADER.unpack(head)
        grid = make_grid(int(dim), int(n), float(L))
        payload = fh.read(8 * grid.num_points)
        if len(payload) != 8 * grid.num_points:
            raise ValueError("truncated field container payload")
        values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    return Field(grid, values), float(s)


def field_to_csv(field: Field, path) -> None:
    """Coordinates plus value, row-major, for plotting."""
    mesh = field.grid.meshgrid()
    cols = [c.reshape(-1) for c in mesh] + [field.values.reshape(-1)]
    header = ["x%d" % (i + 1) for i in range(field.grid.dim)] + ["value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow(["%.17g" % v for v in row])


def _check_s(s: float):
    if not (0.0 < s < 1.0):
        raise ValueError("fractional order s must lie in (0, 1), got %r" % (s,))
