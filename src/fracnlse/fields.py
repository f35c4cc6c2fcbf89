"""Fields on periodic grids: sampling, norms, the fractional Laplacian,
mass-preserving dilation, and serialization.

The fractional Laplacian is the Fourier multiplier |k|^{2s}. All integrals
use the rectangle rule h^N * sum, which is spectrally accurate for smooth
periodic integrands and consistent with the DFT normalization, so the
Plancherel form of the Gagliardo seminorm

    A = [u]^2 = (h^N / n^N) * sum_k |k|^{2s} |u_hat(k)|^2

agrees with <(-Delta)^s u, u> to rounding.

Samples are real, so their spectrum is Hermitian and every operator path
keeps only its rfftn half: the last axis runs over k = 0 .. n/2. A sum over
the full spectrum of a Hermitian-even quantity is then the half sum with
weight 1 on the k = 0 and k = n/2 columns of the last axis and 2 on the
others, whose mirror images the half spectrum omits. The half transforms
cost a fraction of the complex ones on the same samples, the symbol is a
view of the full one and the weight a 1-D vector, so no second n-D array
is cached. Grids have an even n, so irfftn recovers all n samples of the
last axis without being told n. The public frac_laplacian applies the
half-spectrum symbol that the solver's gradient multiplies by, so the
dense oracle checks the operator the descent runs.

Dilation (xi * u)(x) = e^{N xi / 2} u(e^xi x) is realized by evaluating the
trigonometric interpolant of u at the scaled points, one axis at a time with
the same one-axis map. Points mapped outside the box are set to zero, which
is harmless exactly when the field decays (the guard below enforces that).
The map has two implementations, chosen by dimension:

- In 1D it is a DFT at a non-integer frequency spacing, done as a chirp
  transform (Bluestein) built from one table. The samples are real, so
  the sum runs over the rfft half spectrum, P = 0..n/2, and takes the real
  part. With Q the centred sample index, the phase phi P Q
  (phi = 2 pi e^xi / n) is phi/2 (P^2 + Q^2 - (P - Q)^2), so the
  pre-chirp, the post-chirp and the convolution kernel are all gathers
  from w(m) = exp(i pi e^xi m^2 / n), m = 0..n, and the convolution over
  the offsets Q - P in [-n, n/2 - 1] is circular of length 3n/2. The
  phase is reduced modulo 2 pi in float64 without rounding error: m^2 mod
  2n in integers, and for e^xi - 1 = e_hi + e_lo with e_hi short enough
  that e_hi m^2 is exact, fmod(e_hi m^2, 2n) is exact too; only the small
  e_lo m^2 is rounded. Without the reduction the phase loses digits once
  n^2 |xi| outgrows the 53-bit mantissa. The arrays that depend on n alone
  are built once per n. It costs O(n log n), so it beats an explicit
  matrix on a single axis, and it is the reference the matrix is tested
  against.
- In 2D and 3D the map is the real n x n matrix of the interpolant, the
  Dirichlet kernel in closed form (no FFT), built once per call and applied
  along every axis with one BLAS product per axis. Splitting each sample's
  scaled position into a grid index and a remainder makes the kernel's
  sines and tangents functions of a row or of a wrapped index difference
  alone, so the build takes O(n) transcendental calls and O(n^2) arithmetic
  with no angle formed by cancellation (see _resampling_matrix). The
  set-up is shared by all n^{N-1} lines of every axis, where the chirp
  transform pays padded complex FFTs on every line of every axis.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import cache
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import GridSpec, _read_only, make_grid
from .params import ModelParams

XI_MAX = 3.0
DECAY_GUARD_DEFAULT = 1e-8


class DecayGuardError(ValueError):
    """Raised when a field carries too much mass near the box boundary.

    Carries the measured fraction of mass outside |x|_inf > L/2 and the
    bound it reached, so callers can report how badly decay failed.
    """

    def __init__(self, fraction: float, bound: float):
        self.fraction = float(fraction)
        self.bound = float(bound)
        super().__init__(
            "field mass fraction %.3e outside |x|_inf > L/2 exceeds the decay guard %.0e"
            % (self.fraction, self.bound)
        )


class Field:
    """Real samples of a candidate state on a periodic grid.

    Immutable after construction. Construct instances directly or with
    sample.
    """

    __slots__ = ("grid", "values")

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

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")


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
                        deterministic given seed; a finite w > 0 applies
                        the envelope exp(-|x|^2 / (2 w^2))
    """
    fp = dict(family_params or {})
    r2 = grid.radius() ** 2
    if family == "gaussian":
        w = _checked(fp.pop("width", 1.0), lambda w: 0.0 < w < math.inf,
                     "gaussian width must be finite and positive, got %r")
        _reject_extras(family, fp)
        return Field(grid, np.exp(-r2 / (2.0 * w * w)))
    if family == "bubble":
        eps = _checked(fp.pop("epsilon", 1.0), lambda e: 0.0 < e < math.inf,
                       "bubble scale must be finite and positive, got %r")
        s = _checked(fp.pop("s"), lambda s: 0.0 < s < 1.0 and 2.0 * s < grid.dim,
                     "bubble exponent needs 0 < s < 1 and 2s < N, got s=%r")
        _reject_extras(family, fp)
        power = -(grid.dim - 2.0 * s) / 2.0
        return Field(grid, (eps * eps + r2) ** power)
    if family == "random_bandlimited":
        cutoff = _checked(fp.pop("cutoff", 0.25), lambda c: 0.0 < c <= 1.0,
                          "cutoff fraction must lie in (0, 1], got %r")
        env = fp.pop("envelope_width", None)
        if env is not None:
            env = _checked(env, lambda w: 0.0 < w < math.inf,
                           "envelope width must be None or finite and positive, got %r")
        _reject_extras(family, fp)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(grid.shape)
        kmax = np.pi * grid.points_per_axis / (2.0 * grid.half_length)
        # |k| on the half spectrum: symbol(0.5) is |k|^2 ** 0.5, bit for bit
        # np.sqrt, and an even mask keeps the filtered spectrum Hermitian.
        keep = grid.half_symbol(0.5) <= cutoff * kmax
        vals = np.fft.irfftn(np.fft.rfftn(noise) * keep)
        if env is not None:
            vals = vals * np.exp(-r2 / (2.0 * env ** 2))
        peak = np.max(np.abs(vals))
        if peak > 0:
            vals = vals / peak
        return Field(grid, vals)
    raise ValueError("unknown sample family %r" % (family,))


def _checked(value, ok, message: str) -> float:
    """float(value) if ok accepts it, else, or for a bool, ValueError(message % value)."""
    if isinstance(value, bool) or not ok(float(value)):
        raise ValueError(message % (value,))
    return float(value)


def _reject_extras(family: str, leftover: dict):
    if leftover:
        raise ValueError("unknown %s parameters: %s" % (family, sorted(leftover)))


# ----------------------------------------------------------------------
# operator and norms


def frac_laplacian(field: Field, s: float) -> Field:
    """Apply (-Delta)^s as the Fourier multiplier |k|^{2s} on the half spectrum."""
    _check_s(s)
    grid = field.grid
    return Field(grid, np.fft.irfftn(grid.half_symbol(s) * np.fft.rfftn(field.values)))


def _plancherel(grid: GridSpec, a: np.ndarray, b: np.ndarray,
                weight: np.ndarray | None = None) -> float:
    """h^N <F^-1[weight a], F^-1[b]> from half spectra a and b with a
    real, even weight: (h^N / n^N) * sum over the full spectrum of
    weight * Re(a conj(b)), taken on the half spectrum with the Hermitian
    column weights (1, 2, ..., 2, 1) on the last axis."""
    x = a.real * b.real
    x += a.imag * b.imag
    if weight is not None:
        x *= weight
    return float(grid.cell_volume / grid.num_points * (x @ _hermitian_columns(x.shape[-1])).sum())


@cache
def _hermitian_columns(size: int) -> np.ndarray:
    """The weights (1, 2, ..., 2, 1) of a half spectrum's last axis."""
    columns = np.full(size, 2.0)
    columns[0] = columns[-1] = 1.0
    return _read_only(columns)


def dense_oracle_frac_laplacian(field: Field, s: float) -> Field:
    """Reference operator built from the explicit dense DFT matrix.

    Semantically identical to frac_laplacian; kept independent of the
    half-spectrum path (matrix conjugation of the diagonal multiplier) so
    the two can cross-check each other. Guarded to small grids.
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
    return _seminorm_sq_values(field.values, field.grid, s)


def _seminorm_sq_values(values: np.ndarray, grid: GridSpec, s: float,
                        spectrum: np.ndarray | None = None) -> float:
    """A by Plancherel from the half spectrum (rfftn of values unless
    given)."""
    if spectrum is None:
        spectrum = np.fft.rfftn(values)
    return _plancherel(grid, spectrum, spectrum, grid.half_symbol(s))


def lp_norm_pow(field: Field, q: float) -> float:
    if q < 1.0:
        raise ValueError("norm exponent must satisfy q >= 1, got %r" % (q,))
    return _lp_values(field.values, field.grid, q)


def _lp_values(values: np.ndarray, grid: GridSpec, q: float) -> float:
    return float(grid.cell_volume * _abs_power(values, q).sum())


def _renorm(values: np.ndarray, grid: GridSpec, m: float) -> np.ndarray:
    norm = math.sqrt(_lp_values(values, grid, 2.0))
    if norm == 0.0:
        raise ValueError("cannot renormalize the zero field")
    return (m / norm) * values


def _quadratic_price(A: float, M: float, A_ud: float, A_dd: float,
                     M_ud: float, M_dd: float):
    """price(al) = (A, M) of u - al d by the quadratic laws of both descents,
    A - 2 al <u, d>_s + al^2 A(d) and M - 2 al <u, d> + al^2 M(d)."""
    return lambda al: (A - al * (2.0 * A_ud - al * A_dd), M - al * (2.0 * M_ud - al * M_dd))


def _abs_power(values: np.ndarray, q: float) -> np.ndarray:
    """|u|^q. An integer q >= 2 takes a multiply chain on u*u (binary
    powering, times |u| when q is odd), and a half-integer q = k + 1/2
    multiplies sqrt|u| by u k times in place (then takes |.| for odd k), so
    it makes one temporary of the field's size where sqrt|u| times a chain
    would make two, each of them fresh pages. Both agree with the pow
    ufunc to a few ulps at a fraction of its cost. At the paper's
    parameters they serve 2*_s = 4 in 2D, p = 6 in 1D, p = 3.5 in 2D and
    the gradient's |u|^{p-2}, which is |u|^{1.5} in 2D.

    Any other q takes the pow ufunc, and so does a q that misses an
    integer by rounding: in 1D at s = 0.4, 2*_s = 2N/(N - 2s) evaluates
    to 10.000000000000002, so the 1D B_star and the gradient's
    |u|^{2*_s - 2} u run through pow (6.6 us against 5.2 and 3.8 us for
    the q = 10 and q = 8 chains at n = 1024, one 2-vCPU measurement)."""
    k = int(q)
    if q - k == 0.5:
        out = np.abs(values)
        np.sqrt(out, out=out)
        for _ in range(k):
            out *= values
        return np.abs(out, out=out) if k & 1 else out
    if k != q or k < 2:
        return np.abs(values) ** q
    square = values * values
    out = None
    half = k // 2
    while True:
        if half & 1:
            out = square if out is None else out * square
        half >>= 1
        if not half:
            break
        square = square * square
    return out * np.abs(values) if k & 1 else out


def summarize(field: Field, params: ModelParams) -> FieldSummary:
    if params.dim != field.grid.dim:
        raise ValueError("params dimension %d does not match grid dimension %d"
                         % (params.dim, field.grid.dim))
    return _summary_values(field.values, field.grid, params)


def _summary_values(values: np.ndarray, grid: GridSpec, params: ModelParams,
                    spectrum: np.ndarray | None = None) -> FieldSummary:
    """(A, M, B_p, B_star) of real samples; spectrum is their rfftn half
    spectrum, computed here unless given."""
    return FieldSummary(
        A=_seminorm_sq_values(values, grid, params.s, spectrum),
        M=_lp_values(values, grid, 2.0),
        B_p=_lp_values(values, grid, params.p),
        B_star=_lp_values(values, grid, params.two_star),
    )


def boundary_mass_fraction(field: Field) -> float:
    """Fraction of the L2 mass outside |x|_inf > L/2."""
    values = field.values
    total = float(np.sum(values * values))
    if total == 0.0:
        return 0.0
    tail = float(np.sum(values[field.grid.boundary_tail_mask()] ** 2))
    return tail / total


# ----------------------------------------------------------------------
# dilation


def _leaves_box(xi: float, n: int, L: float) -> np.ndarray:
    """The edge rule of both dilation kernels: the samples x_j = -L + h j
    whose dilated point e^xi x_j lies outside the box, |e^xi x_j| >= L;
    the dilated field is zero there."""
    x = -L + (2.0 * L / n) * np.arange(n)
    return np.abs(float(np.exp(xi)) * x) >= L


@cache
def _chirp_tables(n: int) -> tuple:
    """The arrays of _resample_axis that depend on n alone, read-only: m^2
    and m^2 mod 2n for m = 0..n (float64, exact), the table indices |Q| of
    the post-chirp and |Q - P| of the kernel at each position of the
    convolution, and the weights gamma_P (-1)^P, P = 0..n/2."""
    half = n // 2
    m = np.arange(n + 1)
    sq = m * m
    pos = np.arange(3 * half)
    offset = np.where(pos < n, pos, pos - 3 * half) - half
    weight = _hermitian_columns(half + 1).copy()
    weight[1::2] *= -1.0
    return tuple(_read_only(a) for a in (sq.astype(float), (sq % (2 * n)).astype(float),
                                          np.abs(m[:n] - half), np.abs(offset), weight))


def _resample_axis(u: np.ndarray, xi: float, n: int, L: float) -> np.ndarray:
    """Evaluate e^{xi/2} * (trig interpolant of u)(e^xi x_j) along the last
    axis, zeroing points that leave the box; leading axes are a batch.

    With r = rfft(u) over P = 0..n/2 and Q = j - n/2 the sample, x_j = h Q
    and, u being real, the interpolant at e^xi x_j is
    (1/n) Re sum_P gamma_P (-1)^P r_P exp(i phi P Q), phi = 2 pi e^xi / n,
    with gamma_0 = gamma_{n/2} = 1 and gamma_P = 2 otherwise: the sum over
    the full, Nyquist-split spectrum folded onto its half. (-1)^P shifts
    the box to [-L, L). The chirps are gathers from the table w of the
    module docstring: the pre-chirp gamma_P (-1)^P w(P), the post-chirp
    w(|Q|) and the kernel conj(w(|Q - P|)), Q - P in [-n, n/2 - 1], which a
    circular convolution of length 3n/2 holds without wrap-around. For
    n^2 < 2^b, e_hi keeps 53 - b bits of expm1(xi), so e_hi m^2 is exact,
    and |e_lo m^2| < |e^xi - 1| 2^{2b - 53} is rounded far below the
    rounding of the sum.
    """
    sq, sq_mod, post, offset, weight = _chirp_tables(n)
    half = n // 2
    e = math.expm1(xi)
    frac, expo = math.frexp(e)
    bits = 53 - (n * n).bit_length()
    e_hi = math.ldexp(round(math.ldexp(frac, bits)), expo - bits)
    t = sq_mod + np.fmod(e_hi * sq, 2 * n) + (e - e_hi) * sq
    w = np.exp((1j * np.pi / n) * np.fmod(t, 2 * n))
    pre = np.fft.rfft(u, axis=-1) * (weight * w[:half + 1])
    kernel = np.fft.fft(w[offset].conj())
    y = np.fft.ifft(np.fft.fft(pre, 3 * half, axis=-1) * kernel, axis=-1)[..., :n]
    v = (np.exp(0.5 * xi) / n) * (y * w[post]).real
    v[..., _leaves_box(xi, n, L)] = 0.0
    return v


def _resampling_matrix(xi: float, n: int, L: float) -> np.ndarray:
    """Real matrix R with (R @ u)_j = e^{xi/2} * (trig interpolant of u)(e^xi x_j).

    The interpolant with the Nyquist term split is the Dirichlet kernel, so
    R_jl = (e^{xi/2}/n) sin(n theta/2) / tan(theta/2) with
    theta = pi (e^xi x_j - x_l) / L, and e^{xi/2} where theta = 0. Rows of
    points that leave the box (_leaves_box) are zero.

    With x_j = h (j - n/2) the half angle is theta/2 = (pi/n) (y_j + j - l),
    y_j = expm1(xi) (j - n/2). Splitting y_j = s_j + r_j into its nearest
    integer and a remainder |r_j| <= 1/2 (exact in floating point) gives
    theta/2 = a_j + b_K with a_j = pi r_j / n and b_K = pi K / n, where the
    integer K = j + s_j - l is wrapped into [-n/2, n/2) (tan has period pi
    and n is even, so neither factor changes). Then
    sin(n theta/2) = (-1)^K sin(pi r_j) takes n sines, and
    1/tan(a_j + b_K) = (1 - t_j t_K) / (t_j + t_K) takes n tangents t_j of a_j
    and n tangents t_K of b_K. No angle is formed by cancellation: the
    kernel peak K = 0 reduces to sin(pi r_j) / tan(pi r_j / n) exactly, and
    elsewhere |t_K| >= tan(pi/n) > 2 |t_j|. Row j reads t_K at K = c_j - l
    with c_j = (j + s_j) mod n, a window of one table, and the sign
    (-1)^K = (-1)^{c_j} (-1)^l splits into a row and a column factor.
    """
    j = np.arange(n)
    y = np.expm1(xi) * (j - n // 2)
    s = np.rint(y)
    r = y - s
    c = (j + s.astype(np.int64)) % n
    # table[i] = t_K at K = n - 1 - i wrapped, so row j is table[n-1-c_j:][:n]
    K = (np.arange(n - 1, -n, -1) + n // 2) % n - n // 2
    table = np.tan((np.pi / n) * K)
    sign = np.where(j % 2, -1.0, 1.0)
    t = np.tan((np.pi / n) * r)[:, None]
    row = (np.exp(0.5 * xi) / n) * np.sin(np.pi * r) * sign[c]
    kernel = sliding_window_view(table, n)[n - 1 - c]
    den = kernel + t
    kernel *= -t
    kernel += 1.0
    # A row with r_j = 0 samples a grid point: its entries are 0 except at
    # K = 0, which is 0 * (1/0) here and is set below.
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel /= den
        kernel *= row[:, None]
    kernel *= sign
    exact = r == 0.0
    kernel[exact, c[exact]] = np.exp(0.5 * xi)
    kernel[_leaves_box(xi, n, L)] = 0.0
    return kernel


def _dilate_values(values: np.ndarray, grid: GridSpec, xi: float) -> np.ndarray:
    """(xi * u) samples, no guards.

    1D uses the one-table chirp transform, O(n log n) per call. From 2D on, one
    resampling matrix serves every axis: each pass contracts the leading
    axis with it and appends the result as the trailing axis, so after N
    passes the axes are back in order (R @ u @ R.T in 2D). A pass is one
    matrix product of transposed views, which BLAS takes without copies.
    """
    if xi == 0.0:
        return values.copy()
    n, L = grid.points_per_axis, grid.half_length
    if grid.dim == 1:
        return _resample_axis(values, xi, n, L)
    kernel = _resampling_matrix(xi, n, L)
    v = values
    for _ in range(grid.dim):
        v = v.reshape(n, -1).T @ kernel.T
    return v.reshape(grid.shape)


def dilate(field: Field, xi: float,
           decay_guard: float | None = DECAY_GUARD_DEFAULT) -> Field:
    """Mass-preserving dilation (xi * u)(x) = e^{N xi/2} u(e^xi x), for
    |xi| <= XI_MAX.

    decay_guard is the admissible boundary mass fraction, a real number in
    (0, 1]; pass None to skip the check (only sensible for callers that
    police decay themselves). Anything else, a bool included, raises
    ValueError.
    """
    if abs(xi) > XI_MAX:
        raise ValueError("dilation parameter |xi| = %g exceeds the limit %g" % (abs(xi), XI_MAX))
    if decay_guard is not None:
        if (isinstance(decay_guard, bool) or not isinstance(decay_guard, Real)
                or not 0.0 < decay_guard <= 1.0):
            raise ValueError("decay_guard must be a boundary mass fraction in (0, 1], "
                             "or None to skip the guard; got %r" % (decay_guard,))
        _guard_decay(field, decay_guard)
    return Field(field.grid, _dilate_values(field.values, field.grid, xi))


def _guard_decay(field: Field, bound: float = DECAY_GUARD_DEFAULT) -> None:
    """Raise DecayGuardError if the boundary mass fraction reaches bound."""
    frac = boundary_mass_fraction(field)
    if frac >= bound:
        raise DecayGuardError(frac, bound)


# ----------------------------------------------------------------------
# serialization

_HEADER = struct.Struct("<qqdd")  # dim, n, L, s


def save_field(field: Field, path, s: float) -> None:
    """Flat binary container: header (dim, n, L, s), then row-major
    little-endian float64 samples."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(field.grid.dim, field.grid.points_per_axis,
                              field.grid.half_length, float(s)))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path) -> tuple:
    """Inverse of save_field; returns (field, s). The file must hold the
    header and exactly the payload the header implies."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError("truncated field container header")
        dim, n, L, s = _HEADER.unpack(head)
        grid = make_grid(int(dim), int(n), float(L))
        size = 8 * grid.num_points
        left = os.fstat(fh.fileno()).st_size - _HEADER.size
        if left != size:
            raise ValueError("field container payload is %d bytes, its header implies %d"
                             " (truncated or trailing data)" % (left, size))
        values = np.frombuffer(fh.read(size), dtype="<f8").reshape(grid.shape)
    return Field(grid, values), float(s)


def _check_s(s: float):
    if not (0.0 < s < 1.0):
        raise ValueError("fractional order s must lie in (0, 1), got %r" % (s,))
