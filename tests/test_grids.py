"""Grid construction, derived quantities, and validation."""

import numpy as np
import pytest

from fracnlse import make_grid


def test_spacing_and_volumes():
    g = make_grid(2, 128, 20.0)
    assert g.spacing == pytest.approx(40.0 / 128, rel=0, abs=0)
    assert g.shape == (128, 128)
    assert g.num_points == 128 * 128
    assert g.cell_volume == pytest.approx(g.spacing ** 2, rel=1e-15)


def test_axis_coordinates_cover_half_open_box():
    g = make_grid(1, 16, 4.0)
    x = g.axis_coordinates()
    assert x.shape == (16,)
    assert x[0] == pytest.approx(-4.0)
    assert x[-1] == pytest.approx(4.0 - g.spacing)
    assert np.allclose(np.diff(x), g.spacing)


def test_meshgrid_and_radius():
    # The mesh is open: one coordinate array per axis, shaped to broadcast.
    g = make_grid(2, 16, 2.0)
    X, Y = g.meshgrid()
    x = g.axis_coordinates()
    assert X.shape == (16, 1) and Y.shape == (1, 16)
    assert np.array_equal(X[:, 0], x) and np.array_equal(Y[0], x)
    r = g.radius()
    assert r.shape == (16, 16)
    assert np.array_equal(r, np.sqrt(x[:, None] ** 2 + x[None, :] ** 2))
    assert r[0, 0] == pytest.approx(np.hypot(2.0, 2.0))
    origin = np.unravel_index(np.argmin(r), r.shape)
    assert r[origin] == 0.0


def test_frequencies_are_integer_multiples_of_pi_over_L():
    g = make_grid(1, 8, 2.0)
    k = g.frequencies
    base = np.pi / g.half_length
    assert np.allclose(k / base, [0, 1, 2, 3, -4, -3, -2, -1])


def test_symbol_matches_wavenumber_power():
    # The symbol lives on the rfftn half spectrum: the last axis keeps the
    # first n/2 + 1 frequencies, and its values are those of the full power
    # there, bit for bit. The last column is -n/2 in DFT order and +n/2 for
    # rfftn; on the last axis alone both give (pi n / (2 L))^{2s}.
    s = 0.4
    for dim, n in ((1, 32), (2, 16), (3, 8)):
        g = make_grid(dim, n, 5.0)
        sym = g.symbol(s)
        assert sym.shape == (n,) * (dim - 1) + (n // 2 + 1,)
        assert sym.shape == np.fft.rfftn(np.zeros(g.shape)).shape
        assert sym.flags.c_contiguous
        assert np.array_equal(sym, (g.wavenumber_sq() ** s)[..., : n // 2 + 1])
        assert sym.flat[0] == 0.0
        nyquist = (np.pi * n / (2.0 * g.half_length)) ** 2
        assert sym[(0,) * (dim - 1) + (-1,)] == pytest.approx(nyquist ** s, rel=1e-15)


def test_equal_grids_share_one_cached_symbol():
    a, b = make_grid(2, 16, 5.0), make_grid(2, 16, 5.0)
    assert a is not b and a == b
    assert b.symbol(0.4) is a.symbol(0.4)


def test_cached_grid_arrays_are_read_only():
    # Equal grids share the cached arrays, so a write through one grid
    # would change every operator on the others. Index 32 is x = 0 and the
    # Nyquist frequency, where -1 differs from every cached value.
    def cached(g):
        return (g.symbol(0.4), g.axis_coordinates(), g.boundary_tail_mask())

    a = make_grid(1, 64, 10.0)
    before = [c.copy() for c in cached(a)]
    for c in cached(a):
        with pytest.raises(ValueError, match="read-only"):
            c[32] = -1
    for c, want in zip(cached(make_grid(1, 64, 10.0)), before):
        assert np.array_equal(c, want)


def test_boundary_tail_mask_outer_shell():
    g = make_grid(1, 16, 8.0)
    mask = g.boundary_tail_mask()
    x = g.axis_coordinates()
    assert np.array_equal(mask, np.abs(x) > 4.0)


def test_make_grid_rejects_bad_dimension():
    with pytest.raises(ValueError, match="unsupported dimension"):
        make_grid(4, 64, 10.0)
    with pytest.raises(ValueError, match="unsupported dimension"):
        make_grid(0, 64, 10.0)
    # A float or bool passes a membership test in (1, 2, 3), and the grid's
    # shape then fails far from here.
    for dim in (1.0, True):
        with pytest.raises(ValueError, match="unsupported dimension"):
            make_grid(dim, 64, 10.0)


def test_make_grid_rejects_odd_or_tiny_sizes():
    with pytest.raises(ValueError, match="even"):
        make_grid(1, 65, 10.0)
    with pytest.raises(ValueError, match="too small"):
        make_grid(1, 4, 10.0)
    # These were once all called an odd grid size.
    for n, shown in (("128", "'128'"), (128.5, "128.5"), (True, "True")):
        with pytest.raises(ValueError,
                           match="points per axis must be an integer, got %s$" % shown):
            make_grid(1, n, 10.0)


def test_make_grid_rejects_bad_half_length():
    with pytest.raises(ValueError, match="half length"):
        make_grid(1, 64, 0.0)
    with pytest.raises(ValueError, match="half length"):
        make_grid(1, 64, -3.0)
    # True and "10" once built boxes of half length 1 and 10.
    for L in (float("nan"), float("inf"), True, "10", None):
        with pytest.raises(ValueError, match="half length must be finite"):
            make_grid(1, 64, L)
