"""Derived exponents and admissibility of the model parameters."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from fracnlse import ModelParams


def test_exponents_closed_forms_1d(params_1d):
    assert params_1d.two_star == pytest.approx(10.0, rel=1e-14)
    assert params_1d.zeta_p == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert params_1d.level_decay_exponent == pytest.approx(
        (4.0 * 0.4) / (6.0 - 2.0 - 4.0 * 0.4), rel=1e-14)


def test_exponents_closed_forms_2d(params_2d):
    assert params_2d.two_star == pytest.approx(4.0, rel=1e-14)
    assert params_2d.zeta_p == pytest.approx(6.0 / 7.0, rel=1e-14)
    assert params_2d.level_decay_exponent == pytest.approx(2.0, rel=1e-14)


def test_zeta_interpolation_range():
    # The supercritical-but-subcritical window maps to zeta in (2/p, 1).
    for dim, s, p in [(1, 0.4, 6.0), (2, 0.5, 3.5), (3, 0.8, 3.5)]:
        params = ModelParams(dim=dim, s=s, p=p, eta=1.0, m=1.0)
        assert 2.0 / p < params.zeta_p < 1.0
        assert 2.0 < p * params.zeta_p < params.two_star


def test_params_carry_the_exponents_of_exponents_for(params_1d):
    # The exponents are the closed forms in (N, s, p), bit for bit, and
    # replace() runs __post_init__ again, so a changed p or s re-derives them.
    for params in (params_1d, replace(params_1d, p=5.0), replace(params_1d, s=0.45)):
        n, s, p = float(params.dim), params.s, params.p
        assert params.two_star == 2.0 * n / (n - 2.0 * s)
        assert params.zeta_p == (n * p - 2.0 * n) / (2.0 * p * s)
        assert params.level_decay_exponent == 4.0 * s / (n * p - 2.0 * n - 4.0 * s)
    # They are read-only and neither inputs nor part of ==, hash or repr.
    inputs = ["dim", "s", "p", "eta", "m"]
    assert [f.name for f in fields(ModelParams) if f.init] == inputs
    assert [f.name for f in fields(ModelParams) if f.compare] == inputs
    with pytest.raises(TypeError):
        ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0, two_star=10.0)
    with pytest.raises(FrozenInstanceError):
        params_1d.zeta_p = 0.5
    twin = ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=1.0)
    object.__setattr__(twin, "two_star", 0.0)
    assert twin == params_1d and hash(twin) == hash(params_1d)
    assert "two_star" not in repr(params_1d)


def test_params_validation_dim():
    # A float or bool dimension would pass a membership test in (1, 2, 3)
    # and later break the grid shape.
    for dim in (4, 1.0, True):
        with pytest.raises(ValueError, match="unsupported dimension"):
            ModelParams(dim=dim, s=0.4, p=6.0, eta=1.0, m=1.0)


def test_params_validation_s_range():
    with pytest.raises(ValueError):
        ModelParams(dim=1, s=1.2, p=6.0, eta=1.0, m=1.0)
    with pytest.raises(ValueError):
        ModelParams(dim=1, s=0.0, p=6.0, eta=1.0, m=1.0)
    # A string once raised a TypeError from the comparison.
    with pytest.raises(ValueError, match="s must lie in \\(0, 1\\), got '0.4'"):
        ModelParams(dim=1, s="0.4", p=6.0, eta=1.0, m=1.0)
    # 2s < N is required for the critical exponent to exist.
    with pytest.raises(ValueError):
        ModelParams(dim=1, s=0.6, p=6.0, eta=1.0, m=1.0)


def test_params_validation_p_window():
    with pytest.raises(ValueError, match="p must exceed"):
        ModelParams(dim=1, s=0.4, p=2.1, eta=1.0, m=1.0)
    with pytest.raises(ValueError, match="p must stay below"):
        ModelParams(dim=1, s=0.4, p=10.5, eta=1.0, m=1.0)
    with pytest.raises(ValueError, match="p must stay below"):
        ModelParams(dim=2, s=0.5, p=4.0, eta=1.0, m=1.0)
    # One ulp above 2 + 4s/N, where zeta_p * p rounds to exactly 2.
    with pytest.raises(ValueError, match="p must exceed"):
        ModelParams(dim=3, s=0.89, p=3.186666666666667, eta=1.0, m=1.0)
    with pytest.raises(ValueError, match="p must be a finite real number, got '6'"):
        ModelParams(dim=1, s=0.4, p="6", eta=1.0, m=1.0)


def test_params_validation_eta_and_mass_positive():
    with pytest.raises(ValueError):
        ModelParams(dim=1, s=0.4, p=6.0, eta=0.0, m=1.0)
    with pytest.raises(ValueError):
        ModelParams(dim=1, s=0.4, p=6.0, eta=-1.0, m=1.0)
    with pytest.raises(ValueError):
        ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=0.0)
    with pytest.raises(ValueError, match="eta must be finite"):
        ModelParams(dim=1, s=0.4, p=6.0, eta=float("inf"), m=1.0)
    with pytest.raises(ValueError, match="m must be finite"):
        ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=float("inf"))
    # True once passed as a coupling or a mass of 1.
    with pytest.raises(ValueError, match="eta must be finite and positive, got True"):
        ModelParams(dim=1, s=0.4, p=6.0, eta=True, m=1.0)
    with pytest.raises(ValueError, match="m must be finite and positive, got True"):
        ModelParams(dim=1, s=0.4, p=6.0, eta=1.0, m=True)
    # An int past the float range compares below inf, and passed.
    with pytest.raises(ValueError, match="eta must be finite and positive"):
        ModelParams(dim=1, s=0.4, p=6.0, eta=10 ** 400, m=1.0)


def test_mass_critical_sits_inside_admissible_window():
    with pytest.raises(ValueError, match=r"p must exceed 2 \+ 4s/N = 3\.6 "):
        ModelParams(dim=1, s=0.4, p=3.6, eta=1.0, m=1.0)
    ModelParams(dim=1, s=0.4, p=3.6000001, eta=1.0, m=1.0)
