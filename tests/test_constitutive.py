"""Constitutive-law unit tests.

Expected values are hand arithmetic or recomputed through an independent
route (math.exp/math.log instead of np.power, central differences instead
of the closed-form derivative of phi).
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dvns1d import (
    Params,
    dphi,
    kernels,
    phi,
    pressure,
    relative_pressure,
    validate_params,
    viscosity,
)
from dvns1d.errors import ConfigurationError, DomainError


# ---------------------------------------------------------------- viscosity

def test_viscosity_examples():
    assert viscosity(1.0, Params(alpha=0.75, gamma=2.0)) == 1.0
    assert viscosity(4.0, Params(alpha=1.0, gamma=2.0)) == 4.0
    # floor 1/n dominates: max(0.01, 0.001)
    assert viscosity(0.001, Params(alpha=1.0, gamma=2.0, reg_n=100)) == pytest.approx(0.01, abs=1e-16)


def test_viscosity_vectorized_and_mu0():
    p = Params(alpha=1.0, gamma=2.0, mu0=3.0)
    rho = np.array([0.0, 1.0, 2.5])
    assert np.allclose(viscosity(rho, p), [0.0, 3.0, 7.5], atol=1e-14)


def test_viscosity_negative_density_raises():
    with pytest.raises(DomainError):
        viscosity(-1e-12, Params(alpha=1.0, gamma=2.0))


def test_viscosity_floor_inactive_is_identity():
    # above the floor the regularized law must agree exactly
    base = Params(alpha=0.75, gamma=2.0)
    reg = Params(alpha=0.75, gamma=2.0, reg_n=10)
    rho = np.linspace(0.3, 5.0, 97)  # 0.3^0.75 = 0.41 > 1/10
    assert np.array_equal(viscosity(rho, base), viscosity(rho, reg))


@given(rho=st.floats(min_value=0.0, max_value=1e6), alpha=st.sampled_from([0.6, 0.75, 1.0]))
def test_viscosity_sublinear_growth(rho, alpha):
    # mu0=1, alpha <= 1: rho^alpha <= 1 + rho
    mu = float(viscosity(rho, Params(alpha=alpha, gamma=2.0)))
    assert mu <= 1.0 + rho + 1e-9 * (1.0 + rho)


# ----------------------------------------------------------------- pressure

def test_pressure_examples():
    assert pressure(2.0, Params(alpha=1.0, gamma=2.0)) == 4.0
    for g in (1.2, 1.6, 2.0, 3.0):
        assert pressure(1.0, Params(alpha=1.0, gamma=g)) == 1.0
    # independent exp/log evaluation of 3^1.6
    want = math.exp(1.6 * math.log(3.0))
    got = float(pressure(3.0, Params(alpha=1.0, gamma=1.6)))
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(5.7995, abs=5e-4)


def test_pressure_coefficient_scales():
    p1 = Params(alpha=1.0, gamma=2.0, a=1.0)
    p2 = Params(alpha=1.0, gamma=2.0, a=2.5)
    assert pressure(3.0, p2) == 2.5 * pressure(3.0, p1)


# ------------------------------------------------------------- one formula

def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("exponent", [0.5, 0.75, 1.0, 2.0, 2.5])
@pytest.mark.parametrize("coef", [1.0, 0.3])
@pytest.mark.parametrize("reg_n", [None, 4])
def test_laws_are_the_kernels_bitwise(exponent, coef, reg_n):
    # viscosity, pressure and the relative pressure are checked forms of the
    # kernels' one expression of each law: the same bits, for an array and
    # for a scalar
    p = Params(alpha=exponent, gamma=exponent, a=coef, mu0=coef, reg_n=reg_n)
    rho = np.concatenate(([0.0, 1.0], np.random.default_rng(7).uniform(0.0, 5.0, 62)))
    for law, kernel in ((viscosity, lambda r: kernels.viscosity(r, p.alpha, p.mu0, p.visc_floor)),
                        (pressure, lambda r: kernels.pressure(r, p.gamma, p.a)),
                        (lambda r, p: relative_pressure(r, 1.3, p),
                         lambda r: kernels.relative_pressure(r, 1.3, p.gamma, p.a))):
        want = kernel(rho.copy())
        assert np.array_equal(_bits(law(rho, p)), _bits(want))
        for k, r in enumerate(rho[:8].tolist()):
            assert _bits(law(r, p)) == _bits(want[k])


# ---------------------------------------------------------------- potential

def test_phi_examples():
    p1 = Params(alpha=1.0, gamma=2.0)
    assert phi(math.e, p1) == pytest.approx(1.0, abs=1e-15)
    assert phi(1.0, p1) == 0.0
    # 16^{-0.25}/(-0.25) = -2
    assert phi(16.0, Params(alpha=0.75, gamma=2.0)) == pytest.approx(-2.0, abs=1e-14)


def test_phi_dphi_vacuum_raises():
    for f in (phi, dphi):
        with pytest.raises(DomainError):
            f(0.0, Params(alpha=1.0, gamma=2.0))
        with pytest.raises(DomainError):
            f(np.array([1.0, -0.5]), Params(alpha=0.75, gamma=2.0))


def test_dphi_examples():
    assert dphi(2.0, Params(alpha=1.0, gamma=2.0)) == 0.5
    assert dphi(7.0, Params(alpha=2.0, gamma=3.0)) == 1.0
    assert dphi(16.0, Params(alpha=0.75, gamma=2.0)) == pytest.approx(1.0 / 32.0, abs=1e-16)


@pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
@pytest.mark.parametrize("rho", [1.0, 2.0, 16.0])
def test_dphi_matches_finite_difference(alpha, rho):
    # |dphi - central difference of phi| = O(h^2); the constant is
    # |phi'''|/6 <= 1 on this rho range
    p = Params(alpha=alpha, gamma=2.0)
    for h in (1e-3, 1e-4):
        fd = (phi(rho + h, p) - phi(rho - h, p)) / (2.0 * h)
        assert abs(float(dphi(rho, p)) - float(fd)) <= h * h + 1e-12


# --------------------------------------------------------- relative pressure

def test_relative_pressure_examples():
    p = Params(alpha=1.0, gamma=2.0)
    assert relative_pressure(1.0, 1.0, p) == 0.0
    assert relative_pressure(2.0, 1.0, p) == pytest.approx(1.0, abs=1e-15)
    # vacuum end: 0 - 1 + 2 = 1
    assert relative_pressure(0.0, 1.0, p) == pytest.approx(1.0, abs=1e-15)


def test_relative_pressure_scales_with_a():
    # the potential of P = a*rho^gamma: a times the a = 1 value
    pa = Params(alpha=1.0, gamma=2.0, a=7.0)
    assert relative_pressure(2.0, 1.0, pa) == pytest.approx(7.0, abs=1e-14)
    assert relative_pressure(0.0, 1.0, pa) == pytest.approx(7.0, abs=1e-14)


@given(
    rho=st.floats(min_value=0.0, max_value=50.0),
    rho_bar=st.floats(min_value=0.05, max_value=20.0),
    gamma=st.sampled_from([1.2, 1.5, 2.0, 3.0]),
)
def test_relative_pressure_convexity_gap(rho, rho_bar, gamma):
    val = float(relative_pressure(rho, rho_bar, Params(alpha=1.0, gamma=gamma)))
    assert val >= 0.0
    if abs(rho - rho_bar) > 1e-3 * rho_bar:
        assert val > 0.0


def test_relative_pressure_isothermal_limit():
    # at gamma = 1 the potential is the g -> 1 limit
    # a*(rho*log(rho/rho_bar) - rho + rho_bar), with rho*log(rho) -> 0 at vacuum
    rho = np.array([0.0, 0.3, 1.0, 2.5, 40.0])
    a, rho_bar = 2.0, 1.5
    want = a * np.array([rho_bar] + [r * math.log(r / rho_bar) - r + rho_bar for r in rho[1:]])
    got = relative_pressure(rho, rho_bar, Params(alpha=1.0, gamma=1.0, a=a))
    assert got == pytest.approx(want, rel=1e-14, abs=1e-15)
    for g in (1.0 - 1e-6, 1.0 + 1e-6):
        assert relative_pressure(rho, rho_bar, Params(alpha=1.0, gamma=g, a=a)) == pytest.approx(
            want, rel=1e-5, abs=1e-12)


def _relative_pressure_decimal(rho, rho_bar, gamma):
    # the defining three-power form (its g -> 1 limit at g = 1) in 80 digits
    with localcontext() as ctx:
        ctx.prec = 80
        r, b, g = Decimal(rho), Decimal(rho_bar), Decimal(gamma)
        if gamma == 1.0:
            return float(r * (r / b).ln() - r + b)
        return float((r ** g - b ** g - g * b ** (g - 1) * (r - b)) / (g - 1))


@pytest.mark.parametrize("gamma", [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6,
                                   1.4, 2.0, 3.0])
def test_relative_pressure_matches_decimal(gamma):
    # one expression for every gamma: nothing cancels near gamma = 1
    rho = np.linspace(0.05, 3.0, 500)
    rho = rho[rho != 1.0]
    want = np.array([_relative_pressure_decimal(r, 1.0, gamma) for r in rho.tolist()])
    got = relative_pressure(rho, 1.0, Params(alpha=1.0, gamma=gamma))
    assert np.max(np.abs(got - want) / want) <= 1e-11


def test_relative_pressure_near_rho_bar():
    # within 1e-4 of rho_bar the gap is second order in d = rho/rho_bar - 1,
    # and r*E - (r - 1) cancels to it: the relative error is at most 1e-9
    # for |d| >= 1e-6 and grows no faster than 1e-15/|d| closer in
    d = np.concatenate((-np.geomspace(1e-9, 1e-4, 60), np.geomspace(1e-9, 1e-4, 60)))
    rho = 1.0 + d
    want = np.array([_relative_pressure_decimal(r, 1.0, 2.0) for r in rho.tolist()])
    got = relative_pressure(rho, 1.0, Params(alpha=1.0, gamma=2.0))
    assert np.all(np.abs(got - want) / want <= 1e-15 / np.abs(d))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_relative_pressure_vacuum_limit(gamma):
    # at rho = 0 the gap is a*rho_bar^gamma on either side of gamma = 1
    a, rho_bar = 2.0, 1.5
    assert relative_pressure(0.0, rho_bar, Params(alpha=1.0, gamma=gamma, a=a)) == pytest.approx(
        a * rho_bar ** gamma, rel=1e-15)


# --------------------------------------------------------------- validation

def test_validate_inside_region():
    rep = validate_params(Params(alpha=1.0, gamma=2.0, eps=0.125))
    assert rep.inside_theorem
    assert rep.failed == ()
    assert "inside" in rep.describe()


def test_validate_alpha_boundary_excluded():
    rep = validate_params(Params(alpha=0.5, gamma=2.0, eps=0.125))
    assert not rep.inside_theorem
    assert any("alpha" in label for label in rep.failed)
    assert "OUTSIDE" in rep.describe()
    assert "[FAIL]" in rep.describe()


def test_validate_gamma_threshold():
    # 1.05 < 0.6 + 0.5 + 0.1
    rep = validate_params(Params(alpha=0.6, gamma=1.05, eps=0.1))
    assert not rep.inside_theorem
    assert any("gamma >= alpha" in label for label in rep.failed)


def test_validate_eps_flagged_not_rejected():
    rep = validate_params(Params(alpha=1.0, gamma=2.0, eps=0.3))
    assert not rep.inside_theorem
    assert any("eps" in label for label in rep.failed)


def test_beta_override():
    assert Params(alpha=1.0, gamma=2.0, beta=0.8).beta_eff == 0.8
    assert Params(alpha=1.0, gamma=2.0, eps=0.1).beta_eff == pytest.approx(0.6)


def test_visc_floor_property():
    assert Params(alpha=1.0, gamma=2.0).visc_floor == 0.0
    assert Params(alpha=1.0, gamma=2.0, reg_n=4).visc_floor == 0.25


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=1.0, gamma=0.0),
        dict(alpha=1.0, gamma=float("inf")),
        dict(alpha=1.0, gamma=float("nan")),
        dict(alpha=0.0, gamma=2.0),
        dict(alpha=-0.75, gamma=2.0),
        dict(alpha=1.0, gamma=2.0, a=0.0),
        dict(alpha=1.0, gamma=2.0, mu0=-1.0),
        dict(alpha=1.0, gamma=2.0, eps=0.0),
        dict(alpha=1.0, gamma=2.0, reg_n=0),
        dict(alpha=1.0, gamma=2.0, reg_n=2.5),
        dict(alpha=1.0, gamma=2.0, beta=-0.1),
        dict(alpha=1.0, gamma=2.0, reg_n=float("inf")),
        dict(alpha=1.0, gamma=2.0, reg_n=float("nan")),
    ],
)
def test_params_construction_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        Params(**kwargs)
