"""Grid, background profile, mollifier, and discrete-operator tests (the
operators are the kernels' grad_c and diffuse, on the spacing m.dx).

Operator accuracy is checked against analytic derivatives; quadrature
against closed-form integrals (sqrt(pi) for the gaussian).
"""

import math

import numpy as np
import pytest

from dvns1d import background_profile, build_mesh, integrate, mollify
from dvns1d.errors import ConfigurationError
from dvns1d.kernels import diffuse, grad_c


# --------------------------------------------------------------------- mesh

def test_build_mesh_spacing():
    m = build_mesh(10.0, 1000)
    assert m.dx == 0.02
    assert m.N == 1000 and m.L == 10.0
    assert np.all(np.diff(m.x) > 0)
    assert m.x[0] == pytest.approx(-10.0 + 0.01, abs=1e-14)
    assert m.x[-1] == pytest.approx(10.0 - 0.01, abs=1e-14)


def test_build_mesh_cell_centers():
    m = build_mesh(2.0, 8)
    assert m.dx == 0.5
    assert np.allclose(m.x, [-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75], atol=1e-15)


@pytest.mark.parametrize("L,N", [(2.0, 7), (2.0, 0), (2.0, 8.5), (1.5, 64), (float("inf"), 64), (float("nan"), 64),
                                 (10.0, float("inf")), (10.0, float("nan"))])
def test_build_mesh_rejects(L, N):
    with pytest.raises(ConfigurationError):
        build_mesh(L, N)


def test_mesh_immutable():
    m = build_mesh(2.0, 8)
    with pytest.raises(Exception):
        m.dx = 1.0


# ------------------------------------------------------------------ profile

def test_profile_equal_ends_constant():
    m = build_mesh(10.0, 256)
    prof = background_profile(m, 1.0, 1.0)
    assert np.all(prof == 1.0)


def test_profile_transition():
    m = build_mesh(10.0, 512)
    v = background_profile(m, 1.0, 2.0)
    # exactly constant outside the transition band
    assert np.all(v[m.x <= -1.0] == 1.0)
    assert np.all(v[m.x >= 1.0] == 2.0)
    assert np.all(v >= 1.0) and np.all(v <= 2.0)
    assert np.all(np.diff(v) >= 0.0)
    # midpoint symmetry of the smoothstep: v(x) + v(-x) = rho- + rho+
    assert np.max(np.abs(v + v[::-1] - 3.0)) <= 1e-14
    # slope bounded by the smoothstep maximum 15/8 scaled to the band
    assert np.max(np.abs(grad_c(v, m.dx))) <= 0.9375 * 1.0 + 1e-6


def test_profile_rejects_bad_ends():
    m = build_mesh(2.0, 8)
    for lo, hi in ((0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0)):
        with pytest.raises(ConfigurationError):
            background_profile(m, lo, hi)


# ----------------------------------------------------------------- mollify

def test_mollify_constant_preserved():
    m = build_mesh(10.0, 256)
    f = np.full(m.N, 3.7)
    assert np.allclose(mollify(f, m, 2), 3.7, atol=1e-13)


def test_mollify_identity_below_grid_scale():
    m = build_mesh(10.0, 128)  # dx = 0.15625
    f = np.sin(m.x)
    out = mollify(f, m, 1000)  # radius 1e-3 < dx
    assert np.array_equal(out, f)
    assert out is not f  # fresh array, not an alias


def test_mollify_mass_preservation(rng):
    m = build_mesh(10.0, 512)
    for _ in range(20):
        f = rng.normal(size=m.N)
        err = abs(integrate(mollify(f, m, 3), m) - integrate(f, m))
        assert err <= 1e-12 * integrate(np.abs(f), m)


def test_mollify_step():
    m = build_mesh(10.0, 1024)
    f = np.where(m.x > 0.0, 1.0, 0.0)
    out = mollify(f, m, 2)  # kernel support [-1/2, 1/2]
    # support widening is at most the kernel radius
    far = np.abs(m.x) > 0.5 + m.dx
    assert np.array_equal(out[far], f[far])
    assert np.all(np.diff(out) >= -1e-15)  # still a monotone ramp
    assert abs(integrate(out, m) - integrate(f, m)) <= 1e-12 * integrate(f, m)


@pytest.mark.parametrize("n", [0, -2, 1.5, float("inf"), float("nan")])
def test_mollify_bad_index(n):
    m = build_mesh(2.0, 8)
    with pytest.raises(ConfigurationError):
        mollify(np.ones(8), m, n)


# ------------------------------------------------------------------- grad_c

def test_grad_constant_and_affine_exact():
    m = build_mesh(2.0, 64)
    assert np.all(grad_c(np.full(m.N, 5.0), m.dx) == 0.0)
    g = grad_c(m.x.copy(), m.dx)
    assert np.max(np.abs(g - 1.0)) <= 1e-13  # one-sided ends included


def test_grad_quadratic():
    m = build_mesh(2.0, 400)  # dx = 0.01
    g = grad_c(m.x**2, m.dx)
    assert np.max(np.abs(g - 2.0 * m.x)) <= 1e-10


def test_grad_second_order_convergence():
    errs = []
    for N in (256, 512):
        m = build_mesh(10.0, N)
        errs.append(np.max(np.abs(grad_c(np.sin(m.x), m.dx) - np.cos(m.x))[2:-2]))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6


# ------------------------------------------------------------------ diffuse

def test_diffuse_constant_coefficient_quadratic():
    m = build_mesh(2.0, 64)
    out = diffuse(np.ones(m.N), m.x**2, m.dx)
    assert np.max(np.abs(out[1:-1] - 2.0)) <= 1e-11
    # boundary rows are zeroed by construction
    assert out[0] == 0.0 and out[-1] == 0.0


def test_diffuse_constant_field_zero():
    m = build_mesh(2.0, 32)
    assert np.all(diffuse(np.linspace(1, 2, m.N), np.full(m.N, 4.0), m.dx) == 0.0)


def test_diffuse_affine_coefficient():
    # d/dx((x+3) * d/dx x) = 1, exact for the arithmetic-mean face scheme
    m = build_mesh(2.0, 64)
    out = diffuse(m.x + 3.0, m.x.copy(), m.dx)
    assert np.max(np.abs(out[1:-1] - 1.0)) <= 1e-12


def test_diffuse_discrete_integration_by_parts():
    # int g * diffuse(a, f) = -int a * grad f * grad g + O(dx^2)
    # for fields vanishing in the boundary cells
    def mismatch(N):
        m = build_mesh(10.0, N)
        t = np.clip(m.x / 8.0, -1.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            bump = np.where(np.abs(t) < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - t * t)), 0.0)
        f = bump * np.sin(3.0 * m.x)
        g = bump * np.cos(2.0 * m.x)
        a = 2.0 + np.cos(m.x)
        lhs = integrate(g * diffuse(a, f, m.dx), m)
        rhs = -integrate(a * grad_c(f, m.dx) * grad_c(g, m.dx), m)
        return abs(lhs - rhs)

    e1, e2 = mismatch(128), mismatch(256)
    assert e1 / e2 >= 3.0
    assert e2 <= 1e-3


# ---------------------------------------------------------------- integrate

def test_integrate_constant():
    m = build_mesh(2.0, 8)
    assert integrate(np.ones(8), m) == 4.0


def test_integrate_odd_field():
    m = build_mesh(2.0, 256)
    assert abs(integrate(m.x**3, m)) <= 1e-10


def test_integrate_gaussian():
    m = build_mesh(10.0, 4000)
    val = integrate(np.exp(-m.x**2), m)
    assert abs(val - math.sqrt(math.pi)) <= 1e-8

