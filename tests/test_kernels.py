"""Stencil-correctness tests for the hot kernels.

The in-place right-hand sides must reproduce the plain operator-by-operator
form (kept below as a reference) bit for bit.
"""

import numpy as np
import pytest

from dvns1d import Params, background_profile, build_mesh, kernels, make_state, run


def _random_fields(n, seed):
    rng = np.random.default_rng(seed)
    rho = 0.2 + rng.random(n)
    w = rng.normal(size=n)
    return rho, w


# ----------------------------------------------------------- stencil oracles

def test_upwind_div_donor_cell_oracle():
    # independent loop implementation of the donor-cell flux
    dx = 0.5
    q = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 0.25])
    w = np.array([0.3, -1.0, 0.7, 0.0, -0.2, 0.9])
    n = len(q)
    faces = np.zeros(n + 1)
    faces[0] = q[0] * w[0]
    faces[n] = q[-1] * w[-1]
    for i in range(1, n):
        wf = 0.5 * (w[i - 1] + w[i])
        faces[i] = wf * (q[i - 1] if wf >= 0.0 else q[i])
    want = (faces[1:] - faces[:-1]) / dx
    got = kernels.upwind_div(q, w, dx)
    assert np.array_equal(got, want)


def test_upwind_div_reduces_to_div_flux_for_uniform_velocity():
    rho, _ = _random_fields(64, 11)
    w = np.full(64, 1.3)
    got = kernels.upwind_div(rho, w, 0.1)
    # with w > 0 everywhere the donor is always the left cell
    faces = np.empty(65)
    faces[1:-1] = 1.3 * rho[:-1]
    faces[0] = rho[0] * 1.3
    faces[-1] = rho[-1] * 1.3
    want = (faces[1:] - faces[:-1]) / 0.1
    assert np.allclose(got, want, atol=1e-14)


def test_upwind_grad_direction():
    dx = 0.25
    f = np.arange(8, dtype=float) * dx  # f = x, both one-sided slopes exact
    ones = np.ones(8)
    assert np.allclose(kernels.upwind_grad(f, ones, dx), 1.0, atol=1e-14)
    assert np.allclose(kernels.upwind_grad(f, -ones, dx), 1.0, atol=1e-14)
    # direction actually switches: quadratic has distinct one-sided slopes
    g = (np.arange(8, dtype=float) * dx) ** 2
    bwd = kernels.upwind_grad(g, ones, dx)
    fwd = kernels.upwind_grad(g, -ones, dx)
    assert np.all(fwd[1:-1] > bwd[1:-1])


def test_stability_terms_oracle():
    rho, w = _random_fields(128, 5)
    smax, numax = kernels.stability_terms(rho, w, 0.75, 2.0, 1.0, 1.0, 0.25)
    assert smax == pytest.approx(np.max(np.abs(w) + np.sqrt(2.0 * rho)), rel=1e-14)
    assert numax == pytest.approx(np.max(np.maximum(rho**0.75, 0.25) / rho), rel=1e-14)


def test_rhs_u_oracle_constant_state():
    # constant density and velocity: all interior derivatives vanish
    # identically; the one-sided boundary rows carry ~1e-15 rounding noise,
    # which is why the stepper clamps the outermost cells
    rho = np.full(64, 1.7)
    u = np.full(64, 0.4)
    drho, dm = kernels.rhs_u(rho, u, 0.1, 1.0, 2.0, 1.0, 1.0, 0.0)
    assert np.all(drho == 0.0)
    assert np.all(dm[1:-1] == 0.0)
    assert np.max(np.abs(dm)) <= 1e-13


# ------------------------------------------- reference (operator-by-operator)

def _ref_grad_c(f, dx):
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def _ref_diffuse(a, f, dx):
    out = np.zeros_like(f)
    af = 0.5 * (a[:-1] + a[1:])
    flux = af * (f[1:] - f[:-1])
    out[1:-1] = (flux[1:] - flux[:-1]) / (dx * dx)
    return out


def _ref_upwind_div(q, w, dx):
    n = q.shape[0]
    wf = 0.5 * (w[:-1] + w[1:])
    faces = np.empty(n + 1, dtype=q.dtype)
    faces[1:-1] = np.where(wf >= 0.0, wf * q[:-1], wf * q[1:])
    faces[0] = q[0] * w[0]
    faces[-1] = q[-1] * w[-1]
    return (faces[1:] - faces[:-1]) / dx


def _ref_upwind_grad(f, w, dx):
    back = np.empty_like(f)
    fwd = np.empty_like(f)
    back[1:] = (f[1:] - f[:-1]) / dx
    back[0] = (f[1] - f[0]) / dx
    fwd[:-1] = (f[1:] - f[:-1]) / dx
    fwd[-1] = (f[-1] - f[-2]) / dx
    return np.where(w >= 0.0, back, fwd)


def _ref_rhs_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    m = rho * u
    P = a * rho**gamma
    mu = np.maximum(mu0 * rho**alpha, floor)
    drho = -_ref_upwind_div(rho, u, dx)
    dm = -_ref_upwind_div(m, u, dx) - _ref_grad_c(P, dx) + _ref_diffuse(mu, u, dx)
    return drho, dm


def _ref_rhs_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    if alpha == 1.0:
        ph = mu0 * np.log(rho)
    else:
        ph = (mu0 / (alpha - 1.0)) * rho ** (alpha - 1.0)
    u = v - _ref_grad_c(ph, dx)
    P = a * rho**gamma
    coef = np.maximum(mu0 * rho**alpha, floor) / rho
    drho = _ref_diffuse(coef, rho, dx) - _ref_upwind_div(rho, v, dx)
    dv = -u * _ref_upwind_grad(v, u, dx) - _ref_grad_c(P, dx) / rho
    return drho, dv


def _ref_stability_terms(rho, vel, alpha, gamma, a, mu0, floor):
    smax = float(np.max(np.abs(vel) + np.sqrt((a * gamma) * rho ** (gamma - 1.0))))
    numax = float(np.max(np.maximum(mu0 * rho**alpha, floor) / rho))
    return smax, numax


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# (alpha, gamma, a, mu0, reg_n)
ORACLE_PARAMS = [(1.0, 2.0, 1.0, 1.0, None), (0.6, 1.5, 1.0, 1.0, None),
                 (0.75, 3.5, 4.0, 3.0, 8), (1.0, 2.0, 2.0, 0.5, None)]


@pytest.mark.parametrize("n", [8, 257, 8192])
@pytest.mark.parametrize("point", ORACLE_PARAMS)
def test_rhs_matches_reference_bitwise(n, point):
    alpha, gamma, a, mu0, reg_n = point
    floor = 0.0 if reg_n is None else 1.0 / reg_n
    rng = np.random.default_rng(n)
    rho = 0.05 + rng.random(n)
    w = rng.normal(size=n)
    # exact zeros of both signs exercise the signed-zero paths
    w[rng.random(n) < 0.1] = 0.0
    w[rng.random(n) < 0.1] = -0.0
    args = (0.037, alpha, gamma, a, mu0, floor)
    for new, ref in ((kernels.rhs_u, _ref_rhs_u), (kernels.rhs_v, _ref_rhs_v)):
        for got, want in zip(new(rho, w, *args), ref(rho, w, *args)):
            assert np.array_equal(_bits(got), _bits(want)), new.__name__
    # a constant state makes every difference an exact zero
    for vel in (0.0, -0.0):
        flat = np.full(n, 0.8), np.full(n, vel)
        for new, ref in ((kernels.rhs_u, _ref_rhs_u), (kernels.rhs_v, _ref_rhs_v)):
            for got, want in zip(new(*flat, *args), ref(*flat, *args)):
                assert np.array_equal(_bits(got), _bits(want)), new.__name__
    assert kernels.stability_terms(rho, w, *args[1:]) == _ref_stability_terms(rho, w, *args[1:])


@pytest.mark.parametrize("n", [8, 257])
def test_primitives_match_reference_bitwise(n):
    rng = np.random.default_rng(3 * n)
    rho = 0.2 + rng.random(n)
    w = rng.normal(size=n)
    w[::5] = 0.0
    for dx in (0.034, -0.034):
        assert np.array_equal(_bits(kernels.grad_c(w, dx)), _bits(_ref_grad_c(w, dx)))
        assert np.array_equal(_bits(kernels.diffuse(rho, w, dx)), _bits(_ref_diffuse(rho, w, dx)))
        assert np.array_equal(_bits(kernels.upwind_div(rho, w, dx)),
                              _bits(_ref_upwind_div(rho, w, dx)))
        assert np.array_equal(_bits(kernels.upwind_grad(w, rho - 0.7, dx)),
                              _bits(_ref_upwind_grad(w, rho - 0.7, dx)))


def test_one_stability_evaluation_per_step(monkeypatch):
    # run evaluates the limit once per step and once per output frame (for
    # the probe step); the steppers reuse it instead of re-evaluating
    calls = []
    inner = kernels.stability_terms

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(kernels, "stability_terms", counting)
    params = Params(alpha=0.75, gamma=2.0)
    mesh = build_mesh(6.0, 64)
    profile = background_profile(mesh, 1.0, 1.0)
    st = make_state(1.0 + 0.4 * np.exp(-mesh.x**2), 0.2 * np.sin(mesh.x), "U", mesh)
    traj = run(st, mesh, profile, params, T=0.05, output_dt=0.01)
    assert traj.status == "completed" and traj.steps > len(traj.records) > 1
    assert len(calls) == traj.steps + len(traj.records)
