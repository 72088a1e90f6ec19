"""Hot finite-difference kernels with a numba fast path and a pure-numpy fallback.

Backend selection: the environment variable DVNS1D_NUMBA picks the path at
import time ("0"/"false"/"off" forces numpy; anything else uses numba when it
is importable).  `use_backend()` switches at runtime; callers must look the
kernels up as module attributes (``kernels.rhs_u(...)``) so rebinding takes
effect.  Both paths evaluate the same expressions elementwise, so they agree
to the last ulp except where libm pow/log implementations differ.

The numpy right-hand sides share face velocities and donor masks between
fluxes and write into their own temporaries, but keep every cell's
floating-point expression, so their output is bit-identical to the plain
operator-by-operator form (see the reference copy in tests/test_kernels.py).
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without the accel extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


# ---------------------------------------------------------------------------
# numpy implementations
#
# The fused right-hand sides work in place on as few temporaries as the
# expressions allow, but every cell value is the same IEEE expression as in
# the textbook form of each operator, signed zeros included.  The rewrites
# that make this possible are exact in floating point: -(d/dx) == d/(-dx),
# a - b == a + (-b), w*where(m, p, q) == where(m, w*p, w*q), and 1.0*x == x.
# ---------------------------------------------------------------------------


def _np_grad_c(f, dx):
    g = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=g[1:-1])
    g[1:-1] /= 2.0 * dx
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def _np_div_flux(f, dx):
    # faces: arithmetic mean inside, adjacent cell value at the two ends,
    # so the cell sum telescopes to f[-1] - f[0] exactly
    n = f.shape[0]
    faces = np.empty(n + 1, dtype=f.dtype)
    faces[1:-1] = 0.5 * (f[:-1] + f[1:])
    faces[0] = f[0]
    faces[-1] = f[-1]
    return (faces[1:] - faces[:-1]) / dx


def _np_diffusion_core(a, f, dx):
    # interior cells of d/dx(a * d/dx f) with arithmetic-mean face coefficients
    flux = a[:-1] + a[1:]
    flux *= 0.5
    flux *= f[1:] - f[:-1]
    core = flux[1:] - flux[:-1]
    core /= dx * dx
    return core


def _np_diffuse(a, f, dx):
    out = np.empty_like(f)
    out[1:-1] = _np_diffusion_core(a, f, dx)
    out[0] = out[-1] = 0.0
    return out


def _np_face_velocity(w):
    # central face velocity and its donor side (True: the left cell)
    wf = w[:-1] + w[1:]
    wf *= 0.5
    return wf, wf >= 0.0


def _np_donor_div(q, w, wf, up, dx):
    # conservative d/dx(q*w) from precomputed face velocities; dx = -h
    # yields the exact negation of the h result
    n = q.shape[0]
    faces = np.empty(n + 1, dtype=q.dtype)
    np.multiply(wf, np.where(up, q[:-1], q[1:]), out=faces[1:-1])
    faces[0] = q[0] * w[0]
    faces[-1] = q[-1] * w[-1]
    out = faces[1:] - faces[:-1]
    out /= dx
    return out


def _np_upwind_div(q, w, dx):
    # conservative d/dx(q*w): central face velocity, donor-cell q
    return _np_donor_div(q, w, *_np_face_velocity(w), dx)


def _np_upwind_grad(f, w, dx):
    # pointwise one-sided d/dx(f) biased by the sign of w; both one-sided
    # differences come from the same face difference, and the end cells use
    # the only one available
    d = f[1:] - f[:-1]
    d /= dx
    out = np.empty_like(f)
    out[1:-1] = np.where(w[1:-1] >= 0.0, d[:-1], d[1:])
    out[0] = d[0]
    out[-1] = d[-1]
    return out


def _scaled(x, c):
    # c * x in place, skipping the exact no-op c == 1
    if c != 1.0:
        x *= c
    return x


def _np_viscosity(rho, alpha, mu0, floor):
    mu = _scaled(rho**alpha, mu0)
    # for rho > 0, rho**alpha is +0 or more (or NaN), which a zero floor leaves alone
    if floor != 0.0:
        np.maximum(mu, floor, out=mu)
    return mu


def _np_rhs_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    # d/dt rho = -(rho u)_x,  d/dt m = -(m u)_x - P_x + (mu u_x)_x
    wf, up = _np_face_velocity(u)
    drho = _np_donor_div(rho, u, wf, up, -dx)
    dm = _np_donor_div(rho * u, u, wf, up, -dx)
    dm -= _np_grad_c(_scaled(rho**gamma, a), dx)
    dm[1:-1] += _np_diffusion_core(_np_viscosity(rho, alpha, mu0, floor), u, dx)
    dm[0] += 0.0
    dm[-1] += 0.0
    return drho, dm


def _np_rhs_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    # d/dt rho = (mu/rho rho_x)_x - (rho v)_x,  d/dt v = -u v_x - P_x / rho
    if alpha == 1.0:
        ph = _scaled(np.log(rho), mu0)
    else:
        ph = _scaled(rho ** (alpha - 1.0), mu0 / (alpha - 1.0))
    u = _np_grad_c(ph, dx)
    np.subtract(v, u, out=u)
    coef = _np_viscosity(rho, alpha, mu0, floor)
    coef /= rho
    drho = _np_upwind_div(rho, v, -dx)
    drho[1:-1] += _np_diffusion_core(coef, rho, dx)
    drho[0] += 0.0
    drho[-1] += 0.0
    dv = _np_upwind_grad(v, u, -dx)
    dv *= u
    gp = _np_grad_c(_scaled(rho**gamma, a), dx)
    gp /= rho
    dv -= gp
    return drho, dv


def _np_stability_terms(rho, vel, alpha, gamma, a, mu0, floor):
    wave = np.sqrt(_scaled(rho ** (gamma - 1.0), a * gamma))
    wave += np.abs(vel)
    nu = _np_viscosity(rho, alpha, mu0, floor)
    nu /= rho
    return float(wave.max()), float(nu.max())


# ---------------------------------------------------------------------------
# numba implementations (same arithmetic, loop form)
# ---------------------------------------------------------------------------


@njit(cache=True)
def _nb_grad_c(f, dx):
    n = f.shape[0]
    g = np.empty(n, dtype=np.float64)
    two_dx = 2.0 * dx
    for i in range(1, n - 1):
        g[i] = (f[i + 1] - f[i - 1]) / two_dx
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / two_dx
    g[n - 1] = (3.0 * f[n - 1] - 4.0 * f[n - 2] + f[n - 3]) / two_dx
    return g


@njit(cache=True)
def _nb_div_flux(f, dx):
    n = f.shape[0]
    out = np.empty(n, dtype=np.float64)
    fprev = f[0]
    for i in range(n):
        if i == n - 1:
            fr = f[n - 1]
        else:
            fr = 0.5 * (f[i] + f[i + 1])
        out[i] = (fr - fprev) / dx
        fprev = fr
    return out


@njit(cache=True)
def _nb_diffuse(a, f, dx):
    n = f.shape[0]
    out = np.zeros(n, dtype=np.float64)
    dx2 = dx * dx
    for i in range(1, n - 1):
        right = 0.5 * (a[i] + a[i + 1]) * (f[i + 1] - f[i])
        left = 0.5 * (a[i - 1] + a[i]) * (f[i] - f[i - 1])
        out[i] = (right - left) / dx2
    return out


@njit(cache=True)
def _nb_upwind_div(q, w, dx):
    n = q.shape[0]
    out = np.empty(n, dtype=np.float64)
    fprev = q[0] * w[0]
    for i in range(n):
        if i == n - 1:
            fr = q[n - 1] * w[n - 1]
        else:
            wf = 0.5 * (w[i] + w[i + 1])
            if wf >= 0.0:
                fr = wf * q[i]
            else:
                fr = wf * q[i + 1]
        out[i] = (fr - fprev) / dx
        fprev = fr
    return out


@njit(cache=True)
def _nb_upwind_grad(f, w, dx):
    n = f.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        if w[i] >= 0.0:
            j = i if i > 0 else 1
            out[i] = (f[j] - f[j - 1]) / dx
        else:
            j = i if i < n - 1 else n - 2
            out[i] = (f[j + 1] - f[j]) / dx
    return out


@njit(cache=True)
def _nb_rhs_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    n = rho.shape[0]
    m = np.empty(n, dtype=np.float64)
    P = np.empty(n, dtype=np.float64)
    mu = np.empty(n, dtype=np.float64)
    for i in range(n):
        m[i] = rho[i] * u[i]
        P[i] = a * rho[i] ** gamma
        mui = mu0 * rho[i] ** alpha
        mu[i] = mui if mui > floor else floor
    conv_rho = _nb_upwind_div(rho, u, dx)
    conv_m = _nb_upwind_div(m, u, dx)
    gp = _nb_grad_c(P, dx)
    dif = _nb_diffuse(mu, u, dx)
    drho = np.empty(n, dtype=np.float64)
    dm = np.empty(n, dtype=np.float64)
    for i in range(n):
        drho[i] = -conv_rho[i]
        dm[i] = -conv_m[i] - gp[i] + dif[i]
    return drho, dm


@njit(cache=True)
def _nb_rhs_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    n = rho.shape[0]
    ph = np.empty(n, dtype=np.float64)
    P = np.empty(n, dtype=np.float64)
    coef = np.empty(n, dtype=np.float64)
    if alpha == 1.0:
        for i in range(n):
            ph[i] = mu0 * np.log(rho[i])
    else:
        c = mu0 / (alpha - 1.0)
        for i in range(n):
            ph[i] = c * rho[i] ** (alpha - 1.0)
    for i in range(n):
        P[i] = a * rho[i] ** gamma
        mui = mu0 * rho[i] ** alpha
        if mui < floor:
            mui = floor
        coef[i] = mui / rho[i]
    gph = _nb_grad_c(ph, dx)
    u = np.empty(n, dtype=np.float64)
    for i in range(n):
        u[i] = v[i] - gph[i]
    dif = _nb_diffuse(coef, rho, dx)
    adv = _nb_upwind_div(rho, v, dx)
    gv = _nb_upwind_grad(v, u, dx)
    gp = _nb_grad_c(P, dx)
    drho = np.empty(n, dtype=np.float64)
    dv = np.empty(n, dtype=np.float64)
    for i in range(n):
        drho[i] = dif[i] - adv[i]
        dv[i] = -u[i] * gv[i] - gp[i] / rho[i]
    return drho, dv


@njit(cache=True)
def _nb_stability_terms(rho, vel, alpha, gamma, a, mu0, floor):
    n = rho.shape[0]
    smax = 0.0
    numax = 0.0
    ag = a * gamma
    for i in range(n):
        c = np.sqrt(ag * rho[i] ** (gamma - 1.0))
        s = abs(vel[i]) + c
        if s > smax:
            smax = s
        mui = mu0 * rho[i] ** alpha
        if mui < floor:
            mui = floor
        nu = mui / rho[i]
        if nu > numax:
            numax = nu
    return smax, numax


# ---------------------------------------------------------------------------
# backend dispatch
# ---------------------------------------------------------------------------

_OPS = ("grad_c", "div_flux", "diffuse", "upwind_div", "upwind_grad",
        "rhs_u", "rhs_v", "stability_terms")

_IMPLS = {
    "numpy": {op: globals()[f"_np_{op}"] for op in _OPS},
    "numba": {op: globals()[f"_nb_{op}"] for op in _OPS},
}

_backend = "numpy"


def use_backend(name: str) -> None:
    """Select the active kernel implementations ("numpy" or "numba")."""
    global _backend
    if name not in _IMPLS:
        raise ValueError(f"unknown backend {name!r}; choose 'numpy' or 'numba'")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not installed")
    for op, impl in _IMPLS[name].items():
        globals()[op] = impl
    _backend = name


def active_backend() -> str:
    return _backend


def _default_backend() -> str:
    flag = os.environ.get("DVNS1D_NUMBA", "").strip().lower()
    if flag in ("0", "false", "off", "no"):
        return "numpy"
    return "numba" if HAVE_NUMBA else "numpy"


use_backend(_default_backend())
