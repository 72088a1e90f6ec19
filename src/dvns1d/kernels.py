"""Hot finite-difference kernels on plain float64 arrays.

The fused right-hand sides share face velocities and donor masks between
fluxes and work in place on as few temporaries as the expressions allow, but
every cell value is the same IEEE expression as in the plain
operator-by-operator form, signed zeros included, so their output is
bit-identical to it (see the reference copy in tests/test_kernels.py).  The
rewrites that make this possible are exact in floating point:
-(d/dx) == d/(-dx), a - b == a + (-b), w*where(m, p, q) == where(m, w*p, w*q),
and 1.0*x == x.

Every kernel also takes a batch, (B, N) arrays of B fields with alpha and
gamma given by `column`, and each row of the result is bit-identical to the
kernel applied to that row alone.  Arithmetic on end cells goes through
`.T`: x.T[0] is a scalar for a field, which numpy computes with far less
per-call cost than the 0-d array x[..., 0], and the column of first cells
for a batch.
"""

from __future__ import annotations

import operator

import numpy as np


class Column:
    """A parameter with a value per row of a batch: each distinct value and
    its rows.  Powers take the value as a scalar, x[rows] ** value, because
    numpy's scalar fast paths (**2.0, **0.5) differ from an elementwise pow."""

    def __init__(self, values):
        each = np.array(values, dtype=np.float64)
        self.groups = [(v, np.flatnonzero(each == v)) for v in dict.fromkeys(each.tolist())]


def column(values):
    """The value that every row has, or else the Column of values."""
    return values[0] if len(set(values)) == 1 else Column(values)


def per_value(fn, x, value, *args):
    """fn(x, value, *args); for a Column value, fn of each group of rows with its own value."""
    if not isinstance(value, Column):
        return fn(x, value, *args)
    out = np.empty_like(x)
    for v, rows in value.groups:
        out[rows] = fn(x[rows], v, *args)
    return out


def grad_c(f, dx):
    g = np.empty_like(f)
    np.subtract(f[..., 2:], f[..., :-2], out=g[..., 1:-1])
    g[..., 1:-1] /= 2.0 * dx
    f, e = f.T, g.T  # end cells, see the module docstring
    e[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    e[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def _diffusion_core(a, f, dx):
    # interior cells of d/dx(a * d/dx f) with arithmetic-mean face coefficients
    flux = a[..., :-1] + a[..., 1:]
    flux *= 0.5
    flux *= f[..., 1:] - f[..., :-1]
    core = flux[..., 1:] - flux[..., :-1]
    core /= dx * dx
    return core


def diffuse(a, f, dx):
    out = np.empty_like(f)
    out[..., 1:-1] = _diffusion_core(a, f, dx)
    out[..., 0] = out[..., -1] = 0.0
    return out


def _face_velocity(w):
    # central face velocity and its donor side (True: the left cell)
    wf = w[..., :-1] + w[..., 1:]
    wf *= 0.5
    return wf, wf >= 0.0


def _donor_div(q, w, wf, up, dx):
    # conservative d/dx(q*w) from precomputed face velocities; dx = -h
    # yields the exact negation of the h result
    faces = np.empty(q.shape[:-1] + (q.shape[-1] + 1,), dtype=q.dtype)
    np.multiply(wf, np.where(up, q[..., :-1], q[..., 1:]), out=faces[..., 1:-1])
    faces.T[0] = q.T[0] * w.T[0]
    faces.T[-1] = q.T[-1] * w.T[-1]
    out = faces[..., 1:] - faces[..., :-1]
    out /= dx
    return out


def upwind_div(q, w, dx):
    # conservative d/dx(q*w): central face velocity, donor-cell q
    return _donor_div(q, w, *_face_velocity(w), dx)


def upwind_grad(f, w, dx):
    # pointwise one-sided d/dx(f) biased by the sign of w; both one-sided
    # differences come from the same face difference, and the end cells use
    # the only one available
    d = f[..., 1:] - f[..., :-1]
    d /= dx
    out = np.empty_like(f)
    out[..., 1:-1] = np.where(w[..., 1:-1] >= 0.0, d[..., :-1], d[..., 1:])
    out[..., 0] = d[..., 0]
    out[..., -1] = d[..., -1]
    return out


def _scaled(x, c):
    # c * x in place, skipping the exact no-op c == 1
    if c != 1.0:
        x *= c
    return x


def viscosity(rho, alpha, mu0, floor):
    mu = _scaled(per_value(operator.pow, rho, alpha), mu0)
    # for rho > 0, rho**alpha is +0 or more (or NaN), which a zero floor leaves alone
    if floor != 0.0:
        np.maximum(mu, floor, out=mu)
    return mu


def transport_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    # rhs_u without the viscous term, same signature: d/dt rho = -(rho u)_x,
    # d/dt m = -(m u)_x - P_x
    wf, up = _face_velocity(u)
    drho = _donor_div(rho, u, wf, up, -dx)
    dm = _donor_div(rho * u, u, wf, up, -dx)
    dm -= grad_c(_scaled(per_value(operator.pow, rho, gamma), a), dx)
    return drho, dm


def rhs_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    # d/dt rho = -(rho u)_x,  d/dt m = -(m u)_x - P_x + (mu u_x)_x
    drho, dm = transport_u(rho, u, dx, alpha, gamma, a, mu0, floor)
    dm[..., 1:-1] += _diffusion_core(viscosity(rho, alpha, mu0, floor), u, dx)
    dm.T[0] += 0.0
    dm.T[-1] += 0.0
    return drho, dm


def diffusivity(rho, alpha, mu0, floor):
    # the V-form density diffusivity max(floor, mu(rho)) / rho
    nu = viscosity(rho, alpha, mu0, floor)
    nu /= rho
    return nu


def _potential(rho, alpha, mu0):
    # phi(rho), whose gradient is v - u
    if alpha == 1.0:
        return _scaled(np.log(rho), mu0)
    return _scaled(rho ** (alpha - 1.0), mu0 / (alpha - 1.0))


def transport_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    # rhs_v without the density diffusion, same signature: d/dt rho = -(rho v)_x,
    # d/dt v = -u v_x - P_x / rho with u = v - phi(rho)_x
    u = grad_c(per_value(_potential, rho, alpha, mu0), dx)
    np.subtract(v, u, out=u)
    drho = upwind_div(rho, v, -dx)
    dv = upwind_grad(v, u, -dx)
    dv *= u
    gp = grad_c(_scaled(per_value(operator.pow, rho, gamma), a), dx)
    gp /= rho
    dv -= gp
    return drho, dv


def rhs_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    # d/dt rho = (mu/rho rho_x)_x - (rho v)_x,  d/dt v = -u v_x - P_x / rho
    drho, dv = transport_v(rho, v, dx, alpha, gamma, a, mu0, floor)
    drho[..., 1:-1] += _diffusion_core(diffusivity(rho, alpha, mu0, floor), rho, dx)
    drho.T[0] += 0.0
    drho.T[-1] += 0.0
    return drho, dv


def stability_terms(rho, vel, alpha, gamma, a, mu0, floor):
    # max(|vel| + c) and max diffusivity; a batch's as (B, 1) columns
    wave = np.sqrt(per_value(lambda r, g: _scaled(r ** (g - 1.0), a * g), rho, gamma))
    wave += np.abs(vel)
    nu, rows = diffusivity(rho, alpha, mu0, floor), rho.ndim > 1
    return wave.max(axis=-1, keepdims=rows), nu.max(axis=-1, keepdims=rows)


def diffusion_bands(base, coef, k):
    """Bands of the system base*f - k*dx^2*D_coef f with D_coef the stencil
    of _diffusion_core, on rows 2..N-3; the two clamped cells at each end
    are identity rows.  For base > 0 and coef >= 0 it is an M-matrix."""
    w = coef[..., :-1] + coef[..., 1:]
    w *= 0.5 * k
    lower = np.zeros(base.shape)
    upper = np.zeros(base.shape)
    diag = base.copy()
    lower[..., 2:-2] = -w[..., 1:-2]
    upper[..., 2:-2] = -w[..., 2:-1]
    diag[..., 2:-2] += w[..., 1:-2]
    diag[..., 2:-2] += w[..., 2:-1]
    diag[..., :2] = diag[..., -2:] = 1.0
    return lower, diag, upper


# systems at most this long are finished by a sequential Thomas sweep
_THOMAS_MAX = 64


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].

    lower[0] and upper[-1] must be zero.  Odd-even cyclic reduction
    eliminates the odd unknowns from the even rows, vectorised, until at
    most _THOMAS_MAX rows remain for a Thomas sweep (one per system of a
    batch, which every reduction treats at once).  There is no pivoting,
    so the system must be diagonally dominant.  For an M-matrix every
    product and quotient below has a fixed sign, so in exact arithmetic a
    positive rhs gives a positive solution; in floating point only while
    the diagonal's excess over the off-diagonals is not lost to rounding.
    """
    # through .T the unknowns run along axis 0, so a single system takes
    # plain slices, the cheapest per numpy call, and a batch's are columns
    return _reduce(lower.T, diag.T, upper.T, rhs.T).T


def _reduce(lower, diag, upper, rhs):
    n = diag.shape[0]
    if n <= _THOMAS_MAX:
        rows = zip(*(b.T.reshape(-1, n).tolist() for b in (lower, diag, upper, rhs)))
        return np.array([_thomas(*row) for row in rows]).reshape(diag.T.shape).T
    ae, be, ce, de = lower[::2], diag[::2], upper[::2], rhs[::2]
    ao, bo, co, do = lower[1::2], diag[1::2], upper[1::2], rhs[1::2]
    ne, no = be.shape[0], bo.shape[0]
    # even row 2k meets odd row k-1 on its left and odd row k on its right
    fl = -ae[1:] / bo[:ne - 1]
    fr = -ce[:no] / bo
    a2, c2, b2, d2 = np.zeros(be.shape), np.zeros(be.shape), be.copy(), de.copy()
    a2[1:] = fl * ao[:ne - 1]
    c2[:no] = fr * co
    b2[1:] += fl * co[:ne - 1]
    b2[:no] += fr * ao
    d2[1:] += fl * do[:ne - 1]
    d2[:no] += fr * do
    x = np.zeros((n + 1,) + diag.shape[1:])  # x[n] = 0 stands for the missing right neighbour
    x[:n:2] = _reduce(a2, b2, c2, d2)
    xo = do - ao * x[:n - 1:2]
    xo -= co * x[2::2]
    xo /= bo
    x[1:n:2] = xo
    return x[:n]


def _thomas(a, b, c, d):
    # sequential elimination on Python floats: the small system of a reduction
    n = len(b)
    for i in range(1, n):
        f = a[i] / b[i - 1]
        b[i] -= f * c[i - 1]
        d[i] -= f * d[i - 1]
    x = [0.0] * n
    x[-1] = d[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
    return x
