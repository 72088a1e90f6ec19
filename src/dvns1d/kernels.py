"""Hot finite-difference kernels on plain float64 arrays.

Both forms' transport is one donor-cell body, _transport.  The fused
right-hand sides share face velocities and donor masks between fluxes where
one velocity carries both, and work in place on as few temporaries as the
expressions allow, but every cell value is the same IEEE expression as in
the plain operator-by-operator form, signed zeros included, so their output
is bit-identical to it (see the reference copy in tests/test_kernels.py).  The
rewrites that make this possible are exact in floating point:
-(d/dx) == d/(-dx), a - b == a + (-b), w*where(m, p, q) == where(m, w*p, w*q),
and 1.0*x == x.

Every kernel also takes a batch, (B, N) arrays of B fields with alpha and
gamma given by `column`, and each row of the result is bit-identical to the
kernel applied to that row alone.  Arithmetic on end cells goes through
`.T`: x.T[0] is a scalar for a field, which numpy computes with far less
per-call cost than the 0-d array x[..., 0], and the column of first cells
for a batch.  solve_tridiagonal takes a batch too: its final Thomas sweep
runs once for all systems of a batch, and a zero pivot in any of them raises
ZeroDivisionError, as it does in the solve of that system alone, at every
reduction level and in the sweep.
"""

from __future__ import annotations

import operator

import numpy as np

# cells frozen to their far-field values at each end: the solver clamps them,
# diffusion_bands gives them identity rows and the residuals leave them out
CLAMP = 2


class Column:
    """A parameter with a value per row of a batch: each distinct value and its
    rows, a slice (x[rows] is then a view) where they form a progression, as a
    sweep's alpha blocks and gamma strides do.  Powers take the value as a scalar,
    x[rows] ** value: numpy's fast paths (**2.0, **0.5) differ from its pow."""

    def __init__(self, values):
        each = np.array(values, dtype=np.float64)
        self.groups = [(v, _rows(each == v)) for v in dict.fromkeys(each.tolist())]


def _rows(mask):
    rows = np.flatnonzero(mask)
    grid = slice(rows[0], rows[-1] + 1, rows[1] - rows[0] if len(rows) > 1 else 1)
    return grid if np.array_equal(np.arange(len(mask))[grid], rows) else rows


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
    """First derivative: centered in the interior, one-sided second order at the ends."""
    g = np.empty_like(f)
    np.subtract(f[..., 2:], f[..., :-2], out=g[..., 1:-1])
    g[..., 1:-1] /= 2.0 * dx
    f, e = f.T, g.T  # end cells, see the module docstring
    e[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    e[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def diffuse(a, f, dx):
    """Three-point flux form of d/dx(a * d/dx f) with arithmetic-mean faces.

    The first and last cells get 0 (they sit inside the steppers' clamp); for
    a >= 0 and fields vanishing at the boundary it is symmetric negative-semidefinite."""
    flux = a[..., :-1] + a[..., 1:]
    flux *= 0.5
    flux *= f[..., 1:] - f[..., :-1]
    out = np.empty_like(f)
    core = np.subtract(flux[..., 1:], flux[..., :-1], out=out[..., 1:-1])
    core /= dx * dx
    out.T[0] = out.T[-1] = 0.0
    return out


def _face_velocity(w):
    # central face velocity and its donor side (True: the left cell)
    wf = w[..., :-1] + w[..., 1:]
    wf *= 0.5
    return wf, wf >= 0.0


def upwind_div(q, w, dx, faces=None):
    # conservative d/dx(q*w): central face velocity, donor-cell q; faces is
    # _face_velocity(w) when the caller has it, and dx = -h yields the exact
    # negation of the h result
    wf, up = _face_velocity(w) if faces is None else faces
    flux = np.empty(q.shape[:-1] + (q.shape[-1] + 1,), dtype=q.dtype)
    np.multiply(wf, np.where(up, q[..., :-1], q[..., 1:]), out=flux[..., 1:-1])
    flux.T[0] = q.T[0] * w.T[0]
    flux.T[-1] = q.T[-1] * w.T[-1]
    out = flux[..., 1:] - flux[..., :-1]
    out /= dx
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


def pressure(rho, gamma, a):
    # P(rho) = a * rho^gamma
    return _scaled(per_value(operator.pow, rho, gamma), a)


def relative_pressure(rho, rho_bar, gamma, a):
    # a*rho_bar^gamma*(r*E - (r-1)), r = rho/rho_bar, E = (r^(gamma-1) - 1)/(gamma-1) and
    # log r at gamma = 1, for a scalar gamma; log 1 stands in for log 0 (the limit at
    # rho = 0), and the clip takes off the negative ulps rounding can leave near r = 1.
    # Relative error below 1e-12 on 0.05 <= r <= 3 at any gamma, ~1e-16/|r - 1| close to r = 1
    r = rho / rho_bar
    e = np.log(np.where(r > 0.0, r, 1.0))
    if gamma != 1.0:
        e = np.expm1((gamma - 1.0) * e) / (gamma - 1.0)
    return a * rho_bar ** gamma * np.maximum(r * e - (r - 1.0), 0.0)


def _transport(rho, w, q, u, dx, gamma, a):
    # the one transport body of both forms: (-(rho w)_x, -(q u)_x - P_x) with
    # donor-cell fluxes; where u is w, both fluxes take the same face velocities
    faces = _face_velocity(w)
    drho = upwind_div(rho, w, -dx, faces)
    dq = upwind_div(q, u, -dx, faces if u is w else None)
    dq -= grad_c(pressure(rho, gamma, a), dx)
    return drho, dq


def transport_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    # rhs_u without the viscous term, same signature: d/dt rho = -(rho u)_x,
    # d/dt m = -(m u)_x - P_x for m = rho u
    return _transport(rho, u, rho * u, u, dx, gamma, a)


def rhs_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    # d/dt rho = -(rho u)_x,  d/dt m = -(m u)_x - P_x + (mu u_x)_x
    drho, dm = transport_u(rho, u, dx, alpha, gamma, a, mu0, floor)
    dm += diffuse(viscosity(rho, alpha, mu0, floor), u, dx)
    return drho, dm


def diffusivity(rho, alpha, mu0, floor):
    # the V-form density diffusivity max(floor, mu(rho)) / rho
    nu = viscosity(rho, alpha, mu0, floor)
    nu /= rho
    return nu


def potential(rho, alpha, mu0):
    # phi(rho), whose gradient is v - u (constitutive.phi)
    if alpha == 1.0:
        return mu0 * np.log(rho)
    return mu0 * np.power(rho, alpha - 1.0) / (alpha - 1.0)


def phi_gradient(rho, alpha, mu0, dx):
    # d/dx phi(rho) = v - u, per row of a batch
    return grad_c(per_value(potential, rho, alpha, mu0), dx)


def transport_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    # rhs_v without the density diffusion, same signature: d/dt rho = -(rho v)_x,
    # d/dt q = -(q u)_x - P_x for q = rho v, carried by u = v - phi(rho)_x
    u = phi_gradient(rho, alpha, mu0, dx)
    np.subtract(v, u, out=u)
    return _transport(rho, v, rho * v, u, dx, gamma, a)


def rhs_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    # d/dt rho = (mu/rho rho_x)_x - (rho v)_x,  d/dt q = -(q u)_x - P_x for q = rho v
    drho, dq = transport_v(rho, v, dx, alpha, gamma, a, mu0, floor)
    drho += diffuse(diffusivity(rho, alpha, mu0, floor), rho, dx)
    return drho, dq


def stability_terms(rho, vel, alpha, gamma, a, mu0, floor, diffusive=True):
    # max(|vel| + c) and max diffusivity, None unless diffusive; a batch's as (B, 1) columns
    wave = np.sqrt(per_value(lambda r, g: _scaled(r ** (g - 1.0), a * g), rho, gamma))
    wave += np.abs(vel)
    rows = rho.ndim > 1
    nu = diffusivity(rho, alpha, mu0, floor).max(axis=-1, keepdims=rows) if diffusive else None
    return wave.max(axis=-1, keepdims=rows), nu


def diffusion_bands(base, coef, k):
    """Bands of the system base*f - k*dx^2*D_coef f with D_coef the stencil
    of diffuse, on rows CLAMP..N-1-CLAMP; the clamped cells at each
    end are identity rows.  For base > 0 and coef >= 0 it is an M-matrix."""
    w = coef[..., :-1] + coef[..., 1:]
    w *= 0.5 * k
    lower = np.zeros(base.shape)
    upper = np.zeros(base.shape)
    diag = base.copy()
    rows, left, right = slice(CLAMP, -CLAMP), slice(CLAMP - 1, -CLAMP), slice(CLAMP, 1 - CLAMP)
    lower[..., rows] = -w[..., left]
    upper[..., rows] = -w[..., right]
    diag[..., rows] += w[..., left]
    diag[..., rows] += w[..., right]
    diag[..., :CLAMP] = diag[..., -CLAMP:] = 1.0
    return lower, diag, upper


# systems at most this long are finished by a sequential Thomas sweep
_THOMAS_MAX = 16


def solve_tridiagonal(lower, diag, upper, rhs):
    """Solve lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].

    lower[0] and upper[-1] must be zero.  Odd-even cyclic reduction
    eliminates the odd unknowns from the even rows, vectorised, until at
    most _THOMAS_MAX rows remain for a Thomas sweep.  A batch, (B, N)
    bands of B systems, takes each reduction and the one sweep for all its
    systems at once, and each row of the result is bit-identical to the
    solve of that system alone.  There is no pivoting, so the system must
    be diagonally dominant; a zero on the diagonal of any reduction level,
    or a zero pivot in the sweep, raises ZeroDivisionError, in a batch if
    any of its systems has one.  For an M-matrix every product and quotient
    below has a fixed sign, so in exact arithmetic a positive rhs gives a
    positive solution; in floating point only while the diagonal's excess
    over the off-diagonals is not lost to rounding.
    """
    # through .T the unknowns run along axis 0, so a single system takes
    # plain slices, the cheapest per numpy call, and a batch's are columns
    return _reduce(lower.T, diag.T, upper.T, rhs.T).T


def _reduce(lower, diag, upper, rhs):
    n = diag.shape[0]
    if n <= _THOMAS_MAX:
        if diag.ndim == 1:
            return np.array(_thomas(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()))
        pivots, d = diag.copy(), rhs.copy()  # _thomas eliminates their (B,) rows in place
        x = np.array(_thomas(list(lower), list(pivots), list(upper), list(d)))
        if not pivots.all():  # numpy divides by a zero pivot where a float raises
            raise ZeroDivisionError("zero pivot in a batched tridiagonal solve")
        return x
    if not diag.all():  # numpy would divide by a zero pivot where a float raises
        raise ZeroDivisionError("zero pivot in a tridiagonal reduction level")
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
    # sequential elimination of the small system of a reduction: its
    # elements are Python floats for one system, (B,) rows for a batch
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
