"""The exact stationary viscous shock: neither form may move it.

With rho*u = m constant, the momentum equation integrates once to
mu(rho) u' = m u + P(rho) - C, Gilbarg's shock layer (Amer. J. Math. 73,
1951) with mu = mu0 rho^alpha.  The Rankine-Hugoniot conditions fix
m^2 = (P(rho+) - P(rho-)) / (1/rho- - 1/rho+) and C = m u- + P(rho-), and
the profile is integrated by RK4 from its mid value at x = 0, both ways.

Started on this profile, a run keeps the domain mass once the O(dx)
transient of the discrete layer is over; a shock that moves by dx0 changes
it by -dx0 (rho+ - rho-).  A non-conservative discretisation of the
velocity transport moves the shock at a steady speed (Hou & LeFloch,
Math. Comp. 62, 1994), which this test sees as a growing offset.

By Galilean invariance the layer shifted to X0 and carried at a speed s,
rho_s(x - X0 - s t) with velocity u_s(x - X0 - s t) + s, is an exact
solution too.  The far field stays constant, so the clamped end cells stay
exact while the layer is inside the domain.
"""

import math

import numpy as np
import pytest

from dvns1d import Params, background_profile, build_mesh, effective_velocity, make_state, run

RHO_MINUS, RHO_PLUS, L = 1.0, 2.0, 10.0


def _profile(alpha, gamma, a, mu0, h=1e-3):
    """(x, u, m): the layer's velocity on a grid of step h over [-L, L] and its mass flux."""
    def pressure(rho):
        return a * rho ** gamma

    m = math.sqrt((pressure(RHO_PLUS) - pressure(RHO_MINUS)) / (1.0 / RHO_MINUS - 1.0 / RHO_PLUS))
    u_minus, u_plus = m / RHO_MINUS, m / RHO_PLUS
    c = m * u_minus + pressure(RHO_MINUS)

    def slope(u):
        return (m * u + pressure(m / u) - c) / (mu0 * (m / u) ** alpha)

    n = math.ceil(L / h)
    halves = []
    for step in (h, -h):
        u, us = 0.5 * (u_minus + u_plus), []
        for _ in range(n):
            us.append(u)
            k1 = slope(u)
            k2 = slope(u + 0.5 * step * k1)
            k3 = slope(u + 0.5 * step * k2)
            k4 = slope(u + step * k3)
            u += step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        us.append(u)
        halves.append(np.array(us))
    x = h * np.arange(-n, n + 1)
    return x, np.concatenate([halves[1][::-1], halves[0][1:]]), m


def _offsets(params, form, N, T=10.0):
    """The shock's offset from the domain mass at T/2 and T."""
    mesh = build_mesh(L, N)
    x, u, m = _profile(params.alpha, params.gamma, params.a, params.mu0)
    u = np.interp(mesh.x, x, u)
    state = make_state(m / u, u, "U", mesh)
    if form == "V":
        state = effective_velocity(state, mesh, params)
    traj = run(state, mesh, background_profile(mesh, RHO_MINUS, RHO_PLUS), params, T=T,
               output_dt=T / 2, time_scheme="imex")
    assert traj.status == "completed" and len(traj.frames) == 3
    mass = [f.rho.sum() * mesh.dx for f in traj.frames]
    return [-(mt - mass[0]) / (RHO_PLUS - RHO_MINUS) for mt in mass[1:]], mesh.dx


# (alpha, gamma, a, mu0): inside the theorem's range, and outside it with
# a != 1 and mu0 != 1
POINTS = [(0.7, 2.0, 1.0, 1.0), (1.5, 3.0, 2.0, 0.5)]


@pytest.mark.parametrize("N", [128, 256])
@pytest.mark.parametrize("form", ["U", "V"])
@pytest.mark.parametrize("point", POINTS)
def test_stationary_shock_stays_put(point, form, N):
    # the offset settles at O(dx) by T/2 and then stays within a quarter cell
    alpha, gamma, a, mu0 = point
    params = Params(alpha=alpha, gamma=gamma, a=a, mu0=mu0)
    (half, end), dx = _offsets(params, form, N)
    assert abs(end - half) <= 0.25 * dx, (half, end, dx)


def _moving_l1(params, form, time_scheme, N, X0=3.0, T=2.0):
    """L1 distance of the run's density at T to the exact moving shock."""
    x, u_s, m = _profile(params.alpha, params.gamma, params.a, params.mu0)
    s = -0.5 * (m / RHO_MINUS + m / RHO_PLUS)  # u changes sign inside the layer
    mesh = build_mesh(L, N)
    u = np.interp(mesh.x - X0, x, u_s)
    state = make_state(m / u, u + s, "U", mesh)
    if form == "V":
        state = effective_velocity(state, mesh, params)
    traj = run(state, mesh, background_profile(mesh, RHO_MINUS, RHO_PLUS), params, T=T,
               output_dt=T, time_scheme=time_scheme)
    assert traj.status == "completed"
    exact = m / np.interp(mesh.x - X0 - s * T, x, u_s)
    return float(np.sum(np.abs(traj.frames[-1].rho - exact)) * mesh.dx)


# (point, form, scheme, L1 at N = 256 as measured).  The wide layer of
# (0.55, 1.4, 0.5, 2) reaches the clamped cells and converges at a ratio
# of 0.86-0.90 only, so it is left out
MOVING = [
    ((0.7, 2.0, 1.0, 1.0), "U", "imex", 1.463e-2),
    ((0.7, 2.0, 1.0, 1.0), "V", "imex", 1.679e-2),
    ((0.7, 2.0, 1.0, 1.0), "U", "explicit", 1.459e-2),
    ((0.7, 2.0, 1.0, 1.0), "V", "explicit", 1.678e-2),
    ((1.5, 3.0, 2.0, 0.5), "U", "imex", 1.566e-2),
    ((1.5, 3.0, 2.0, 0.5), "V", "imex", 1.920e-2),
    ((1.0, 3.0, 2.0, 0.5), "U", "imex", 1.539e-2),
    ((1.0, 3.0, 2.0, 0.5), "V", "imex", 1.896e-2),
]


@pytest.mark.parametrize("point, form, time_scheme, measured", MOVING)
def test_moving_shock_converges(point, form, time_scheme, measured):
    # first order: doubling N at least nearly halves the L1 error of rho at T
    alpha, gamma, a, mu0 = point
    params = Params(alpha=alpha, gamma=gamma, a=a, mu0=mu0)
    coarse, fine = (_moving_l1(params, form, time_scheme, n) for n in (128, 256))
    assert fine <= 0.6 * coarse and fine <= 1.2 * measured, (coarse, fine)
