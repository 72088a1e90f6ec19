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

The layer is asymptotically stable: a zero-mass perturbation of it decays
(Matsumura & Nishihara, Japan J. Appl. Math. 2, 1985, for constant
viscosity; Matsumura & Wang, Methods Appl. Anal. 17, 2010, for rho^alpha),
and the run settles onto the layer shifted by the mass it gained.
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


def _stationary_l1(params, form, time_scheme, N, T=1.0):
    """L1 distance of the run's density at T to the layer it started from."""
    x, u_s, m = _profile(params.alpha, params.gamma, params.a, params.mu0)
    mesh = build_mesh(L, N)
    u = np.interp(mesh.x, x, u_s)
    state = make_state(m / u, u, "U", mesh)
    if form == "V":
        state = effective_velocity(state, mesh, params)
    traj = run(state, mesh, background_profile(mesh, RHO_MINUS, RHO_PLUS), params, T=T,
               output_dt=T, time_scheme=time_scheme)
    assert traj.status == "completed"
    return float(np.sum(np.abs(traj.frames[-1].rho - m / u)) * mesh.dx)


# (point, form, scheme, L1 at N = 256 as measured): alpha inside (1/2, 1]
# and beyond it, gamma on both sides of alpha + 1/2 (1.4 < 1.5 at alpha = 1),
# a != 1 and mu0 != 1, both forms and both schemes
ORDER = [
    ((0.7, 2.0, 1.0, 1.0), "U", "imex", 5.419e-2),
    ((0.7, 2.0, 1.0, 1.0), "V", "imex", 6.019e-2),
    ((0.55, 1.4, 0.5, 2.0), "U", "imex", 7.297e-3),
    ((0.55, 1.4, 0.5, 2.0), "V", "imex", 8.204e-3),
    ((1.0, 3.0, 2.0, 0.5), "U", "explicit", 1.047e-1),
    ((1.0, 3.0, 2.0, 0.5), "V", "explicit", 1.118e-1),
    ((1.0, 1.4, 1.0, 1.0), "U", "imex", 2.532e-2),
    ((1.0, 1.4, 1.0, 1.0), "V", "imex", 2.796e-2),
    ((1.5, 3.0, 2.0, 0.5), "U", "imex", 1.055e-1),
    ((1.5, 3.0, 2.0, 0.5), "V", "imex", 1.110e-1),
]


@pytest.mark.parametrize("point, form, time_scheme, measured", ORDER)
def test_stationary_shock_converges_at_first_order(point, form, time_scheme, measured):
    # first order: from N = 128 to 256 the L1 error of rho at T = 1 falls
    # by at least 2^0.9 (0.91-0.99 as measured)
    alpha, gamma, a, mu0 = point
    params = Params(alpha=alpha, gamma=gamma, a=a, mu0=mu0)
    coarse, fine = (_stationary_l1(params, form, time_scheme, n) for n in (128, 256))
    assert math.log2(coarse / fine) >= 0.9 and fine <= 1.1 * measured, (coarse, fine)


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


def _settled_l1(params, form, amplitude, N=128, T=10.0):
    """L1 distance at T of a run from the layer plus amplitude*(-2y)exp(-y^2),
    y = x + 1, with rho*u = m, to the layer shifted by the mass the run gained."""
    x, u_s, m = _profile(params.alpha, params.gamma, params.a, params.mu0)
    mesh = build_mesh(L, N)
    rho_s = m / np.interp(mesh.x, x, u_s)
    y = mesh.x + 1.0
    rho = rho_s + amplitude * (-2.0 * y) * np.exp(-y * y)
    state = make_state(rho, m / rho, "U", mesh)
    if form == "V":
        state = effective_velocity(state, mesh, params)
    traj = run(state, mesh, background_profile(mesh, RHO_MINUS, RHO_PLUS), params, T=T,
               output_dt=T, time_scheme="imex")
    assert traj.status == "completed"
    rho_T = traj.frames[-1].rho
    x0 = -(rho_T.sum() * mesh.dx - rho_s.sum() * mesh.dx) / (RHO_PLUS - RHO_MINUS)
    exact = m / np.interp(mesh.x - x0, x, u_s)
    return float(np.sum(np.abs(rho_T - exact)) * mesh.dx)


# (alpha, gamma, a, mu0): alpha = 0.3 and 1.5 lie outside 1/2 < alpha <= 1.
# (0.55, 1.4, 0.5, 2) is left out: its wide layer still reads 1.6 times
# the unperturbed distance at T = 10
SETTLING = [(0.7, 2.0, 1.0, 1.0), (0.3, 2.0, 1.0, 1.0), (1.5, 3.0, 2.0, 0.5)]


@pytest.mark.parametrize("form", ["U", "V"])
@pytest.mark.parametrize("point", SETTLING)
def test_perturbed_shock_settles_onto_the_shifted_layer(point, form):
    # asymptotic stability: a zero-mass perturbation of L1 size 0.6 decays,
    # and by T = 10 the run is within 6% of the unperturbed run's distance
    # to the layer (1.0005-1.030 as measured)
    alpha, gamma, a, mu0 = point
    params = Params(alpha=alpha, gamma=gamma, a=a, mu0=mu0)
    perturbed, unperturbed = (_settled_l1(params, form, amp) for amp in (0.3, 0.0))
    assert perturbed <= 1.06 * unperturbed, (perturbed, unperturbed)
