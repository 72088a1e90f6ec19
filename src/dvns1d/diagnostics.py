"""Runtime monitors for the a priori estimate chain.

Every quantity the analysis bounds is computed here as a plain function of a
flow snapshot: the relative-entropy energy, its effective-velocity (BD)
variant, both dissipation rates, weighted sup norms, density moments of v
with their Gronwall envelope, and the residuals of the two derived
identities (the reciprocal-density equation and the pressure identity).

Cumulative-in-time quantities are accumulated by the caller through
RunAccumulators using trapezoid quadrature over the output cadence.

`collect` evaluates a whole frame in one pass: d/dx phi(rho), the relative
pressure and |v| are computed once and shared, and every time integral is a
running trapezoid.  Each number is the same floating-point expression the
stand-alone functions below evaluate, so a frame's record is bit-identical
to calling them one by one.  Its v moments and their Gronwall check come
from `moment_sums` (one numpy call per quantity for all rows of a batch)
and `moment_record`, which are also the whole per-frame work of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import kernels
from .constitutive import Params, phi, pressure, relative_pressure, viscosity
from .errors import ConfigurationError
from .mesh import Mesh, BackgroundProfile, diffuse, grad_c, integrate, norm

__all__ = [
    "MomentRecord",
    "DiagnosticsRecord",
    "RunAccumulators",
    "phi_gradient",
    "velocities",
    "energy_functional",
    "bd_functional",
    "dissipation_u_rate",
    "bd_dissipation_integrand",
    "dissipation_bd_rate",
    "weighted_sup",
    "v_moment",
    "reciprocal_residual",
    "pressure_identity_residual",
    "density_report",
    "moment_orders",
    "moment_sums",
    "moment_record",
    "collect",
]


@dataclass(frozen=True)
class MomentRecord:
    """The v moments of one output frame and their Gronwall check.

    moments maps p to the density-weighted L^{p+2} norm of v; gron_bound
    maps p to the Gronwall envelope (None when the parameter point sits
    outside the theorem region) and gron_pass to the slack-adjusted
    comparison outcome (None when the bound is unavailable).  wvel_inf and
    sqrt_rho_u_l2 are the two velocity norms the envelope's rate reads.
    """

    t: float
    v_inf: float
    wvel_inf: float
    sqrt_rho_u_l2: float
    moments: dict
    gron_bound: dict
    gron_pass: dict


@dataclass(frozen=True)
class DiagnosticsRecord(MomentRecord):
    """One output frame's worth of monitored quantities.

    A MomentRecord plus the budgets, norms and identity residuals.  diss_u /
    diss_bd are cumulative time integrals up to t; the *_rate fields are the
    instantaneous integrands of those time integrals.
    """

    mass: float
    energy: float
    bd_entropy: float
    diss_u: float
    diss_bd: float
    diss_u_rate: float
    diss_bd_rate: float
    bd_integrand_min: float
    min_rho: float
    max_rho: float
    inv_rho_max: float
    rho_h1: float
    resid_recip: float
    resid_pident: float


@dataclass(eq=False)
class RunAccumulators:
    """Carries cumulative state between output frames of one run.

    Every time integral is a running trapezoid: each frame adds the panel
    from the previous frame, in the order a re-integration of the whole
    history would add it, so the sums match that bit for bit.  gron_integral
    and gron_prev_rate map the moment order p to the integral of the
    Gronwall rate A(s) and to A at the previous frame.
    """

    t_prev: float | None = None
    cum_diss_u: float = 0.0
    cum_diss_bd: float = 0.0
    prev_du_rate: float = 0.0
    prev_dbd_rate: float = 0.0
    initial_moments: dict | None = None
    gron_integral: dict = dc_field(default_factory=dict)
    gron_prev_rate: dict = dc_field(default_factory=dict)

    def advance(self, t: float) -> float | None:
        """Make t the current frame time; return the panel width since the
        previous frame, or None at the first frame."""
        h = None if self.t_prev is None else t - self.t_prev
        self.t_prev = t
        return h


def phi_gradient(rho, mesh: Mesh, params: Params) -> np.ndarray:
    """d/dx phi(rho), the difference v - u of the two velocities (per row of a batch)."""
    return kernels.grad_c(phi(rho, params), mesh.dx)


def velocities(state, mesh: Mesh, params: Params,
               correction: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The pair (u, v), v = u + d/dx phi(rho), of a snapshot of either form.

    The one U<->V conversion of the package: the solver's form maps, the
    output frames and every functional below derive the pair here.
    correction is phi_gradient(state.rho, ...) when the caller already
    holds it; otherwise it is derived here.
    """
    if correction is None:
        correction = phi_gradient(state.rho, mesh, params)
    if state.form == "V":
        return state.vel - correction, state.vel
    return state.vel, state.vel + correction


def _kinetic_plus(rho, vel, relp, mesh: Mesh) -> float:
    return integrate(0.5 * rho * vel * vel + relp, mesh)


def energy_functional(state, mesh: Mesh, params: Params, profile: BackgroundProfile) -> float:
    """Relative entropy: integral of rho*u^2/2 + p(rho/rho_bar)."""
    u, _ = velocities(state, mesh, params)
    return _kinetic_plus(state.rho, u, relative_pressure(state.rho, profile.values, params), mesh)


def bd_functional(state, mesh: Mesh, params: Params, profile: BackgroundProfile) -> float:
    """The energy functional evaluated on the effective velocity v."""
    _, v = velocities(state, mesh, params)
    return _kinetic_plus(state.rho, v, relative_pressure(state.rho, profile.values, params), mesh)


def _dissipation_u(rho, u, mesh: Mesh, params: Params) -> float:
    g = grad_c(u, mesh)
    return integrate(viscosity(rho, params) * g * g, mesh)


def dissipation_u_rate(state, mesh: Mesh, params: Params) -> float:
    """Instantaneous viscous dissipation: integral of mu(rho)*(du/dx)^2 >= 0."""
    u, _ = velocities(state, mesh, params)
    return _dissipation_u(state.rho, u, mesh, params)


def _bd_integrand(dphi_dx, rho, mesh: Mesh, params: Params) -> np.ndarray:
    return dphi_dx * grad_c(params.a * rho ** params.gamma, mesh)


def bd_dissipation_integrand(state, mesh: Mesh, params: Params) -> np.ndarray:
    """Pointwise d/dx(phi(rho)) * d/dx P(rho), with P(rho) = a*rho^gamma.

    Analytically this equals a*gamma*mu(rho)*rho^(gamma-3)*(drho/dx)^2 >= 0;
    discretely both centered gradients share the sign of the same density
    difference, so negativity can only come from round-off.
    """
    return _bd_integrand(phi_gradient(state.rho, mesh, params), state.rho, mesh, params)


def dissipation_bd_rate(state, mesh: Mesh, params: Params) -> float:
    return integrate(bd_dissipation_integrand(state, mesh, params), mesh)


def _weighted_sup(rho, u, params: Params):
    # per row of a batch
    return np.abs(rho ** params.beta_eff * u).max(axis=-1)


def weighted_sup(state, mesh: Mesh, params: Params) -> float:
    """max |rho^beta * u| with beta the configured weight exponent."""
    u, _ = velocities(state, mesh, params)
    return float(_weighted_sup(state.rho, u, params))


def _check_order(p) -> None:
    if int(p) != p or p < 0:
        raise ConfigurationError(f"moment order p must be a non-negative integer, got {p!r}")


def moment_orders(moment_ps) -> tuple:
    """The moment orders as ints; raises unless each is a non-negative integer."""
    for p in moment_ps:
        _check_order(p)
    return tuple(int(p) for p in moment_ps)


def v_moment(state, mesh: Mesh, params: Params, p: int) -> float:
    """Density-weighted moment (integral rho*|v|^(p+2))^(1/(p+2))."""
    _check_order(p)
    u, v = velocities(state, mesh, params)
    return moment_sums(state.rho, u, v, mesh, params, (p,))[0][-1] ** (1.0 / (p + 2))


def _gronwall_available(params: Params) -> bool:
    return params.gamma - params.alpha - params.beta_eff >= 0.0


def _gronwall_rate(wvel: float, sql2: float, rho_linf: float, params: Params, p: int) -> float:
    """A(s) = wvel^(p/(p+2)) * sql2^(2/(p+2)) * rho_linf^(gamma - alpha - p*beta/(p+2))."""
    q = p + 2
    er = params.gamma - params.alpha - p * params.beta_eff / q
    return (wvel ** (p / q)) * (sql2 ** (2.0 / q)) * (rho_linf ** er)


def _gronwall_envelope(initial_moment: float, integral: float, params: Params, p: int) -> float:
    """Gronwall envelope for the p-th v-moment.

    bound = (m0^q + K*q*I)^(1/q) * exp(K*I) with q = p + 2, K = a*gamma/mu0,
    m0 the initial moment and I the time integral of the rate A(s) of
    _gronwall_rate, wvel^(p/q) * sql2^(2/q) * rho_linf^(gamma - alpha - p*beta/q).

    Derivation: v solves rho*(v_t + u*v_x) + P(rho)_x = 0, so with
    M = integral of rho*|v|^q, dM/dt = -q * integral of P_x*|v|^p*v.  Since
    v - u = phi(rho)_x = mu0*rho^(alpha-2)*rho_x, the pressure gradient is
    P_x = P'(rho)*rho_x = (a*gamma/mu0) * rho^(gamma+1-alpha) * (v - u), and
    dM/dt <= q*K * integral of rho^(gamma+1-alpha)*|u|*|v|^(p+1).  Taking
    sup|rho^beta*u|^(p/q) out and applying Hoelder with exponents q and
    q/(p+1) bounds that integral by A(s) * M^((p+1)/q); M^((p+1)/q) <= 1 + M
    then gives dM/dt <= q*K*A*(1 + M), whose Gronwall solution is the bound.
    K is the factor P'(rho)/rho^(gamma-1) = a*gamma divided by the
    viscosity coefficient mu0; it equals gamma at a = mu0 = 1.

    Requires gamma - alpha - beta >= 0 (_gronwall_available); outside that
    region the envelope has no closed form (the missing ingredient is a
    bound on 1/rho) and moment_record reports it as unavailable.
    """
    q = p + 2
    k = params.a * params.gamma / params.mu0
    base = initial_moment ** q + k * q * integral
    return base ** (1.0 / q) * math.exp(k * integral)


def reciprocal_residual(state_t, state_next, mesh: Mesh, params: Params) -> float:
    """Residual of the evolution equation satisfied by 1/rho.

    Because w = 1/rho obeys
        dw/dt - d/dx(mu0*rho^(alpha-1)*dw/dx) + 2*mu0*rho^alpha*(dw/dx)^2
              + 2*v*dw/dx - d/dx(v*w) = 0
    identically whenever (rho, v) solves the mass equation, the discrete
    residual (forward difference in time, centered operators in space at the
    earlier time, nominal un-floored viscosity) must vanish under refinement.
    Measured over interior cells only; the clamped boundary cells do not
    follow the PDE.
    """
    dt = state_next.t - state_t.t
    if dt <= 0.0:
        raise ConfigurationError(f"state pair must be forward in time, got dt={dt!r}")
    rho = state_t.rho
    v = state_t.vel if state_t.form == "V" else velocities(state_t, mesh, params)[1]
    w0 = 1.0 / rho
    w1 = 1.0 / state_next.rho
    gw = grad_c(w0, mesh)
    resid = (
        (w1 - w0) / dt
        - diffuse(params.mu0 * rho ** (params.alpha - 1.0), w0, mesh)
        + 2.0 * params.mu0 * rho ** params.alpha * gw * gw
        + 2.0 * v * gw
        - grad_c(v * w0, mesh)
    )
    core = resid[2:-2]
    return math.sqrt(float(np.sum(core * core)) * mesh.dx)


def pressure_identity_residual(state, mesh: Mesh, params: Params) -> float:
    """L2 norm of grad P(rho) - a*gamma*rho^(gamma+1)/mu(rho) * (v - u).

    v - u is the discrete gradient of phi(rho), and phi'(rho) = mu(rho)/rho^2
    makes the two sides agree analytically; the discrete mismatch is pure
    centered-difference truncation, O(dx^2). Uses the nominal viscosity (the
    identity is an exact consequence of the power law, not of the floor).
    """
    u, v = velocities(state, mesh, params)
    return _pressure_identity(state.rho, u, v, mesh, params)


def _pressure_identity(rho, u, v, mesh: Mesh, params: Params) -> float:
    lhs = grad_c(pressure(rho, params), mesh)
    mu_nominal = params.mu0 * rho ** params.alpha
    rhs = params.a * params.gamma * rho ** (params.gamma + 1.0) / mu_nominal * (v - u)
    # the two end cells use one-sided gradients whose round-off does not
    # cancel between the sides even on constant states; measure the identity
    # where both gradients are centered
    core = (lhs - rhs)[1:-1]
    return math.sqrt(float(np.sum(core * core)) * mesh.dx)


def density_report(state, mesh: Mesh, profile: BackgroundProfile) -> dict:
    """Density extrema, the max of 1/rho, and the H1 distance to the background."""
    min_rho = float(np.min(state.rho))
    max_rho = float(np.max(state.rho))
    return {
        "min_rho": min_rho,
        "max_rho": max_rho,
        "inv_rho_max": 1.0 / min_rho,
        "rho_h1": norm(state.rho - profile.values, mesh, "h1"),
    }


def moment_sums(rho, u, v, mesh: Mesh, params: Params, moment_ps) -> list:
    """The reductions moment_record reads, as floats, one list per row of a
    batch (one list for a field): v_inf, the weighted sup of u, the integral
    of rho*u^2, max rho and, per p of moment_ps, the integral of rho*|v|^(p+2).
    Each is computed for all rows at once; params may be a solver.Batch.

    Cells with |v| < 2^(-1022/q), q = p + 2, add an exact 0, not a sub-normal
    power (some 20 times slower in numpy); a row whose sum is below 2^-900,
    where such a term might reach the last bit, or not finite, is summed
    again in full.  So each integral is np.sum(rho * |v|^q) bit for bit."""
    abs_v = np.abs(v)
    sums = [abs_v.max(axis=-1), _weighted_sup(rho, u, params),
            np.sum(rho * u * u, axis=-1) * mesh.dx, rho.max(axis=-1)]
    for q in (p + 2 for p in moment_ps):
        kept = ~(abs_v < 2.0 ** (-1022 / q))  # NaN is kept
        s = np.array(np.sum(rho * np.power(abs_v, q, out=np.zeros_like(abs_v), where=kept), axis=-1))
        redo = ~(np.isfinite(s) & (s >= 2.0 ** -900))
        s[redo] = np.sum(rho[redo] * abs_v[redo] ** q, axis=-1)
        sums.append(s * mesh.dx)
    return np.array(sums).reshape(len(sums), -1).T.tolist()


def moment_record(t: float, sums, params: Params, acc: RunAccumulators,
                  h: float | None, moment_ps, gronwall_slack: float) -> MomentRecord:
    """The v moments of one frame and their Gronwall check.

    sums is the frame's row of moment_sums, h is acc.advance(t).  The first
    frame's moments become the envelope's initial moments; every later frame
    adds its panel to the running trapezoid of the rate A(s) and compares
    each moment with the envelope.  moment_ps holds validated orders.
    """
    v_inf, wvel, rho_u2, rho_linf, *integrals = sums
    sql2 = math.sqrt(rho_u2)
    moments = {p: m ** (1.0 / (p + 2)) for p, m in zip(moment_ps, integrals)}
    if acc.initial_moments is None:
        acc.initial_moments = dict(moments)

    gron_bound: dict = {}
    gron_pass: dict = {}
    available = _gronwall_available(params)
    for p, measured in moments.items():
        bound = None
        if available:
            rate = _gronwall_rate(wvel, sql2, rho_linf, params, p)
            if h is None:
                acc.gron_integral[p] = 0.0
            else:
                acc.gron_integral[p] += 0.5 * (rate + acc.gron_prev_rate[p]) * h
            acc.gron_prev_rate[p] = rate
            bound = _gronwall_envelope(acc.initial_moments[p], acc.gron_integral[p], params, p)
        gron_bound[p] = bound
        gron_pass[p] = None if bound is None else bool(measured <= bound * (1.0 + gronwall_slack))

    return MomentRecord(
        t=t,
        v_inf=v_inf,
        wvel_inf=wvel,
        sqrt_rho_u_l2=sql2,
        moments=moments,
        gron_bound=gron_bound,
        gron_pass=gron_pass,
    )


def collect(state_u, state_v, mesh: Mesh, params: Params, profile: BackgroundProfile,
            acc: RunAccumulators, *, moment_ps=(0, 2, 8, 30), gronwall_slack: float = 0.10,
            resid_recip: float = math.nan, correction: np.ndarray | None = None) -> DiagnosticsRecord:
    """Assemble one DiagnosticsRecord and advance the cumulative integrals.

    state_u and state_v are the two forms of one snapshot (same density).
    Each functional sees the velocity pair `velocities` would give for the
    state it reads: (u, u + c) from state_u, (v - c, v) from state_v, with
    c = d/dx phi(rho) computed once, or passed in as correction.
    moment_ps holds validated orders (moment_orders).
    """
    t = state_u.t
    rho = state_u.rho
    u = state_u.vel
    v = state_v.vel
    c = phi_gradient(rho, mesh, params) if correction is None else correction
    relp = relative_pressure(rho, profile.values, params)

    du_rate = _dissipation_u(rho, u, mesh, params)
    integrand = _bd_integrand(c, rho, mesh, params)
    dbd_rate = integrate(integrand, mesh)
    dbd_rate_clamped = max(0.0, dbd_rate)
    h = acc.advance(t)
    if h is not None:
        acc.cum_diss_u += 0.5 * (acc.prev_du_rate + du_rate) * h
        acc.cum_diss_bd += 0.5 * (acc.prev_dbd_rate + dbd_rate_clamped) * h
    acc.prev_du_rate = du_rate
    acc.prev_dbd_rate = dbd_rate_clamped

    dens = density_report(state_u, mesh, profile)
    (sums,) = moment_sums(rho, u, v, mesh, params, moment_ps)
    mom = moment_record(t, sums, params, acc, h, moment_ps, gronwall_slack)
    return DiagnosticsRecord(
        **vars(mom),
        mass=integrate(rho, mesh),
        energy=_kinetic_plus(rho, u, relp, mesh),
        bd_entropy=_kinetic_plus(rho, u + c, relp, mesh),
        diss_u=acc.cum_diss_u,
        diss_bd=acc.cum_diss_bd,
        diss_u_rate=du_rate,
        diss_bd_rate=dbd_rate,
        bd_integrand_min=float(integrand.min()),
        min_rho=dens["min_rho"],
        max_rho=dens["max_rho"],
        inv_rho_max=dens["inv_rho_max"],
        rho_h1=dens["rho_h1"],
        resid_recip=resid_recip,
        resid_pident=_pressure_identity(rho, v - c, v, mesh, params),
    )
