"""Runtime monitors for the a priori estimate chain.

`collect` is the one evaluator of an output frame: from the two forms of a
snapshot it computes every quantity the analysis bounds -- the
relative-entropy energy, its effective-velocity (BD) variant, both
dissipation rates, the weighted sup norm, the density moments of v with
their Gronwall envelope, the density extrema and the residual of the
pressure identity -- in one pass, with d/dx phi(rho), the relative pressure,
P(rho) and |v| computed once and shared.  Every time integral is a running
trapezoid over the output cadence, carried between frames by
RunAccumulators.  The v moments and their Gronwall check come from
`moment_sums` (one numpy call per quantity for all rows of a batch) and
`moment_record`, which are also the whole per-frame work of a sweep.  The
residual of the reciprocal-density equation needs a second snapshot and is
`reciprocal_residual`'s, which the caller passes in.
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
    "reciprocal_residual",
    "moment_orders",
    "moment_sums",
    "moment_record",
    "collect",
]


@dataclass(frozen=True)
class MomentRecord:
    """The v moments of one output frame and their Gronwall check.

    moments maps p to the density-weighted L^{p+2} norm of v; gron_bound
    maps p to the Gronwall envelope (None outside the theorem region, inf
    past the float range) and gron_pass to the slack-adjusted comparison
    outcome (None when the bound is None or inf).  wvel_inf and
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

    The one U<->V conversion of the package: the solver's form maps and the
    output frames derive the pair here.
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


def moment_orders(moment_ps) -> tuple:
    """The moment orders as ints; raises unless they are distinct non-negative
    integers (each order names a column of timeseries.csv)."""
    for p in moment_ps:
        if not math.isfinite(p) or int(p) != p or p < 0:
            raise ConfigurationError(f"moment order p must be a non-negative integer, got {p!r}")
    orders = tuple(int(p) for p in moment_ps)
    if len(set(orders)) != len(orders):
        raise ConfigurationError(f"moment orders must be distinct, got {tuple(moment_ps)!r}")
    return orders


def _gronwall_available(params: Params) -> bool:
    return params.gamma - params.alpha - params.beta_eff >= 0.0


def _gronwall_rate(wvel: float, sql2: float, rho_linf: float, params: Params, p: int) -> float:
    """A(s) = wvel^(p/(p+2)) * sql2^(2/(p+2)) * rho_linf^(gamma - alpha - p*beta/(p+2)),
    or inf past the float range."""
    q = p + 2
    er = params.gamma - params.alpha - p * params.beta_eff / q
    try:
        return (wvel ** (p / q)) * (sql2 ** (2.0 / q)) * (rho_linf ** er)
    except OverflowError:
        return math.inf


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
    bound on 1/rho) and moment_record reports it as unavailable.  A bound
    past the float range is inf, which checks nothing either.
    """
    q = p + 2
    k = params.a * params.gamma / params.mu0
    try:
        base = initial_moment ** q + k * q * integral
        return base ** (1.0 / q) * math.exp(k * integral)
    except OverflowError:
        return math.inf


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


def moment_sums(rho, u, v, mesh: Mesh, params: Params, moment_ps) -> list:
    """The reductions moment_record reads, as floats, one list per row of a
    batch (one list for a field): v_inf, the weighted sup max |rho^beta * u|
    (beta the configured weight exponent), the integral of rho*u^2, max rho
    and, per p of moment_ps, the integral of rho*|v|^(p+2).
    Each is computed for all rows at once; params may be a solver.Batch.

    Cells with |v| < 2^(-1022/q), q = p + 2, add an exact 0, not a sub-normal
    power (some 20 times slower in numpy); a row whose sum is below 2^-900,
    where such a term might reach the last bit, or not finite, is summed
    again in full.  So each integral is np.sum(rho * |v|^q) bit for bit."""
    abs_v = np.abs(v)
    sums = [abs_v.max(axis=-1), np.abs(rho ** params.beta_eff * u).max(axis=-1),
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
        gron_pass[p] = None if bound in (None, math.inf) else bool(measured <= bound * (1.0 + gronwall_slack))

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
    The energy, the viscous dissipation and the weighted sup read u from
    state_u; the moments read v from state_v, and the BD entropy reads
    u + c with c = d/dx phi(rho), computed once or passed in as correction.
    moment_ps holds validated orders (moment_orders).

    The BD dissipation integrand d/dx phi(rho) * d/dx P(rho), P = a*rho^gamma,
    is analytically a*gamma*mu(rho)*rho^(gamma-3)*(drho/dx)^2 >= 0; discretely
    both centered gradients share the sign of the same density difference,
    so bd_integrand_min < 0 can only come from round-off.  resid_pident is
    the L2 norm of d/dx P(rho) - a*gamma*rho^(gamma+1)/mu(rho) * (v - u), pure
    O(dx^2) truncation since phi'(rho) = mu(rho)/rho^2; it uses the nominal,
    un-floored viscosity (the identity follows from the power law, not from
    the floor).
    """
    t = state_u.t
    rho = state_u.rho
    u = state_u.vel
    v = state_v.vel
    c = phi_gradient(rho, mesh, params) if correction is None else correction
    relp = relative_pressure(rho, profile.values, params)
    grad_p = grad_c(pressure(rho, params), mesh)

    gu = grad_c(u, mesh)
    du_rate = integrate(viscosity(rho, params) * gu * gu, mesh)
    integrand = c * grad_p
    dbd_rate = integrate(integrand, mesh)
    dbd_rate_clamped = max(0.0, dbd_rate)
    h = acc.advance(t)
    if h is not None:
        acc.cum_diss_u += 0.5 * (acc.prev_du_rate + du_rate) * h
        acc.cum_diss_bd += 0.5 * (acc.prev_dbd_rate + dbd_rate_clamped) * h
    acc.prev_du_rate = du_rate
    acc.prev_dbd_rate = dbd_rate_clamped

    mu_nominal = params.mu0 * rho ** params.alpha
    # v - u is v - (v - c), the pair velocities gives for state_v; c alone
    # differs in the last bits, and the artifacts pin those
    rhs = params.a * params.gamma * rho ** (params.gamma + 1.0) / mu_nominal * (v - (v - c))
    # the two end cells use one-sided gradients whose round-off does not
    # cancel between the sides even on constant states; measure the identity
    # where both gradients are centered
    pident = (grad_p - rhs)[1:-1]

    min_rho = float(np.min(rho))
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
        min_rho=min_rho,
        max_rho=float(np.max(rho)),
        inv_rho_max=1.0 / min_rho,
        rho_h1=norm(rho - profile.values, mesh, "h1"),
        resid_recip=resid_recip,
        resid_pident=math.sqrt(float(np.sum(pident * pident)) * mesh.dx),
    )
