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
`Gronwall.check`, the one evaluator of the rate, its running trapezoid,
the envelope and the verdict, in Python floats; `moment_record` makes its
output a record.  A sweep frame calls the same two and keeps no record.  The
residual of the reciprocal-density equation needs a second snapshot and is
`reciprocal_residual`'s, which the caller passes in.  A frame's fields
were checked when its state was made and at every step, so both apply the
kernels' operators and laws (grad_c, diffuse, viscosity, pressure,
potential, relative_pressure) to them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constitutive import Params
from .errors import ConfigurationError, integer
from .mesh import Mesh, BackgroundProfile, integrate

__all__ = [
    "MomentRecord",
    "DiagnosticsRecord",
    "RunAccumulators",
    "phi_gradient",
    "velocities",
    "reciprocal_residual",
    "moment_orders",
    "moment_sums",
    "Gronwall",
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
    history would add it, so the sums match that bit for bit.  gronwall
    is the run's Gronwall check of its v moments.
    """

    t_prev: float | None = None
    cum_diss_u: float = 0.0
    cum_diss_bd: float = 0.0
    prev_du_rate: float = 0.0
    prev_dbd_rate: float = 0.0
    gronwall: Gronwall | None = None

    def advance(self, t: float) -> float | None:
        """Make t the current frame time; return the panel width since the
        previous frame, or None at the first frame."""
        h = None if self.t_prev is None else t - self.t_prev
        self.t_prev = t
        return h


def phi_gradient(rho, mesh: Mesh, params: Params) -> np.ndarray:
    """d/dx phi(rho), the difference v - u of the two velocities (per row of a batch)."""
    return kernels.grad_c(kernels.per_value(kernels.potential, rho, params.alpha, params.mu0), mesh.dx)


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
    orders = tuple(integer(p, "moment order p", 0) for p in moment_ps)
    if len(set(orders)) != len(orders):
        raise ConfigurationError(f"moment orders must be distinct, got {tuple(moment_ps)!r}")
    return orders


class Gronwall:
    """The Gronwall check of one run's v moments, one check() per output frame.

    The envelope of the p-th moment (q = p + 2, K = a*gamma/mu0) is
    (m0^q + K*q*I)^(1/q) * exp(K*I), with m0 the first frame's moment and I
    the running trapezoid over the output frames of the rate
    A(s) = wvel^(p/q) * sql2^(2/q) * rho_linf^(gamma - alpha - p*beta/q).

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

    The envelope needs gamma - alpha - beta >= 0; outside that region it
    has no closed form (the missing ingredient is a bound on 1/rho) and
    reads None.  A rate or bound past the float range is inf, which checks
    nothing either.  The arithmetic is Python float arithmetic (numpy's
    power differs from Python's in some last bits, which the artifacts
    pin), with the per-order constants computed once.
    """

    def __init__(self, params: Params, moment_ps, gronwall_slack: float):
        self.k = params.a * params.gamma / params.mu0
        self.factor = 1.0 + gronwall_slack
        self.orders = []  # per p: q, 1/q, the three exponents of the rate and K*q
        for p in moment_ps:
            q = p + 2
            self.orders.append((q, 1.0 / q, p / q, 2.0 / q,
                                params.gamma - params.alpha - p * params.beta_eff / q, self.k * q))
        self.available = params.gamma - params.alpha - params.beta_eff >= 0.0
        self.initial = None  # the first frame's moments
        self.integral = [0.0] * len(self.orders)
        self.rate = [0.0] * len(self.orders)

    def check(self, h: float | None, sums) -> tuple:
        """(sql2, moments, bounds, verdicts) of one frame, one list entry per order.

        sums is the frame's row of moment_sums and h the time since the
        previous frame (None at the first, whose moments become m0).  A
        verdict is moment <= bound * (1 + slack), or None when the bound is
        None or inf.
        """
        _, wvel, rho_u2, rho_linf, *integrals = sums
        sql2 = math.sqrt(rho_u2)
        moments = [m ** iq for m, (_, iq, *_) in zip(integrals, self.orders)]
        if self.initial is None:
            self.initial = moments
        if not self.available:
            none = [None] * len(moments)
            return sql2, moments, none, none
        bounds, verdicts = [], []
        for j, (q, iq, ew, es, er, kq) in enumerate(self.orders):
            try:
                rate = (wvel ** ew) * (sql2 ** es) * (rho_linf ** er)
            except OverflowError:
                rate = math.inf
            integral = 0.0 if h is None else self.integral[j] + 0.5 * (rate + self.rate[j]) * h
            self.integral[j], self.rate[j] = integral, rate
            try:
                bound = (self.initial[j] ** q + kq * integral) ** iq * math.exp(self.k * integral)
            except OverflowError:
                bound = math.inf
            bounds.append(bound)
            verdicts.append(None if bound == math.inf else bool(moments[j] <= bound * self.factor))
        return sql2, moments, bounds, verdicts


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
    gw = kernels.grad_c(w0, mesh.dx)
    resid = (
        (w1 - w0) / dt
        - kernels.diffuse(params.mu0 * rho ** (params.alpha - 1.0), w0, mesh.dx)
        + 2.0 * kernels.viscosity(rho, params.alpha, params.mu0, 0.0) * gw * gw
        + 2.0 * v * gw
        - kernels.grad_c(v * w0, mesh.dx)
    )
    core = resid[2:-2]
    return math.sqrt(float(np.sum(core * core)) * mesh.dx)


def moment_sums(rho, u, v, mesh: Mesh, params: Params, moment_ps) -> list:
    """The reductions Gronwall.check reads, as floats, one list per row of a
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
        if redo.any():
            s[redo] = np.sum(rho[redo] * abs_v[redo] ** q, axis=-1)
        sums.append(s * mesh.dx)
    return np.array(sums).reshape(len(sums), -1).T.tolist()


def moment_record(t: float, sums, params: Params, acc: RunAccumulators,
                  h: float | None, moment_ps, gronwall_slack: float) -> MomentRecord:
    """The v moments of one frame and their Gronwall check, as a record.

    sums is the frame's row of moment_sums, h is acc.advance(t).  The
    check is acc.gronwall's, made at the first frame.  moment_ps holds
    validated orders.
    """
    if acc.gronwall is None:
        acc.gronwall = Gronwall(params, moment_ps, gronwall_slack)
    sql2, moments, bounds, verdicts = acc.gronwall.check(h, sums)
    return MomentRecord(
        t=t,
        v_inf=sums[0],
        wvel_inf=sums[1],
        sqrt_rho_u_l2=sql2,
        moments=dict(zip(moment_ps, moments)),
        gron_bound=dict(zip(moment_ps, bounds)),
        gron_pass=dict(zip(moment_ps, verdicts)),
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
    relp = kernels.relative_pressure(rho, profile.values, params.gamma, params.a)
    grad_p = kernels.grad_c(kernels.pressure(rho, params.gamma, params.a), mesh.dx)

    gu = kernels.grad_c(u, mesh.dx)
    du_rate = integrate(kernels.viscosity(rho, params.alpha, params.mu0, params.visc_floor) * gu * gu, mesh)
    integrand = c * grad_p
    dbd_rate = integrate(integrand, mesh)
    dbd_rate_clamped = max(0.0, dbd_rate)
    h = acc.advance(t)
    if h is not None:
        acc.cum_diss_u += 0.5 * (acc.prev_du_rate + du_rate) * h
        acc.cum_diss_bd += 0.5 * (acc.prev_dbd_rate + dbd_rate_clamped) * h
    acc.prev_du_rate = du_rate
    acc.prev_dbd_rate = dbd_rate_clamped

    mu_nominal = kernels.viscosity(rho, params.alpha, params.mu0, 0.0)
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
    dev = rho - profile.values
    gdev = kernels.grad_c(dev, mesh.dx)
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
        rho_h1=math.sqrt(float(np.sum(dev * dev) * mesh.dx) + float(np.sum(gdev * gdev) * mesh.dx)),
        resid_recip=resid_recip,
        resid_pident=math.sqrt(float(np.sum(pident * pident)) * mesh.dx),
    )
