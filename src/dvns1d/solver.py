"""Time integration of the compressible system in its two formulations.

U-form evolves (rho, rho*u) conservatively: mass and momentum fluxes are
upwinded at faces, pressure enters through the centered gradient and the
velocity diffusion through the three-point flux form.  V-form evolves
(rho, v) where v = u + d/dx phi(rho): the density equation gains an explicit
diffusion term and v obeys a non-conservative transport equation divided
through by rho.

Two time schemes step either form.  `explicit` is a two-stage midpoint
update, `_midpoint`, bound by the diffusive limit dx^2/(2 nu) as well as the
acoustic one; it is the reference scheme.  `imex`, the default of `run`,
`cfl_dt`, `step_u` and `step_v` alike, is ARS(2,2,2), `_ars`: the viscosity
(U form) or the density diffusion (V form) is implicit, one tridiagonal
solve per implicit stage, and only the acoustic limit binds.  Both clamp the two outermost cells on each side to the
incoming boundary values (the far field is constant by construction) and
treat a non-positive density as a recorded vacuum-breach event rather than
a numerical accident.

The stability limit is evaluated once per step: `run` computes it, derives
dt from it and hands it to the stepper as `dt_max`, which the stepper checks
dt against instead of evaluating it again.  A stepper called without
`dt_max` evaluates the limit itself.

`run` is the one stepping loop.  What it records at an output frame is up
to a frame function passed as `monitor`: the default, `_emit`, builds the
full DiagnosticsRecord (with its reciprocal-residual probe step); a caller
that reads only part of a record passes a leaner one.  The run's status
comes from the loop alone, whichever frame function is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, kernels
from .constitutive import Params
from .errors import ConfigurationError, DomainError, VacuumBreach
from .mesh import Mesh, BackgroundProfile, as_field

__all__ = [
    "FlowState",
    "StepReport",
    "Trajectory",
    "U_FORM",
    "V_FORM",
    "effective_velocity",
    "recover_u",
    "EXPLICIT",
    "IMEX",
    "TIME_SCHEMES",
    "cfl_dt",
    "step_u",
    "step_v",
    "run",
]

U_FORM = "U"
V_FORM = "V"

EXPLICIT = "explicit"
IMEX = "imex"
TIME_SCHEMES = (IMEX, EXPLICIT)

# ARS(2,2,2): implicit diagonal gamma and the explicit weight delta of the
# first stage in the last (Ascher, Ruuth & Spiteri 1997)
_ARS_G = 1.0 - 1.0 / math.sqrt(2.0)
_ARS_D = 1.0 - 1.0 / (2.0 * _ARS_G)

# number of cells frozen to far-field values at each end
_CLAMP = 2


@dataclass(eq=False)
class FlowState:
    """Density plus one velocity field; `form` says whether vel is u or v."""

    rho: np.ndarray
    vel: np.ndarray
    form: str
    t: float = 0.0

    def copy(self) -> "FlowState":
        return FlowState(self.rho.copy(), self.vel.copy(), self.form, self.t)


@dataclass(frozen=True)
class StepReport:
    dt_used: float
    min_rho: float
    max_rho: float


@dataclass(eq=False)
class Trajectory:
    """Output frames of one run plus its termination metadata.

    records holds what run's frame function returned at each frame: a
    DiagnosticsRecord by default.
    """

    form: str
    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    records: list = field(default_factory=list)
    status: str = "completed"
    breach_time: float | None = None
    breach_cell: int | None = None
    steps: int = 0
    min_rho_ever: float = math.inf


def make_state(rho, vel, form: str, mesh: Mesh, t: float = 0.0) -> FlowState:
    if form not in (U_FORM, V_FORM):
        raise ConfigurationError(f"form must be 'U' or 'V', got {form!r}")
    rho_arr = as_field(rho, mesh)
    _require_positive(rho_arr, float(t))
    return FlowState(rho_arr, as_field(vel, mesh), form, float(t))


def _require_positive(rho: np.ndarray, t: float) -> None:
    i = int(rho.argmin())
    if rho[i] <= 0.0:
        raise DomainError(f"non-positive density {rho[i]!r} in cell {i} at t={t:g}")


def effective_velocity(state: FlowState, mesh: Mesh, params: Params) -> FlowState:
    """Map (rho, u) to (rho, v) with v = u + d/dx phi(rho)."""
    if state.form != U_FORM:
        raise ConfigurationError("effective_velocity expects a U-form state")
    _require_positive(state.rho, state.t)
    _, v = diagnostics.velocities(state, mesh, params)
    return FlowState(state.rho.copy(), v, V_FORM, state.t)


def recover_u(state: FlowState, mesh: Mesh, params: Params) -> FlowState:
    """Exact discrete inverse of effective_velocity (same gradient operator)."""
    if state.form != V_FORM:
        raise ConfigurationError("recover_u expects a V-form state")
    _require_positive(state.rho, state.t)
    u, _ = diagnostics.velocities(state, mesh, params)
    return FlowState(state.rho.copy(), u, U_FORM, state.t)


def cfl_dt(state: FlowState, mesh: Mesh, params: Params, safety: float = 0.4, *,
           time_scheme: str = IMEX) -> float:
    """Stability limit of one step of time_scheme (default imex, as in run).

    explicit: safety * min( dx / max(|vel| + c), dx^2 / (2 max nu) ) with
    c = sqrt(a*gamma*rho^(gamma-1)) and nu the kinematic diffusivity that the
    stepper actually applies, max(mu_floor, mu(rho)) / rho.
    imex: the diffusion is implicit, so only the acoustic limit of the
    explicit terms, safety * dx / max(|w| + c); w is u in the U form and the
    larger of |v| and the speed |u| = |v - phi(rho)_x| that carries v in the
    V form.
    """
    _check_safety(safety)
    imex = uses_imex(time_scheme)
    if not (np.isfinite(state.rho).all() and np.isfinite(state.vel).all()):
        raise DomainError(f"non-finite field at t={state.t:g}")
    _require_positive(state.rho, state.t)
    speed = state.vel
    if imex and state.form == V_FORM:
        u, _ = diagnostics.velocities(state, mesh, params)
        speed = np.maximum(np.abs(u), np.abs(state.vel))
    wave, nu = kernels.stability_terms(
        state.rho, speed, params.alpha, params.gamma, params.a, params.mu0, params.visc_floor
    )
    limit = mesh.dx / wave
    if not imex:
        limit = min(limit, mesh.dx * mesh.dx / (2.0 * nu))
    # a finite state whose wave speed or diffusivity overflows has no
    # usable step: that is a loss of numerics, not a step of zero length
    if not limit > 0.0:
        raise DomainError(f"stability limit {limit!r} is not positive at t={state.t:g}")
    return safety * limit


def _check_safety(safety: float) -> None:
    if not (0.0 < safety <= 1.0):
        raise ConfigurationError(f"safety must lie in (0, 1], got {safety!r}")


def uses_imex(time_scheme: str) -> bool:
    """Whether time_scheme is IMEX; ConfigurationError unless it is one of TIME_SCHEMES."""
    if time_scheme not in TIME_SCHEMES:
        raise ConfigurationError(f"time_scheme must be one of {TIME_SCHEMES}, got {time_scheme!r}")
    return time_scheme == IMEX


def _check_dt(dt: float, state: FlowState, mesh: Mesh, params: Params, dt_max: float | None,
              time_scheme: str) -> None:
    """Raise if dt exceeds the scheme's stability limit (evaluated here unless given)."""
    if dt_max is None:
        dt_max = cfl_dt(state, mesh, params, 1.0, time_scheme=time_scheme)
    if dt > dt_max * (1.0 + 1e-6):
        raise DomainError(f"dt={dt:g} exceeds the stability limit {dt_max:g}")


def _clamp_ends(arr: np.ndarray, ref: np.ndarray) -> None:
    arr[:_CLAMP] = ref[:_CLAMP]
    arr[-_CLAMP:] = ref[-_CLAMP:]


def _check_vacuum(rho: np.ndarray, t: float) -> float:
    """Raise VacuumBreach on a non-positive cell; otherwise return min rho."""
    i = int(rho.argmin())
    low = float(rho[i])
    if low <= 0.0:
        raise VacuumBreach(t, i, low)
    return low


def _keep(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return x


def _midpoint(state: FlowState, mesh: Mesh, params: Params, dt: float, dt_max: float | None,
              rhs, to_unknown, to_vel) -> tuple[FlowState, StepReport]:
    """One two-stage midpoint step of the system whose right-hand side is rhs.

    The stepped pair is (rho, q) with q = to_unknown(vel, rho); rhs takes
    (rho, vel) and returns (d/dt rho, d/dt q), and to_vel(q, rho) maps q back.
    """
    _check_dt(dt, state, mesh, params, dt_max, EXPLICIT)
    rho0, vel0 = state.rho, state.vel
    args = (mesh.dx, params.alpha, params.gamma, params.a, params.mu0, params.visc_floor)

    # blow-ups surface as non-finite fields and become a "numerics" status;
    # the intermediate overflow itself is expected, not worth a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        q0 = to_unknown(vel0, rho0)
        drho, dq = rhs(rho0, vel0, *args)
        rho_h = rho0 + 0.5 * dt * drho
        q_h = q0 + 0.5 * dt * dq
        _clamp_ends(rho_h, rho0)
        _clamp_ends(q_h, q0)
        _check_vacuum(rho_h, state.t + 0.5 * dt)

        drho, dq = rhs(rho_h, to_vel(q_h, rho_h), *args)
        rho1 = rho0 + dt * drho
        q1 = q0 + dt * dq
        _clamp_ends(rho1, rho0)
        _clamp_ends(q1, q0)
        min_rho = _check_vacuum(rho1, state.t + dt)

        out = FlowState(rho1, to_vel(q1, rho1), state.form, state.t + dt)
    return out, StepReport(dt_used=dt, min_rho=min_rho, max_rho=float(rho1.max()))


def _ars(state: FlowState, mesh: Mesh, params: Params, dt: float, dt_max: float | None,
         explicit, stage) -> tuple[FlowState, StepReport]:
    """One ARS(2,2,2) step: two explicit evaluations, two implicit stages.

    explicit is a kernel with the signature of rhs_u/rhs_v that returns the
    explicit terms (d/dt rho, d/dt q) of the stepped pair.
    stage(state, mesh, params, dt, inc, g, t) completes a stage from the
    explicit increments inc and returns (rho, vel, g2): at the second stage
    g is None and g2 its implicit terms, which the last stage receives,
    scaled, as g (and returns None).  The last stage is the step (stiffly
    accurate).
    """
    _check_dt(dt, state, mesh, params, dt_max, IMEX)
    args = (mesh.dx, params.alpha, params.gamma, params.a, params.mu0, params.visc_floor)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        f1 = explicit(state.rho, state.vel, *args)
        inc = [(_ARS_G * dt) * f for f in f1]
        rho2, vel2, g2 = stage(state, mesh, params, dt, inc, None, state.t + _ARS_G * dt)
        f2 = explicit(rho2, vel2, *args)
        inc = [dt * (_ARS_D * a + (1.0 - _ARS_D) * b) for a, b in zip(f1, f2)]
        rho1, vel1, _ = stage(state, mesh, params, dt, inc, ((1.0 - _ARS_G) * dt) * g2, state.t + dt)
    out = FlowState(rho1, vel1, state.form, state.t + dt)
    return out, StepReport(dt_used=dt, min_rho=_check_vacuum(rho1, out.t), max_rho=float(rho1.max()))


def _stage_u(state: FlowState, mesh: Mesh, p: Params, dt: float, inc, g, t: float):
    """The mass is explicit; the velocity then solves
    (rho_s - gamma*dt*D_mu(rho_s)) u_s = m0 + inc_m (+ g)."""
    rho0, u0 = state.rho, state.vel
    rho = rho0 + inc[0]
    _clamp_ends(rho, rho0)
    _check_vacuum(rho, t)
    m = u0 * rho0 + inc[1]
    if g is not None:
        m += g
    _clamp_ends(m, u0)  # identity rows
    mu = kernels.viscosity(rho, p.alpha, p.mu0, p.visc_floor)
    u = kernels.solve_tridiagonal(*kernels.diffusion_bands(rho, mu, _ARS_G * dt / mesh.dx**2), m)
    return rho, u, kernels.diffuse(mu, u, mesh.dx) if g is None else None


def _stage_v(state: FlowState, mesh: Mesh, p: Params, dt: float, inc, g, t: float):
    """v is explicit; the density then solves
    (I - gamma*dt*D_c) rho_s = rho0 + inc_rho (+ g) for its increment
    rho_s - rho0, whose right-hand side is exactly 0 on a constant state.

    The diffusivity c is taken at rho0 for a first solve and at that first
    answer for the second: a diffusivity lagging the stage by O(dt) would
    leave the step first order for alpha != 1.
    """
    rho0, v0, dx = state.rho, state.vel, mesh.dx
    v = v0 + inc[1]
    _clamp_ends(v, v0)
    known = inc[0] if g is None else inc[0] + g
    rho = rho0
    for _ in range(2):
        c = kernels.diffusivity(rho, p.alpha, p.mu0, p.visc_floor)
        rhs = known + (_ARS_G * dt) * kernels.diffuse(c, rho0, dx)
        rhs[:_CLAMP] = rhs[-_CLAMP:] = 0.0  # identity rows
        bands = kernels.diffusion_bands(np.ones_like(rho0), c, _ARS_G * dt / dx**2)
        rho = rho0 + kernels.solve_tridiagonal(*bands, rhs)
        _check_vacuum(rho, t)
    if g is not None:
        return rho, v, None
    return rho, v, kernels.diffuse(kernels.diffusivity(rho, p.alpha, p.mu0, p.visc_floor), rho, dx)


def step_u(state: FlowState, mesh: Mesh, params: Params, dt: float,
           dt_max: float | None = None, *, time_scheme: str = IMEX) -> tuple[FlowState, StepReport]:
    """One step of the conservative (rho, rho*u) system: two-stage midpoint
    (explicit) or ARS(2,2,2) with implicit viscosity (imex).

    time_scheme defaults to imex, as in run and cfl_dt.  dt_max is the
    stability limit cfl_dt(state, ..., 1.0, time_scheme=time_scheme) when the
    caller has already evaluated it; otherwise it is evaluated here.
    """
    if state.form != U_FORM:
        raise ConfigurationError("step_u expects a U-form state")
    if uses_imex(time_scheme):
        return _ars(state, mesh, params, dt, dt_max, kernels.transport_u, _stage_u)
    # stepped unknown m = u*rho, bit-equal to rho*u
    return _midpoint(state, mesh, params, dt, dt_max, kernels.rhs_u, np.multiply, np.divide)


def step_v(state: FlowState, mesh: Mesh, params: Params, dt: float,
           dt_max: float | None = None, *, time_scheme: str = IMEX) -> tuple[FlowState, StepReport]:
    """One step of the (rho, v) system: two-stage midpoint (explicit) or
    ARS(2,2,2) with implicit density diffusion (imex).

    Density: d/dt rho = d/dx(mu(rho)/rho * d/dx rho) - d/dx(rho v).
    Velocity: d/dt v = -u * (upwind d/dx v) - grad P / rho with
    u = v - d/dx phi(rho) recomputed at each stage.  time_scheme and dt_max
    as in step_u.
    """
    if state.form != V_FORM:
        raise ConfigurationError("step_v expects a V-form state")
    if uses_imex(time_scheme):
        return _ars(state, mesh, params, dt, dt_max, kernels.transport_v, _stage_v)
    return _midpoint(state, mesh, params, dt, dt_max, kernels.rhs_v, _keep, _keep)


def _emit(state: FlowState, mesh: Mesh, profile: BackgroundProfile, params: Params,
          acc, moment_ps, gronwall_slack: float, probe_safety: float):
    """The default frame function of `run`: the full DiagnosticsRecord."""
    c = diagnostics.phi_gradient(state.rho, mesh, params)
    u, v = diagnostics.velocities(state, mesh, params, c)
    su = FlowState(state.rho, u, U_FORM, state.t)
    sv = FlowState(state.rho, v, V_FORM, state.t)

    # forward-time probe for the reciprocal-equation residual: one extra
    # V-form step whose pair (t, t+dt) feeds the finite-difference residual.
    # It is explicit under either scheme, so the residual measures the same
    # quantity; an imex step at the acoustic limit would add an O(dx) time
    # difference to it
    try:
        limit = cfl_dt(sv, mesh, params, 1.0, time_scheme=EXPLICIT)
        sv_next, _ = step_v(sv, mesh, params, probe_safety * limit, limit, time_scheme=EXPLICIT)
        resid_recip = diagnostics.reciprocal_residual(sv, sv_next, mesh, params)
    except (VacuumBreach, DomainError):
        resid_recip = math.nan

    return diagnostics.collect(
        su, sv, mesh, params, profile, acc,
        moment_ps=moment_ps, gronwall_slack=gronwall_slack, resid_recip=resid_recip,
        correction=c,
    )


def run(state0: FlowState, mesh: Mesh, profile: BackgroundProfile, params: Params, *,
        T: float, output_dt: float, safety: float = 0.4,
        moment_ps: tuple = (0, 2, 8, 30), gronwall_slack: float = 0.10,
        monitor=None, time_scheme: str = IMEX) -> Trajectory:
    """Integrate from t=0 to T, emitting diagnostics every output_dt.

    A vacuum breach or a loss of finiteness terminates the run and is
    recorded on the trajectory (status "vacuum" / "numerics"); only
    configuration mistakes raise.  time_scheme, one of TIME_SCHEMES, picks
    the stepper and its stability limit.

    monitor is the frame function: at every output frame it is called as
    monitor(state, mesh, profile, params, acc, moment_ps, gronwall_slack,
    safety), with acc the run's RunAccumulators, and returns the frame's
    record.  The default, `_emit`, returns the full DiagnosticsRecord; a
    caller that reads only part of it (a sweep point) can pass a leaner
    one.  The frame function decides no status: that is the stepping
    loop's alone.
    """
    if T < 0.0:
        raise ConfigurationError(f"T must be non-negative, got {T!r}")
    if output_dt <= 0.0:
        raise ConfigurationError(f"output_dt must be positive, got {output_dt!r}")
    _check_safety(safety)
    uses_imex(time_scheme)
    moment_ps = diagnostics.moment_orders(moment_ps)
    if monitor is None:
        monitor = _emit  # looked up per run, so a replaced module attribute is seen
    stepper = step_u if state0.form == U_FORM else step_v

    state = state0.copy()
    state.t = 0.0
    traj = Trajectory(form=state0.form)
    acc = diagnostics.RunAccumulators()

    def emit() -> None:
        rec = monitor(state, mesh, profile, params, acc, moment_ps, gronwall_slack, safety)
        traj.times.append(state.t)
        traj.frames.append(state.copy())
        traj.records.append(rec)

    traj.min_rho_ever = float(state.rho.min())
    emit()

    tiny = 1e-12 * max(T, 1.0)
    frame = 1
    while state.t < T - tiny:
        try:
            # safety * cfl_dt(.., 1.0) == cfl_dt(.., safety) bit for bit
            limit = cfl_dt(state, mesh, params, 1.0, time_scheme=time_scheme)
            dt = safety * limit
            target = min(frame * output_dt, T)
            remaining = target - state.t
            hit = remaining <= dt * (1.0 + 1e-6)
            if hit:
                dt = remaining
            state, report = stepper(state, mesh, params, dt, limit, time_scheme=time_scheme)
            if hit:
                state.t = target  # land output frames on exact times
        except VacuumBreach as breach:
            traj.status = "vacuum"
            traj.breach_time = breach.time
            traj.breach_cell = breach.cell
            traj.min_rho_ever = min(traj.min_rho_ever, breach.value)
            break
        except DomainError:
            traj.status = "numerics"
            traj.breach_time = state.t
            break
        traj.steps += 1
        traj.min_rho_ever = min(traj.min_rho_ever, report.min_rho)
        if not math.isfinite(report.min_rho) or not math.isfinite(report.max_rho):
            traj.status = "numerics"
            traj.breach_time = state.t
            break
        if hit:
            emit()
            if state.t >= frame * output_dt - tiny:
                frame += 1
    return traj
