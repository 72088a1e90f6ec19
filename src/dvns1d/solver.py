"""Time integration of the compressible system in its two formulations.

U-form evolves (rho, rho*u) conservatively: mass and momentum fluxes are
upwinded at faces, pressure enters through the centered gradient and the
velocity diffusion through the three-point flux form.  V-form evolves
(rho, v) where v = u + d/dx phi(rho): the density equation gains an explicit
diffusion term and v obeys a non-conservative transport equation divided
through by rho.

Both forms share one explicit two-stage midpoint update, `_midpoint`, which
clamps the two outermost cells on each side to the incoming boundary values
(the far field is constant by construction) and treats a non-positive
density as a recorded vacuum-breach event rather than a numerical accident.

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
    "cfl_dt",
    "step_u",
    "step_v",
    "run",
]

U_FORM = "U"
V_FORM = "V"

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


def cfl_dt(state: FlowState, mesh: Mesh, params: Params, safety: float = 0.4) -> float:
    """Explicit stability limit: min of the acoustic and diffusive restrictions.

    dt = safety * min( dx / max(|vel| + c), dx^2 / (2 max nu) ) with
    c = sqrt(a*gamma*rho^(gamma-1)) and nu the kinematic diffusivity that the
    stepper actually applies, max(mu_floor, mu(rho)) / rho.
    """
    _check_safety(safety)
    if not (np.isfinite(state.rho).all() and np.isfinite(state.vel).all()):
        raise DomainError(f"non-finite field at t={state.t:g}")
    _require_positive(state.rho, state.t)
    wave, nu = kernels.stability_terms(
        state.rho, state.vel, params.alpha, params.gamma, params.a, params.mu0, params.visc_floor
    )
    limit = min(mesh.dx / wave, mesh.dx * mesh.dx / (2.0 * nu))
    # a finite state whose wave speed or diffusivity overflows has no
    # usable step: that is a loss of numerics, not a step of zero length
    if not limit > 0.0:
        raise DomainError(f"stability limit {limit!r} is not positive at t={state.t:g}")
    return safety * limit


def _check_safety(safety: float) -> None:
    if not (0.0 < safety <= 1.0):
        raise ConfigurationError(f"safety must lie in (0, 1], got {safety!r}")


def _check_dt(dt: float, state: FlowState, mesh: Mesh, params: Params, dt_max: float | None) -> None:
    """Raise if dt exceeds the stability limit (evaluated here unless given)."""
    if dt_max is None:
        dt_max = cfl_dt(state, mesh, params, safety=1.0)
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
    _check_dt(dt, state, mesh, params, dt_max)
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


def step_u(state: FlowState, mesh: Mesh, params: Params, dt: float,
           dt_max: float | None = None) -> tuple[FlowState, StepReport]:
    """One two-stage midpoint step of the conservative (rho, rho*u) system.

    dt_max is the stability limit cfl_dt(state, ..., safety=1.0) when the
    caller has already evaluated it; otherwise it is evaluated here.
    """
    if state.form != U_FORM:
        raise ConfigurationError("step_u expects a U-form state")
    # stepped unknown m = u*rho, bit-equal to rho*u
    return _midpoint(state, mesh, params, dt, dt_max, kernels.rhs_u, np.multiply, np.divide)


def step_v(state: FlowState, mesh: Mesh, params: Params, dt: float,
           dt_max: float | None = None) -> tuple[FlowState, StepReport]:
    """One two-stage midpoint step of the (rho, v) system.

    Density: d/dt rho = d/dx(mu(rho)/rho * d/dx rho) - d/dx(rho v).
    Velocity: d/dt v = -u * (upwind d/dx v) - grad P / rho with
    u = v - d/dx phi(rho) recomputed at each stage.  dt_max as in step_u.
    """
    if state.form != V_FORM:
        raise ConfigurationError("step_v expects a V-form state")
    return _midpoint(state, mesh, params, dt, dt_max, kernels.rhs_v, _keep, _keep)


def _emit(state: FlowState, mesh: Mesh, profile: BackgroundProfile, params: Params,
          acc, moment_ps, gronwall_slack: float, probe_safety: float):
    """The default frame function of `run`: the full DiagnosticsRecord."""
    c = diagnostics.phi_gradient(state.rho, mesh, params)
    u, v = diagnostics.velocities(state, mesh, params, c)
    su = FlowState(state.rho, u, U_FORM, state.t)
    sv = FlowState(state.rho, v, V_FORM, state.t)

    # forward-time probe for the reciprocal-equation residual: one extra
    # V-form step whose pair (t, t+dt) feeds the finite-difference residual
    try:
        limit = cfl_dt(sv, mesh, params, 1.0)
        sv_next, _ = step_v(sv, mesh, params, probe_safety * limit, limit)
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
        monitor=None) -> Trajectory:
    """Integrate from t=0 to T, emitting diagnostics every output_dt.

    A vacuum breach or a loss of finiteness terminates the run and is
    recorded on the trajectory (status "vacuum" / "numerics"); only
    configuration mistakes raise.

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
            limit = cfl_dt(state, mesh, params, 1.0)
            dt = safety * limit
            target = min(frame * output_dt, T)
            remaining = target - state.t
            hit = remaining <= dt * (1.0 + 1e-6)
            if hit:
                dt = remaining
            state, report = stepper(state, mesh, params, dt, limit)
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
