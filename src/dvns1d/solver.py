"""Time integration of the compressible system in its two formulations.

U-form evolves (rho, rho*u) conservatively: mass and momentum fluxes are
upwinded at faces, pressure enters through the centered gradient and the
velocity diffusion through the three-point flux form.  V-form evolves
(rho, rho*v) where v = u + d/dx phi(rho), with the same donor-cell fluxes:
rho*v is carried by u, and the density equation gains a diffusion term.
A state holds (rho, vel) in either form; the steppers advance vel*rho.

Two time schemes step either form.  `explicit` is a two-stage midpoint
update, `_midpoint`, bound by the diffusive limit dx^2/(2 nu) as well as the
acoustic one; it is the reference scheme.  `imex`, the default of `run`,
`cfl_dt`, `step_u` and `step_v` alike, is ARS(2,2,2), `_ars`: the viscosity
(U form) or the density diffusion (V form) is implicit, one tridiagonal
solve per implicit stage, and only the acoustic limit binds.  Both clamp the two outermost cells on each side to the
incoming boundary values (the far field is constant by construction) and
treat a non-positive density as a recorded vacuum-breach event rather than
a numerical accident.

A stepper picks its own step: it evaluates the stability limit `cfl_dt`
once, at the caller's safety, and shortens the step to land exactly on
`until` when that lies within reach.  No caller supplies a dt, so none can
exceed the limit.

`run_batch` is the one stepping loop: it steps B runs that differ only in
(alpha, gamma) as (B, N) arrays, one numpy call per kernel for all of them,
and each row is bit for bit the run of its point alone; `run` is the batch
of one.  The loop keeps per-row counters as arrays, takes each batched
step's arrays whole and does per-row Python work only for a row whose run
ends.  What a batch keeps of an output frame is up to its frame function,
which gets the running rows' state and indices: `run`'s copies the frame
and builds the full DiagnosticsRecord with `_emit` (with its
reciprocal-residual probe step) from the previous record, which carries
the time integrals, and the run's one Gronwall check; a sweep's keeps only
running values per row.  The status comes from the loop alone; a step's
DomainError or ArithmeticError (a zero pivot in a solve) ends the run
"numerics".
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, kernels
from .constitutive import Params
from .errors import ConfigurationError, DomainError, VacuumBreach
from .mesh import Mesh, as_field

__all__ = [
    "FlowState",
    "StepReport",
    "Trajectory",
    "U_FORM",
    "V_FORM",
    "effective_velocity",
    "EXPLICIT",
    "IMEX",
    "TIME_SCHEMES",
    "Batch",
    "cfl_dt",
    "step_u",
    "step_v",
    "run",
    "run_batch",
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
    """Density plus one velocity field; `form` says whether vel is u or v.
    A batch holds (B, N) fields and a (B, 1) column of times, or one time."""

    rho: np.ndarray
    vel: np.ndarray
    form: str
    t: float = 0.0


@dataclass(frozen=True)
class StepReport:
    dt_used: float
    min_rho: float
    max_rho: float
    landed: bool


@dataclass(eq=False)
class Trajectory:
    """Output frames of one run plus its termination metadata.

    run fills frames, records (a DiagnosticsRecord per frame) and gronwall,
    the run's Gronwall verdict (diagnostics.Gronwall.verdict); run_batch
    leaves them at their defaults, since its frame function keeps what it
    needs.
    """

    form: str
    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)
    records: list = field(default_factory=list)
    gronwall: str = "unavailable"
    status: str = "completed"
    breach_time: float | None = None
    breach_cell: int | None = None
    steps: int = 0
    min_rho_ever: float = math.inf


class Batch:
    """The Params of a batch's rows (points), read like one Params: alpha and
    gamma are a kernels.column, every other field is shared."""

    def __init__(self, points):
        self.points = tuple(points)
        p = self.points[0]
        self.a, self.mu0, self.visc_floor, self.beta_eff = p.a, p.mu0, p.visc_floor, p.beta_eff
        self.alpha = kernels.column([q.alpha for q in self.points])
        self.gamma = kernels.column([q.gamma for q in self.points])


def make_state(rho, vel, form: str, mesh: Mesh, t: float = 0.0) -> FlowState:
    if form not in (U_FORM, V_FORM):
        raise ConfigurationError(f"form must be 'U' or 'V', got {form!r}")
    state = FlowState(as_field(rho, mesh), as_field(vel, mesh), form, float(t))
    _require_admissible(state)
    return state


def _require_admissible(state: FlowState) -> None:
    """DomainError unless every cell of the state is finite and its density positive."""
    if not (np.isfinite(state.rho).all() and np.isfinite(state.vel).all()):
        raise DomainError(f"non-finite field at t={np.max(state.t):g}")
    _require_positive(state.rho, state.t)


def _require_positive(rho: np.ndarray, t) -> None:
    i = int(rho.argmin())
    if rho.flat[i] <= 0.0:
        raise DomainError(f"non-positive density {rho.flat[i]!r} in cell {i % rho.shape[-1]} "
                          f"at t={np.max(t):g}")


def effective_velocity(state: FlowState, mesh: Mesh, params: Params) -> FlowState:
    """Map (rho, u) to (rho, v) with v = u + d/dx phi(rho)."""
    if state.form != U_FORM:
        raise ConfigurationError("effective_velocity expects a U-form state")
    _require_positive(state.rho, state.t)
    _, v = diagnostics.velocities(state, mesh, params)
    return FlowState(state.rho.copy(), v, V_FORM, state.t)


def cfl_dt(state: FlowState, mesh: Mesh, params: Params, safety: float = 0.4, *,
           time_scheme: str = IMEX) -> float:
    """Stability limit of one step of time_scheme (default imex, as in run).

    explicit: safety * min( dx / max(|vel| + c), dx^2 / (2 max nu) ) with
    c = sqrt(a*gamma*rho^(gamma-1)) and nu the kinematic diffusivity that the
    stepper actually applies, max(mu_floor, mu(rho)) / rho.
    imex: the diffusion is implicit, so only the acoustic limit of the
    explicit terms, safety * dx / max(|w| + c); w is u in the U form and the
    larger of |v| and the speed |u| = |v - phi(rho)_x| that carries v in the
    V form.  For a batch, the (B, 1) column of each row's limit.
    """
    _check_safety(safety)
    imex = uses_imex(time_scheme)
    _require_admissible(state)
    speed = state.vel
    if imex and state.form == V_FORM:
        u, _ = diagnostics.velocities(state, mesh, params)
        speed = np.maximum(np.abs(u), np.abs(state.vel))
    wave, nu = kernels.stability_terms(state.rho, speed, params.alpha, params.gamma, params.a,
                                       params.mu0, params.visc_floor, diffusive=not imex)
    limit = mesh.dx / wave
    if not imex:
        limit = np.minimum(limit, mesh.dx * mesh.dx / (2.0 * nu))
    # a finite state whose wave speed or diffusivity overflows has no
    # usable step: that is a loss of numerics, not a step of zero length
    if not (limit > 0.0).all():
        raise DomainError(f"stability limit {limit!r} is not positive at t={np.max(state.t):g}")
    return safety * limit


def check_run_args(T: float, output_dt: float, safety: float, time_scheme: str) -> None:
    """ConfigurationError unless T >= 0 is finite (else no run ends), output_dt > 0
    (inf: frames at 0 and T), safety in (0, 1] and time_scheme in TIME_SCHEMES."""
    if not 0.0 <= T < math.inf:
        raise ConfigurationError(f"T must be finite and non-negative, got {T!r}")
    if not output_dt > 0.0:
        raise ConfigurationError(f"output_dt must be positive, got {output_dt!r}")
    _check_safety(safety)
    uses_imex(time_scheme)


def _check_safety(safety: float) -> None:
    if not (0.0 < safety <= 1.0):
        raise ConfigurationError(f"safety must lie in (0, 1], got {safety!r}")


def uses_imex(time_scheme: str) -> bool:
    """Whether time_scheme is IMEX; ConfigurationError unless it is one of TIME_SCHEMES."""
    if time_scheme not in TIME_SCHEMES:
        raise ConfigurationError(f"time_scheme must be one of {TIME_SCHEMES}, got {time_scheme!r}")
    return time_scheme == IMEX


def _land(state: FlowState, dt, until) -> tuple:
    """(dt, t1, landed): dt, or until - t if that is at most dt*(1 + 1e-6) and t1 is until."""
    remaining = until - state.t
    if not np.all(remaining >= 0.0):
        raise ConfigurationError(f"until={until!r} lies before t={float(np.min(state.t))!r}")
    landed = remaining <= dt * (1.0 + 1e-6)
    dt = np.where(landed, remaining, dt)[()]
    return dt, np.where(landed, until, state.t + dt)[()], landed


def _clamp_ends(arr: np.ndarray, ref: np.ndarray) -> None:
    arr[..., :_CLAMP] = ref[..., :_CLAMP]
    arr[..., -_CLAMP:] = ref[..., -_CLAMP:]


def _check_vacuum(rho: np.ndarray, t):
    """Raise VacuumBreach on a non-positive cell; otherwise return min rho,
    per row of a batch (whose breach names its first such row's cell)."""
    low = rho.min(axis=-1)
    bad = low <= 0.0
    if bad.any():
        row = rho.reshape(-1, rho.shape[-1])[bad.argmax()]
        i = int(row.argmin())
        raise VacuumBreach(np.max(t), i, row[i])
    return low


def _midpoint(state: FlowState, mesh: Mesh, params: Params, step: tuple,
              rhs) -> tuple[FlowState, StepReport]:
    """One two-stage midpoint step of the system whose right-hand side is rhs.

    The stepped pair is (rho, q) with q = vel*rho; rhs takes (rho, vel) and returns
    (d/dt rho, d/dt q), and step is _land's (dt, t1, landed).
    """
    dt, t1, landed = step
    rho0, vel0 = state.rho, state.vel
    args = (mesh.dx, params.alpha, params.gamma, params.a, params.mu0, params.visc_floor)

    # blow-ups surface as non-finite fields and become a "numerics" status;
    # the intermediate overflow itself is expected, not worth a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        q0 = vel0 * rho0
        drho, dq = rhs(rho0, vel0, *args)
        rho_h = rho0 + 0.5 * dt * drho
        _clamp_ends(rho_h, rho0)
        _check_vacuum(rho_h, state.t + 0.5 * dt)
        # the clamped cells keep vel0 itself: (vel0*rho0)/rho0 may differ in the last bit
        vel_h = (q0 + 0.5 * dt * dq) / rho_h
        _clamp_ends(vel_h, vel0)

        drho, dq = rhs(rho_h, vel_h, *args)
        rho1 = rho0 + dt * drho
        _clamp_ends(rho1, rho0)
        min_rho = _check_vacuum(rho1, state.t + dt)
        vel1 = (q0 + dt * dq) / rho1
        _clamp_ends(vel1, vel0)

        out = FlowState(rho1, vel1, state.form, t1)
    return out, StepReport(dt, min_rho, rho1.max(axis=-1), landed)


def _ars(state: FlowState, mesh: Mesh, params: Params, step: tuple, explicit,
         stages) -> tuple[FlowState, StepReport]:
    """One ARS(2,2,2) step (dt, t1, landed) = step: two explicit evaluations, two implicit stages.

    explicit is a kernel with the signature of rhs_u/rhs_v that returns the
    explicit terms (d/dt rho, d/dt q) of the stepped pair.
    stages(state, mesh, params, dt) returns the step's stage function
    stage(inc, g, t), which completes a stage from the explicit increments
    inc and returns (rho, vel, g2): at the second stage g is None and g2 its
    implicit terms, which the last stage receives, scaled, as g (and
    returns None).  The last stage is the step (stiffly accurate).
    """
    dt, t1, landed = step
    args = (mesh.dx, params.alpha, params.gamma, params.a, params.mu0, params.visc_floor)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        stage = stages(state, mesh, params, dt)
        f1 = explicit(state.rho, state.vel, *args)
        inc = [(_ARS_G * dt) * f for f in f1]
        rho2, vel2, g2 = stage(inc, None, state.t + _ARS_G * dt)
        f2 = explicit(rho2, vel2, *args)
        inc = [dt * (_ARS_D * a + (1.0 - _ARS_D) * b) for a, b in zip(f1, f2)]
        rho1, vel1, _ = stage(inc, ((1.0 - _ARS_G) * dt) * g2, state.t + dt)
    out = FlowState(rho1, vel1, state.form, t1)
    return out, StepReport(dt, _check_vacuum(rho1, t1), rho1.max(axis=-1), landed)


def _stages_u(state: FlowState, mesh: Mesh, p: Params, dt):
    """The mass is explicit; the velocity then solves
    (rho_s - gamma*dt*D_mu(rho_s)) u_s = m0 + inc_m (+ g)."""
    rho0, u0 = state.rho, state.vel
    m0 = u0 * rho0

    def stage(inc, g, t):
        rho = rho0 + inc[0]
        _clamp_ends(rho, rho0)
        _check_vacuum(rho, t)
        m = m0 + inc[1]
        if g is not None:
            m += g
        _clamp_ends(m, u0)  # identity rows
        mu = kernels.viscosity(rho, p.alpha, p.mu0, p.visc_floor)
        u = kernels.solve_tridiagonal(*kernels.diffusion_bands(rho, mu, _ARS_G * dt / mesh.dx**2), m)
        return rho, u, kernels.diffuse(mu, u, mesh.dx) if g is None else None

    return stage


def _stages_v(state: FlowState, mesh: Mesh, p: Params, dt):
    """q = rho*v is explicit; the density solves
    (I - gamma*dt*D_c) rho_s = rho0 + inc_rho (+ g) for its increment
    rho_s - rho0, whose right-hand side is exactly 0 on a constant state,
    and v_s = (q0 + inc_q) / rho_s keeps v0 in the clamped cells.

    One solve per stage, with the diffusivity c taken at the stage's
    explicit estimate rho0 + inc_rho (+ g) + gamma*dt*D_c(rho0) rho0, its
    implicit term frozen at rho0: the estimate is O(dt^2) from the stage,
    so the step stays second order for alpha != 1, where a diffusivity
    lagging the stage by O(dt) would leave it first order.  The estimate
    keeps rho0 in the clamped cells, as the solve's identity rows do, and
    in any cell where it is not positive or is NaN.
    """
    rho0, v0, dx = state.rho, state.vel, mesh.dx
    q0 = v0 * rho0
    k = _ARS_G * dt
    ones = np.ones_like(rho0)

    def diffusivity(rho):
        return kernels.diffusivity(rho, p.alpha, p.mu0, p.visc_floor)

    d0 = k * kernels.diffuse(diffusivity(rho0), rho0, dx)

    def stage(inc, g, t):
        known = inc[0] if g is None else inc[0] + g
        est = rho0 + (known + d0)
        _clamp_ends(est, rho0)
        c = diffusivity(np.where(est > 0.0, est, rho0))
        rhs = known + k * kernels.diffuse(c, rho0, dx)
        rhs[..., :_CLAMP] = rhs[..., -_CLAMP:] = 0.0  # identity rows
        rho = rho0 + kernels.solve_tridiagonal(*kernels.diffusion_bands(ones, c, k / dx**2), rhs)
        _check_vacuum(rho, t)
        v = (q0 + inc[1]) / rho
        _clamp_ends(v, v0)
        return rho, v, kernels.diffuse(diffusivity(rho), rho, dx) if g is None else None

    return stage


def step_u(state: FlowState, mesh: Mesh, params: Params, *, safety: float = 0.4,
           until: float = math.inf, time_scheme: str = IMEX) -> tuple[FlowState, StepReport]:
    """One step of the conservative (rho, rho*u) system: two-stage midpoint
    (explicit) or ARS(2,2,2) with implicit viscosity (imex).

    The step is cfl_dt(state, ..., safety, time_scheme=time_scheme), shortened
    to land on until when within reach (ConfigurationError if until < t).
    time_scheme defaults to imex, as in run and cfl_dt.
    """
    if state.form != U_FORM:
        raise ConfigurationError("step_u expects a U-form state")
    step = _land(state, cfl_dt(state, mesh, params, safety, time_scheme=time_scheme), until)
    if time_scheme == IMEX:
        return _ars(state, mesh, params, step, kernels.transport_u, _stages_u)
    return _midpoint(state, mesh, params, step, kernels.rhs_u)


def step_v(state: FlowState, mesh: Mesh, params: Params, *, safety: float = 0.4,
           until: float = math.inf, time_scheme: str = IMEX) -> tuple[FlowState, StepReport]:
    """One step of the conservative (rho, rho*v) system: two-stage midpoint
    (explicit) or ARS(2,2,2) with implicit density diffusion (imex).

    Density: d/dt rho = d/dx(mu(rho)/rho * d/dx rho) - d/dx(rho v).
    Momentum: d/dt (rho v) = -d/dx(rho v u) - d/dx P with u = v - d/dx phi(rho)
    recomputed at each stage, through the donor-cell fluxes of step_u.
    safety, until and time_scheme as in step_u.
    """
    if state.form != V_FORM:
        raise ConfigurationError("step_v expects a V-form state")
    step = _land(state, cfl_dt(state, mesh, params, safety, time_scheme=time_scheme), until)
    if time_scheme == IMEX:
        return _ars(state, mesh, params, step, kernels.transport_v, _stages_v)
    return _midpoint(state, mesh, params, step, kernels.rhs_v)


def _emit(state: FlowState, mesh: Mesh, profile: np.ndarray, params: Params,
          check: diagnostics.Gronwall, previous: diagnostics.DiagnosticsRecord | None,
          probe_safety: float):
    """The frame function of `run`: the full DiagnosticsRecord of the frame
    after the record previous (None at the first), checked with check."""
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
        sv_next, _ = step_v(sv, mesh, params, safety=probe_safety, time_scheme=EXPLICIT)
        resid_recip = diagnostics.reciprocal_residual(sv, sv_next, mesh, params)
    except (VacuumBreach, DomainError):
        resid_recip = math.nan

    return diagnostics.collect(su, sv, mesh, params, profile, check, previous,
                               resid_recip=resid_recip, correction=c)


def run(state0: FlowState, mesh: Mesh, profile: np.ndarray, params: Params, *,
        T: float, output_dt: float, safety: float = 0.4,
        moment_ps: tuple = (0, 2, 8, 30), gronwall_slack: float = 0.10,
        time_scheme: str = IMEX) -> Trajectory:
    """Integrate from t=0 to T, emitting a DiagnosticsRecord every output_dt.

    profile is the sampled background density (mesh.background_profile);
    the run's one diagnostics.Gronwall checks the moments of orders
    moment_ps at every frame.  A vacuum breach, or a step that fails or loses finiteness, ends the run
    as status "vacuum" / "numerics"; configuration mistakes raise.
    time_scheme, one of TIME_SCHEMES, picks the stepper and its stability
    limit.  The run is run_batch's batch of one.
    """
    check = diagnostics.Gronwall(params, diagnostics.moment_orders(moment_ps), gronwall_slack)
    frames, records = [], []

    def frame(state, rows, batch):
        # a later step may overwrite the loop's arrays: keep copies
        frames.append(FlowState(state.rho[0].copy(), state.vel[0].copy(), state.form, state.t))
        # _emit is looked up per frame, so a replaced module attribute is seen
        records.append(_emit(frames[-1], mesh, profile, params, check, records[-1] if records else None,
                             safety))

    (traj,) = run_batch(FlowState(state0.rho[None], state0.vel[None], state0.form), mesh, [params],
                        T=T, output_dt=output_dt, frame=frame, safety=safety, time_scheme=time_scheme)
    traj.frames, traj.records, traj.gronwall = frames, records, check.verdict
    return traj


def _step_rows(state: FlowState, mesh: Mesh, params: Batch, target: float, safety: float, stepper,
               time_scheme: str) -> tuple:
    """One step of each row of the batch state with params.points[i] and its
    own dt, landing on target when within reach: the arrays (rho, vel, t,
    min rho, max rho, landed) over the rows.  A VacuumBreach, DomainError or
    ArithmeticError of the step propagates."""
    b = len(params.points)
    if b == 1:  # a row alone steps as 1-D fields: numpy's per-call cost is lower
        state = FlowState(state.rho[0], state.vel[0], state.form, state.t[0])
    new, rep = stepper(state, mesh, params, safety=safety, until=target, time_scheme=time_scheme)
    return (new.rho.reshape(b, -1), new.vel.reshape(b, -1),
            *(np.ravel(x) for x in (new.t, rep.min_rho, rep.max_rho, rep.landed)))


def run_batch(state0: FlowState, mesh: Mesh, points: list, *, T: float, output_dt: float, frame,
              safety: float = 0.4, time_scheme: str = IMEX) -> list:
    """Integrate row i of the (B, N) batch state0 with points[i] from t=0 to
    T; one Trajectory per row, bit for bit `run` of that point alone, with
    its times, status, breach data, steps and minimum density.

    The points may differ only in alpha and gamma.  The rows that have not
    reached the next output time step together, each with its own dt; if
    their step raises, each of them steps alone.  At every output frame,
    frame(state, rows, batch) gets the state of the running rows, their
    indices into state0 and their Batch, and keeps what it needs: the
    state's arrays are the loop's own (views while every row runs), which
    a later step may overwrite.
    """
    check_run_args(T, output_dt, safety, time_scheme)
    if len({dataclasses.replace(p, alpha=1.0, gamma=2.0) for p in points}) != 1:
        raise ConfigurationError("the points of a batch may differ only in alpha and gamma")
    stepper = step_u if state0.form == U_FORM else step_v
    form, size = state0.form, len(points)
    rho, vel = state0.rho.copy(), state0.vel.copy()
    trajs = [Trajectory(form=form) for _ in points]
    min_rho = rho.min(axis=-1)
    steps = np.zeros(size, dtype=int)
    framed = np.zeros(size, dtype=int)  # frames per row: a row's times are the first framed[i]
    running = np.ones(size, dtype=bool)
    times = np.zeros((size, 1))
    tiny = 1e-12 * max(T, 1.0)
    batches = {}  # the Batch of each set of rows that has framed or stepped together

    def batch(rows):
        key = tuple(rows.tolist())
        if key not in batches:
            batches[key] = Batch([points[i] for i in key])
        return batches[key]

    def rows_of(mask):
        """The rows of mask and their index: a slice while every row is in it."""
        rows = np.flatnonzero(mask)
        return rows, slice(None) if len(rows) == size else rows

    def advance(rows, sel, target) -> bool:
        """Step the rows together; False, with nothing changed, if a step of
        more than one row raised."""
        nonlocal rho, vel
        try:
            new_rho, new_vel, t1, low, high, landed = _step_rows(
                FlowState(rho[sel], vel[sel], form, times[sel]), mesh, batch(rows), target, safety,
                stepper, time_scheme)
        except (VacuumBreach, DomainError, ArithmeticError) as exc:
            if len(rows) > 1:
                return False
            i = rows[0]
            traj = trajs[i]
            if isinstance(exc, VacuumBreach):
                traj.status, traj.breach_time, traj.breach_cell = "vacuum", exc.time, exc.cell
                min_rho[i] = min(min_rho[i], exc.value)
            else:  # a DomainError or an ArithmeticError
                traj.status, traj.breach_time = "numerics", float(times[i, 0])
            running[i] = todo[i] = False
            return True
        # take the step's arrays whole: no copy, and while they live on top of
        # the heap, malloc does not trim and re-fault it at every step
        if len(rows) == size:
            rho, vel = new_rho, new_vel
        else:
            rho[sel], vel[sel] = new_rho, new_vel
        times[sel, 0] = t1
        steps[sel] += 1
        min_rho[sel] = np.fmin(min_rho[sel], low)
        finite = np.isfinite(low) & np.isfinite(high)
        go = finite & (landed | (t1 < T - tiny))
        todo[sel] = go & ~landed
        # the runs that end here; one that ends short of target completed
        running[rows[~go]] = False
        for k in np.flatnonzero(~finite):
            trajs[rows[k]].status, trajs[rows[k]].breach_time = "numerics", float(t1[k])
        return True

    t, frame_no, frame_times = 0.0, 1, []
    while running.any():
        rows, sel = rows_of(running)
        frame(FlowState(rho[sel], vel[sel], form, t), rows, batch(rows))
        framed[sel] += 1
        frame_times.append(t)
        if t >= T - tiny:
            break
        target = min(frame_no * output_dt, T)
        todo = running.copy()  # the rows that have not reached target
        while todo.any():
            rows, sel = rows_of(todo)
            if not advance(rows, sel, target):  # each row steps alone
                for k in range(len(rows)):
                    advance(rows[k:k + 1], rows[k:k + 1], target)
        t, frame_no = target, frame_no + 1
    for traj, n, k, low in zip(trajs, framed.tolist(), steps.tolist(), min_rho.tolist()):
        traj.times, traj.steps, traj.min_rho_ever = frame_times[:n], k, low
    return trajs
