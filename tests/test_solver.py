"""Time-stepper and form-conversion tests.

Stationarity, conservation, and the transport-diffusion commutation
identity are the load-bearing checks here; accuracy orders are measured by
self-refinement against analytic fields.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from dvns1d import (
    Params,
    StepReport,
    background_profile,
    build_mesh,
    cfl_dt,
    effective_velocity,
    make_state,
    phi,
    run,
    step_u,
    step_v,
)
from dvns1d import diagnostics, kernels, solver
from dvns1d.solver import EXPLICIT, IMEX
from dvns1d.errors import ConfigurationError, DomainError, VacuumBreach
from dvns1d.kernels import grad_c
from test_kernels import ORACLE_PARAMS, _bits

SW = Params(alpha=1.0, gamma=2.0, eps=0.125)  # shallow-water-like point


def _bump_state(N, amp=0.5, form="U"):
    m = build_mesh(10.0, N)
    rho = 1.0 + amp * np.exp(-m.x**2)
    st = make_state(rho, np.zeros(N), "U", m)
    if form == "V":
        st = effective_velocity(st, m, SW)
    return m, st


# ------------------------------------------------------------- state basics

def test_make_state_validation():
    m = build_mesh(2.0, 8)
    with pytest.raises(ConfigurationError):
        make_state(np.ones(7), np.zeros(8), "U", m)
    with pytest.raises(ConfigurationError):
        make_state(np.ones(8), np.zeros(8), "W", m)
    with pytest.raises(DomainError):
        make_state(np.zeros(8), np.zeros(8), "U", m)
    # a NaN density passes a positivity check alone (NaN <= 0 is False)
    nan_rho = np.ones(8)
    nan_rho[3] = np.nan
    for rho, vel in ((nan_rho, np.zeros(8)), (np.ones(8), np.full(8, np.inf))):
        with pytest.raises(DomainError, match="non-finite"):
            make_state(rho, vel, "U", m)


# ------------------------------------------------------- effective velocity

def test_effective_velocity_constant_density():
    # grad phi(const) vanishes identically on interior cells; the one-sided
    # boundary rows leave ~ulp/dx residue
    m = build_mesh(2.0, 64)
    u = np.sin(m.x)
    st = make_state(np.full(64, 2.0), u, "U", m)
    sv = effective_velocity(st, m, SW)
    assert sv.form == "V"
    assert np.array_equal(sv.vel[1:-1], u[1:-1])
    assert np.max(np.abs(sv.vel - u)) <= 1e-13


def test_effective_velocity_exponential_density():
    # alpha=1: phi = log(rho); rho = e^x makes phi affine, so the discrete
    # gradient is exact and v = u + 1
    m = build_mesh(2.0, 512)
    st = make_state(np.exp(m.x), np.zeros(512), "U", m)
    sv = effective_velocity(st, m, SW)
    assert np.max(np.abs(sv.vel - 1.0)) <= 1e-12


def test_effective_velocity_second_order():
    errs = []
    for N in (256, 512):
        m = build_mesh(2.0, N)
        rho = 1.0 + 0.1 * np.sin(m.x)
        st = make_state(rho, np.zeros(N), "U", m)
        v = effective_velocity(st, m, SW).vel
        errs.append(np.max(np.abs(v - 0.1 * np.cos(m.x) / rho)))
    assert errs[0] <= 1.0e-5
    assert 3.3 <= errs[0] / errs[1] <= 4.7


def test_velocity_roundtrip():
    m = build_mesh(2.0, 128)
    rng = np.random.default_rng(1)
    rho = 1.0 + 0.5 * rng.random(128)
    u = rng.normal(size=128)
    sv = effective_velocity(make_state(rho, u, "U", m), m, SW)
    assert sv.form == "V" and np.array_equal(sv.rho, rho)
    back, v = diagnostics.velocities(sv, m, SW)
    assert v is sv.vel
    assert np.max(np.abs(back - u)) <= 1e-13


def test_form_conversion_rejects_wrong_form():
    m = build_mesh(2.0, 8)
    sv = make_state(np.ones(8), np.zeros(8), "V", m)
    with pytest.raises(ConfigurationError):
        effective_velocity(sv, m, SW)
    # a U state whose velocity lost finiteness after it was made has no v
    su = make_state(np.ones(8), np.zeros(8), "U", m)
    su.vel[3] = np.nan
    with pytest.raises(DomainError):
        effective_velocity(su, m, SW)


# ---------------------------------------------------------------- time step

def test_cfl_reference_value():
    # rho=1, u=0, gamma=2, a=1, alpha=1, dx=0.02: diffusion-limited
    # dt = 0.4 * dx^2/2 = 8e-5
    m = build_mesh(10.0, 1000)
    st = make_state(np.ones(1000), np.zeros(1000), "U", m)
    assert cfl_dt(st, m, SW, 0.4, time_scheme=EXPLICIT) == pytest.approx(8e-5, abs=1e-18)


def test_cfl_diffusive_scaling():
    st_fine = make_state(np.ones(1000), np.zeros(1000), "U", build_mesh(10.0, 1000))
    st_coarse = make_state(np.ones(500), np.zeros(500), "U", build_mesh(10.0, 500))
    fine = cfl_dt(st_fine, build_mesh(10.0, 1000), SW, 0.4, time_scheme=EXPLICIT)
    coarse = cfl_dt(st_coarse, build_mesh(10.0, 500), SW, 0.4, time_scheme=EXPLICIT)
    assert coarse == pytest.approx(4.0 * fine, rel=1e-14)


def test_cfl_safety_linear():
    m, st = _bump_state(128)
    assert cfl_dt(st, m, SW, 0.2) == pytest.approx(0.5 * cfl_dt(st, m, SW, 0.4), rel=1e-14)


def test_cfl_rejects():
    m, st = _bump_state(64)
    with pytest.raises(ConfigurationError):
        cfl_dt(st, m, SW, 0.0)
    with pytest.raises(ConfigurationError):
        cfl_dt(st, m, SW, 1.5)
    st.vel[3] = float("nan")
    with pytest.raises(DomainError):
        cfl_dt(st, m, SW, 0.4)


@pytest.mark.parametrize("time_scheme", [IMEX, EXPLICIT])
@pytest.mark.parametrize("form", ["U", "V"])
def test_step_lands_on_until_within_reach(form, time_scheme):
    # a step picks cfl_dt at its safety and shortens it to until - t when
    # that is at most dt*(1 + 1e-6): the state then sits on until bit for bit
    m, st = _bump_state(64, form=form)
    st.t = 0.1
    stepper = step_u if form == "U" else step_v
    dt = cfl_dt(st, m, SW, 0.4, time_scheme=time_scheme)
    for until in (0.1 + 0.5 * dt, 0.1 + dt * (1.0 + 5e-7)):
        out, rep = stepper(st, m, SW, safety=0.4, until=until, time_scheme=time_scheme)
        assert out.t == until and rep.landed
        assert rep.dt_used == until - 0.1
    out, rep = stepper(st, m, SW, safety=0.4, until=0.1 + 2.0 * dt, time_scheme=time_scheme)
    assert not rep.landed
    assert rep.dt_used == dt and out.t == 0.1 + dt
    assert rep.min_rho == float(np.min(out.rho)) and rep.max_rho == float(np.max(out.rho))


@pytest.mark.parametrize("form", ["U", "V"])
def test_step_until_before_t_is_a_configuration_error(form):
    # an until at t is a zero-length step that lands, which the stepping loop
    # takes when a step below an ulp of the output time left t on it unlanded
    m, st = _bump_state(64, form=form)
    st.t = 0.25
    stepper = step_u if form == "U" else step_v
    with pytest.raises(ConfigurationError, match="until"):
        stepper(st, m, SW, until=math.nextafter(0.25, 0.0))
    with pytest.raises(ConfigurationError, match="until"):
        stepper(st, m, SW, until=math.nan)
    out, rep = stepper(st, m, SW, until=0.25)
    assert rep.landed and rep.dt_used == 0.0 and out.t == 0.25
    assert np.allclose(out.rho, st.rho, rtol=1e-15, atol=0.0)


def test_step_takes_no_positional_dt():
    # safety is keyword-only: a dt passed where it used to go raises rather
    # than running at a safety of 1e-6
    m, st = _bump_state(64)
    with pytest.raises(TypeError):
        step_u(st, m, SW, 1e-6)
    with pytest.raises(TypeError):
        step_v(effective_velocity(st, m, SW), m, SW, 1e-6)


# The two-stage midpoint body of (rho, rho*vel), written out as a reference:
# step_u with rhs_u and step_v with rhs_v must reproduce it bit for bit.

def _ref_clamp(arr, ref):
    arr[:2] = ref[:2]
    arr[-2:] = ref[-2:]


def _ref_step(rhs, state, mesh, params, dt):
    rho0, vel0 = state.rho, state.vel
    q0 = rho0 * vel0
    args = (mesh.dx, params.alpha, params.gamma, params.a, params.mu0, params.visc_floor)
    drho, dq = rhs(rho0, vel0, *args)
    rho_h = rho0 + 0.5 * dt * drho
    _ref_clamp(rho_h, rho0)
    vel_h = (q0 + 0.5 * dt * dq) / rho_h
    _ref_clamp(vel_h, vel0)
    drho, dq = rhs(rho_h, vel_h, *args)
    rho1 = rho0 + dt * drho
    _ref_clamp(rho1, rho0)
    vel1 = (q0 + dt * dq) / rho1
    _ref_clamp(vel1, vel0)
    return rho1, vel1


@pytest.mark.parametrize("n", [8, 257])
@pytest.mark.parametrize("point", ORACLE_PARAMS)
def test_step_matches_reference_bitwise(n, point):
    alpha, gamma, a, mu0, reg_n = point
    params = Params(alpha=alpha, gamma=gamma, a=a, mu0=mu0, reg_n=reg_n)
    m = build_mesh(4.0, n)
    rng = np.random.default_rng(n)
    rho = 0.5 + rng.random(n)
    w = 0.3 * rng.normal(size=n)
    # exact zeros of both signs exercise the signed-zero paths
    w[rng.random(n) < 0.1] = 0.0
    w[rng.random(n) < 0.1] = -0.0
    for vel in (w, np.full(n, -0.0)):
        for form, stepper, rhs in (("U", step_u, kernels.rhs_u), ("V", step_v, kernels.rhs_v)):
            st = make_state(rho, vel, form, m, t=0.25)
            dt = cfl_dt(st, m, params, 0.4, time_scheme=EXPLICIT)
            want_rho, want_vel = _ref_step(rhs, st, m, params, dt)
            want_rep = StepReport(dt, float(want_rho.min()), float(want_rho.max()), False)
            out, rep = stepper(st, m, params, safety=0.4, time_scheme=EXPLICIT)
            assert np.array_equal(_bits(out.rho), _bits(want_rho)), form
            assert np.array_equal(_bits(out.vel), _bits(want_vel)), form
            assert (out.form, out.t, rep) == (form, 0.25 + dt, want_rep)


def test_run_rejects_bad_safety():
    m, st = _bump_state(16)
    with pytest.raises(ConfigurationError):
        run(st, m, background_profile(m, 1.0, 1.0), SW, T=0.1, output_dt=0.1, safety=1.5)


@pytest.mark.parametrize("T, output_dt", [(math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan)])
def test_run_rejects_non_finite_horizon(T, output_dt):
    # a NaN or infinite T would never end the run, a NaN output_dt would
    # write no frame after t = 0
    m, st = _bump_state(16)
    with pytest.raises(ConfigurationError):
        run(st, m, background_profile(m, 1.0, 1.0), SW, T=T, output_dt=output_dt)


def test_run_infinite_output_dt_writes_the_first_and_last_frame():
    m, st = _bump_state(16)
    traj = run(st, m, background_profile(m, 1.0, 1.0), SW, T=0.05, output_dt=math.inf)
    assert traj.status == "completed" and traj.times == [0.0, 0.05]


def test_step_form_mismatch():
    m, st = _bump_state(64)
    with pytest.raises(ConfigurationError):
        step_v(st, m, SW)
    _, sv = _bump_state(64, form="V")
    with pytest.raises(ConfigurationError):
        step_u(sv, m, SW)


def test_run_batch_rejects_points_that_differ_beyond_alpha_and_gamma():
    # a batch reads a, mu0, the viscosity floor and beta from its first point alone
    m, st = _bump_state(32)
    batch = solver.FlowState(np.stack([st.rho, st.rho]), np.stack([st.vel, st.vel]), "U")
    points = [SW, Params(alpha=1.0, gamma=2.0, eps=0.125, a=2.0)]
    with pytest.raises(ConfigurationError, match="only in alpha and gamma"):
        solver.run_batch(batch, m, points, T=0.01, output_dt=0.01, frame=lambda *args: None)


def test_constant_state_is_exact_fixed_point():
    # interior stencils vanish identically on constants and the boundary
    # clamp removes the one-sided rounding rows: bitwise fixed point.  The
    # imex V stage solves for the density increment, whose right-hand side
    # is then exactly zero.
    m = build_mesh(10.0, 128)
    for time_scheme in (EXPLICIT, IMEX):
        for form, stepper in (("U", step_u), ("V", step_v)):
            st = make_state(np.full(128, 1.5), np.zeros(128), form, m)
            out, rep = stepper(st, m, SW, safety=0.4, time_scheme=time_scheme)
            assert np.array_equal(out.rho, st.rho)
            assert np.array_equal(out.vel, st.vel)
            assert rep.min_rho == 1.5 and rep.max_rho == 1.5


def test_step_reports_extrema():
    m, st = _bump_state(128)
    dt = cfl_dt(st, m, SW, 0.4)
    out, rep = step_u(st, m, SW, safety=0.4)
    assert rep.dt_used == dt
    assert rep.min_rho == np.min(out.rho)
    assert rep.max_rho == np.max(out.rho)


def test_stepper_vacuum_breach():
    # a sharp density spike over near-vacuum gas: the pressure kick at the
    # midpoint stage produces face velocities far above the initial wave
    # speed estimate and drains the spike cell negative
    N = 256
    m = build_mesh(10.0, N)
    rho = np.full(N, 1e-6)
    rho[N // 2] = 2.0
    st = make_state(rho, np.zeros(N), "U", m)
    with pytest.raises(VacuumBreach) as exc:
        step_u(st, m, SW, safety=1.0, time_scheme=EXPLICIT)
    assert exc.value.cell == N // 2
    assert exc.value.value < 0.0
    assert exc.value.time > 0.0


# ------------------------------------------------- transport-diffusion identity

def test_viscous_flux_commutation_identity():
    # rho*d/dx((mu/rho^2)*d/dx(rho*u)) = d/dx(mu*d/dx u) + rho*u*d2/dx2 phi(rho)
    # holds analytically for mu = mu0*rho^alpha; the centered composition
    # reproduces it to O(dx^2) away from the one-sided boundary rows
    p = Params(alpha=0.75, gamma=2.0, mu0=0.8)

    def err(N):
        m = build_mesh(10.0, N)
        rho = 1.0 + 0.1 * np.sin(m.x)
        u = 0.3 * np.exp(-m.x**2)
        mu = kernels.viscosity(rho, p.alpha, p.mu0, p.visc_floor)
        lhs = rho * grad_c((mu / rho**2) * grad_c(rho * u, m.dx), m.dx)
        rhs = grad_c(mu * grad_c(u, m.dx), m.dx) + rho * u * grad_c(grad_c(phi(rho, p), m.dx), m.dx)
        return np.max(np.abs((lhs - rhs)[2:-2]))

    e1, e2 = err(256), err(512)
    assert e1 <= 3e-4
    assert 3.2 <= e1 / e2 <= 4.7


# ----------------------------------------------------------------- run loop

def test_run_zero_horizon():
    m, st = _bump_state(64)
    prof = background_profile(m, 1.0, 1.0)
    traj = run(st, m, prof, SW, T=0.0, output_dt=0.05)
    assert traj.status == "completed"
    assert traj.steps == 0
    assert len(traj.records) == 1 and len(traj.frames) == 1
    assert traj.times == [0.0]


def test_run_output_times_exact():
    m, st = _bump_state(64)
    prof = background_profile(m, 1.0, 1.0)
    traj = run(st, m, prof, SW, T=0.13, output_dt=0.05)
    assert traj.times == [0.0, 0.05, 0.10, 0.13]
    assert traj.status == "completed"


def test_run_stationary_frames_identical():
    m = build_mesh(10.0, 256)
    prof = background_profile(m, 1.0, 1.0)
    st = make_state(np.ones(256), np.zeros(256), "U", m)
    traj = run(st, m, prof, SW, T=0.5, output_dt=0.1)
    for fr in traj.frames[1:]:
        assert np.array_equal(fr.rho, traj.frames[0].rho)
        assert np.array_equal(fr.vel, traj.frames[0].vel)
    for rec in traj.records:
        assert rec.mass == traj.records[0].mass
        assert rec.energy == 0.0


def test_run_mass_conservation():
    m, st = _bump_state(256)
    prof = background_profile(m, 1.0, 1.0)
    traj = run(st, m, prof, SW, T=1.0, output_dt=0.25)
    m0 = traj.records[0].mass
    assert max(abs(r.mass - m0) for r in traj.records) <= 1e-10 * m0


def test_run_mass_conserved_across_background_ramp():
    # differing far fields: boundary clamp holds u = 0 there, so no flux
    # leaves the domain and mass stays fixed
    m = build_mesh(10.0, 256)
    prof = background_profile(m, 1.0, 2.0)
    st = make_state(prof.copy(), np.zeros(256), "U", m)
    traj = run(st, m, prof, SW, T=0.5, output_dt=0.1)
    assert traj.status == "completed"
    m0 = traj.records[0].mass
    assert max(abs(r.mass - m0) for r in traj.records) <= 1e-10 * m0


def test_run_vacuum_status():
    N = 256
    m = build_mesh(10.0, N)
    prof = background_profile(m, 1e-6, 1e-6)
    rho = np.full(N, 1e-6)
    rho[N // 2] = 2.0
    st = make_state(rho, np.zeros(N), "U", m)
    traj = run(st, m, prof, SW, T=0.5, output_dt=0.1, time_scheme=EXPLICIT)
    assert traj.status == "vacuum"
    assert traj.breach_cell == N // 2
    assert traj.breach_time is not None and 0.0 < traj.breach_time < 0.5
    assert traj.min_rho_ever < 0.0
    assert len(traj.frames) == 1  # only the initial frame was emitted


def test_run_numerics_status():
    # thin gas with a +-5 square-wave velocity at aggressive safety: the
    # density decays geometrically into denormals and the momentum update
    # overflows; the run must stop with a finite breach_time, not raise
    N = 256
    m = build_mesh(10.0, N)
    prof = background_profile(m, 1e-4, 1e-4)
    rho = np.full(N, 1e-4)
    u = np.where((np.arange(N) // 8) % 2 == 0, -5.0, 5.0)
    st = make_state(rho, u, "U", m)
    traj = run(st, m, prof, SW, T=1.0, output_dt=0.5, safety=0.9, time_scheme=EXPLICIT)
    assert traj.status == "numerics"
    assert traj.breach_time is not None


@pytest.mark.parametrize("form", ["U", "V"])
def test_singular_solve_ends_a_run_numerics(monkeypatch, form):
    # kernels._thomas divides Python floats, so a zero pivot raises
    # ZeroDivisionError where numpy would return non-finite values: a lone
    # run ends "numerics" at the start of the failing step, not raising.
    # The solve fails from the second frame on (the frame's probe step is
    # explicit and solves nothing)
    frames, real_emit, real_thomas = [], solver._emit, kernels._thomas

    def emit(state, *args):
        frames.append(state.t)
        return real_emit(state, *args)

    def thomas(*args):
        if len(frames) > 1:
            raise ZeroDivisionError("float division by zero")
        return real_thomas(*args)

    monkeypatch.setattr(solver, "_emit", emit)
    monkeypatch.setattr(kernels, "_thomas", thomas)
    m, st = _bump_state(64, form=form)
    traj = run(st, m, background_profile(m, 1.0, 1.0), SW, T=0.1, output_dt=0.025, time_scheme=IMEX)
    assert traj.status == "numerics" and traj.form == form
    assert traj.times == frames == [0.0, 0.025]
    assert traj.breach_time == 0.025 and traj.steps > 0


def test_run_galilean_shift():
    # adding a constant to u advects the solution; before boundary
    # influence arrives the shifted fields must converge at first order
    def one(N):
        m = build_mesh(10.0, N)
        prof = background_profile(m, 1.0, 1.0)
        c = 10 * (20.0 / 256)  # whole number of cells per T at both N
        T = 0.1
        rho0 = 1.0 + 0.3 * np.exp(-m.x**2)
        base = run(make_state(rho0, np.zeros(N), "U", m), m, prof, SW, T=T, output_dt=T)
        boost = run(make_state(rho0, np.full(N, c), "U", m), m, prof, SW, T=T, output_dt=T)
        shift = int(round(c * T / m.dx))
        rb = boost.frames[-1].rho
        r0 = base.frames[-1].rho
        return np.max(np.abs(rb[shift + 4 : -4] - r0[4 : -4 - shift]))

    e256, e512 = one(256), one(512)
    assert e256 <= 3e-3
    assert math.log2(e256 / e512) >= 0.8


def test_run_rejects_bad_horizon():
    m, st = _bump_state(64)
    prof = background_profile(m, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        run(st, m, prof, SW, T=-1.0, output_dt=0.1)
    with pytest.raises(ConfigurationError):
        run(st, m, prof, SW, T=1.0, output_dt=0.0)


def test_run_rejects_non_integer_moment_order():
    # checked once on the raw values, before the first frame: 2.5 is not
    # read as the order 2
    m, st = _bump_state(64)
    prof = background_profile(m, 1.0, 1.0)
    for bad in ((2.5,), (0, -2)):
        with pytest.raises(ConfigurationError, match="moment order"):
            run(st, m, prof, SW, T=0.01, output_dt=0.01, moment_ps=bad)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cfl_dt_rejects_a_zero_limit():
    # a finite, positive state whose floored diffusivity overflows has a
    # zero stability limit: a domain error, so run ends it as "numerics"
    m = build_mesh(10.0, 64)
    rho = np.ones(64)
    rho[32] = 5e-324
    st = make_state(rho, np.zeros(64), "U", m)
    with pytest.raises(DomainError, match="stability limit"):
        cfl_dt(st, m, Params(alpha=0.7, gamma=2.0, reg_n=10), time_scheme=EXPLICIT)


@pytest.mark.parametrize("form", ["U", "V"])
def test_run_evaluates_phi_once_per_frame(form, monkeypatch):
    # the frame derives d/dx phi(rho) once and hands it to collect (an imex
    # V-form step derives u for its limit as well, so the count is taken
    # under the explicit scheme)
    calls = []
    inner = diagnostics.phi_gradient

    def counting(*args):
        calls.append(1)
        return inner(*args)

    m, st = _bump_state(128, form=form)
    monkeypatch.setattr(diagnostics, "phi_gradient", counting)
    traj = run(st, m, background_profile(m, 1.0, 1.0), SW, T=0.05, output_dt=0.01,
               time_scheme=EXPLICIT)
    assert traj.status == "completed" and len(traj.records) == 6
    assert len(calls) == len(traj.records)


@pytest.mark.parametrize("form", ["U", "V"])
def test_run_frames_own_their_memory(form, monkeypatch):
    # the loop keeps each step's arrays and overwrites them, so a frame that
    # kept a view would change with the steps after it: no kept frame shares
    # memory with another frame or with any state a step returned
    outputs = []
    name = "step_u" if form == "U" else "step_v"
    inner = getattr(solver, name)

    def keeping(*args, **kwargs):
        new, rep = inner(*args, **kwargs)
        outputs.append(new)
        return new, rep

    m, st = _bump_state(64, form=form)
    monkeypatch.setattr(solver, name, keeping)
    traj = run(st, m, background_profile(m, 1.0, 1.0), SW, T=0.05, output_dt=0.01)
    assert traj.status == "completed" and len(traj.frames) == 6 and traj.steps >= 5
    fields = [f for frame in traj.frames for f in (frame.rho, frame.vel)]
    for k, a in enumerate(fields):
        assert not any(np.shares_memory(a, b) for b in fields[k + 1:])
        assert not any(np.shares_memory(a, f) for new in outputs for f in (new.rho, new.vel))
        assert not any(np.shares_memory(a, f) for f in (st.rho, st.vel))


def test_run_leaves_no_reference_cycle():
    # a run's loop state is freed when the run returns, not at the next
    # full garbage collection: a cycle through the loop's closures held
    # every call's arrays and trajectory, and memory grew call by call
    m, st = _bump_state(64)
    gc.disable()
    try:
        traj = run(st, m, background_profile(m, 1.0, 1.0), SW, T=0.02, output_dt=0.01)
        assert traj.status == "completed" and traj.steps > 0
        ref = weakref.ref(traj)
        del traj
        assert ref() is None
    finally:
        gc.enable()


# ------------------------------------------------------------------- imex

def test_run_vacuum_status_imex():
    # a V-form state over 1e-6 gas pulled apart at +-5: after two steps an
    # implicit density stage goes negative, and run records it as a vacuum
    # outcome
    N = 256
    m = build_mesh(10.0, N)
    prof = background_profile(m, 1e-6, 1e-6)
    rho = np.full(N, 1e-6)
    rho[N // 2 - 4:N // 2 + 4] = 2.0
    st = effective_velocity(make_state(rho, np.where(m.x < 0.0, -5.0, 5.0), "U", m), m, SW)
    traj = run(st, m, prof, SW, T=0.5, output_dt=0.1, safety=0.9, time_scheme=IMEX)
    assert traj.status == "vacuum" and traj.steps == 2
    assert 0.0 < traj.breach_time < 0.5 and traj.min_rho_ever < 0.0


# steps to "completed" of each (alpha, depth) dip below, as measured
_DIP_STEPS = {0.55: (14, 73, 224, 381), 0.6: (12, 55, 186, 306), 0.7: (9, 31, 90, 203),
              0.85: (7, 13, 25, 45)}
_DIP_DEPTHS = (1e-3, 1e-6, 1e-9, 1e-12)


@pytest.mark.parametrize("depth", _DIP_DEPTHS)
@pytest.mark.parametrize("alpha", sorted(_DIP_STEPS))
def test_imex_v_unresolved_dip_completes(alpha, depth):
    # eight cells at depth d in a unit background, pulled apart at +-2.  The
    # stage takes its diffusivity at an explicit estimate of the stage
    # density, which can miss by orders of magnitude on such a dip; stepping
    # rho*v keeps every case completing, within 10% of its measured steps
    N = 128
    m = build_mesh(8.0, N)
    p = Params(alpha=alpha, gamma=2.0)
    rho = np.ones(N)
    rho[N // 2 - 4:N // 2 + 4] = depth
    st = effective_velocity(make_state(rho, 2.0 * np.sign(m.x), "U", m), m, p)
    traj = run(st, m, background_profile(m, 1.0, 1.0), p, T=0.02, output_dt=0.02, safety=0.9,
               time_scheme=IMEX)
    assert traj.status == "completed"
    assert traj.steps <= 1.1 * _DIP_STEPS[alpha][_DIP_DEPTHS.index(depth)]


def _bump_final(form, params, safety, N=256, T=0.5):
    m = build_mesh(10.0, N)
    st = make_state(1.0 + 0.5 * np.exp(-m.x**2), 0.3 * np.exp(-m.x**2), "U", m)
    if form == "V":
        st = effective_velocity(st, m, params)
    traj = run(st, m, background_profile(m, 1.0, 1.0), params, T=T, output_dt=T,
               safety=safety, time_scheme=IMEX)
    assert traj.status == "completed" and len(traj.frames) == 2
    return traj.frames[-1]


@pytest.mark.parametrize("form", ["U", "V"])
@pytest.mark.parametrize("alpha, safeties", [(1.0, (0.4, 0.2, 0.1)), (0.75, (0.05, 0.025, 0.0125))])
def test_imex_temporal_self_convergence(form, alpha, safeties):
    # second order in time at fixed N: halving dt quarters the change.  At
    # alpha = 0.75 the V-form diffusivity depends on rho, and at small dt a
    # diffusivity lagged by one stage would show as order ~1
    params = Params(alpha=alpha, gamma=2.0, eps=0.125)
    finals = [_bump_final(form, params, s) for s in safeties]
    for attr in ("rho", "vel"):
        e1, e2 = (np.max(np.abs(getattr(a, attr) - getattr(b, attr)))
                  for a, b in zip(finals, finals[1:]))
        assert math.log2(e1 / e2) >= 1.8, attr


def test_imex_v_limit_covers_the_transport_speed():
    # a steep density ramp with v = 0: u = -phi(rho)_x peaks at 20, far
    # above the sound speed, and v is carried by u, so the imex limit must
    # see |u| + c
    m = build_mesh(10.0, 256)
    rho = np.exp(-5.0 * (1.0 + np.tanh(4.0 * m.x)))
    sv = make_state(rho, np.zeros(256), "V", m)
    u, _ = diagnostics.velocities(sv, m, SW)
    c = np.sqrt(SW.a * SW.gamma * rho ** (SW.gamma - 1.0))
    assert np.max(np.abs(u)) > 10.0 * np.max(c)
    assert cfl_dt(sv, m, SW, 1.0) <= m.dx / np.max(np.abs(u) + c)


def test_run_and_steppers_reject_unknown_scheme():
    m, st = _bump_state(16)
    prof = background_profile(m, 1.0, 1.0)
    with pytest.raises(ConfigurationError, match="time_scheme"):
        run(st, m, prof, SW, T=0.1, output_dt=0.1, time_scheme="rk4")
    with pytest.raises(ConfigurationError, match="time_scheme"):
        step_u(st, m, SW, time_scheme="rk4")
    with pytest.raises(ConfigurationError, match="time_scheme"):
        cfl_dt(st, m, SW, time_scheme="rk4")


@pytest.mark.parametrize("time_scheme", [IMEX, EXPLICIT])
def test_steps_keep_the_clamped_cells(time_scheme):
    # the two cells at each end are identity rows of every imex stage solve,
    # and every explicit stage resets them, so they keep their values
    # exactly, also where the data are not flat there: a velocity recovered
    # as (vel0*rho0)/rho0 would move them in the last bit
    params = Params(alpha=0.7, gamma=2.0, eps=0.125)
    m = build_mesh(10.0, 64)
    rng = np.random.default_rng(1)
    su = make_state(1.0 + 0.3 * rng.random(64), 0.2 * rng.normal(size=64), "U", m)
    ends = [0, 1, -2, -1]
    for st in (su, effective_velocity(su, m, params)):
        traj = run(st, m, background_profile(m, 1.0, 1.0), params, T=0.1, output_dt=0.1,
                   time_scheme=time_scheme)
        assert traj.status == "completed" and traj.steps > 1
        assert np.array_equal(traj.frames[-1].rho[ends], st.rho[ends])
        assert np.array_equal(traj.frames[-1].vel[ends], st.vel[ends])


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0])
def test_imex_v_stage_keeps_near_vacuum_density_positive(alpha):
    # densities at rest spanning 1e-20..1, cells near 1e-12 beside O(1)
    # ones: the stage's explicit part is zero, so the density it returns is
    # the M-matrix solve of a positive right-hand side and stays positive.
    # In floating point that holds while gamma*dt*c/dx^2 stays far below
    # 1/eps (it reaches 7e11 here); beyond that the diagonal's 1 is lost
    params = Params(alpha=alpha, gamma=2.0)
    m = build_mesh(8.0, 128)
    rng = np.random.default_rng(3)
    zero = [np.zeros(128), np.zeros(128)]
    for dt in (1e-3, 0.03, 1.0):
        rho = 10.0 ** rng.uniform(-20.0, 0.0, 128)
        rho[40:44] = 10.0 ** rng.uniform(-13.0, -11.0, 4)
        rho[[39, 44]] = 1.0
        st = make_state(rho, np.zeros(128), "V", m)
        out, _, _ = solver._stages_v(st, m, params, dt)(zero, None, dt)
        assert out.min() > 0.0


# ------------------------------------------- one density solve per V stage

def _ref_stages_v(state, mesh, p, dt):
    # the two-solve V stage this package used before: the diffusivity at
    # rho0 for a first solve and at that first answer for a second; q = rho*v
    # is stepped as in the package's stage
    rho0, v0, dx = state.rho, state.vel, mesh.dx
    q0 = rho0 * v0
    ones = np.ones_like(rho0)

    def diffusivity(rho):
        return kernels.diffusivity(rho, p.alpha, p.mu0, p.visc_floor)

    def system(c):
        k = solver._ARS_G * dt
        return k * kernels.diffuse(c, rho0, dx), kernels.diffusion_bands(ones, c, k / dx**2)

    def solve(known, diffused, bands, t):
        rhs = known + diffused
        rhs[..., :2] = rhs[..., -2:] = 0.0
        rho = rho0 + kernels.solve_tridiagonal(*bands, rhs)
        solver._check_vacuum(rho, t)
        return rho

    first = system(diffusivity(rho0))

    def stage(inc, g, t):
        known = inc[0] if g is None else inc[0] + g
        rho = solve(known, *first, t)
        rho = solve(known, *system(diffusivity(rho)), t)
        v = (q0 + inc[1]) / rho
        solver._clamp_ends(v, v0)
        return rho, v, kernels.diffuse(diffusivity(rho), rho, dx) if g is None else None

    return stage


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("form", ["U", "V"])
@pytest.mark.parametrize("rows", [1, 3])
def test_imex_step_makes_one_solve_per_stage(form, rows, monkeypatch):
    # two implicit stages, one tridiagonal solve each, in either form; a
    # batch's rows share each solve
    m, st = _bump_state(64, form=form)
    params = Params(alpha=0.7, gamma=2.0)
    if rows > 1:
        params = solver.Batch([Params(alpha=a, gamma=2.0) for a in (0.7, 0.85, 1.0)])
        st = solver.FlowState(np.tile(st.rho, (rows, 1)), np.tile(st.vel, (rows, 1)), form,
                              np.zeros((rows, 1)))
    calls = _counting(monkeypatch, kernels, "solve_tridiagonal")
    stepper = step_u if form == "U" else step_v
    out, _ = stepper(st, m, params, safety=0.5)
    assert len(calls) == 2
    assert out.rho.shape == st.rho.shape and np.isfinite(out.rho).all()


@pytest.mark.parametrize("time_scheme", [IMEX, EXPLICIT])
@pytest.mark.parametrize("form", ["U", "V"])
def test_run_evaluates_the_stability_limit_once_per_step(form, time_scheme, monkeypatch):
    # one stability evaluation per loop step and one per frame's probe step:
    # a stepper that evaluated the limit twice would count each step twice
    m, st = _bump_state(64, form=form)
    calls = _counting(monkeypatch, kernels, "stability_terms")
    traj = run(st, m, background_profile(m, 1.0, 1.0), SW, T=0.05, output_dt=0.025,
               time_scheme=time_scheme)
    assert traj.status == "completed" and len(traj.records) == 3
    assert len(calls) == traj.steps + len(traj.records)


def test_imex_v_step_at_alpha_one_is_the_two_solve_step_bitwise():
    # at alpha = 1, mu0 = 1 and no floor the diffusivity rho/rho is exactly
    # 1 at any positive density, so where the stage takes it cannot matter
    params = Params(alpha=1.0, gamma=2.0, a=1.5)
    m = build_mesh(8.0, 257)
    rng = np.random.default_rng(7)
    st = make_state(0.5 + rng.random(257), 0.3 * rng.normal(size=257), "V", m)
    for _ in range(5):
        step = solver._land(st, cfl_dt(st, m, params, 0.9), math.inf)
        want, want_rep = solver._ars(st, m, params, step, kernels.transport_v, _ref_stages_v)
        st, rep = step_v(st, m, params, safety=0.9)
        assert np.array_equal(_bits(st.rho), _bits(want.rho))
        assert np.array_equal(_bits(st.vel), _bits(want.vel))
        assert rep == want_rep


def test_imex_v_step_error_at_alpha_07_stays_that_of_two_solves(monkeypatch):
    # at alpha = 0.7 the diffusivity depends on rho: taking it at the
    # stage's explicit estimate costs at most 10% in error against a
    # small-dt solution, at each dt
    params = Params(alpha=0.7, gamma=2.0)

    def final(safety):
        return _bump_final("V", params, safety, T=0.1).rho

    with monkeypatch.context() as mp:
        mp.setattr(solver, "_stages_v", _ref_stages_v)
        ref = final(0.0125)
        old = [np.max(np.abs(final(s) - ref)) for s in (0.4, 0.2, 0.1)]
    new = [np.max(np.abs(final(s) - ref)) for s in (0.4, 0.2, 0.1)]
    for e_old, e_new in zip(old, new):
        assert e_new <= 1.1 * e_old


def _step_dip(alpha, depth, outflow, reg_n=None):
    # eight cells at density depth pulled apart at +-outflow, in a background
    # that is not flat at the clamped cells
    m = build_mesh(8.0, 128)
    rho = 1.0 + 0.005 * m.x**2
    rho[60:68] = depth
    params = Params(alpha=alpha, gamma=2.0, reg_n=reg_n)
    su = make_state(rho, np.where(m.x < 0.0, -outflow, outflow) * (np.abs(m.x) < 2.0), "U", m)
    return m, params, effective_velocity(su, m, params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, depth, reg_n, status",
                         [(0.7, 1e-9, 100, "completed"), (1.0, 1e-6, 8, "vacuum")],
                         ids=["0.7-1e-09-completed", "1.0-1e-06-vacuum"])
def test_imex_v_stage_takes_rho0_where_the_estimate_is_not_positive(alpha, depth, reg_n, status,
                                                                    monkeypatch):
    # a near-vacuum step with an outflow and a viscosity floor: the floor
    # makes the diffusivity floor/rho huge in the dip, where neither u nor v
    # sees it, so some stage's explicit estimate
    # rho0 + inc (+ g) + gamma*dt*D_c(rho0) rho0 is not positive in an
    # interior cell beside the dip.  The stage takes its diffusivity at rho0
    # there and at the estimate elsewhere, and the run ends completed with a
    # finite density, or as a vacuum run, without a floating-point warning
    m, params, st = _step_dip(alpha, depth, 2.0, reg_n)
    args = _counting(monkeypatch, kernels, "diffusivity")
    stages_v, seen = solver._stages_v, []

    def spying(state, mesh, p, dt):
        stage = stages_v(state, mesh, p, dt)
        rho0 = state.rho
        c0 = kernels.diffusivity(rho0, p.alpha, p.mu0, p.visc_floor)
        d0 = (solver._ARS_G * dt) * kernels.diffuse(c0, rho0, mesh.dx)

        def spy(inc, g, t):
            est = rho0 + ((inc[0] if g is None else inc[0] + g) + d0)
            seen.append((rho0, est, len(args)))  # the stage's first diffusivity call follows
            return stage(inc, g, t)

        return spy

    monkeypatch.setattr(solver, "_stages_v", spying)
    traj = run(st, m, background_profile(m, 1.0, 1.0), params, T=0.02, output_dt=0.02, safety=0.9)
    assert traj.status == status
    if status == "completed":
        assert np.isfinite(traj.frames[-1].rho).all() and traj.frames[-1].rho.min() > 0.0
    else:  # the run ends at its first step, after the frame at t = 0 alone
        assert traj.steps == 0 and len(traj.records) == 1
    inner = np.zeros(128, dtype=bool)
    inner[2:-2] = True
    flagged = 0
    for rho0, est, i in seen:
        bad = inner & ~(est > 0.0)
        flagged += bad.any()
        taken = args[i][0]
        assert np.array_equal(taken[bad], rho0[bad])
        assert np.array_equal(taken[inner & ~bad], est[inner & ~bad])
        assert np.array_equal(taken[~inner], rho0[~inner])
    assert flagged > 0
