"""Functional diagnostics: energy, entropy pair, moments, residuals, reports."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dvns1d import (
    ConfigurationError,
    Params,
    background_profile,
    build_mesh,
    effective_velocity,
    make_state,
    reciprocal_residual,
    run,
)
from dvns1d import diagnostics
from dvns1d.diagnostics import collect

P2 = Params(alpha=1.0, gamma=2.0, eps=0.125)


def _flat(L, N, rho_val=1.0):
    m = build_mesh(L, N)
    prof = background_profile(m, rho_val, rho_val)
    return m, prof


def _record(rho, vel, form, m, prof, params=P2, check=None, previous=None, t=0.0,
            moment_ps=(0, 2, 8, 30)):
    """collect's record of the snapshot (rho, vel) given in `form`, the frame
    after the record previous: both forms from diagnostics.velocities, and a
    fresh Gronwall check of moment_ps unless check is given."""
    u, v = diagnostics.velocities(make_state(rho, vel, form, m, t=t), m, params)
    if check is None:
        check = diagnostics.Gronwall(params, moment_ps, 0.1)
    return collect(make_state(rho, u, "U", m, t=t), make_state(rho, v, "V", m, t=t), m, params, prof,
                   check, previous)


# ----------------------------------------------------------------- energy

def test_energy_zero_at_background():
    m, prof = _flat(2.0, 64)
    assert _record(np.ones(m.N), np.zeros(m.N), "U", m, prof).energy == 0.0


def test_energy_pure_kinetic():
    # rho = 1, u = 1 on measure 4: integral of 1/2 is exactly 2
    m, prof = _flat(2.0, 64)
    assert _record(np.ones(m.N), np.ones(m.N), "U", m, prof).energy == pytest.approx(2.0, rel=1e-14)


def test_energy_pure_potential():
    # rho = 2 over rhobar = 1 at gamma = 2: relative pressure is 1 per cell
    m, prof = _flat(2.0, 64)
    assert _record(2.0 * np.ones(m.N), np.zeros(m.N), "U", m, prof).energy == pytest.approx(4.0, rel=1e-14)


def test_energy_and_bd_dissipation_scale_with_a():
    # P = a*rho^gamma: the potential energy and P_x scale with a, the
    # kinetic part and phi do not
    m, prof = _flat(2.0, 64)
    rho = 1.0 + 0.3 * np.cos(m.x)
    p4 = Params(alpha=1.0, gamma=2.0, a=4.0)
    still1, still4 = (_record(rho, np.zeros(m.N), "U", m, prof, p) for p in (P2, p4))
    for name in ("energy", "diss_bd_rate", "bd_integrand_min"):
        assert getattr(still4, name) == pytest.approx(4.0 * getattr(still1, name), rel=1e-14)
    flat1, flat4 = (_record(np.ones(m.N), np.sin(m.x), "U", m, prof, p) for p in (P2, p4))
    assert flat4.energy == flat1.energy


@given(amp=st.floats(0.0, 0.5), vel=st.floats(-2.0, 2.0))
def test_energy_nonnegative(amp, vel):
    m, prof = _flat(2.0, 32)
    assert _record(1.0 + amp * np.cos(m.x), vel * np.sin(m.x), "U", m, prof).energy >= 0.0


# ----------------------------------------------------- entropy functional

def test_bd_equals_energy_on_constant_density():
    # constant rho makes the velocity correction vanish, so both
    # functionals integrate the same fields
    m, prof = _flat(2.0, 64)
    rec = _record(np.ones(m.N), np.sin(m.x), "U", m, prof)
    assert rec.bd_entropy == pytest.approx(rec.energy, rel=1e-12)


# Adaptive Gauss-Kronrod values (abs tol 1e-14) for rho = 1 + 0.1 sin(x)
# on [-2, 2] at alpha = 1, gamma = 2, mu0 = 1, u = 0:
#   bd   = int rho*v^2/2 + (rho-1)^2      with v = d/dx log(rho)
#   dbd  = int 2*(drho/dx)^2
# and the energy int (rho-1)^2 = 0.01*(2 - sin(4)/2) in closed form; v != u
# here, so an energy that read v would give BD_EXACT
BD_EXACT = 0.03191403386848421
DBD_EXACT = 0.03243197504692072
ENERGY_EXACT = 0.01 * (2.0 - 0.5 * math.sin(4.0))


def test_bd_quadrature_oracle():
    m, prof = _flat(2.0, 1024)
    rec = _record(1.0 + 0.1 * np.sin(m.x), np.zeros(m.N), "U", m, prof)
    assert rec.bd_entropy == pytest.approx(BD_EXACT, rel=1e-5)
    assert rec.energy == pytest.approx(ENERGY_EXACT, rel=1e-5)


def test_bd_dissipation_quadrature_oracle():
    m, prof = _flat(2.0, 1024)
    rec = _record(1.0 + 0.1 * np.sin(m.x), np.zeros(m.N), "U", m, prof)
    assert rec.diss_bd_rate == pytest.approx(DBD_EXACT, rel=5e-5)


# ------------------------------------------------------ dissipation rates

def test_dissipation_u_zero_for_uniform_velocity():
    # v = u + d/dx log(rho) is not uniform: the rate must read u
    m, prof = _flat(2.0, 64)
    assert _record(1.0 + 0.3 * np.cos(m.x), 2.5 * np.ones(m.N), "U", m, prof).diss_u_rate == 0.0


def test_dissipation_u_affine_velocity():
    # rho = 1, u = x on [-2, 2]: mu*(du/dx)^2 = 1 everywhere, and the
    # one-sided end stencils are exact on affine data, so the integral is 4
    m, prof = _flat(2.0, 64)
    assert _record(np.ones(m.N), m.x.copy(), "U", m, prof).diss_u_rate == pytest.approx(4.0, abs=2e-13)


def test_dissipation_u_nonnegative(rng):
    m, prof = _flat(2.0, 48)
    for _ in range(20):
        assert _record(0.5 + rng.random(m.N), rng.standard_normal(m.N), "U", m, prof).diss_u_rate >= 0.0


def test_bd_integrand_zero_on_constants():
    m, prof = _flat(2.0, 64)
    rec = _record(1.3 * np.ones(m.N), np.zeros(m.N), "U", m, prof)
    assert rec.bd_integrand_min == 0.0 and rec.diss_bd_rate == 0.0


def test_bd_integrand_sign_on_smooth_density():
    m, prof = _flat(2.0, 64)
    assert _record(1.0 + 0.1 * np.sin(m.x), np.zeros(m.N), "U", m, prof).bd_integrand_min >= -1e-10


# --------------------------------------------------------- weighted fields

def test_weighted_sup_zero_velocity():
    m, prof = _flat(2.0, 64)
    assert _record(1.0 + 0.2 * np.cos(m.x), np.zeros(m.N), "U", m, prof).wvel_inf == 0.0


def test_weighted_sup_unit_density():
    m, prof = _flat(2.0, 64)
    u = np.sin(3 * m.x)
    assert _record(np.ones(m.N), u, "U", m, prof).wvel_inf == float(np.max(np.abs(u)))


def test_weighted_sup_dominant_cell():
    # beta = 1/2 + eps = 0.625; the lone (rho=4, u=3) cell wins:
    # 4^0.625 * 3 over the 1^0.625 * 0.1 background; v next to the cell is
    # about 11, so the sup must read u
    m, prof = _flat(2.0, 64)
    rho = np.ones(m.N)
    u = 0.1 * np.ones(m.N)
    rho[10], u[10] = 4.0, 3.0
    assert _record(rho, u, "U", m, prof).wvel_inf == pytest.approx(3.0 * 4.0**0.625, rel=1e-14)


def test_v_moment_zero_velocity():
    m, prof = _flat(2.0, 64)
    assert _record(np.ones(m.N), np.zeros(m.N), "V", m, prof, moment_ps=(4,)).moments[4] == 0.0


def test_v_moment_constant_velocity():
    # rho = 1, v = c on measure 4: moment = |c| * 4^(1/(p+2))
    m, prof = _flat(2.0, 64)
    c = -0.7
    rec = _record(np.ones(m.N), c * np.ones(m.N), "V", m, prof, moment_ps=(0, 30))
    assert rec.moments[0] == pytest.approx(2.0 * abs(c), rel=1e-13)
    assert rec.moments[30] == pytest.approx(abs(c) * 4.0 ** (1 / 32), rel=1e-13)


def test_v_moment_high_p_plateau():
    # indicator of measure 4*dx: the p=30 moment equals measure^(1/32),
    # already within a few percent of the sup
    m, prof = _flat(2.0, 64)
    v = np.zeros(m.N)
    v[30:34] = 1.0
    meas = 4 * m.dx
    rec = _record(np.ones(m.N), v, "V", m, prof, moment_ps=(30,))
    assert rec.moments[30] == pytest.approx(meas ** (1 / 32), rel=1e-13)


def test_v_moment_rejects_bad_order():
    for bad in ((-2,), (1.5,), (2, 0, 2), (2, 2.0), (math.nan,), (math.inf,)):
        with pytest.raises(ConfigurationError):
            diagnostics.moment_orders(bad)
    assert diagnostics.moment_orders((2.0, 0)) == (2, 0)


# ------------------------------------------------------------ moment bound

# The envelope re-integrated over a whole measured history: the rate and
# the envelope of diagnostics.Gronwall's docstring written out in the same
# operation order, the reference for the running trapezoid that
# Gronwall.check accumulates frame by frame.

def _trapezoid(values, times) -> float:
    total = 0.0
    for k in range(1, len(times)):
        total += 0.5 * (values[k] + values[k - 1]) * (times[k] - times[k - 1])
    return total


def gronwall_bound_v(times, wvel_hist, sql2_hist, rho_linf_hist, initial_moment, params, p):
    """The p-th v-moment's envelope from the history; None outside its region."""
    if params.gamma - params.alpha - params.beta_eff < 0.0:
        return None
    q = p + 2
    er = params.gamma - params.alpha - p * params.beta_eff / q
    k = params.a * params.gamma / params.mu0
    rates = []
    for w, s, r in zip(wvel_hist, sql2_hist, rho_linf_hist):
        try:
            rates.append((w ** (p / q)) * (s ** (2.0 / q)) * (r ** er))
        except OverflowError:
            rates.append(math.inf)
    integral = _trapezoid(rates, times)
    try:
        return (initial_moment ** q + k * q * integral) ** (1.0 / q) * math.exp(k * integral)
    except OverflowError:
        return math.inf


def checked_bound(times, wvel_hist, sql2_hist, rho_linf_hist, initial_moment, params, p):
    """The last frame's envelope from diagnostics.Gronwall, checked frame by
    frame with the history; every frame's moment is initial_moment."""
    check = diagnostics.Gronwall(params, (p,), 0.1)
    prev = None
    for t, w, s, r in zip(*(np.asarray(h).tolist() for h in (times, wvel_hist, sql2_hist, rho_linf_hist))):
        sums = [0.0, w, s * s, r, initial_moment ** (p + 2)]
        _, _, (bound,), _ = check.check(None if prev is None else t - prev, sums)
        prev = t
    return bound


def test_gronwall_zero_velocity_history():
    times = np.array([0.0, 0.5, 1.0])
    zero = np.zeros(3)
    ones = np.ones(3)
    for envelope in (gronwall_bound_v, checked_bound):
        assert envelope(times, zero, zero, ones, 0.37, P2, 2) == pytest.approx(0.37, rel=1e-14)


def test_gronwall_zero_horizon():
    for envelope in (gronwall_bound_v, checked_bound):
        got = envelope(np.array([0.0]), np.ones(1), np.ones(1), np.ones(1), 0.37, P2, 2)
        assert got == pytest.approx(0.37, rel=1e-14)


def test_gronwall_closed_form():
    # A(s) = 1 on [0, 1], p = 0, gamma = 2, m0 = 1:
    # (1 + 2*2*1)^(1/2) * exp(2) = sqrt(5) e^2
    times = np.linspace(0.0, 1.0, 11)
    ones = np.ones(11)
    for envelope in (gronwall_bound_v, checked_bound):
        got = envelope(times, ones, ones, ones, 1.0, P2, 0)
        assert got == pytest.approx(math.sqrt(5.0) * math.exp(2.0), rel=1e-12)


def test_gronwall_factor_is_a_gamma_over_mu0():
    # same history as the closed form above; K = a*gamma/mu0 replaces gamma:
    # a = 3, mu0 = 1.5 gives K = 4 and (1 + 4*2*1)^(1/2) * exp(4)
    times = np.linspace(0.0, 1.0, 11)
    ones = np.ones(11)
    params = Params(alpha=1.0, gamma=2.0, a=3.0, mu0=1.5)
    for envelope in (gronwall_bound_v, checked_bound):
        got = envelope(times, ones, ones, ones, 1.0, params, 0)
        assert got == pytest.approx(3.0 * math.exp(4.0), rel=1e-12)


def test_gronwall_unavailable_outside_region():
    # gamma - alpha - beta = 1.2 - 1 - 0.625 < 0: no closed-form envelope
    p_out = Params(alpha=1.0, gamma=1.2, eps=0.125)
    times = np.linspace(0.0, 1.0, 11)
    ones = np.ones(11)
    for envelope in (gronwall_bound_v, checked_bound):
        assert envelope(times, ones, ones, ones, 1.0, p_out, 0) is None


def test_gronwall_past_the_float_range_is_inf_and_checks_nothing():
    # K = a*gamma/mu0 = 3e4 makes exp(K*I) overflow at I = 1, and
    # rho_linf^199 at rho_linf = 100 overflows the rate; an infinite bound
    # gets no verdict
    wide = Params(alpha=0.8, gamma=3.0, a=10.0, mu0=1e-3)
    steep = Params(alpha=1.0, gamma=200.0)
    times, ones = [0.0, 1.0], [1.0, 1.0]
    assert checked_bound(times, ones, ones, ones, 1.0, wide, 0) == math.inf
    assert checked_bound(times, ones, ones, [100.0, 100.0], 1.0, steep, 0) == math.inf
    assert gronwall_bound_v(times, ones, ones, [100.0, 100.0], 1.0, steep, 0) == math.inf
    check = diagnostics.Gronwall(wide, (0,), 0.1)
    check.check(None, [1.0] * 5)
    _, _, bounds, verdicts = check.check(1.0, [1.0] * 5)
    assert bounds == [math.inf] and verdicts == [None]


def test_gronwall_run_verdict():
    # with no u the rate is 0 and the bound stays m0 = 1: a frame passes at
    # M = 1 (moment 1) and fails at M = 4 (moment 2 > 1.1)
    def frames(params, ms):
        check = diagnostics.Gronwall(params, (0,), 0.1)
        seen = []
        for k, m in enumerate(ms):
            verdicts = check.check(None if k == 0 else 0.5, [0.0, 0.0, 0.0, 1.0, m])[3]
            seen.append((verdicts, check.verdict))
        return seen

    # the first frame checks nothing, a False is final, a True alone passes
    assert frames(P2, [1.0, 1.0, 4.0, 1.0]) == [
        ([True], "unavailable"), ([True], "pass"), ([False], "fail"), ([True], "fail")]
    # bounds past the float range, or outside the theorem region, give no
    # verdicts and keep the run unavailable
    wide = Params(alpha=0.8, gamma=3.0, a=10.0, mu0=1e-3)
    check = diagnostics.Gronwall(wide, (0,), 0.1)
    assert check.check(None, [1.0] * 5)[3] == [True]
    for _ in range(2):
        assert check.check(1.0, [1.0] * 5)[3] == [None] and check.verdict == "unavailable"
    assert frames(Params(alpha=1.0, gamma=1.2, eps=0.125), [1.0, 4.0]) == [([None], "unavailable")] * 2


# ------------------------------------------------------- one-pass frame

@pytest.mark.parametrize("origin", ["U", "V"])
def test_collect_gronwall_bound_matches_the_oracle(origin):
    # the running trapezoid of the Gronwall rate, frame by frame, equals the
    # envelope re-integrated over the whole recorded history
    params = Params(alpha=0.75, gamma=2.5, a=1.3, mu0=0.9)
    m = build_mesh(6.0, 96)
    prof = background_profile(m, 1.0, 1.5)
    check = diagnostics.Gronwall(params, (0, 3), 0.1)
    hist, first, rec = [], None, None
    for k, t in enumerate((0.0, 0.1, 0.25, 0.3)):
        rho = prof + 0.3 * np.exp(-((m.x - 0.2 * k) ** 2))
        rec = _record(rho, 0.4 * np.sin(m.x + k), origin, m, prof, params, check, rec, t)
        first = first or rec
        hist.append((t, rec.wvel_inf, rec.sqrt_rho_u_l2, rec.max_rho))
        times, wvel, sql2, rho_linf = zip(*hist)
        for p in (0, 3):
            assert rec.gron_bound[p] == gronwall_bound_v(
                times, wvel, sql2, rho_linf, first.moments[p], params, p)


@pytest.mark.parametrize("origin", ["U", "V"])
def test_collect_reads_u_and_v_where_each_belongs(origin):
    # alpha = mu0 = 1 makes phi = log(rho), so rho = e^x gives v = u + 1 up to
    # round-off; with u = 0 each field that reads the wrong velocity is off
    m, prof = _flat(2.0, 256)
    rec = _record(np.exp(m.x), np.zeros(m.N) if origin == "U" else np.ones(m.N), origin, m, prof,
                  moment_ps=(0, 2))
    assert rec.bd_entropy - rec.energy == pytest.approx(0.5 * rec.mass, rel=1e-12)
    assert rec.wvel_inf <= 1e-12 and rec.sqrt_rho_u_l2 <= 1e-12
    assert rec.v_inf == pytest.approx(1.0, rel=1e-12)
    for p in (0, 2):
        assert rec.moments[p] == pytest.approx(rec.mass ** (1 / (p + 2)), rel=1e-12)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _moment_cases():
    # (name, rho, v) on one mesh: near-vacuum data, whose far-field v is
    # about 1e-45 so |v|^10 and |v|^32 fall below the normal range; v = 0;
    # a state near rest, max |v| = 1e-10, whose every |v|^32 is sub-normal;
    # and cells with the smallest sub-normal |v|
    params = Params(alpha=0.7, gamma=2.0)
    m = build_mesh(10.0, 256)
    rho = 1.0 - 0.8 * np.exp(-m.x ** 2)
    _, v = diagnostics.velocities(make_state(rho, 0.03 * np.exp(-m.x ** 2), "U", m), m, params)
    tiny = 0.5 * np.cos(m.x)
    tiny[::3] = 5e-324
    cases = [("near-vacuum", rho, v), ("zero", rho, np.zeros(m.N)),
             ("near rest", 1.0 + 0.1 * np.sin(m.x), 1e-10 * np.cos(m.x)),
             ("sub-normal cells", rho, tiny)]
    return m, params, cases


def test_moment_sums_equal_the_plain_sums_bitwise():
    # cells whose |v|^q would be sub-normal add an exact 0; that must leave
    # every moment integral the plain sum's, in a batch and in a row alone
    m, params, cases = _moment_cases()
    ps = (0, 2, 8, 30)
    names, rho, v = zip(*cases)
    rho, v = np.array(rho), np.array(v)
    assert np.abs(v[0]).min() < 1e-43 and 0.9e-10 < np.abs(v[2]).max() <= 1e-10
    want = [[float(np.sum(r * np.abs(w) ** (p + 2)) * m.dx) for p in ps] for r, w in zip(rho, v)]
    assert want[2][-1] != 0.0  # near rest, the p = 30 sum is sub-normal but not zero
    batch = diagnostics.moment_sums(rho, v, v, m, params, ps)
    for name, row, r, w, plain in zip(names, batch, rho, v, want):
        (alone,) = diagnostics.moment_sums(r, w, w, m, params, ps)
        assert np.array_equal(_bits(row[4:]), _bits(plain)), name
        assert np.array_equal(_bits(alone[4:]), _bits(plain)), name


# ------------------------------------------------------ equation residuals

def _mms_state(mesh, t, A=0.3, k=1.0, c=0.7):
    # exact solution of the mass equation in effective-velocity variables at
    # alpha = 1, mu0 = 1: drho/dt = dxx rho - c dx rho is solved by a
    # decaying travelling cosine
    rho = 1.0 + A * math.exp(-k * k * t) * np.cos(k * (mesh.x - c * t))
    return make_state(rho, c * np.ones(mesh.N), "V", mesh, t=t)


def test_reciprocal_residual_constant_state():
    m = build_mesh(2.0, 64)
    s0 = make_state(np.full(m.N, 1.3), np.full(m.N, 0.2), "V", m, t=0.0)
    s1 = make_state(np.full(m.N, 1.3), np.full(m.N, 0.2), "V", m, t=1e-3)
    assert reciprocal_residual(s0, s1, m, P2) == 0.0


def test_reciprocal_residual_rejects_backward_pair():
    m = build_mesh(2.0, 16)
    s0 = make_state(np.ones(m.N), np.zeros(m.N), "V", m, t=0.1)
    s1 = make_state(np.ones(m.N), np.zeros(m.N), "V", m, t=0.1)
    with pytest.raises(ConfigurationError):
        reciprocal_residual(s0, s1, m, P2)


def test_reciprocal_residual_manufactured_convergence():
    p1 = Params(alpha=1.0, gamma=2.0, eps=0.125)
    errs = []
    for n in (256, 512, 1024):
        m = build_mesh(10.0, n)
        dt = 0.05 * m.dx**2
        errs.append(reciprocal_residual(_mms_state(m, 0.1), _mms_state(m, 0.1 + dt), m, p1))
    assert errs[0] <= 2.5e-3  # measured 1.76e-3
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse / fine >= 3.2  # second order in dx once dt ~ dx^2


def test_pressure_identity_constant_state():
    m = build_mesh(2.0, 256)
    params = Params(alpha=0.75, gamma=1.8, eps=0.125, mu0=0.9, a=1.2)
    prof = background_profile(m, 1.0, 1.0)
    assert _record(np.full(m.N, 1.7), np.full(m.N, -0.4), "U", m, prof, params).resid_pident == 0.0


def test_pressure_identity_truncation_bound():
    # C measured once on the refinement ladder below: 0.053, frozen with headroom
    for n in (128, 256, 512):
        m, prof = _flat(2.0, n)
        rec = _record(1.0 + 0.1 * np.sin(m.x), np.zeros(m.N), "U", m, prof)
        assert rec.resid_pident <= 0.06 * m.dx**2


def test_pressure_identity_refinement_rate():
    params = Params(alpha=0.75, gamma=1.8, eps=0.125, mu0=0.9, a=1.2)
    vals = []
    for n in (128, 256, 512, 1024):
        m, prof = _flat(2.0, n)
        rho = 1.0 + 0.4 * np.exp(-m.x**2)
        vals.append(_record(rho, 0.3 * np.sin(1.5 * m.x), "U", m, prof, params).resid_pident)
    for coarse, fine in zip(vals, vals[1:]):
        assert coarse / fine >= 3.5


# ----------------------------------------------------------------- reports

def test_density_report_at_background():
    m = build_mesh(2.0, 64)
    prof = background_profile(m, 1.0, 2.0)
    rec = _record(prof.copy(), np.zeros(m.N), "U", m, prof)
    assert rec.rho_h1 == 0.0
    assert rec.min_rho == 1.0 and rec.max_rho == 2.0


def test_density_report_constant_offset():
    # flat background, rho = rhobar + 0.5 on L = 2: the gradient term
    # vanishes and the H1 distance is 0.5 * sqrt(measure) = 1
    m, prof = _flat(2.0, 64)
    assert _record(prof + 0.5, np.zeros(m.N), "U", m, prof).rho_h1 == pytest.approx(1.0, abs=1e-13)


def test_density_report_reciprocal_consistency(rng):
    m, prof = _flat(2.0, 64)
    rho = 0.5 + rng.random(m.N)
    rec = _record(rho, np.zeros(m.N), "U", m, prof)
    assert rec.min_rho == rho.min() and rec.max_rho == rho.max()
    assert rec.inv_rho_max * rec.min_rho == pytest.approx(1.0, rel=1e-15)


# --------------------------------------------- record coherence over a run

@pytest.fixture(scope="module")
def bump_run():
    m = build_mesh(10.0, 128)
    prof = background_profile(m, 1.0, 1.0)
    st = make_state(1.0 + 0.5 * np.exp(-m.x**2), np.zeros(m.N), "U", m)
    return m, run(st, m, prof, P2, T=0.1, output_dt=0.025)


def test_run_records_monotone_time(bump_run):
    _, traj = bump_run
    assert traj.status == "completed"
    assert [r.t for r in traj.records] == traj.times
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


def test_run_cumulative_dissipations(bump_run):
    m, traj = bump_run
    du = [r.diss_u for r in traj.records]
    dbd = [r.diss_bd for r in traj.records]
    assert du[0] == 0.0 and dbd[0] == 0.0
    assert all(b >= a for a, b in zip(du, du[1:]))
    assert all(b >= a for a, b in zip(dbd, dbd[1:]))
    # each record carries the trapezoid of the recorded rates (the BD rate
    # clamped at 0) over the frames so far, bit for bit, in both forms,
    # under both schemes and at an alpha != 1
    prof = background_profile(m, 1.0, 1.0)
    su = make_state(1.0 + 0.5 * np.exp(-m.x**2), 0.3 * np.sin(m.x), "U", m)
    runs = [traj]
    for params in (P2, Params(alpha=0.75, gamma=2.0, eps=0.125)):
        for st in (su, effective_velocity(su, m, params)):
            for time_scheme in ("imex", "explicit"):
                runs.append(run(st, m, prof, params, T=0.1, output_dt=0.025, time_scheme=time_scheme))
    for traj in runs:
        assert traj.status == "completed" and len(traj.records) == 5
        du_rates = [r.diss_u_rate for r in traj.records]
        bd_rates = [max(0.0, r.diss_bd_rate) for r in traj.records]
        for k, rec in enumerate(traj.records):
            assert rec.diss_u == _trapezoid(du_rates[:k + 1], traj.times[:k + 1])
            assert rec.diss_bd == _trapezoid(bd_rates[:k + 1], traj.times[:k + 1])


def test_run_moment_keys_and_sandwich(bump_run):
    _, traj = bump_run
    for rec in traj.records:
        assert set(rec.moments) == {0, 2, 8, 30}
        # high moment pinches the sup once reweighted by the density floor
        assert rec.v_inf <= 1.25 * rec.moments[30] / rec.min_rho ** (1 / 32) + 1e-15


def test_run_gronwall_passes_inside_region(bump_run):
    _, traj = bump_run
    for rec in traj.records:
        assert rec.gron_bound.keys() == rec.moments.keys()
        assert all(v is True for v in rec.gron_pass.values())


def test_run_record_matches_recomputed_fields(bump_run):
    m, traj = bump_run
    prof = background_profile(m, 1.0, 1.0)
    for frame, rec in zip(traj.frames, traj.records):
        alone = _record(frame.rho, frame.vel, frame.form, m, prof, t=frame.t)
        for name in ("wvel_inf", "energy", "min_rho", "rho_h1", "resid_pident"):
            assert getattr(alone, name) == getattr(rec, name), name


def test_run_energy_budget_sane(bump_run):
    # refinement-quality budget checks live with the acceptance battery;
    # here only the coarse-cadence sanity margin
    _, traj = bump_run
    e0 = traj.records[0].energy
    b0 = traj.records[0].bd_entropy
    for rec in traj.records:
        assert rec.energy + rec.diss_u <= e0 * (1.0 + 1e-3)
        assert rec.bd_entropy + rec.diss_bd <= b0 * (1.0 + 1e-3)


def _budget_delta(records, energy_attr, diss_attr):
    e0 = getattr(records[0], energy_attr)
    worst = max((getattr(r, energy_attr) + getattr(r, diss_attr)) / e0 - 1.0 for r in records[1:])
    return max(worst, 0.0)


# The first cumulative-dissipation panel is a trapezoid over one output
# interval, and the dissipation rate is convex while the bump relaxes, so a
# coarse cadence overstates D there. At mu0 = 3 that relaxation is three
# times faster: at output_dt = 0.00125 the N = 1024 energy margin reads
# +4.7e-9 at the first frame (0 at N = 512) and turns negative once the
# cadence is halved. Halving it keeps the quadrature error under the
# scheme's margin, as the acceptance battery's cadence does at mu0 = 1.
@pytest.fixture(scope="module", params=[
    pytest.param((Params(alpha=1.0, gamma=2.0, a=4.0), 0.00125), id="a4"),
    pytest.param((Params(alpha=1.0, gamma=2.0, mu0=3.0), 0.000625), id="mu0_3"),
])
def scaled_budget_runs(request):
    params, output_dt = request.param
    runs = {}
    for n in (512, 1024):
        m = build_mesh(10.0, n)
        prof = background_profile(m, 1.0, 1.0)
        st = make_state(1.0 + 0.5 * np.exp(-m.x**2), np.zeros(n), "U", m)
        runs[n] = run(st, m, prof, params, T=0.2, output_dt=output_dt)
        assert runs[n].status == "completed"
    return runs


def test_energy_budget_away_from_unit_coefficients(scaled_budget_runs):
    # acceptance criterion 04, thresholds unchanged, at a != 1 and mu0 != 1
    deltas = {n: _budget_delta(t.records, "energy", "diss_u") for n, t in scaled_budget_runs.items()}
    assert deltas[512] <= 1e-8
    assert deltas[1024] <= max(deltas[512] / 1.8, 1e-12)


def test_bd_budget_away_from_unit_coefficients(scaled_budget_runs):
    # acceptance criterion 05, thresholds unchanged, at a != 1 and mu0 != 1
    deltas = {n: _budget_delta(t.records, "bd_entropy", "diss_bd") for n, t in scaled_budget_runs.items()}
    assert deltas[512] <= 1e-8
    assert deltas[1024] <= max(deltas[512] / 1.8, 1e-12)
    for traj in scaled_budget_runs.values():
        assert all(r.bd_integrand_min >= -1e-10 for r in traj.records)
        assert all(v is True for r in traj.records for v in r.gron_pass.values())


def test_run_v_form_reports_same_shape(bump_run):
    m, _ = bump_run
    prof = background_profile(m, 1.0, 1.0)
    st = make_state(1.0 + 0.5 * np.exp(-m.x**2), np.zeros(m.N), "U", m)
    traj = run(effective_velocity(st, m, P2), m, prof, P2, T=0.05, output_dt=0.025)
    assert traj.status == "completed"
    assert all(fr.form == "V" for fr in traj.frames)
    assert all(set(r.moments) == {0, 2, 8, 30} for r in traj.records)
