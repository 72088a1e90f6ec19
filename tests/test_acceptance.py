"""Acceptance battery: one test per release criterion, runnable end to end.

Each criterion gets its own test function so `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line per criterion. Expensive trajectories are
shared through module-scoped fixtures; the whole battery targets well under a
minute on one core.

Every trajectory is integrated with the `time_scheme` fixture's scheme: the
default, imex, here, and the explicit reference scheme in
tests/test_acceptance_explicit.py, which runs the same criteria with the same
thresholds.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

from dvns1d import (
    Params,
    background_profile,
    build_mesh,
    dphi,
    integrate,
    make_state,
    run,
)
from dvns1d.harness import Scenario, build_initial, refinement_study, regularization_study, sweep

SW = Params(alpha=1.0, gamma=2.0, eps=0.125)  # the shallow-water point


@pytest.fixture(scope="module")
def time_scheme():
    return "imex"


def _scn(time_scheme, **over):
    params = over.pop("params", SW)
    return Scenario(name=over.pop("name", "acc"), params=params,
                    time_scheme=time_scheme, **over)


def _bump(N, L=10.0, amp=0.5):
    m = build_mesh(L, N)
    prof = background_profile(m, 1.0, 1.0)
    st = make_state(1.0 + amp * np.exp(-m.x**2), np.zeros(N), "U", m)
    return m, prof, st


@pytest.fixture(scope="module")
def ladder_orders(tmp_path_factory, time_scheme):
    """Self-convergence table for the smooth bump, both forms, N in {256,512,1024}."""
    out = tmp_path_factory.mktemp("ladder")
    s = _scn(time_scheme, N=256, amplitude=0.5, T=0.2, output_dt=0.1, solver_form="both")
    assert refinement_study(s, [256, 512, 1024], out) == 0
    table = {}
    with open(out / "orders.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            table.setdefault(row["quantity"], []).append(row)
    return table


@pytest.fixture(scope="module")
def budget_runs(time_scheme):
    """Fine-cadence bump runs used for the energy and entropy budgets.

    The cumulative dissipations are trapezoid sums over the output cadence,
    so the budget margin is only as accurate as that quadrature; at coarse
    cadence its error can exceed the upwind slack. dt=0.00125 puts the
    quadrature error safely below the scheme's own dissipation margin.
    """
    out = {}
    for n in (512, 1024):
        m, prof, st = _bump(n)
        out[n] = run(st, m, prof, SW, T=0.2, output_dt=0.00125, time_scheme=time_scheme)
        assert out[n].status == "completed"
    return out


@pytest.fixture(scope="module")
def sw_traj(time_scheme):
    m, prof, st = _bump(512)
    traj = run(st, m, prof, SW, T=1.0, output_dt=0.05, time_scheme=time_scheme)
    assert traj.status == "completed"
    return traj


@pytest.fixture(scope="module")
def hoff_mins(time_scheme):
    mins = {}
    for n in (512, 1024):
        m = build_mesh(10.0, n)
        prof = background_profile(m, 1.0, 2.0)
        s = _scn(time_scheme, N=n, rho_minus=1.0, rho_plus=2.0, init_family="hoff-step",
                 u_amplitude=0.3, u_sigma=2.0, T=1.0, output_dt=0.1)
        traj = run(build_initial(s, m, prof), m, prof, SW, T=1.0, output_dt=0.1,
                   time_scheme=time_scheme)
        assert traj.status == "completed"
        mins[n] = traj.min_rho_ever
    return mins


def _budget_delta(records, energy_attr, diss_attr):
    e0 = getattr(records[0], energy_attr)
    worst = max(
        (getattr(r, energy_attr) + getattr(r, diss_attr)) / e0 - 1.0
        for r in records[1:]
    )
    return max(worst, 0.0)


# --------------------------------------------------------------- criteria

def test_01_stationary_fixed_point(time_scheme):
    # constant state, both forms, N=256, T=0.5: every field frozen to 1e-12
    m = build_mesh(10.0, 256)
    prof = background_profile(m, 1.0, 1.0)
    for form in ("U", "V"):
        st = make_state(np.ones(256), np.zeros(256), form, m)
        traj = run(st, m, prof, SW, T=0.5, output_dt=0.1, time_scheme=time_scheme)
        assert traj.status == "completed"
        for fr in traj.frames:
            assert np.max(np.abs(fr.rho - 1.0)) <= 1e-12
            assert np.max(np.abs(fr.vel)) <= 1e-12


def test_02_mass_conservation(sw_traj):
    # gaussian bump, U-form, N=512, T=1: relative drift within 1e-10
    mass0 = sw_traj.records[0].mass
    drift = max(abs(r.mass - mass0) for r in sw_traj.records)
    assert drift / mass0 <= 1e-10


def test_03_formulation_equivalence_order(ladder_orders):
    # sup |rho_U - rho_V| self-converges with order >= 1.0
    rows = ladder_orders["formdiff_rho"]
    orders = [float(r["order"]) for r in rows if r["order"] != "undefined"]
    assert len(orders) == 2
    assert all(o >= 1.0 for o in orders)


def test_04_energy_budget(budget_runs):
    # E(t) + cumulative viscous dissipation <= E(0)*(1+delta_N),
    # delta shrinking by at least 1.8x from N=512 to N=1024
    deltas = {n: _budget_delta(t.records, "energy", "diss_u") for n, t in budget_runs.items()}
    assert deltas[512] <= 1e-8  # measured: margin strictly negative, delta 0
    # the 1e-12 floor only matters if round-off ever lifts delta off zero
    assert deltas[1024] <= max(deltas[512] / 1.8, 1e-12)


def test_05_bd_entropy_budget(budget_runs):
    deltas = {n: _budget_delta(t.records, "bd_entropy", "diss_bd") for n, t in budget_runs.items()}
    assert deltas[512] <= 1e-8
    assert deltas[1024] <= max(deltas[512] / 1.8, 1e-12)
    for traj in budget_runs.values():
        assert all(r.bd_integrand_min >= -1e-10 for r in traj.records)


def test_06_pressure_identity_order(ladder_orders):
    # gradient-of-pressure identity residual refines at second order
    rows = ladder_orders["resid_pident"]
    orders = [float(r["order"]) for r in rows if r["order"] != "undefined"]
    assert len(orders) == 2
    assert all(1.7 <= o <= 2.3 for o in orders)


def test_07_reciprocal_residual_order(ladder_orders):
    # residual of the 1/rho evolution equation self-converges at order >= 1
    rows = ladder_orders["resid_recip"]
    orders = [float(r["order"]) for r in rows if r["order"] != "undefined"]
    assert len(orders) == 2
    assert all(o >= 1.0 for o in orders)


def test_08_moment_bound_chain(sw_traj):
    # measured weighted moments stay under the Gronwall envelope (10% slack)
    # for p in {0, 2, 8, 30} at every output time
    for rec in sw_traj.records:
        for p in (0, 2, 8, 30):
            bound = rec.gron_bound[p]
            assert bound is not None
            assert rec.moments[p] <= 1.10 * bound


def test_09_no_vacuum_step_data(hoff_mins):
    # differing far-field densities with a velocity push: density floor
    # stays positive and is grid-converged to within 5%
    assert hoff_mins[512] > 0.0 and hoff_mins[1024] > 0.0
    assert abs(hoff_mins[512] - hoff_mins[1024]) / hoff_mins[512] <= 0.05


def test_10_regularization_consistency(tmp_path, time_scheme):
    s = _scn(time_scheme, N=512, init_family="near-vacuum", amplitude=-0.6, T=0.2, output_dt=0.1)
    m = build_mesh(10.0, 512)
    prof = background_profile(m, 1.0, 1.0)

    # floor below min viscosity + kernel support below dx: bit-identical run
    base = run(build_initial(s, m, prof), m, prof, SW, T=0.2, output_dt=0.1,
               time_scheme=time_scheme)
    big = dataclasses.replace(SW, reg_n=10**6)
    st_reg = build_initial(dataclasses.replace(s, params=big), m, prof,
                           mollify_override=10**6)
    regd = run(st_reg, m, prof, big, T=0.2, output_dt=0.1, time_scheme=time_scheme)
    assert float(np.max(np.abs(base.frames[-1].rho - regd.frames[-1].rho))) <= 1e-13

    # approximation ladder: distance to the most-resolved member non-increasing
    assert regularization_study(s, [2, 4, 8, 16, 10**6], tmp_path) == 0
    with open(tmp_path / "regularization.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    diffs = [float(r["diff_to_reference"]) for r in rows]
    assert all(b <= a for a, b in zip(diffs, diffs[1:]))
    assert [r["floor_active"] for r in rows] == ["yes", "no", "no", "no", "no"]
    assert all(r["status"] == "completed" for r in rows)


def test_11_constitutive_and_quadrature_tolerances():
    # headline tolerance checks; the exhaustive example suites live in
    # test_constitutive.py and test_mesh.py and run in the same session
    for h in (1e-3, 1e-4):
        fd = (  # centered difference of the viscosity-potential derivative
            (_phi_probe(2.0 + h) - _phi_probe(2.0 - h)) / (2.0 * h)
        )
        assert abs(dphi(2.0, Params(alpha=0.75, gamma=2.0, eps=0.125)) - fd) <= h**2
    m = build_mesh(10.0, 4000)
    assert integrate(np.exp(-m.x**2), m) == pytest.approx(math.sqrt(math.pi), abs=1e-8)


def _phi_probe(rho):
    from dvns1d import phi
    return phi(rho, Params(alpha=0.75, gamma=2.0, eps=0.125))


def test_12_sweep_determinism(tmp_path, time_scheme):
    # 5x5 grid straddling the admissibility line, run twice: every row
    # populated and the two tables byte-identical
    s = _scn(time_scheme, N=256, amplitude=0.5, T=1.0, output_dt=0.2)
    alphas = [0.6, 0.7, 0.8, 0.9, 1.0]
    gammas = [1.2, 1.5, 1.8, 2.1, 2.4]
    sweep(s, alphas, gammas, tmp_path / "a")
    sweep(s, alphas, gammas, tmp_path / "b")
    data = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert data == (tmp_path / "b" / "sweep.csv").read_bytes()
    with open(tmp_path / "a" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    assert all(r["status"] == "completed" for r in rows)
    assert all(all(cell != "" for cell in r.values()) for r in rows)
    assert {"yes", "no"} == {r["inside_theorem"] for r in rows}
