"""Batched integration: each row of a batch is, bit for bit, its point run alone."""

import numpy as np
import pytest

from dvns1d import Params, background_profile, build_mesh, diagnostics, harness, solver
from dvns1d.harness import Scenario, sweep

MOMENT_PS = (0, 2, 8, 30)
# (initial data, alphas, gammas).  alpha = 0.5 and gamma = 1.2 lie outside
# the theorem, and alpha = 0.5 and gamma = 2.0 are exponents that numpy
# raises to by a scalar fast path (sqrt, square); at gamma = 0.04 the sound
# speed of the denormal cell overflows, so that point ends as "numerics"
GRIDS = (("spike", (0.5, 0.7, 1.0), (1.2, 2.0, 3.0)), ("denormal", (1.0,), (0.04, 2.0)))


def _initial(kind, mesh):
    if kind == "spike":  # a pressure spike over near-vacuum gas
        return np.where(np.abs(mesh.x) < 0.5, 2.0, 1e-3), np.zeros(mesh.N)
    rho = np.ones(mesh.N)
    rho[mesh.N // 2] = 5e-324
    return rho, 0.1 * np.sin(mesh.x)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [8, 96, 257])
@pytest.mark.parametrize("form", ["U", "V"])
@pytest.mark.parametrize("scheme", ["imex", "explicit"])
def test_batch_rows_equal_runs_alone(scheme, form, n, monkeypatch):
    # the rows step together with their own dt, some end in vacuum or
    # numerics while the others go on, and each row's status, steps, breach
    # data, minimum density, frame times and last frame's fields are those
    # of solver.run at that point; so is what the sweep monitor reads of
    # each frame through the shared Gronwall routine, and its sup v_inf and
    # verdict are those of run's full records
    mesh = build_mesh(4.0, n)
    profile = background_profile(mesh, 1.0, 1.0)
    checks = {}
    real = diagnostics.Gronwall.check

    def check(self, h, sums):
        out = real(self, h, sums)
        checks.setdefault(self, []).append((sums[0], sums[1], *out))
        return out

    monkeypatch.setattr(diagnostics.Gronwall, "check", check)
    statuses, verdicts = set(), set()
    for kind, alphas, gammas in GRIDS:
        points = [Params(alpha=a, gamma=g) for a in alphas for g in gammas]
        su = solver.make_state(*_initial(kind, mesh), "U", mesh)
        states = [su if form == "U" else solver.effective_velocity(su, mesh, p) for p in points]
        monitor = harness._SweepMonitor(mesh, points, MOMENT_PS, 0.1)
        last = {}

        def frame(state, rows, batch):
            for i, rho, vel in zip(rows.tolist(), state.rho, state.vel):
                last[i] = rho.copy(), vel.copy()
            monitor(state, rows, batch)

        batch = solver.FlowState(np.stack([s.rho for s in states]), np.stack([s.vel for s in states]),
                                 form)
        trajs = solver.run_batch(batch, mesh, points, T=0.002, output_dt=0.001, frame=frame,
                                 time_scheme=scheme)
        for i, (p, st0, got) in enumerate(zip(points, states, trajs)):
            want = solver.run(st0, mesh, profile, p, T=0.002, output_dt=0.001, time_scheme=scheme)
            assert repr((got.status, got.steps, got.breach_time, got.breach_cell, got.min_rho_ever,
                         got.times)) == repr((want.status, want.steps, want.breach_time,
                                              want.breach_cell, want.min_rho_ever, want.times)), p
            assert repr(checks[monitor.checks[i]]) == repr([
                (r.v_inf, r.wvel_inf, r.sqrt_rho_u_l2, [r.moments[q] for q in MOMENT_PS],
                 [r.gron_bound[q] for q in MOMENT_PS], [r.gron_pass[q] for q in MOMENT_PS])
                for r in want.records]), p
            assert repr(monitor.sup_v_inf[i]) == repr(harness._sup(r.v_inf for r in want.records)), p
            assert monitor.gronwall[i] == harness._overall_gronwall(want.records), p
            assert _same_bits(last[i][0], want.frames[-1].rho), p
            assert _same_bits(last[i][1], want.frames[-1].vel), p
            statuses.add(got.status)
            verdicts.add(monitor.gronwall[i])
    assert {"completed", "numerics"} <= statuses
    assert "unavailable" in verdicts
    if scheme == "explicit" and n == 257:
        assert "vacuum" in statuses


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_sweep_rows_equal_sweeps_of_each_point_alone(tmp_path):
    # the harness layer: every row of a batched sweep, the error row of a
    # gamma that Params rejects included, reads as a sweep of that point alone
    table = tmp_path / "spike.csv"
    table.write_text("x,rho,u\n-4,1e-3,0\n-0.51,1e-3,0\n-0.5,2.0,0\n0.5,2.0,0\n0.51,1e-3,0\n4,1e-3,0\n")
    params = Params(alpha=1.0, gamma=2.0)
    s = Scenario(name="t", params=params, L=4.0, N=96,
                 init_family="custom-table", table=str(table), T=0.002, output_dt=0.001,
                 solver_form="V", time_scheme="explicit")
    sweep(s, [0.5, 0.7, 1.0], [-1.0, 1.2, 2.0], tmp_path / "all")
    rows = (tmp_path / "all" / "sweep.csv").read_text().splitlines()[1:]
    for row in rows:
        alpha, gamma = row.split(",")[:2]
        out = tmp_path / f"{alpha}_{gamma}"
        sweep(s, [float(alpha)], [float(gamma)], out)
        assert (out / "sweep.csv").read_text().splitlines()[1] == row
    statuses = {row.split(",")[3].split(":")[0] for row in rows}
    assert statuses == {"error", "vacuum", "completed"}


def test_sweep_batches_hold_at_most_cells_over_n_points(tmp_path, monkeypatch):
    sizes = []
    real = solver.run_batch

    def counting(state0, mesh, points, **kwargs):
        sizes.append(len(points))
        return real(state0, mesh, points, **kwargs)

    monkeypatch.setattr(solver, "run_batch", counting)
    params = Params(alpha=1.0, gamma=2.0)
    s = Scenario(name="t", params=params, N=8192, T=0.0)
    sweep(s, [0.6, 0.7, 0.8], [2.0, 2.5, 3.0], tmp_path / "sw")
    assert harness.CELLS // 8192 == 4
    assert sizes == [4, 4, 1]
    assert len((tmp_path / "sw" / "sweep.csv").read_text().splitlines()) == 10


@pytest.mark.parametrize("form", ["U", "V"])
def test_sweep_step_error_at_one_point_keeps_the_other_rows(tmp_path, monkeypatch, form):
    # an ArithmeticError out of a batched step (kernels._thomas divides
    # Python floats, so a near-singular solve can raise ZeroDivisionError)
    # steps the batch's points alone: only the point that raises again
    # ends "numerics", and every other row is unchanged
    params = Params(alpha=1.0, gamma=2.0)
    s = Scenario(name="t", params=params, N=64, T=0.05,
                 output_dt=0.025, solver_form=form)
    sweep(s, [0.8, 1.0], [2.0, 2.5], tmp_path / "ref")
    for name in ("step_u", "step_v"):
        def flaky(state, mesh, batch, *args, real=getattr(solver, name), **kwargs):
            if 0.8 in [p.alpha for p in batch.points]:
                raise ZeroDivisionError("float division by zero")
            return real(state, mesh, batch, *args, **kwargs)
        monkeypatch.setattr(solver, name, flaky)
    sweep(s, [0.8, 1.0], [2.0, 2.5], tmp_path / "sw")
    ref = (tmp_path / "ref" / "sweep.csv").read_text().splitlines()
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert [r.split(",")[3] for r in rows[1:3]] == ["numerics"] * 2
    assert rows[3:] == ref[3:] and len(rows) == 5
    assert [r.split(",")[3] for r in ref[3:]] == ["completed"] * 2
