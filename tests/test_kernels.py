"""Stencil-correctness tests for the hot kernels.

The in-place right-hand sides must reproduce the plain operator-by-operator
form (kept below as a reference) bit for bit.
"""

import operator

import numpy as np
import pytest

from dvns1d import (Params, background_profile, build_mesh, cfl_dt, effective_velocity, kernels,
                    make_state, phi, run)


def _random_fields(n, seed):
    rng = np.random.default_rng(seed)
    rho = 0.2 + rng.random(n)
    w = rng.normal(size=n)
    return rho, w


# ----------------------------------------------------------- stencil oracles

def test_upwind_div_donor_cell_oracle():
    # independent loop implementation of the donor-cell flux
    dx = 0.5
    q = np.array([1.0, 2.0, 0.5, 3.0, 1.5, 0.25])
    w = np.array([0.3, -1.0, 0.7, 0.0, -0.2, 0.9])
    n = len(q)
    faces = np.zeros(n + 1)
    faces[0] = q[0] * w[0]
    faces[n] = q[-1] * w[-1]
    for i in range(1, n):
        wf = 0.5 * (w[i - 1] + w[i])
        faces[i] = wf * (q[i - 1] if wf >= 0.0 else q[i])
    want = (faces[1:] - faces[:-1]) / dx
    got = kernels.upwind_div(q, w, dx)
    assert np.array_equal(got, want)


def test_upwind_div_reduces_to_div_flux_for_uniform_velocity():
    rho, _ = _random_fields(64, 11)
    w = np.full(64, 1.3)
    got = kernels.upwind_div(rho, w, 0.1)
    # with w > 0 everywhere the donor is always the left cell
    faces = np.empty(65)
    faces[1:-1] = 1.3 * rho[:-1]
    faces[0] = rho[0] * 1.3
    faces[-1] = rho[-1] * 1.3
    want = (faces[1:] - faces[:-1]) / 0.1
    assert np.allclose(got, want, atol=1e-14)


def test_stability_terms_oracle():
    rho, w = _random_fields(128, 5)
    smax, numax = kernels.stability_terms(rho, w, 0.75, 2.0, 1.0, 1.0, 0.25)
    assert smax == pytest.approx(np.max(np.abs(w) + np.sqrt(2.0 * rho)), rel=1e-14)
    assert numax == pytest.approx(np.max(np.maximum(rho**0.75, 0.25) / rho), rel=1e-14)


def test_rhs_u_oracle_constant_state():
    # constant density and velocity: all interior derivatives vanish
    # identically; the one-sided boundary rows carry ~1e-15 rounding noise,
    # which is why the stepper clamps the outermost cells
    rho = np.full(64, 1.7)
    u = np.full(64, 0.4)
    drho, dm = kernels.rhs_u(rho, u, 0.1, 1.0, 2.0, 1.0, 1.0, 0.0)
    assert np.all(drho == 0.0)
    assert np.all(dm[1:-1] == 0.0)
    assert np.max(np.abs(dm)) <= 1e-13


# ------------------------------------------- reference (operator-by-operator)

def _ref_grad_c(f, dx):
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    g[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return g


def _ref_diffuse(a, f, dx):
    out = np.zeros_like(f)
    af = 0.5 * (a[:-1] + a[1:])
    flux = af * (f[1:] - f[:-1])
    out[1:-1] = (flux[1:] - flux[:-1]) / (dx * dx)
    return out


def _ref_pressure(rho, gamma, a):
    return a * rho**gamma


def _ref_upwind_div(q, w, dx):
    n = q.shape[0]
    wf = 0.5 * (w[:-1] + w[1:])
    faces = np.empty(n + 1, dtype=q.dtype)
    faces[1:-1] = np.where(wf >= 0.0, wf * q[:-1], wf * q[1:])
    faces[0] = q[0] * w[0]
    faces[-1] = q[-1] * w[-1]
    return (faces[1:] - faces[:-1]) / dx


def _ref_rhs_u(rho, u, dx, alpha, gamma, a, mu0, floor):
    m = rho * u
    P = _ref_pressure(rho, gamma, a)
    mu = np.maximum(mu0 * rho**alpha, floor)
    drho = -_ref_upwind_div(rho, u, dx)
    dm = -_ref_upwind_div(m, u, dx) - _ref_grad_c(P, dx) + _ref_diffuse(mu, u, dx)
    return drho, dm


def _ref_rhs_v(rho, v, dx, alpha, gamma, a, mu0, floor):
    # the package's one density potential
    ph = phi(rho, Params(alpha=alpha, gamma=gamma, a=a, mu0=mu0))
    u = v - _ref_grad_c(ph, dx)
    P = _ref_pressure(rho, gamma, a)
    coef = np.maximum(mu0 * rho**alpha, floor) / rho
    drho = _ref_diffuse(coef, rho, dx) - _ref_upwind_div(rho, v, dx)
    dq = -_ref_upwind_div(rho * v, u, dx) - _ref_grad_c(P, dx)
    return drho, dq


def _ref_stability_terms(rho, vel, alpha, gamma, a, mu0, floor):
    smax = float(np.max(np.abs(vel) + np.sqrt((a * gamma) * rho ** (gamma - 1.0))))
    numax = float(np.max(np.maximum(mu0 * rho**alpha, floor) / rho))
    return smax, numax


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# (alpha, gamma, a, mu0, reg_n)
ORACLE_PARAMS = [(1.0, 2.0, 1.0, 1.0, None), (0.6, 1.5, 1.0, 1.0, None),
                 (0.75, 3.5, 4.0, 3.0, 8), (1.0, 2.0, 2.0, 0.5, None)]


@pytest.mark.parametrize("n", [8, 257, 8192])
@pytest.mark.parametrize("point", ORACLE_PARAMS)
def test_rhs_matches_reference_bitwise(n, point):
    alpha, gamma, a, mu0, reg_n = point
    floor = 0.0 if reg_n is None else 1.0 / reg_n
    rng = np.random.default_rng(n)
    rho = 0.05 + rng.random(n)
    w = rng.normal(size=n)
    # exact zeros of both signs exercise the signed-zero paths
    w[rng.random(n) < 0.1] = 0.0
    w[rng.random(n) < 0.1] = -0.0
    args = (0.037, alpha, gamma, a, mu0, floor)
    for new, ref in ((kernels.rhs_u, _ref_rhs_u), (kernels.rhs_v, _ref_rhs_v)):
        for got, want in zip(new(rho, w, *args), ref(rho, w, *args)):
            assert np.array_equal(_bits(got), _bits(want)), new.__name__
    # a constant state makes every difference an exact zero
    for vel in (0.0, -0.0):
        flat = np.full(n, 0.8), np.full(n, vel)
        for new, ref in ((kernels.rhs_u, _ref_rhs_u), (kernels.rhs_v, _ref_rhs_v)):
            for got, want in zip(new(*flat, *args), ref(*flat, *args)):
                assert np.array_equal(_bits(got), _bits(want)), new.__name__
    assert kernels.stability_terms(rho, w, *args[1:]) == _ref_stability_terms(rho, w, *args[1:])


@pytest.mark.parametrize("n", [8, 257])
def test_primitives_match_reference_bitwise(n):
    rng = np.random.default_rng(3 * n)
    rho = 0.2 + rng.random(n)
    w = rng.normal(size=n)
    w[::5] = 0.0
    for dx in (0.034, -0.034):
        assert np.array_equal(_bits(kernels.grad_c(w, dx)), _bits(_ref_grad_c(w, dx)))
        assert np.array_equal(_bits(kernels.diffuse(rho, w, dx)), _bits(_ref_diffuse(rho, w, dx)))
        assert np.array_equal(_bits(kernels.upwind_div(rho, w, dx)),
                              _bits(_ref_upwind_div(rho, w, dx)))
    for gamma in (0.5, 1.0, 1.4, 2.0, 3.0):
        for a in (1.0, 2.5):
            assert np.array_equal(_bits(kernels.pressure(rho, gamma, a)), _bits(_ref_pressure(rho, gamma, a)))


_GRID_A, _GRID_G = (0.6, 0.5, 0.8, 2.0, 1.0), (1.5, 2.0, 0.5, 3.0, 3.5)

# (values, whether every group is a slice): a sweep's alpha and gamma
# columns (one block per alpha, every fifth row per gamma), rows in no
# progression, and one row per value
COLUMN_LAYOUTS = [([a for a in _GRID_A for _ in _GRID_G], True),
                  ([g for _ in _GRID_A for g in _GRID_G], True),
                  ([0.6, 0.7, 0.6, 0.6, 0.9], False),
                  ([0.5, 2.0, 0.7, 1.3], True)]


@pytest.mark.parametrize("n", [37, 256])
@pytest.mark.parametrize("values, all_slices", COLUMN_LAYOUTS)
def test_column_powers_are_each_rows_scalar_power_bitwise(values, all_slices, n):
    # the scalar fast paths (**2.0, **0.5) differ from an elementwise pow,
    # so each group must take its value as a scalar, on a view or a gather
    col = kernels.column(values)
    assert all(isinstance(rows, slice) for _, rows in col.groups) == all_slices
    x = 0.05 + np.random.default_rng(n).random((len(values), n))
    got = kernels.per_value(operator.pow, x, col)
    for i, value in enumerate(values):
        assert np.array_equal(_bits(got[i]), _bits(x[i] ** value)), (i, value)


def test_one_stability_evaluation_per_step(monkeypatch):
    # run evaluates the limit once per step and once per output frame (for
    # the explicit probe step), under either scheme and in either form; the
    # steppers reuse it instead of re-evaluating
    calls = []
    inner = kernels.stability_terms

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(kernels, "stability_terms", counting)
    params = Params(alpha=0.75, gamma=2.0)
    mesh = build_mesh(6.0, 64)
    profile = background_profile(mesh, 1.0, 1.0)
    st = make_state(1.0 + 0.4 * np.exp(-mesh.x**2), 0.2 * np.sin(mesh.x), "U", mesh)
    for time_scheme in ("explicit", "imex"):
        for state in (st, effective_velocity(st, mesh, params)):
            calls.clear()
            traj = run(state, mesh, profile, params, T=0.2, output_dt=0.05, time_scheme=time_scheme)
            assert traj.status == "completed" and traj.steps > len(traj.records) > 1
            assert len(calls) == traj.steps + len(traj.records)


def test_imex_limit_forms_no_diffusivity(monkeypatch):
    # the implicit diffusion sets no limit, so an imex cfl_dt leaves the
    # diffusivity unformed; the explicit one forms it once
    calls = []
    for name in ("diffusivity", "viscosity"):
        def counting(*args, inner=getattr(kernels, name), name=name):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(kernels, name, counting)
    params = Params(alpha=0.75, gamma=2.0)
    mesh = build_mesh(6.0, 64)
    st = make_state(1.0 + 0.4 * np.exp(-mesh.x**2), 0.2 * np.sin(mesh.x), "U", mesh)
    for state in (st, effective_velocity(st, mesh, params)):
        for time_scheme, want in (("imex", []), ("explicit", ["diffusivity", "viscosity"])):
            calls.clear()
            cfl_dt(state, mesh, params, time_scheme=time_scheme)
            assert calls == want, (state.form, time_scheme)


# ------------------------------------------------------- tridiagonal solver

def _dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def _matvec(lower, diag, upper, x):
    # the three terms of each row of the tridiagonal product, unsummed
    left = np.zeros_like(x)
    right = np.zeros_like(x)
    left[1:] = lower[1:] * x[:-1]
    right[:-1] = upper[:-1] * x[1:]
    return left, diag * x, right


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 33, 63, 64, 65, 128, 257, 8192])
def test_solve_tridiagonal_matches_dense_solve(n):
    # sizes on both sides of the Thomas cut-off, and odd and even lengths
    # at every reduction level (8192 halves evenly down to 16, 257 gives
    # 129, 65, 33, 17); rows 0, 1 and the last two are identity rows, as the
    # clamped cells of a stage solve are.  At 8192 the dense matrix would
    # take 512 MB, so the reference there is the sequential Thomas sweep on
    # the whole system, which shares no step with the reduction.
    rng = np.random.default_rng(n)
    lower = -rng.random(n)
    upper = -rng.random(n)
    diag = 0.1 + rng.random(n) - lower - upper
    if n >= 8:
        for i in (0, 1, n - 2, n - 1):
            lower[i] = upper[i] = 0.0
            diag[i] = 1.0
    lower[0] = upper[-1] = 0.0
    rhs = rng.normal(size=n)
    x = kernels.solve_tridiagonal(lower, diag, upper, rhs)
    if n <= 257:
        want = np.linalg.solve(_dense(lower, diag, upper), rhs)
    else:
        want = kernels._thomas(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist())
    assert x.shape == (n,)
    assert np.max(np.abs(x - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [5, 64, 1000, 8192])
def test_solve_tridiagonal_keeps_m_matrix_solutions_positive(n):
    # the implicit density stage: I - k*D with face diffusivities spanning
    # many decades (near vacuum) is an M-matrix, so a positive right-hand
    # side, even one as small as 1e-300 in places, gives a positive
    # solution, and each row holds to round-off relative to its own terms
    rng = np.random.default_rng(7)
    coef = 10.0 ** rng.uniform(-8, 8, n)
    lower, diag, upper = kernels.diffusion_bands(np.ones(n), coef, 50.0)
    rhs = 10.0 ** rng.uniform(-300, 0, n)
    x = kernels.solve_tridiagonal(lower, diag, upper, rhs)
    assert (x > 0.0).all()
    left, mid, right = _matvec(lower, diag, upper, x)
    scale = np.abs(left) + mid + np.abs(right) + rhs
    assert (np.abs(left + mid + right - rhs) <= 1e-12 * scale).all()


def test_diffusion_bands_apply_the_diffusion_stencil():
    # interior rows are base*f - k*dx^2*diffuse(coef, f); the two cells at
    # each end are identity rows
    rng = np.random.default_rng(3)
    n, dx, k = 40, 0.1, 0.7
    base, coef, f = 0.5 + rng.random(n), rng.random(n), rng.normal(size=n)
    left, mid, right = _matvec(*kernels.diffusion_bands(base, coef, k), f)
    got = left + mid + right
    want = base * f - k * dx * dx * kernels.diffuse(coef, f, dx)
    assert np.allclose(got[2:-2], want[2:-2], rtol=1e-13, atol=1e-13)
    assert np.array_equal(got[[0, 1, -2, -1]], f[[0, 1, -2, -1]])


def _m_matrix_bands(rng, shape):
    # diagonally dominant with non-positive off-diagonals, each row scaled
    # by its own power of ten
    scale = 10.0 ** rng.uniform(-8, 8, shape)
    lower = -scale * rng.random(shape)
    upper = -scale * rng.random(shape)
    diag = scale * (0.1 + rng.random(shape)) - lower - upper
    lower[..., 0] = upper[..., -1] = 0.0
    return lower, diag, upper


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 33, 63, 64, 65, 257, 1024])
@pytest.mark.parametrize("B", [2, 5, 25, 128])
def test_batched_solve_is_each_row_solved_alone_bitwise(B, n):
    # a batch's Thomas sweep runs once over the (B,) rows of all its systems,
    # with the IEEE operations of the float sweep of one system
    rng = np.random.default_rng(1000 * B + n)
    bands = _m_matrix_bands(rng, (B, n))
    rhs = rng.normal(size=(B, n))
    x = kernels.solve_tridiagonal(*bands, rhs)
    assert x.shape == (B, n)
    for r in range(B):
        alone = kernels.solve_tridiagonal(*(b[r] for b in bands), rhs[r])
        assert np.array_equal(_bits(x[r]), _bits(alone)), r


@pytest.mark.parametrize("n", [2, 3, 64, 128, 1024])
def test_zero_pivot_in_a_batch_raises_as_its_row_alone_does(n):
    # in row 3 the pivot after the first elimination, 1 - (1/1)*1, is exactly
    # 0 (for n >= 64 on the diagonal of the first reduced system, which the
    # next level would fill in).  A float division by it raises; numpy's
    # returns inf or nan, so the batched sweep and each level must raise on
    # their own
    rng = np.random.default_rng(n)
    lower, diag, upper = _m_matrix_bands(rng, (5, n))
    diag[3, :2] = upper[3, 0] = lower[3, 1] = 1.0
    rhs = rng.normal(size=(5, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in (0, 1, 2, 4):
            assert np.isfinite(kernels.solve_tridiagonal(lower[r], diag[r], upper[r], rhs[r])).all()
        with pytest.raises(ZeroDivisionError):
            kernels.solve_tridiagonal(lower[3], diag[3], upper[3], rhs[3])
        with pytest.raises(ZeroDivisionError):
            kernels.solve_tridiagonal(lower, diag, upper, rhs)


@pytest.mark.parametrize("n", [128, 1024])
def test_zero_diagonal_entry_inside_a_reduction_raises(n):
    # a zero on the diagonal of an odd row is a divisor of the first
    # reduction level, where numpy gives inf or nan instead of raising.  The
    # matrix is well conditioned, but the solve does not pivot, so it must
    # raise, for the system alone and in a batch
    rng = np.random.default_rng(n)
    lower = -rng.random((4, n))
    upper = -rng.random((4, n))
    diag = 0.1 + rng.random((4, n)) - lower - upper
    lower[:, 0] = upper[:, -1] = diag[:, 5] = 0.0
    rhs = rng.normal(size=(4, n))
    assert np.linalg.cond(_dense(lower[0], diag[0], upper[0])) < 100.0
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ZeroDivisionError):
            kernels.solve_tridiagonal(lower[0], diag[0], upper[0], rhs[0])
        with pytest.raises(ZeroDivisionError):
            kernels.solve_tridiagonal(lower, diag, upper, rhs)
