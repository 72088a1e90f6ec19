"""Scenario configuration and run orchestration.

A Scenario is loaded from a flat INI config (the keys of _INI: any other
section or key is an error, and an absent key keeps its dataclass default),
validated (including the admissibility check on (alpha, gamma)), turned into
initial data from one of the built-in families, integrated, and written out
as CSV artifacts:

  timeseries.csv       one row per output time, every diagnostic column
  fields_<t>.csv       x, rho, u, v snapshots at each output time
  summary.csv          per-form run verdicts
  formdiff.csv         sup |rho_U - rho_V| per frame (solver_form = both)
  sweep.csv            one row per (alpha, gamma) point
  orders.csv           self-convergence orders from a refinement study
  regularization.csv   floor/mollifier convergence table

All numeric cells are written with repr() so identical runs produce
byte-identical files; non-finite values appear as the explicit marker
"undefined" and unavailable verdicts as "unavailable".
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics, floatrepr, solver
from .constitutive import Params, TheoremReport, validate_params
from .errors import ConfigurationError, integer
from .mesh import Mesh, background_profile, build_mesh, mollify
from .solver import FlowState, Trajectory, U_FORM, V_FORM, effective_velocity

__all__ = [
    "Scenario",
    "load_config",
    "build_initial",
    "run_scenario",
    "sweep",
    "refinement_study",
    "regularization_study",
    "OUTDIR_ENV",
]

OUTDIR_ENV = "DVNS1D_OUTDIR"

# a sweep steps at most max(1, CELLS // N) of its points together as one
# batch.  A 25-point sweep at N = 8192 peaked at 81 MB RSS as one batch, 47 MB
# at 2**16 and 39 MB at 2**15, at no measurable wall-time cost; a 25-point
# grid stays one batch up to N = 1024, where batching saves the most
CELLS = 2**15

_FAMILIES = ("hoff-step", "gaussian-bump", "near-vacuum", "custom-table")
_FORMS = ("U", "V", "both")


@dataclass(eq=False)
class Scenario:
    """Everything needed to reproduce one run."""

    name: str
    params: Params
    L: float = 10.0
    N: int = 1024
    rho_minus: float = 1.0
    rho_plus: float = 1.0
    init_family: str = "gaussian-bump"
    amplitude: float = 0.5
    sigma: float = 1.0
    u_amplitude: float = 0.0
    u_sigma: float = 1.0
    T: float = 1.0
    output_dt: float = 0.05
    solver_form: str = "U"
    mollify_n: int | None = None
    table: str | None = None
    safety: float = 0.4
    moment_ps: tuple = (0, 2, 8, 30)
    gronwall_slack: float = 0.10
    time_scheme: str = solver.IMEX

    @property
    def theorem(self) -> TheoremReport:
        return validate_params(self.params)

    @property
    def inside_theorem(self) -> bool:
        return self.theorem.inside_theorem

    @property
    def forms(self) -> list:
        """The forms to run, the primary (the one a single-form study runs) first."""
        return [U_FORM, V_FORM] if self.solver_form == "both" else [self.solver_form]


# every INI key, once: section -> {key: converter}.  [params] fills Params and
# the others Scenario (`family` is init_family); keys are case-insensitive
_INI = {
    "params": {"alpha": float, "gamma": float, "a": float, "mu0": float, "eps": float,
               "reg_n": int, "beta": float},
    "grid": {"L": float, "N": int},
    "initial": {"family": str, "rho_minus": float, "rho_plus": float, "amplitude": float, "sigma": float,
                "u_amplitude": float, "u_sigma": float, "mollify_n": int, "table": str},
    "run": {"name": str, "T": float, "output_dt": float, "solver_form": str, "safety": float,
            "moment_ps": lambda raw: tuple(int(tok) for tok in raw.replace(",", " ").split()),
            "gronwall_slack": float},
}


def load_config(path) -> Scenario:
    """Parse and fully validate a scenario config file."""
    text = Path(path).read_text()  # missing/unreadable file surfaces as OSError
    # no header names the section "", so [DEFAULT] is a section like any other
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        cfg.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse failure: {exc}") from exc

    params_kw, scenario_kw = {}, {"name": "run"}
    for section in cfg.sections():
        if section not in _INI:
            raise ConfigurationError(f"unknown section [{section}]; the sections are {list(_INI)}")
        keys = {key.lower(): key for key in _INI[section]}
        kw = params_kw if section == "params" else scenario_kw
        for option in cfg.options(section):
            key = keys.get(option)
            if key is None:
                raise ConfigurationError(f"unknown key '{option}' in [{section}]")
            try:  # a bare '%' or a '%(missing)s' reference fails the interpolation
                raw = cfg.get(section, option).strip()
                if raw:
                    kw["init_family" if key == "family" else key] = _INI[section][key](raw)
            except (configparser.Error, ValueError) as exc:
                raise ConfigurationError(f"field '{key}' in [{section}]: {exc}") from exc
    for f in dataclasses.fields(Params):
        if f.default is dataclasses.MISSING and f.name not in params_kw:
            raise ConfigurationError(f"missing required field '{f.name}' in [params]")

    params = Params(**params_kw)
    if not validate_params(params).inside_theorem:
        warnings.warn(
            f"(alpha={params.alpha:g}, gamma={params.gamma:g}) lies outside the "
            f"admissible region; running in exploration mode",
            stacklevel=2,
        )
    scenario = Scenario(params=params, **scenario_kw)
    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario) -> None:
    form = s.solver_form.upper() if s.solver_form.lower() != "both" else "both"
    if form not in _FORMS:
        raise ConfigurationError(f"solver_form must be U, V or both, got {s.solver_form!r}")
    s.solver_form = form
    if any(c in s.name for c in ",\r\n"):  # a cell of summary.csv
        raise ConfigurationError(f"name must hold no comma or line break, got {s.name!r}")
    if any(c in s.name for c in "/\\") or s.name in (".", ".."):  # the default ./runs/<name>
        raise ConfigurationError(f"name must hold no path separator and not be . or .., got {s.name!r}")
    for name in ("amplitude", "sigma", "u_amplitude", "u_sigma", "gronwall_slack"):
        if not math.isfinite(getattr(s, name)):
            raise ConfigurationError(f"{name} must be finite, got {getattr(s, name)!r}")
    if s.gronwall_slack < 0.0:  # a tolerance; at -1 or below every verdict would read fail
        raise ConfigurationError(f"gronwall_slack must be non-negative, got {s.gronwall_slack!r}")
    solver.check_run_args(s.T, s.output_dt, s.safety, s.time_scheme)
    s.moment_ps = diagnostics.moment_orders(s.moment_ps)
    if s.init_family == "custom-table" and not s.table:
        raise ConfigurationError("custom-table family requires the 'table' field")
    # building the initial data checks the family, the bump widths and the
    # finiteness and positivity that the data must satisfy
    _prepare(s)


def _prepare(s: Scenario):
    """The mesh, background profile and initial state of s."""
    mesh = build_mesh(s.L, s.N)
    profile = background_profile(mesh, s.rho_minus, s.rho_plus)
    return mesh, profile, build_initial(s, mesh, profile)


def _compact_bump(x: np.ndarray, width: float) -> np.ndarray:
    """Smooth bump supported on |x| < width, peak value 1 at the origin."""
    t = x / width
    out = np.zeros_like(x)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


# an overflow gives a non-finite cell, which the finiteness check rejects
@np.errstate(over="ignore", invalid="ignore")
def build_initial(s: Scenario, mesh: Mesh, profile: np.ndarray,
                  mollify_override: int | None = None) -> FlowState:
    """Sample the scenario's initial data family as a U-form state over the
    sampled background density profile."""
    for name in ("sigma", "u_sigma"):  # a zero width puts 0/0 in the centre cell
        if not getattr(s, name) > 0.0:
            raise ConfigurationError(f"{name} must be positive, got {getattr(s, name)!r}")
    if s.init_family in ("gaussian-bump", "near-vacuum"):
        rho = profile + s.amplitude * np.exp(-((mesh.x / s.sigma) ** 2))
        u = s.u_amplitude * np.exp(-((mesh.x / s.u_sigma) ** 2))
    elif s.init_family == "hoff-step":
        rho = profile.copy()
        u = s.u_amplitude * _compact_bump(mesh.x, s.u_sigma)
    elif s.init_family == "custom-table":
        try:  # a non-numeric cell or a ragged row
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy's own for a table without data rows
                data = np.loadtxt(s.table, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigurationError(f"custom table {s.table!r}: {exc}") from exc
        if not data.size:
            raise ConfigurationError(f"custom table {s.table!r} has no data rows")
        if data.shape[1] < 3:
            raise ConfigurationError(f"custom table {s.table!r} needs columns x,rho,u")
        # np.interp silently returns garbage for unsorted or non-finite nodes
        if not np.isfinite(data).all():
            raise ConfigurationError(f"custom table {s.table!r} has a non-finite cell")
        if not (np.diff(data[:, 0]) > 0.0).all():
            raise ConfigurationError(f"custom table {s.table!r}: x must be strictly increasing")
        rho = np.interp(mesh.x, data[:, 0], data[:, 1])
        u = np.interp(mesh.x, data[:, 0], data[:, 2])
    else:
        raise ConfigurationError(f"unknown init family {s.init_family!r}; choose one of {_FAMILIES}")

    n = mollify_override if mollify_override is not None else s.mollify_n
    if n is not None:
        rho = profile + mollify(rho - profile, mesh, n)
        u = mollify(u, mesh, n)
    if not (np.isfinite(rho).all() and np.isfinite(u).all()):
        raise ConfigurationError("initial data has a non-finite cell")
    if np.min(rho) <= 0.0:
        raise ConfigurationError(
            f"initial density must stay positive; amplitude {s.amplitude!r} drives "
            f"min rho0 to {float(np.min(rho)):g}"
        )
    return solver.make_state(rho, u, U_FORM, mesh, t=0.0)


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(value) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    f = float(value)
    return repr(f) if math.isfinite(f) else "undefined"


def _verdict(flag) -> str:
    if flag is None:
        return "unavailable"
    return "pass" if flag else "fail"


def _write_csv(path: Path, header: list, rows, first_col=None) -> None:
    """Write one CSV file atomically: to path.tmp, then renamed over path.

    rows is a list of mixed-type rows, formatted cell by cell with _fmt, or a
    2-D float array (a block), which gives the same bytes.  A block is
    formatted by floatrepr.cells, _ROWS rows at a time: repr of each finite
    cell and "undefined" for a non-finite one.  first_col is the
    floatrepr.cells text of a leading column of a block, one cell per row.
    """
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if isinstance(rows, np.ndarray):
            for r0 in range(0, len(rows), _ROWS):
                fh.write(_block_bytes(rows[r0:r0 + _ROWS], first_col, r0))
        else:
            fh.writelines((",".join(map(_fmt, row)) + "\n").encode() for row in rows)
    os.replace(tmp, path)


_ROWS = 1024  # block rows per floatrepr.cells call: at most 4096 cells for 4 columns


def _block_bytes(block: np.ndarray, first_col, r0: int) -> bytes:
    """The CSV lines of a block of rows, after first_col's cells from row r0."""
    rows, first = len(block), int(first_col is not None)
    # each cell's NUL-padded text and its separator; the NULs are deleted
    cells = np.empty((rows, first + block.shape[1], floatrepr.WIDTH + 1), dtype=np.uint8)
    cells[:, first:, :-1] = floatrepr.cells(block)[0].reshape(rows, -1, floatrepr.WIDTH)
    if first:
        cells[:, 0, :-1] = first_col[r0:r0 + rows]
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


# the DiagnosticsRecord fields of a timeseries.csv row, in column order
_TIMESERIES = (
    "t", "mass", "energy", "bd_entropy", "diss_u", "diss_bd",
    "diss_u_rate", "diss_bd_rate", "bd_integrand_min",
    "min_rho", "max_rho", "inv_rho_max", "rho_h1",
    "v_inf", "wvel_inf", "sqrt_rho_u_l2", "resid_recip", "resid_pident",
)


def _timeseries_header(moment_ps) -> list:
    head = list(_TIMESERIES)
    head += [f"v_moment_p{p}" for p in moment_ps]
    head += [f"gron_bound_p{p}" for p in moment_ps]
    head += [f"gron_pass_p{p}" for p in moment_ps]
    return head


def _timeseries_row(rec, moment_ps) -> list:
    row = [getattr(rec, name) for name in _TIMESERIES]
    row += [rec.moments[p] for p in moment_ps]
    row += [rec.gron_bound[p] for p in moment_ps]
    row += [_verdict(rec.gron_pass[p]) for p in moment_ps]
    return row


def _sup(values) -> float:
    finite = [x for x in values if x is not None and math.isfinite(x)]
    return max(finite) if finite else math.nan


_SUMMARY_HEADER = [
    "name", "form", "status", "vacuum", "breach_time", "breach_cell", "steps",
    "min_rho_run", "sup_energy", "sup_bd_entropy", "total_diss_u", "total_diss_bd",
    "sup_v_inf", "sup_wvel_inf", "sup_inv_rho_max", "sup_rho_h1",
    "sup_resid_recip", "sup_resid_pident", "gronwall", "inside_theorem",
]


def _summary_row(name: str, traj: Trajectory, inside: bool) -> list:
    recs = traj.records
    breached = traj.status == "vacuum"
    return [
        name, traj.form, traj.status,
        "yes" if breached else "no",
        traj.breach_time if traj.breach_time is not None else "none",
        traj.breach_cell if traj.breach_cell is not None else "none",
        traj.steps, traj.min_rho_ever,
        _sup(r.energy for r in recs), _sup(r.bd_entropy for r in recs),
        recs[-1].diss_u, recs[-1].diss_bd,
        _sup(r.v_inf for r in recs), _sup(r.wvel_inf for r in recs),
        _sup(r.inv_rho_max for r in recs), _sup(r.rho_h1 for r in recs),
        _sup(r.resid_recip for r in recs), _sup(r.resid_pident for r in recs),
        traj.gronwall, "yes" if inside else "no",
    ]


def _fields_rows(state: FlowState, mesh: Mesh, params: Params) -> np.ndarray:
    """The (rho, u, v) block of one snapshot; run_scenario adds the x column."""
    return np.column_stack((state.rho, *diagnostics.velocities(state, mesh, params)))


def _snapshot_names(times) -> list:
    """fields_<t>.csv per frame time, t with the fewest decimals (6 or more)
    that give distinct times distinct names: at 6 alone, T = 0.0200004 with
    output_dt = 0.01 would write its last two frames to one file."""
    for digits in itertools.count(6):  # .1074f prints any float exactly
        names = [f"fields_{t:.{digits}f}.csv" for t in times]
        if len(set(names)) == len(set(times)):
            return names


def _resolve_outdir(outdir) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _integrate_scenario(s: Scenario, mesh: Mesh, profile: np.ndarray,
                        state0: FlowState, form: str) -> Trajectory:
    """Run one form of the scenario."""
    st0 = state0 if form == U_FORM else effective_velocity(state0, mesh, s.params)
    return solver.run(
        st0, mesh, profile, s.params,
        T=s.T, output_dt=s.output_dt, safety=s.safety,
        moment_ps=s.moment_ps, gronwall_slack=s.gronwall_slack,
        time_scheme=s.time_scheme,
    )


class _SweepMonitor:
    """The frame function of a sweep batch: per row, only what its sweep.csv
    row reads.

    That is the running sup of v_inf over its finite values (as _sup) and
    the run's Gronwall verdict (checks[i].verdict, as solver.run's), from
    the moment reductions of all running rows at once and each row's
    diagnostics.Gronwall check.  No record, probe step, energy, dissipation
    or residual.
    """

    def __init__(self, mesh: Mesh, points, moment_ps, gronwall_slack: float):
        self.mesh, self.moment_ps = mesh, moment_ps
        self.checks = [diagnostics.Gronwall(p, moment_ps, gronwall_slack) for p in points]
        self.sup_v_inf = [math.nan] * len(points)
        self.t = None  # the previous frame's time; every row frames from t = 0 on

    def __call__(self, state: FlowState, rows, batch: solver.Batch) -> None:
        u, v = diagnostics.velocities(state, self.mesh, batch)
        sums = diagnostics.moment_sums(state.rho, u, v, self.mesh, batch, self.moment_ps)
        h = None if self.t is None else state.t - self.t
        self.t = state.t
        for i, row in zip(rows.tolist(), sums):
            # max keeps the first of equal values, so a later one must be greater
            if math.isfinite(row[0]) and not row[0] <= self.sup_v_inf[i]:
                self.sup_v_inf[i] = row[0]
            self.checks[i].check(h, row)


def run_scenario(s: Scenario, outdir) -> int:
    """Integrate the scenario and write its artifact set. Returns exit status."""
    out = _resolve_outdir(outdir)
    mesh, profile, state0 = _prepare(s)

    forms = s.forms
    trajs = {form: _integrate_scenario(s, mesh, profile, state0, form) for form in forms}

    primary = trajs[forms[0]]
    for form, name in zip(forms, ("timeseries.csv", "timeseries_v.csv")):
        _write_csv(
            out / name,
            _timeseries_header(s.moment_ps),
            [_timeseries_row(r, s.moment_ps) for r in trajs[form].records],
        )
    x_cells = floatrepr.cells(mesh.x)[0]  # the same in every frame
    for name, frame in zip(_snapshot_names(primary.times), primary.frames):
        _write_csv(
            out / name,
            ["x", "rho", "u", "v"],
            _fields_rows(frame, mesh, s.params),
            first_col=x_cells,
        )
    _write_csv(
        out / "summary.csv",
        _SUMMARY_HEADER,
        [_summary_row(s.name, trajs[form], s.inside_theorem) for form in forms],
    )
    if len(forms) == 2:
        tu, tv = trajs[U_FORM], trajs[V_FORM]
        nshared = min(len(tu.frames), len(tv.frames))
        rows = [
            [tu.times[k], float(np.max(np.abs(tu.frames[k].rho - tv.frames[k].rho)))]
            for k in range(nshared)
        ]
        _write_csv(out / "formdiff.csv", ["t", "rho_diff_linf"], rows)
    return 0


def _error_row(alpha, gamma, exc: Exception) -> list:
    return [alpha, gamma, "no", f"error: {exc}".replace(",", ";"),
            math.nan, "no", "none", math.nan, "unavailable"]


def sweep(base: Scenario, alpha_grid, gamma_grid, outdir) -> int:
    """Run the (alpha, gamma) grid and tabulate vacuum/bound behavior per point.

    The points run as batches of at most max(1, CELLS // N) (solver.run_batch,
    with a `_SweepMonitor`); each row is bit for bit that of its point run alone,
    status included.  A point that Params rejects gets an error row.
    """
    if not alpha_grid or not gamma_grid:
        raise ConfigurationError("sweep grids must be non-empty")
    out = _resolve_outdir(outdir)
    mesh, profile, state0 = _prepare(base)
    form = base.forms[0]

    rows, points = [], []  # points: (row index, params, theorem report)
    for alpha in alpha_grid:
        for gamma in gamma_grid:
            try:
                params = dataclasses.replace(base.params, alpha=alpha, gamma=gamma)
                points.append((len(rows), params, validate_params(params)))
                rows.append(None)
            except ValueError as exc:
                rows.append(_error_row(alpha, gamma, exc))
    moment_ps = diagnostics.moment_orders(base.moment_ps)
    size = max(1, CELLS // mesh.N)
    for chunk in (points[k:k + size] for k in range(0, len(points), size)):
        states = [state0 if form == U_FORM else effective_velocity(state0, mesh, p) for _, p, _ in chunk]
        batch = FlowState(np.stack([st.rho for st in states]), np.stack([st.vel for st in states]), form)
        monitor = _SweepMonitor(mesh, [p for _, p, _ in chunk], moment_ps, base.gronwall_slack)
        trajs = solver.run_batch(batch, mesh, [p for _, p, _ in chunk], T=base.T, output_dt=base.output_dt,
                                 frame=monitor, safety=base.safety, time_scheme=base.time_scheme)
        for j, ((k, params, report), traj) in enumerate(zip(chunk, trajs)):
            rows[k] = [
                params.alpha, params.gamma, "yes" if report.inside_theorem else "no", traj.status,
                traj.min_rho_ever,
                "yes" if traj.status == "vacuum" else "no",
                traj.breach_time if traj.breach_time is not None else "none",
                monitor.sup_v_inf[j],
                monitor.checks[j].verdict,
            ]
    _write_csv(
        out / "sweep.csv",
        ["alpha", "gamma", "inside_theorem", "status", "min_rho_run",
         "vacuum", "breach_time", "sup_v_inf", "gronwall"],
        rows,
    )
    return 0


def _restrict(fine: np.ndarray, n_coarse: int, x_fine: np.ndarray, x_coarse: np.ndarray) -> np.ndarray:
    """Project a fine-grid field onto a coarser grid.

    Nested grids (ratio an integer) use block averaging, the exact adjoint of
    piecewise-constant refinement for cell-centered data; otherwise fall back
    to linear interpolation.
    """
    ratio, rem = divmod(len(fine), n_coarse)
    if rem == 0:
        return fine.reshape(n_coarse, ratio).mean(axis=1)
    return np.interp(x_coarse, x_fine, fine)


def _order_rows(quantity: str, ns: list, values: list, scale: float) -> list:
    """Turn a per-resolution value series into (quantity, N, value, order, flag) rows.

    A value that needs a run which did not complete is that run's status
    instead; its row, and the order of the next row, read "undefined" with
    the status as the flag.
    """
    rows = []
    for j, (n, val) in enumerate(zip(ns, values)):
        prev = values[j - 1] if j > 0 else None
        if isinstance(val, str):
            rows.append([quantity, n, "undefined", "undefined", val])
            continue
        if isinstance(prev, str):
            rows.append([quantity, n, val, "undefined", prev])
            continue
        order: float | None = None
        flag = "ok"
        if val < 1e-13 * max(scale, 1.0):
            flag = "roundoff"
        if j > 0:
            if prev <= val or val <= 0.0 or flag == "roundoff":
                flag = "undefined" if flag == "ok" else flag
                order = None
            else:
                order = math.log(prev / val) / math.log(ns[j] / ns[j - 1])
        rows.append([quantity, n, val, order if order is not None else "undefined", flag])
    return rows


def _failed(*trajs) -> str | None:
    """The status of the first run that did not complete, else None."""
    return next((t.status for t in trajs if t.status != "completed"), None)


def refinement_study(s: Scenario, n_list, outdir) -> int:
    """Self-convergence study over a strictly increasing resolution list.

    A member that ends in vacuum or numerics is an outcome, not an error:
    every orders.csv value that needs it reads "undefined", flagged with
    its status.
    """
    n_list = [integer(n, "N", 8) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigurationError(f"refinement needs >= 3 strictly increasing resolutions, got {n_list!r}")
    out = _resolve_outdir(outdir)

    both = s.solver_form == "both"
    finals = {}
    for n in n_list:
        mesh, profile, state0 = _prepare(dataclasses.replace(s, N=n))
        traj, *other = [_integrate_scenario(s, mesh, profile, state0, form) for form in s.forms]
        last, rec = traj.frames[-1], traj.records[-1]
        entry = {
            "mesh": mesh,
            "status": _failed(traj),
            "rho": last.rho,
            "vel": last.vel,
            "resid_recip": rec.resid_recip,
            "resid_pident": rec.resid_pident,
        }
        if both:
            entry["formdiff"] = _failed(traj, *other) or float(
                np.max(np.abs(last.rho - other[0].frames[-1].rho)))
        finals[n] = entry

    rows = []
    rho_scale = max(s.rho_minus, s.rho_plus)
    for field_name, scale in (("rho", rho_scale), ("vel", max(abs(s.u_amplitude), 1.0))):
        errs = []
        for a, b in zip(n_list, n_list[1:]):
            coarse, fine = finals[a], finals[b]
            status = coarse["status"] or fine["status"]
            if status:
                errs.append(status)
                continue
            restricted = _restrict(fine[field_name], a, fine["mesh"].x, coarse["mesh"].x)
            errs.append(float(np.sum(np.abs(restricted - coarse[field_name])) * coarse["mesh"].dx))
        rows += _order_rows(field_name, n_list[1:], errs, scale)
    for resid in ("resid_recip", "resid_pident"):
        rows += _order_rows(resid, n_list, [finals[n]["status"] or finals[n][resid] for n in n_list], 1.0)
    if both:
        rows += _order_rows("formdiff_rho", n_list, [finals[n]["formdiff"] for n in n_list], rho_scale)

    _write_csv(out / "orders.csv", ["quantity", "N", "value", "order", "flag"], rows)
    return 0


def regularization_study(s: Scenario, n_list, outdir) -> int:
    """Run the floor/mollifier approximation ladder and its convergence table."""
    n_list = [integer(n, "n", 1) for n in n_list]
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigurationError(f"regularization needs an increasing n list, got {n_list!r}")
    out = _resolve_outdir(outdir)
    form = s.forms[0]

    results = {}
    for n in n_list:
        params_n = dataclasses.replace(s.params, reg_n=n)
        s_n = dataclasses.replace(s, params=params_n, mollify_n=n)
        mesh, profile, state0 = _prepare(s_n)
        traj = _integrate_scenario(s_n, mesh, profile, state0, form)
        min_visc = (
            params_n.mu0 * traj.min_rho_ever ** params_n.alpha
            if math.isfinite(traj.min_rho_ever) and traj.min_rho_ever > 0.0
            else math.nan
        )
        results[n] = {
            "status": traj.status,
            "min_rho": traj.min_rho_ever,
            "min_visc": min_visc,
            "floor_active": not (min_visc > 1.0 / n),
            "rho_final": traj.frames[-1].rho,
        }

    ref = results[n_list[-1]]["rho_final"]
    rows = []
    for n in n_list:
        r = results[n]
        rows.append([
            n, r["status"], "yes" if r["floor_active"] else "no",
            r["min_rho"], r["min_visc"], float(np.max(np.abs(r["rho_final"] - ref))),
        ])
    _write_csv(
        out / "regularization.csv",
        ["n", "status", "floor_active", "min_rho_run", "min_visc_run", "diff_to_reference"],
        rows,
    )
    return 0
