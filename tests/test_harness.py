"""Scenario configs, initial-data families, artifact emission, CLI plumbing."""

import csv
import dataclasses
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import dvns1d
from dvns1d import ConfigurationError, Params, background_profile, build_mesh, mollify
from dvns1d import diagnostics, floatrepr, harness, kernels, solver
from dvns1d.cli import main
from dvns1d.harness import (
    Scenario,
    build_initial,
    load_config,
    refinement_study,
    regularization_study,
    run_scenario,
    sweep,
    validate_scenario,
)

MINIMAL = "[params]\nalpha = 1.0\ngamma = 2.0\n"


def _cfg(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _scn(**over):
    params = over.pop("params", Params(alpha=1.0, gamma=2.0, eps=0.125))
    return Scenario(name=over.pop("name", "t"), params=params, **over)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ config

def test_load_config_defaults(tmp_path):
    s = load_config(_cfg(tmp_path, MINIMAL))
    assert (s.L, s.N, s.safety) == (10.0, 1024, 0.4)
    assert s.T == 1.0 and s.output_dt == 0.05
    assert s.init_family == "gaussian-bump" and s.solver_form == "U"
    assert s.moment_ps == (0, 2, 8, 30)
    assert s.inside_theorem


def _assert_dataclass_defaults(s):
    # every field but alpha, gamma and name holds its dataclass default
    for obj, skip in ((s.params, ("alpha", "gamma")), (s, ("name", "params"))):
        for f in dataclasses.fields(obj):
            if f.name not in skip:
                assert getattr(obj, f.name) == f.default, f.name


def test_load_config_fills_every_field_from_its_dataclass_default(tmp_path):
    s = load_config(_cfg(tmp_path, MINIMAL))
    assert s.name == "run"
    _assert_dataclass_defaults(s)


def test_readme_config_block_states_the_dataclass_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Scenario config", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    text = "".join(line for line in block.splitlines(keepends=True) if "<unset>" not in line)
    s = load_config(_cfg(tmp_path, text))
    assert s.name == "run"
    _assert_dataclass_defaults(s)


def test_ini_schema_names_each_dataclass_field_once():
    keys = [key for section in harness._INI.values() for key in section]
    fields = [f.name for f in dataclasses.fields(Params)]
    fields += [f.name for f in dataclasses.fields(Scenario) if f.name not in ("params", "time_scheme")]
    assert sorted("init_family" if key == "family" else key for key in keys) == sorted(fields)
    assert list(harness._INI["params"]) == [f.name for f in dataclasses.fields(Params)]


@pytest.mark.parametrize("text, name", [
    (MINIMAL + "[solver]\nN = 64\n", "[solver]"),
    (MINIMAL + "[grid]\nnn = 64\n", "nn"),
    (MINIMAL + "[run]\ntime_scheme = explicit\n", "time_scheme"),
    (MINIMAL + "[Run]\nT = 0.5\n", "[Run]"),
    ("[DEFAULT]\nN = 64\n" + MINIMAL, "[DEFAULT]"),
    # misspellings that used to be dropped in silence, the defaults running instead
    (MINIMAL + "[run]\nouput_dt = 0.01\nsaftey = 0.1\n[intial]\namplitude = 0.3\n", "ouput_dt"),
    (MINIMAL + "[intial]\namplitude = 0.3\n[run]\nsaftey = 0.1\n", "[intial]"),
])
def test_unknown_section_or_key_is_a_configuration_error(tmp_path, capsys, text, name):
    path = _cfg(tmp_path, text)
    with pytest.raises(ConfigurationError, match=re.escape(name)):
        load_config(path)
    assert main(["validate", str(path)]) == 1
    assert name in capsys.readouterr().err


def test_load_config_keys_are_case_insensitive(tmp_path):
    s = load_config(_cfg(tmp_path, MINIMAL + "[grid]\nn = 64\nl = 6\n[run]\nt = 0.5\nOUTPUT_DT = 0.25\n"))
    assert (s.N, s.L, s.T, s.output_dt) == (64, 6.0, 0.5, 0.25)


def test_load_config_full(tmp_path):
    text = (
        "[params]\nalpha = 0.75\ngamma = 2.0\nmu0 = 0.9\na = 1.2\n"
        "[grid]\nL = 6\nN = 96\n"
        "[initial]\nfamily = near-vacuum\namplitude = -0.9\nsigma = 0.5\nmollify_n = 4\n"
        "[run]\nname = probe\nT = 0.25\noutput_dt = 0.05\nsolver_form = both\n"
        "safety = 0.3\nmoment_ps = 0, 2, 4\n"
    )
    s = load_config(_cfg(tmp_path, text))
    assert s.name == "probe" and s.N == 96 and s.L == 6.0
    assert s.params.mu0 == 0.9 and s.params.a == 1.2
    assert s.solver_form == "both" and s.mollify_n == 4
    assert s.moment_ps == (0, 2, 4)


def test_load_config_outside_region_warns(tmp_path):
    path = _cfg(tmp_path, "[params]\nalpha = 0.4\ngamma = 2.0\n")
    with pytest.warns(UserWarning, match="admissible"):
        s = load_config(path)
    assert not s.inside_theorem


def test_load_config_missing_gamma(tmp_path):
    path = _cfg(tmp_path, "[params]\nalpha = 1.0\n")
    with pytest.raises(ConfigurationError, match="gamma"):
        load_config(path)


def test_load_config_bad_value_names_field(tmp_path):
    path = _cfg(tmp_path, "[params]\nalpha = fast\ngamma = 2.0\n")
    with pytest.raises(ConfigurationError, match="alpha"):
        load_config(path)


def test_load_config_parse_error(tmp_path):
    path = _cfg(tmp_path, "alpha = 1.0 without any section header\n")
    with pytest.raises(ConfigurationError, match="parse"):
        load_config(path)


@pytest.mark.parametrize("value", ["100%", "%(missing)s", "%(name)s"])
def test_load_config_interpolation_error_names_the_key(tmp_path, capsys, value):
    # '%' interpolation stays ('%%' is a literal percent sign), but a value it
    # cannot expand is a configuration error naming its section and key
    path = _cfg(tmp_path, MINIMAL + f"[run]\nT = 0.5\nname = {value}\n")
    with pytest.raises(ConfigurationError, match=re.escape("'name' in [run]")):
        load_config(path)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: field 'name' in [run]") and err.count("\n") == 1
    assert load_config(_cfg(tmp_path, MINIMAL + "[run]\nname = 100%%\n")).name == "100%"


@pytest.mark.parametrize("name", ["a,b", "a\n  b", "/tmp/x", "a/b", "a\\b", ".", ".."])
def test_name_with_a_comma_or_line_break_is_a_configuration_error(tmp_path, capsys, name):
    # the name is a cell of summary.csv: a comma or a line break in it
    # would shift or split that row under the header; it is also the
    # default output directory runs/<name>, which a path separator, . or ..
    # would move out of runs/
    path = _cfg(tmp_path, MINIMAL + f"[grid]\nN = 64\n[run]\nname = {name}\n")
    with pytest.raises(ConfigurationError, match="name"):
        validate_scenario(load_config(path))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: name") and err.count("\n") == 1


def test_load_config_missing_file():
    with pytest.raises(OSError):
        load_config("/nonexistent/scenario.ini")


@pytest.mark.parametrize("line", ["T = nan", "T = inf", "output_dt = nan", "gronwall_slack = nan"])
def test_load_config_rejects_non_finite_run_values(tmp_path, capsys, line):
    # a NaN or infinite T never ends a run; `dvns1d run` exits 1 instead
    path = _cfg(tmp_path, MINIMAL + f"[grid]\nN = 64\n[run]\n{line}\n")
    with pytest.raises(ConfigurationError):
        load_config(path)
    assert main(["run", str(path), "--outdir", str(tmp_path / "out")]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("patch", [
    dict(init_family="triangle-wave"),
    dict(solver_form="W"),
    dict(T=-0.5),
    dict(T=math.nan),
    dict(T=math.inf),
    dict(output_dt=0.0),
    dict(output_dt=math.nan),
    dict(safety=1.5),
    dict(moment_ps=(0, -2)),
    dict(moment_ps=(2.5,)),
    dict(init_family="custom-table", table=None),
    dict(amplitude=-1.5),  # drives min rho0 negative
    dict(time_scheme="rk4"),
    dict(amplitude=math.nan),  # a NaN or infinite datum reaches run otherwise
    dict(sigma=math.nan),
    dict(u_amplitude=math.inf),
    dict(u_sigma=math.nan),
    dict(gronwall_slack=math.nan),
    dict(gronwall_slack=-0.5),  # a tolerance; at -1 or below every verdict reads fail
    dict(moment_ps=(2, 2)),  # the second set of columns would shadow the first
    dict(sigma=0.0),  # a zero width is 0/0 in a centre cell, or a bump that vanishes
    dict(u_sigma=0.0),
    dict(sigma=-0.5),
    dict(rho_minus=1e308, rho_plus=1e308, amplitude=1.7e308),  # an infinite initial density
])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the ConfigurationError comes alone
def test_validate_scenario_rejections(patch):
    s = _scn(N=64, **patch)
    with pytest.raises(ConfigurationError):
        validate_scenario(s)


def test_validate_scenario_normalizes_form():
    s = _scn(N=64, solver_form="v")
    validate_scenario(s)
    assert s.solver_form == "V"
    s = _scn(N=64, solver_form="Both")
    validate_scenario(s)
    assert s.solver_form == "both"


def test_validate_scenario_returns_the_prepared_run():
    s = _scn(N=64, rho_plus=1.5, amplitude=0.3, u_amplitude=0.2)
    mesh, profile, state0 = validate_scenario(s)
    assert (mesh.L, mesh.N) == (s.L, 64)
    assert np.array_equal(profile, background_profile(mesh, 1.0, 1.5))
    want = build_initial(s, mesh, profile)
    assert state0.form == "U" and np.array_equal(state0.rho, want.rho) and np.array_equal(state0.vel, want.vel)


_ENTRIES = {
    "run": run_scenario,
    "sweep": lambda s, out: sweep(s, [1.0], [2.0], out),
    "refine": lambda s, out: refinement_study(s, [16, 32, 64], out),
    "regularize": lambda s, out: regularization_study(s, [1, 2], out),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_entry_points_check_a_scenario_built_in_python(entry, tmp_path):
    # every entry point validates its Scenario as load_config does: a
    # lower-case form runs that form, and a bad form or slack is refused
    # before the output directory is made
    def artifacts(out, **over):
        _ENTRIES[entry](_scn(N=16, amplitude=0.3, u_amplitude=0.2, T=0.02, output_dt=0.01, **over), out)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    lower = artifacts(tmp_path / "lower", solver_form="u")
    assert lower == artifacts(tmp_path / "upper", solver_form="U")
    if entry == "run":
        assert [r["form"] for r in _rows(tmp_path / "lower" / "summary.csv")] == ["U"]
    if entry == "sweep":
        assert [r["status"] for r in _rows(tmp_path / "lower" / "sweep.csv")] == ["completed"]
    for bad in (dict(solver_form="W"), dict(gronwall_slack=-0.5)):
        with pytest.raises(ConfigurationError):
            artifacts(tmp_path / "bad", **bad)
        assert not (tmp_path / "bad").exists()


# ---------------------------------------------------------- initial data

def test_build_initial_gaussian():
    s = _scn(N=64, amplitude=0.5, sigma=1.0)
    m = build_mesh(s.L, s.N)
    prof = background_profile(m, 1.0, 1.0)
    st = build_initial(s, m, prof)
    assert st.form == "U" and st.t == 0.0
    assert np.array_equal(st.rho, st.rho[::-1])  # even in the cell centers
    # the peak cell sits dx/2 off the origin, just under the nominal amplitude
    assert 1.48 < np.max(st.rho) < 1.5
    assert st.rho[0] == pytest.approx(1.0, abs=1e-8)  # bump decayed at the edge
    assert np.all(st.vel == 0.0)


def test_build_initial_near_vacuum():
    s = _scn(N=64, init_family="near-vacuum", amplitude=-0.95)
    m = build_mesh(s.L, s.N)
    prof = background_profile(m, 1.0, 1.0)
    st = build_initial(s, m, prof)
    assert 0.0 < np.min(st.rho) < 0.08


def test_build_initial_hoff_step():
    s = _scn(N=128, init_family="hoff-step", rho_minus=1.0, rho_plus=2.0,
             u_amplitude=0.3, u_sigma=2.0)
    m = build_mesh(s.L, s.N)
    prof = background_profile(m, 1.0, 2.0)
    st = build_initial(s, m, prof)
    assert np.array_equal(st.rho, prof)
    outside = np.abs(m.x) >= 2.0
    assert np.all(st.vel[outside] == 0.0)  # compactly supported bump
    assert 0.29 < np.max(st.vel) <= 0.3


def test_build_initial_custom_table(tmp_path):
    # piecewise-linear table data is reproduced exactly by interpolation
    table = tmp_path / "table.csv"
    table.write_text("x,rho,u\n-5,1.5,0.0\n0,2.0,0.1\n5,1.5,0.2\n")
    s = _scn(N=64, init_family="custom-table", table=str(table))
    m = build_mesh(s.L, s.N)
    prof = background_profile(m, 1.0, 1.0)
    st = build_initial(s, m, prof)
    expect_rho = np.interp(m.x, [-5, 0, 5], [1.5, 2.0, 1.5])
    assert np.allclose(st.rho, expect_rho, rtol=0, atol=1e-15)
    assert st.vel[0] < st.vel[-1]


def test_build_initial_custom_table_needs_three_columns(tmp_path):
    table = tmp_path / "short.csv"
    table.write_text("x,rho\n-5,1.0\n5,1.0\n")
    s = _scn(N=64, init_family="custom-table", table=str(table))
    m = build_mesh(s.L, s.N)
    with pytest.raises(ConfigurationError, match="columns"):
        build_initial(s, m, background_profile(m, 1.0, 1.0))


@pytest.mark.parametrize("body, match", [
    ("-5,1.5,0.0\n0,nan,0.1\n5,1.5,0.2\n", "non-finite"),
    ("-5,1.5,0.0\n0,2.0,inf\n5,1.5,0.2\n", "non-finite"),
    ("-5,1.5,0.0\n5,2.0,0.1\n0,1.5,0.2\n", "strictly increasing"),
    ("-5,1.5,0.0\n0,2.0,0.1\n0,1.5,0.2\n", "strictly increasing"),
    ("-5,1.5,0.0\n0,abc,0.1\n5,1.5,0.2\n", "abc"),  # not a number
    ("-5,1.5,0.0\n0,2.0\n5,1.5,0.2\n", "columns"),  # a ragged row
    ("", "no data rows"),  # a header alone
])
def test_build_initial_custom_table_rejects_bad_nodes(tmp_path, body, match):
    table = tmp_path / "bad.csv"
    table.write_text("x,rho,u\n" + body)
    s = _scn(N=64, init_family="custom-table", table=str(table))
    m = build_mesh(s.L, s.N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error alone, no numpy warning beside it
        with pytest.raises(ConfigurationError, match=match):
            build_initial(s, m, background_profile(m, 1.0, 1.0))


def test_load_config_rejects_unsorted_custom_table(tmp_path):
    # the check runs at the config boundary, before any integration
    table = tmp_path / "bad.csv"
    table.write_text("x,rho,u\n5,1.5,0.0\n-5,1.5,0.0\n")
    path = _cfg(tmp_path, MINIMAL + f"[initial]\nfamily = custom-table\ntable = {table}\n")
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        load_config(path)


def test_build_initial_applies_mollifier():
    s = _scn(N=64, amplitude=0.5, mollify_n=2)
    m = build_mesh(s.L, s.N)
    prof = background_profile(m, 1.0, 1.0)
    st = build_initial(s, m, prof)
    raw = 0.5 * np.exp(-(m.x**2))
    # sub-ulp bump tails are absorbed by the profile before mollification,
    # so compare against the roundtripped deviation
    expect = 1.0 + mollify((1.0 + raw) - 1.0, m, 2)
    assert np.array_equal(st.rho, expect)
    assert np.max(np.abs(st.rho - (1.0 + raw))) > 1e-3  # mollifier did act


# ----------------------------------------------------------- run artifacts

@pytest.fixture()
def stationary(tmp_path):
    s = _scn(N=128, amplitude=0.0, T=0.2, output_dt=0.05)
    out = tmp_path / "stat"
    assert run_scenario(s, out) == 0
    return s, out


def test_run_scenario_stationary_rows_identical(stationary):
    _, out = stationary
    lines = (out / "timeseries.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 5
    ti = header.index("t")
    for row in rows[1:]:
        for j, cell in enumerate(row):
            if j != ti:
                assert cell == rows[0][j]


def test_run_scenario_field_snapshots(stationary):
    s, out = stationary
    snaps = sorted(out.glob("fields_*.csv"))
    assert len(snaps) == 5
    rows = _rows(snaps[0])
    assert list(rows[0]) == ["x", "rho", "u", "v"]
    assert len(rows) == s.N
    m = build_mesh(s.L, s.N)
    assert float(rows[0]["x"]) == m.x[0] and float(rows[-1]["x"]) == m.x[-1]
    assert all(r["u"] == r["v"] for r in rows)  # flat density: no correction


def test_run_scenario_zero_horizon(tmp_path):
    s = _scn(N=64, T=0.0, output_dt=0.05)
    out = tmp_path / "zero"
    assert run_scenario(s, out) == 0
    assert len((out / "timeseries.csv").read_text().splitlines()) == 2
    assert (out / "fields_0.000000.csv").exists()
    row = _rows(out / "summary.csv")[0]
    assert row["status"] == "completed" and row["steps"] == "0"


def test_float_moment_orders_name_integer_columns(tmp_path):
    s = _scn(N=64, T=0.0, moment_ps=(2.0, 0))
    validate_scenario(s)
    assert s.moment_ps == (2, 0)
    assert run_scenario(s, tmp_path) == 0
    header = (tmp_path / "timeseries.csv").read_text().splitlines()[0].split(",")
    assert "v_moment_p2" in header and "v_moment_p2.0" not in header


def test_run_scenario_both_forms(tmp_path):
    s = _scn(N=64, amplitude=0.0, T=0.1, output_dt=0.05, solver_form="both")
    out = tmp_path / "both"
    assert run_scenario(s, out) == 0
    assert (out / "timeseries_v.csv").exists()
    rows = _rows(out / "formdiff.csv")
    assert len(rows) == 3
    assert all(float(r["rho_diff_linf"]) == 0.0 for r in rows)  # both forms hold the constant
    forms = [r["form"] for r in _rows(out / "summary.csv")]
    assert forms == ["U", "V"]


def test_run_scenario_deterministic(tmp_path):
    s = _scn(N=96, amplitude=0.4, T=0.1, output_dt=0.05)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(s, out1)
    run_scenario(s, out2)
    for name in ["timeseries.csv", "summary.csv"] + sorted(p.name for p in out1.glob("fields_*.csv")):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_scenario_shallow_water_bump(tmp_path):
    s = _scn(name="sw", N=512, amplitude=0.5, T=1.0, output_dt=0.1)
    out = tmp_path / "sw"
    assert run_scenario(s, out) == 0
    row = _rows(out / "summary.csv")[0]
    assert row["status"] == "completed"
    assert row["vacuum"] == "no" and row["breach_time"] == "none"
    assert row["gronwall"] == "pass" and row["inside_theorem"] == "yes"


def test_run_scenario_vacuum_is_recorded_not_raised(tmp_path):
    # pressure spike over near-vacuum gas: the one regime that outruns the
    # CFL estimate and drives a cell negative
    table = tmp_path / "spike.csv"
    table.write_text("x,rho,u\n-5,1e-6,0\n-0.1,1e-6,0\n0,2.0,0\n0.1,1e-6,0\n5,1e-6,0\n")
    s = _scn(N=256, init_family="custom-table", table=str(table), T=0.5, output_dt=0.1,
             time_scheme="explicit")
    out = tmp_path / "vac"
    assert run_scenario(s, out) == 0
    row = _rows(out / "summary.csv")[0]
    assert row["status"] == "vacuum" and row["vacuum"] == "yes"
    assert float(row["breach_time"]) > 0.0
    assert float(row["min_rho_run"]) < 0.0


_DECADES = st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e)  # 1e-3 to 10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(N=st.integers(16, 64), T=st.sampled_from([0.01, 0.05]), alpha=st.floats(0.05, 3.0),
       gamma=st.one_of(st.just(1.0), st.floats(0.5, 5.0)), a=_DECADES, mu0=_DECADES,
       rho_bar=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e), form=st.sampled_from(["U", "V", "both"]))
@example(N=64, T=0.05, alpha=0.8, gamma=3.0, a=10.0, mu0=1e-3, rho_bar=1.0, form="U")
@example(N=32, T=0.01, alpha=1.0, gamma=200.0, a=1.0, mu0=1.0, rho_bar=100.0, form="U")
def test_every_accepted_point_ends_with_a_status(tmp_path_factory, N, T, alpha, gamma, a, mu0, rho_bar, form):
    # no parameter point that the config accepts raises out of a run; the
    # examples are a Gronwall envelope and a Gronwall rate past the float range
    params = Params(alpha=alpha, gamma=gamma, a=a, mu0=mu0)
    s = _scn(params=params, N=N, rho_minus=rho_bar, rho_plus=rho_bar, T=T, output_dt=T / 2, solver_form=form)
    validate_scenario(s)
    out = tmp_path_factory.mktemp("run")
    assert run_scenario(s, out) == 0
    assert {r["status"] for r in _rows(out / "summary.csv")} <= {"completed", "vacuum", "numerics"}


# ------------------------------------------------------------ block writer

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
               9999999999999998.0, 1e-5, 0.1, 1.0, 123456789.125]


def _write_both_ways(tmp_path, x, block):
    """Write one fields block as a block and as per-cell rows; return both files' bytes.

    The block is written twice, with x as first_col (formatted once, as
    run_scenario does) and with x as the block's own first column; both
    must give the same bytes.
    """
    header = ["x", "rho", "u", "v"]
    harness._write_csv(tmp_path / "block.csv", header, block, first_col=floatrepr.cells(x)[0])
    harness._write_csv(tmp_path / "whole.csv", header, np.column_stack((x, block)))
    rows = [[x[i], *block[i]] for i in range(len(x))]  # numpy scalars, one _fmt call each
    harness._write_csv(tmp_path / "cells.csv", header, rows)
    got = (tmp_path / "block.csv").read_bytes()
    assert (tmp_path / "whole.csv").read_bytes() == got
    return got, (tmp_path / "cells.csv").read_bytes()


def test_block_writer_matches_per_cell_formatting(tmp_path, rng):
    edges = np.array(EDGE_FLOATS)
    col = np.concatenate([edges, -edges, rng.standard_normal(500), rng.standard_normal(500) * 1e-300])
    block = np.column_stack((col, col[::-1], np.roll(col, 7)))
    x = np.linspace(-3.0, 3.0, len(col))
    got, want = _write_both_ways(tmp_path, x, block)
    assert got == want
    text = got.decode()
    for cell in ("-0.0", "5e-324", "2.2250738585072014e-308", "1e+16", "9999999999999998.0", "1e-05"):
        assert f",{cell}," in text or f",{cell}\n" in text


def _repeating_block(n, rng):
    """An (n, 3) block that repeats values the way a snapshot does."""
    u = rng.standard_normal(n) * 1e-3
    u[n - n // 2:] = u[: n // 2][::-1]  # mirrored halves
    rho = 1.0 + np.abs(u)
    rho[: n // 3] = rho[n - n // 3:] = 1.0  # runs of 1.0
    v = np.where(rng.random(n) < 0.4, u, u + 1e-9)  # v equal to u in ~40% of cells
    v[::5] = rho[::5]  # one bit pattern in two columns
    u[n // 2::7] = -0.0
    u[0], v[0] = 0.0, -0.0  # equal as floats, but printed apart
    return np.column_stack((rho, u, v))


@pytest.mark.parametrize("n", [1, 1024, 1025, 2500])
def test_block_writer_repeated_values_match_per_cell_formatting(tmp_path, rng, n):
    block = _repeating_block(n, rng)
    if n > 1:
        assert len(np.unique(block.view(np.int64))) < 0.7 * block.size
    x = np.linspace(-3.0, 3.0, n)
    got, want = _write_both_ways(tmp_path, x, block)
    lines = [",".join(map(repr, row)) for row in np.column_stack((x, block)).tolist()]
    assert got == want == "\n".join(["x,rho,u,v", *lines, ""]).encode()
    assert lines[0].split(",")[2:] == ["0.0", "-0.0"]


@pytest.mark.parametrize("T, output_dt, frames", [(0.0200004, 0.01, 4), (3e-6, 2e-7, 16)])
def test_frame_times_equal_to_six_decimals_get_their_own_snapshots(tmp_path, T, output_dt, frames):
    # fields_<t>.csv names t with as many decimals as the run's frame times need
    s = _scn(N=32, T=T, output_dt=output_dt)
    assert run_scenario(s, tmp_path) == 0
    times = [r["t"] for r in _rows(tmp_path / "timeseries.csv")]
    snaps = sorted(tmp_path.glob("fields_*.csv"))
    assert len(times) == len(snaps) == frames
    assert [float(p.stem.removeprefix("fields_")) for p in snaps] == pytest.approx(
        [float(t) for t in times], abs=5e-8)


def test_block_writer_non_finite_falls_back_to_undefined(tmp_path, rng):
    block = rng.standard_normal((6, 3))
    block[1, 0], block[3, 2], block[5, 1] = np.nan, np.inf, -np.inf
    # repeated non-finite patterns, and a NaN with its sign bit set
    block[2, 0], block[0, 2], block[4, 1] = np.nan, np.inf, -np.nan
    assert np.signbit(block[4, 1]) and not np.signbit(block[1, 0])
    x = np.arange(6.0)
    got, want = _write_both_ways(tmp_path, x, block)
    assert got == want
    cells = [line.split(",")[1:] for line in got.decode().splitlines()[1:]]
    undefined = [(i, j) for i in range(6) for j in range(3) if cells[i][j] == "undefined"]
    assert undefined == [(0, 2), (1, 0), (2, 0), (3, 2), (4, 1), (5, 1)]


def test_fields_x_column_is_repr_of_mesh(tmp_path):
    s = _scn(N=97, L=7.3, amplitude=0.3, u_amplitude=0.2, T=0.02, output_dt=0.01, solver_form="both")
    out = tmp_path / "x"
    run_scenario(s, out)
    m = build_mesh(s.L, s.N)
    want = [repr(float(v)) for v in m.x]
    snaps = sorted(out.glob("fields_*.csv"))
    assert len(snaps) == 3
    for snap in snaps:
        assert [r["x"] for r in _rows(snap)] == want


# ----------------------------------------------------------------- sweeps

def _spike_scenario(tmp_path, **over):
    # a pressure spike over near-vacuum gas; over the grid below it completes
    # inside and outside the Gronwall region and ends in vacuum at alpha = 1
    table = tmp_path / "spike.csv"
    table.write_text("x,rho,u\n-5,1e-4,0\n-0.1,1e-4,0\n0,2.0,0\n0.1,1e-4,0\n5,1e-4,0\n")
    return _scn(N=128, init_family="custom-table", table=str(table), T=0.02, output_dt=0.01, **over)


def test_sweep_rows_match_full_run(tmp_path):
    # every row of the lean sweep equals the summary of a full run (default
    # frame function, probe step and every functional) at the same point;
    # under the explicit scheme this grid ends in two vacua
    s = _spike_scenario(tmp_path, time_scheme="explicit")
    sweep(s, [0.7, 1.0], [1.2, 3.0], tmp_path / "sw")
    rows = _rows(tmp_path / "sw" / "sweep.csv")
    assert [(r["alpha"], r["gamma"]) for r in rows] == [
        ("0.7", "1.2"), ("0.7", "3.0"), ("1.0", "1.2"), ("1.0", "3.0")]
    for row in rows:
        params = dataclasses.replace(s.params, alpha=float(row["alpha"]), gamma=float(row["gamma"]))
        point = dataclasses.replace(s, params=params)
        out = tmp_path / f"ref_{row['alpha']}_{row['gamma']}"
        run_scenario(point, out)
        summary = _rows(out / "summary.csv")[0]
        for key in ("inside_theorem", "status", "min_rho_run", "vacuum", "breach_time",
                    "sup_v_inf", "gronwall"):
            assert row[key] == summary[key], key
    assert {r["gronwall"] for r in rows} == {"fail", "unavailable"}
    assert rows[0]["inside_theorem"] == "no" and rows[0]["gronwall"] == "unavailable"
    assert [r["status"] for r in rows[2:]] == ["vacuum", "vacuum"]
    # this point breaches before its second frame, and the envelope of the
    # first frame is its measured moment: no verdict
    assert rows[3]["inside_theorem"] == "yes" and rows[3]["gronwall"] == "unavailable"


@pytest.mark.parametrize("form", ["U", "V"])
def test_sweep_monitor_records_equal_full_records(form, monkeypatch):
    # the sweep's frame function shares the Gronwall routine with collect:
    # each frame's check reads the full record's values bit for bit, and
    # the monitor's sup v_inf and verdict are those of the full records
    params = Params(alpha=0.75, gamma=2.5, a=1.3, mu0=0.9)
    s = _scn(N=96, amplitude=0.4, u_amplitude=0.3, T=0.04, output_dt=0.01, params=params)
    mesh = build_mesh(s.L, s.N)
    profile = background_profile(mesh, s.rho_minus, s.rho_plus)
    state0 = build_initial(s, mesh, profile)
    full = harness._integrate_scenario(s, mesh, profile, state0, form)
    checks = {}
    real = diagnostics.Gronwall.check

    def check(self, h, sums):
        out = real(self, h, sums)
        checks.setdefault(self, []).append((sums[0], sums[1], *out))
        return out

    monkeypatch.setattr(diagnostics.Gronwall, "check", check)
    st0 = state0 if form == "U" else solver.effective_velocity(state0, mesh, params)
    monitor = harness._SweepMonitor(mesh, [params], s.moment_ps, s.gronwall_slack)
    (lean,) = solver.run_batch(solver.FlowState(st0.rho[None], st0.vel[None], form), mesh, [params],
                               T=s.T, output_dt=s.output_dt, frame=monitor)
    assert (lean.status, lean.steps, lean.times) == (full.status, full.steps, full.times)
    assert len(full.records) == 5
    ps = s.moment_ps
    assert repr(checks[monitor.checks[0]]) == repr([
        (r.v_inf, r.wvel_inf, r.sqrt_rho_u_l2, [r.moments[p] for p in ps],
         [r.gron_bound[p] for p in ps], [r.gron_pass[p] for p in ps]) for r in full.records])
    assert repr(monitor.sup_v_inf[0]) == repr(harness._sup(r.v_inf for r in full.records))
    assert monitor.checks[0].verdict == full.gronwall == "pass"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_monitor_sup_reads_only_finite_values():
    # as _sup over the records: an infinite or NaN v_inf is skipped
    mesh = build_mesh(4.0, 16)
    params = Params(alpha=1.0, gamma=2.0)
    monitor = harness._SweepMonitor(mesh, [params], (0,), 0.1)
    tops = (0.5, math.inf, 0.25, math.nan)
    for t, top in zip((0.0, 0.1, 0.2, 0.3), tops):
        vel = np.zeros((1, mesh.N))
        vel[0, 8] = top
        monitor(solver.FlowState(np.ones((1, mesh.N)), vel, "V", t), np.array([0]), solver.Batch([params]))
    assert monitor.sup_v_inf == [harness._sup(tops)] == [0.5]


@pytest.mark.parametrize("time_scheme", ["imex", "explicit"])
def test_sweep_builds_no_per_row_record(tmp_path, monkeypatch, time_scheme):
    # a sweep frame keeps its rows' running values, not a record per row,
    # and still writes the pinned sweep.csv of the golden near-vacuum sweep
    from test_golden import GOLDEN, GOLDEN_IMEX, artifact_digests

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built a DiagnosticsRecord")

    monkeypatch.setattr(diagnostics, "DiagnosticsRecord", refuse)
    want = (GOLDEN_IMEX if time_scheme == "imex" else GOLDEN)["sweep_nearvac"]
    assert artifact_digests("sweep_nearvac", tmp_path, time_scheme) == want


def test_u_form_sweep_runs_no_full_frame(tmp_path, monkeypatch):
    # a U-form sweep point computes only what its row reads: no collect,
    # no reciprocal-residual probe and so no V-form step
    calls = {"collect": 0, "reciprocal_residual": 0, "step_v": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(diagnostics, "collect")
    counting(diagnostics, "reciprocal_residual")
    counting(solver, "step_v")
    s = _scn(N=64, amplitude=0.2, T=0.05, output_dt=0.025)
    sweep(s, [0.8, 1.0], [2.0, 2.5], tmp_path / "sw")
    assert [r["status"] for r in _rows(tmp_path / "sw" / "sweep.csv")] == ["completed"] * 4
    assert calls == {"collect": 0, "reciprocal_residual": 0, "step_v": 0}
    # the counters see the full frame of a plain run
    run_scenario(s, tmp_path / "run")
    assert calls == {"collect": 3, "reciprocal_residual": 3, "step_v": 3}


@pytest.mark.parametrize("form", ["U", "V"])
def test_sweep_evaluates_the_stability_limit_once_per_batched_step(tmp_path, monkeypatch, form):
    # a sweep frame probes nothing, so each batched step call, whatever its
    # rows, is the one stability evaluation
    calls = {"stability_terms": 0, "step_u": 0, "step_v": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(kernels, "stability_terms")
    counting(solver, "step_u")
    counting(solver, "step_v")
    s = _scn(N=64, amplitude=0.2, T=0.05, output_dt=0.025, solver_form=form)
    sweep(s, [0.8, 1.0], [2.0, 2.5], tmp_path / "sw")
    assert [r["status"] for r in _rows(tmp_path / "sw" / "sweep.csv")] == ["completed"] * 4
    assert calls["stability_terms"] == calls["step_u"] + calls["step_v"] > 0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_zero_stability_limit_is_numerics_in_run_and_sweep(tmp_path):
    # one cell at the smallest denormal: the floored diffusivity
    # max(mu, 1/n)/rho overflows, so the stability limit is 0; that is a
    # numerics outcome in a run and in a sweep point, not a config error
    params = Params(alpha=0.7, gamma=2.0, reg_n=10)
    mesh = build_mesh(10.0, 64)
    rho = np.ones(mesh.N)
    rho[32] = 5e-324
    table = tmp_path / "denormal.csv"
    table.write_text("x,rho,u\n" + "".join(f"{x!r},{r!r},0\n" for x, r in zip(mesh.x.tolist(), rho.tolist())))
    s = _scn(N=64, params=params, init_family="custom-table", table=str(table), T=0.1, output_dt=0.05,
             time_scheme="explicit")
    profile = background_profile(mesh, 1.0, 1.0)
    state0 = build_initial(s, mesh, profile)
    assert float(state0.rho.min()) == 5e-324
    traj = solver.run(state0, mesh, profile, params, T=s.T, output_dt=s.output_dt,
                      time_scheme="explicit")
    assert traj.status == "numerics" and traj.steps == 0
    assert math.isnan(traj.records[0].resid_recip)
    sweep(s, [0.7], [2.0], tmp_path / "sw")
    row = _rows(tmp_path / "sw" / "sweep.csv")[0]
    assert row["status"] == "numerics" and row["breach_time"] == "0.0"


def test_sweep_error_row_continues(tmp_path):
    s = _scn(N=96, amplitude=0.4, T=0.1, output_dt=0.05)
    sweep(s, [1.0], [2.0, -1.0], tmp_path / "sw")
    rows = _rows(tmp_path / "sw" / "sweep.csv")
    assert len(rows) == 2
    assert rows[0]["status"] == "completed"
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["gronwall"] == "unavailable"


def test_sweep_with_an_overflowing_envelope_keeps_every_row(tmp_path):
    # K = a*gamma/mu0 puts the envelope's exp(K*I) past the float range at
    # gamma = 3 but not at gamma = 2: those points complete with no verdict,
    # and every row is that of its point swept alone
    s = load_config(_cfg(tmp_path, ENVELOPE_CFG))
    sweep(s, [0.8, 0.9], [2.0, 3.0], tmp_path / "sw")
    rows = _rows(tmp_path / "sw" / "sweep.csv")
    assert [(r["alpha"], r["gamma"]) for r in rows] == [
        ("0.8", "2.0"), ("0.8", "3.0"), ("0.9", "2.0"), ("0.9", "3.0")]
    assert [(r["inside_theorem"], r["status"]) for r in rows] == [("yes", "completed")] * 4
    assert [r["gronwall"] for r in rows] == ["pass", "unavailable"] * 2
    for row in rows:
        sweep(s, [float(row["alpha"])], [float(row["gamma"])], tmp_path / "one")
        assert _rows(tmp_path / "one" / "sweep.csv") == [row]


def test_sweep_order_permutation(tmp_path):
    s = _scn(N=64, amplitude=0.2, T=0.05, output_dt=0.05)
    sweep(s, [0.8, 1.0], [2.0], tmp_path / "fwd")
    sweep(s, [1.0, 0.8], [2.0], tmp_path / "rev")
    fwd = (tmp_path / "fwd" / "sweep.csv").read_text().splitlines()
    rev = (tmp_path / "rev" / "sweep.csv").read_text().splitlines()
    assert fwd[0] == rev[0]
    assert sorted(fwd[1:]) == sorted(rev[1:])


def test_sweep_rejects_empty_grid(tmp_path):
    s = _scn(N=64)
    with pytest.raises(ConfigurationError):
        sweep(s, [], [2.0], tmp_path / "x")


# ---------------------------------------------------------------- studies

def test_refinement_orders_table(tmp_path):
    s = _scn(N=128, amplitude=0.5, T=0.2, output_dt=0.1)
    assert refinement_study(s, [128, 256, 512], tmp_path / "ref") == 0
    rows = _rows(tmp_path / "ref" / "orders.csv")
    by_q = {}
    for r in rows:
        by_q.setdefault(r["quantity"], []).append(r)
    assert set(by_q) == {"rho", "vel", "resid_recip", "resid_pident"}
    assert all(rs[0]["order"] == "undefined" for rs in by_q.values())
    # second-order identity residual, first-order-in-dt reciprocal residual
    assert 1.7 <= float(by_q["resid_pident"][-1]["order"]) <= 2.3
    assert 0.8 <= float(by_q["resid_recip"][-1]["order"]) <= 1.3
    assert 1.0 <= float(by_q["rho"][-1]["order"]) <= 2.6
    assert all(r["flag"] == "ok" for r in rows)


def test_refinement_stationary_roundoff(tmp_path):
    s = _scn(N=64, amplitude=0.0, T=0.1, output_dt=0.1)
    refinement_study(s, [64, 128, 256], tmp_path / "flat")
    rows = _rows(tmp_path / "flat" / "orders.csv")
    field_rows = [r for r in rows if r["quantity"] in ("rho", "vel")]
    assert all(r["flag"] == "roundoff" for r in field_rows)
    assert all(r["order"] == "undefined" for r in field_rows)


def test_refinement_reports_failed_members(tmp_path, monkeypatch):
    # a member that ends in vacuum or numerics is an outcome, not an error:
    # every value that needs it reads undefined, flagged with its status
    real = harness._integrate_scenario

    def failing(s, mesh, profile, state0, form):
        traj = real(s, mesh, profile, state0, form)
        if (mesh.N, form) == (128, "U"):
            traj.status = "vacuum"
        if (mesh.N, form) == (64, "V"):
            traj.status = "numerics"
        return traj

    monkeypatch.setattr(harness, "_integrate_scenario", failing)
    s = _scn(N=32, amplitude=0.5, T=0.02, output_dt=0.02, solver_form="both")
    assert refinement_study(s, [32, 64, 128, 256], tmp_path / "ref") == 0
    table = {}
    for r in _rows(tmp_path / "ref" / "orders.csv"):
        table.setdefault(r["quantity"], {})[int(r["N"])] = r
    U, OK = "undefined", ("ok", "roundoff", "undefined")

    def cells(quantity, n):
        r = table[quantity][n]
        return r["value"] == U, r["order"] == U, r["flag"]

    for q in ("rho", "vel"):
        assert cells(q, 64)[:2] == (False, True) and cells(q, 64)[2] in OK
        assert cells(q, 128) == cells(q, 256) == (True, True, "vacuum")
    for q in ("resid_recip", "resid_pident"):
        assert cells(q, 32)[:2] == (False, True) and cells(q, 32)[2] in OK
        assert cells(q, 64)[0] is False and cells(q, 64)[2] in OK
        assert cells(q, 128) == (True, True, "vacuum")
        assert cells(q, 256) == (False, True, "vacuum")
    assert cells("formdiff_rho", 32)[:2] == (False, True)
    assert cells("formdiff_rho", 64) == (True, True, "numerics")
    assert cells("formdiff_rho", 128) == (True, True, "vacuum")
    assert cells("formdiff_rho", 256) == (False, True, "vacuum")


def test_refinement_rejects_bad_lists(tmp_path):
    s = _scn(N=64)
    with pytest.raises(ConfigurationError):
        refinement_study(s, [64, 128], tmp_path / "x")
    with pytest.raises(ConfigurationError):
        refinement_study(s, [128, 64, 256], tmp_path / "x")
    # a fractional or non-finite resolution is an error, not truncated
    for bad in ([32, 64.5, 128], [32, 64, math.inf], [32, 64, math.nan]):
        with pytest.raises(ConfigurationError):
            refinement_study(s, bad, tmp_path / "x")


def test_regularization_table(tmp_path):
    # amplitude -0.2 puts min mu(rho) near 0.8: the n=1 floor (threshold 1)
    # engages, large n floors and mollifiers are both inert
    s = _scn(N=256, amplitude=-0.2, T=0.2, output_dt=0.1)
    assert regularization_study(s, [1, 10000, 20000], tmp_path / "reg") == 0
    rows = _rows(tmp_path / "reg" / "regularization.csv")
    assert [r["floor_active"] for r in rows] == ["yes", "no", "no"]
    diffs = [float(r["diff_to_reference"]) for r in rows]
    assert diffs[0] > 0.0
    assert diffs[1] == 0.0 and diffs[2] == 0.0  # regularization fully inert
    assert all(b <= a for a, b in zip(diffs, diffs[1:]))


def test_regularization_rejects_unsorted(tmp_path):
    s = _scn(N=64)
    with pytest.raises(ConfigurationError):
        regularization_study(s, [4, 2], tmp_path / "x")
    for bad in ([2, 4.5], [2, math.inf], [2, math.nan]):
        with pytest.raises(ConfigurationError):
            regularization_study(s, bad, tmp_path / "x")


# -------------------------------------------------------------------- CLI

RUN_CFG = (
    "[params]\nalpha = 1.0\ngamma = 2.0\n"
    "[grid]\nN = 64\n"
    "[initial]\namplitude = 0.3\n"
    "[run]\nname = clismoke\nT = 0.05\noutput_dt = 0.05\n"
)
# K = a*gamma/mu0 = 3e4: the Gronwall envelope's exp(K*I) leaves the float
# range by t = 0.05
ENVELOPE_CFG = "[params]\nalpha = 0.8\ngamma = 3\na = 10\nmu0 = 0.001\n[grid]\nN = 64\n[run]\nT = 0.05\n"
# the Gronwall rate's rho_linf^(gamma - alpha) = 100^199 leaves it at t = 0
RATE_CFG = ("[params]\nalpha = 1\ngamma = 200\n[grid]\nN = 32\n"
            "[initial]\nrho_minus = 100\nrho_plus = 100\n[run]\nT = 0.01\n")


def test_cli_validate(tmp_path, capsys):
    assert main(["validate", str(_cfg(tmp_path, RUN_CFG))]) == 0
    got = capsys.readouterr().out
    assert "configuration valid" in got
    assert "admissible parameter region" in got


def test_cli_run_with_outdir(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["run", str(_cfg(tmp_path, RUN_CFG)), "--outdir", str(out)]) == 0
    assert (out / "timeseries.csv").exists()
    assert "artifacts written" in capsys.readouterr().out


def test_cli_outdir_env_fallback(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("DVNS1D_OUTDIR", str(env_dir))
    assert main(["run", str(_cfg(tmp_path, RUN_CFG))]) == 0
    assert (env_dir / "summary.csv").exists()


def test_cli_outdir_defaults_to_runs_name(tmp_path, monkeypatch):
    # with neither --outdir nor the environment variable: ./runs/<name>
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DVNS1D_OUTDIR", raising=False)
    assert main(["run", str(_cfg(tmp_path, RUN_CFG))]) == 0
    assert (tmp_path / "runs" / "clismoke" / "summary.csv").exists()


def test_cli_flag_beats_env(tmp_path, monkeypatch):
    env_dir = tmp_path / "unused_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("DVNS1D_OUTDIR", str(env_dir))
    assert main(["run", str(_cfg(tmp_path, RUN_CFG)), "--outdir", str(flag_dir)]) == 0
    assert (flag_dir / "summary.csv").exists()
    assert not env_dir.exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = _cfg(tmp_path, "[params]\nalpha = 1.0\n")
    assert main(["run", str(path)]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_cli_missing_file_exit_code(capsys):
    assert main(["run", "/nonexistent/path.ini"]) == 2
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cfg", [ENVELOPE_CFG, RATE_CFG], ids=["envelope", "rate"])
@pytest.mark.parametrize("command, artifact", [
    (["run"], "summary.csv"), (["refine", "--N", "32", "48", "64"], "orders.csv"),
    (["regularize", "--n", "2", "4"], "regularization.csv")], ids=["run", "refine", "regularize"])
def test_cli_gronwall_past_the_float_range_writes_the_artifacts(tmp_path, capsys, cfg, command, artifact):
    # a Gronwall envelope or rate past the float range is a bound that
    # checks nothing, not a failed run
    out = tmp_path / "out"
    assert main([command[0], str(_cfg(tmp_path, cfg)), "--outdir", str(out), *command[1:]]) == 0
    assert capsys.readouterr().err == ""
    assert (out / artifact).exists()
    if command == ["run"] and cfg == ENVELOPE_CFG:
        last = _rows(out / "timeseries.csv")[-1]
        assert last["t"] == "0.05"
        assert {last[f"gron_bound_p{p}"] for p in (0, 2, 8, 30)} == {"undefined"}
        assert {last[f"gron_pass_p{p}"] for p in (0, 2, 8, 30)} == {"unavailable"}
        assert _rows(out / "summary.csv")[0]["gronwall"] == "unavailable"


def test_cli_run_at_gamma_one(tmp_path):
    # gamma = 1 is accepted in exploration mode; its relative pressure is
    # the isothermal limit, not a division by zero
    out = tmp_path / "iso"
    cfg = _cfg(tmp_path, RUN_CFG.replace("gamma = 2.0", "gamma = 1.0"))
    with pytest.warns(UserWarning, match="exploration mode"):
        assert main(["run", str(cfg), "--outdir", str(out)]) == 0
    assert (out / "summary.csv").exists()


def test_cli_sweep_smoke(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", str(_cfg(tmp_path, RUN_CFG)), "--outdir", str(out),
                 "--alpha", "1.0", "--gamma", "2.0"])
    assert code == 0
    assert (out / "sweep.csv").exists()


def test_imex_run_imports_no_scipy(tmp_path):
    # the tridiagonal solver is numpy only: importing scipy would add
    # seconds-scale set-up and tens of MB of resident memory to every run
    cfg = _cfg(tmp_path, RUN_CFG)
    code = (
        "import sys, dvns1d\n"
        "from dvns1d import harness\n"
        f"s = harness.load_config({str(cfg)!r})\n"
        "assert s.time_scheme == 'imex'\n"
        f"harness.run_scenario(s, {str(tmp_path / 'out')!r})\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_every_exported_name_resolves():
    # `from dvns1d import *` fails on a name in an __all__ that its module lacks
    names = [m.name for m in pkgutil.iter_modules(dvns1d.__path__) if m.name != "__main__"]
    for module in [dvns1d] + [importlib.import_module(f"dvns1d.{n}") for n in names]:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__
