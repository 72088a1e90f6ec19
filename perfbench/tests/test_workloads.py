import configparser
import json
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS, draw_initial, scenario_ini

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_ini_bytes(name):
    wl = WORKLOADS[name]
    assert scenario_ini(wl, 7).encode() == scenario_ini(wl, 7).encode()
    assert scenario_ini(wl, 7) != scenario_ini(wl, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_draws_stay_in_their_ranges(name):
    wl = WORKLOADS[name]
    for seed in range(50):
        drawn = draw_initial(wl, seed)
        assert set(drawn) == set(wl.ranges)
        for key, (lo, hi) in wl.ranges.items():
            assert lo <= drawn[key] <= hi


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ini_carries_the_workload(name):
    wl = WORKLOADS[name]
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.read_string(scenario_ini(wl, 3))
    assert cfg.getint("grid", "N") == wl.grid["N"]
    assert cfg.get("run", "solver_form") == wl.run["solver_form"]
    assert cfg.getfloat("initial", "amplitude") == draw_initial(wl, 3)["amplitude"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ini_loads_in_the_package(name, tmp_path):
    harness = pytest.importorskip("dvns1d.harness")
    wl = WORKLOADS[name]
    path = tmp_path / "scenario.ini"
    path.write_text(scenario_ini(wl, 5))
    scenario = harness.load_config(path)
    assert scenario.N == wl.grid["N"]
    assert scenario.T == wl.run["T"]
    assert scenario.sigma == draw_initial(wl, 5)["sigma"]


def test_benchmark_json_matches_the_code():
    bench = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
