"""Golden-bytes guard: the artifacts of three small reference scenarios.

Each scenario's files are hashed with SHA-256 and compared against digests
recorded from the reference implementation. A pure refactor or speed-up must
keep every digest; a change that alters computed numbers on purpose must
refresh them (run this file as a script to print the new tables) and say why.

Each scenario runs under both time schemes: GOLDEN pins the explicit
midpoint reference scheme, GOLDEN_IMEX the default imex scheme.

The digests depend on the platform's libm (pow/log/exp) and numpy's
reduction order, so they are pinned for one toolchain; they were recorded
with Python 3.11, numpy 2.4 on x86-64 Linux.
"""

import hashlib
import sys
import warnings

import pytest

from dvns1d import Params
from dvns1d.harness import Scenario, refinement_study, run_scenario, sweep


def _scn(params, time_scheme, **over):
    return Scenario(name="golden", params=params,
                    time_scheme=time_scheme, **over)


def _run_both(out, time_scheme):
    # non-unit a and mu0, alpha != 1 and a moving bump: every kernel branch
    params = Params(alpha=0.75, gamma=2.0, a=1.5, mu0=0.8)
    s = _scn(params, time_scheme, L=8.0, N=256, amplitude=0.5, sigma=1.0, u_amplitude=0.3,
             T=0.03, output_dt=0.01, solver_form="both")
    run_scenario(s, out)


def _sweep_nearvac(out, time_scheme):
    params = Params(alpha=1.0, gamma=2.0)
    s = _scn(params, time_scheme, L=8.0, N=128, init_family="near-vacuum", amplitude=-0.8,
             sigma=0.6, u_amplitude=0.2, T=0.02, output_dt=0.005)
    sweep(s, [0.7, 1.0], [1.5, 2.5], out)


def _refine(out, time_scheme):
    params = Params(alpha=1.0, gamma=2.0, reg_n=8)
    s = _scn(params, time_scheme, L=8.0, N=64, init_family="hoff-step", u_amplitude=0.4,
             u_sigma=2.0, rho_minus=1.0, rho_plus=1.5, T=0.02, output_dt=0.01,
             solver_form="both")
    refinement_study(s, [64, 128, 256], out)


SCENARIOS = {"run_both": _run_both, "sweep_nearvac": _sweep_nearvac, "refine": _refine}


def artifact_digests(name, out, time_scheme="explicit") -> dict:
    """Run one scenario into `out` and return {file name: sha256 hex}."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exploration-mode sweep points
        SCENARIOS[name](out, time_scheme)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


GOLDEN = {
    'refine': {
        'orders.csv':
            '7bbafcf8015bfd9d0983506d23329eabcea176ecbea6967fe2fd6ede94e31bcd',
    },
    'run_both': {
        'fields_0.000000.csv':
            '22774707e3e57d4e1264980a8dbfe3e273a0408058755442ded4fa3177e30381',
        'fields_0.010000.csv':
            '1279afe8290c9c9e6faa43235d4e7f26f842415e27520814f6ccb6c397fdb899',
        'fields_0.020000.csv':
            'a3aae921747031c8bab3b806bd192e8a6400cd738ac7765623740b5c2dfc59d8',
        'fields_0.030000.csv':
            'a1ee31927e4f9acd6361be5653a79d75fe6f92ca6f6c9779517b86c5b6e52bc6',
        'formdiff.csv':
            '8e7b9ea336973432aae55c3ebaa8f52b03f2d357cd42df17b3a8693e5eefc997',
        'summary.csv':
            'c0390fcaeeafc99e7d621765381224cf50556334293b7687888ec5b19fe85492',
        'timeseries.csv':
            'faf468531a1fb1bea1f0fe9f9d49a728b5870a0f2538373b654fc1ccaea6611b',
        'timeseries_v.csv':
            'abb3b82a1b2218783302775c4e14846534ff6ab1ef5a7d89e76953e50a1b4d37',
    },
    'sweep_nearvac': {
        'sweep.csv':
            'cc2be18286baf156f25d2636440de82c756b186a40bb6f383691b6cb674c7130',
    },
}


# The near-vacuum sweep rows read the same under both schemes: every point's
# minimum density and sup |v| are those of the initial data.
GOLDEN_IMEX = {
    'refine': {
        'orders.csv':
            '6e147b99302619c4d5df136d909eac19acff57f570ad3448799c168c05e62770',
    },
    'run_both': {
        'fields_0.000000.csv':
            '22774707e3e57d4e1264980a8dbfe3e273a0408058755442ded4fa3177e30381',
        'fields_0.010000.csv':
            '22f3fcd165ee473bf1afe4ace4a21d8395d38f418ff2db5cd46fda7490b27819',
        'fields_0.020000.csv':
            '739ad67cc523aa3b8c04a73a746cdc6b4828a1fd91534550b61c7e6cb47e1c98',
        'fields_0.030000.csv':
            'c470a8d327d6cd4dc4fc349435bcbaeb292f7e065ce47a07a34c8f69805d8488',
        'formdiff.csv':
            '885de32638744733517011277cd75231cbbd4a3d1c98d8cd93762b2ca1b7f609',
        'summary.csv':
            '4f8fce7647084fc7088f9494c765b774bdda6b9d62056daec846c51de8183de0',
        'timeseries.csv':
            '61fd09cfc5a28f7c303fa9917c5bbc58fe7fd5027f4e190c3834458e3297838b',
        'timeseries_v.csv':
            '240d82ad0528cf868949818e81dc7acbc1dd46ce5c21ba7f3d182e11ce94a582',
    },
    'sweep_nearvac': {
        'sweep.csv':
            'cc2be18286baf156f25d2636440de82c756b186a40bb6f383691b6cb674c7130',
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifacts_match_golden_digests(name, tmp_path):
    got = artifact_digests(name, tmp_path)
    want = GOLDEN[name]
    assert sorted(got) == sorted(want), "artifact file set changed"
    changed = [f for f in want if got[f] != want[f]]
    assert not changed, f"artifact bytes changed: {changed}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_imex_artifacts_match_golden_digests(name, tmp_path):
    # pinned, and a rerun writes the same bytes
    got = artifact_digests(name, tmp_path / "a", "imex")
    assert got == GOLDEN_IMEX[name]
    assert artifact_digests(name, tmp_path / "b", "imex") == got


if __name__ == "__main__":
    import pprint
    import tempfile
    from pathlib import Path

    for time_scheme in ("explicit", "imex"):
        table = {}
        for scenario in sorted(SCENARIOS):
            with tempfile.TemporaryDirectory() as tmp:
                table[scenario] = artifact_digests(scenario, Path(tmp), time_scheme)
        print(time_scheme)
        pprint.pprint(table, stream=sys.stdout, width=100)
