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
            '8851862bc0543924ab50ba901c0820a6054d6fa61c7587e8fb5af90039f89aec',
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
            '935bb9804b6543b41d223295ecb0b671225e8743ee23d82f6a18ec067bd69f9b',
        'summary.csv':
            'd6d9176a5f21e1abf3dbcdf5957c34a88959aea8e7926b5401b217820bad2cad',
        'timeseries.csv':
            '2c6f2252761dbeb8933c34028616b1528eee6ae5741707e30bac37931fda26c9',
        'timeseries_v.csv':
            '7875af54b9978419616f213333324686582c91ee7b81817c383e25bb263a2a84',
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
            '2c68d93847a9e129d8d149b7dd4c9d26f3af92b2d9a72fa5fac8906e855f834f',
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
            '86b13927a954af3a4a1e5402b3c6256fcae7507d57b1ccb95fb4499e972a7a42',
        'summary.csv':
            '5a372ec6179a2d7a4af33c8911ef2a93b26d74673a0a56b0eb0a8587c4da0e56',
        'timeseries.csv':
            '9408ae2180f550ad83681659591f8a54cbcbe8bd41deb760568da3db54c6cd9c',
        'timeseries_v.csv':
            '3d731127bce5796bc8f7e310a13afd67a0915ba6ffb505ea1cfc268b8048bc76',
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
