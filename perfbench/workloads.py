"""The benchmark's workloads and the seed -> scenario INI generator.

Each workload is one `dvns1d run` or `dvns1d sweep` invocation. The seed
draws the initial-data parameters from narrow ranges, so different seeds
give different inputs while the amount of work stays nearly the same (at
alpha = 1 the diffusive step limit does not depend on the data at all).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "sweep"
    why: str
    grid: dict
    initial: dict
    run: dict
    # initial-data key -> (low, high), drawn uniformly from the seed
    ranges: dict = field(default_factory=dict)
    alpha_grid: tuple = ()
    gamma_grid: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bump-n8192-both",
            kind="run",
            why="large arrays, both forms, one output frame: the stepping layers "
                "(kernels, solver) do nearly all of the work",
            grid={"L": 10.0, "N": 8192},
            initial={"family": "gaussian-bump", "u_sigma": 1.0},
            run={"T": 0.001, "output_dt": 0.001, "solver_form": "both"},
            ranges={"amplitude": (0.45, 0.55), "sigma": (0.9, 1.1), "u_amplitude": (0.05, 0.15)},
        ),
        Workload(
            name="frames-n4096-io",
            kind="run",
            why="an output frame every ~4 steps at N=4096: CSV artifact writing "
                "dominates and stepping optimisations should not show",
            grid={"L": 10.0, "N": 4096},
            initial={"family": "gaussian-bump", "u_sigma": 1.0},
            run={"T": 0.0006, "output_dt": 2e-05, "solver_form": "U"},
            ranges={"amplitude": (0.45, 0.55), "sigma": (0.9, 1.1), "u_amplitude": (0.28, 0.32)},
        ),
        Workload(
            name="sweep-nearvac-n256",
            kind="sweep",
            why="5x5 alpha-gamma sweep of a near-vacuum dip at N=256: per-call "
                "overhead and per-frame diagnostics dominate",
            grid={"L": 10.0, "N": 256},
            initial={"family": "near-vacuum", "u_sigma": 1.0},
            run={"T": 0.1, "output_dt": 0.004, "solver_form": "U"},
            ranges={"amplitude": (-0.81, -0.79), "sigma": (0.95, 1.05), "u_amplitude": (0.0, 0.05)},
            alpha_grid=(0.6, 0.7, 0.8, 0.9, 1.0),
            gamma_grid=(1.5, 2.0, 2.5, 3.0, 3.5),
        ),
    )
}


def draw_initial(workload: Workload, seed: int) -> dict:
    """The seeded initial-data parameters, rounded so the INI text is short."""
    rng = random.Random(f"{workload.name}:{seed}")
    return {key: round(rng.uniform(lo, hi), 6) for key, (lo, hi) in sorted(workload.ranges.items())}


def scenario_ini(workload: Workload, seed: int) -> str:
    """The scenario config the program receives; same seed, same bytes."""
    initial = {**workload.initial, **draw_initial(workload, seed)}
    sections = {
        "params": {"alpha": 1.0, "gamma": 2.0, "a": 1.0, "mu0": 1.0},
        "grid": workload.grid,
        "initial": initial,
        "run": {"name": workload.name, **workload.run},
    }
    lines = [f"; {workload.name}, seed {seed}"]
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" if not isinstance(value, str) else f"{key} = {value}"
                     for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def expected_frames(workload: Workload) -> int:
    """Output frames per trajectory, the initial frame included."""
    T, dt = workload.run["T"], workload.run["output_dt"]
    return round(T / dt) + 1
