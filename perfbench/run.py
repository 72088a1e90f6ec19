"""dvns1d benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bump-n8192-both --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Writes the seed's scenario INI, measures
set-up in several fresh processes, then runs the workload's entry call
repeatedly in one more process for --seconds. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced calls and
reports the per-layer metrics. The line before the result holds the
details: exact counts, artifact digest, budgets, samples and problems.
Exits non-zero without a result if the package cannot be run.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S
from workloads import WORKLOADS, scenario_ini

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
_ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, Linux

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER = {
    "kernels.rhs_u.calls": "count",
    "kernels.rhs_u.us_per_call": "us",
    "kernels.rhs_v.calls": "count",
    "kernels.rhs_v.us_per_call": "us",
    "kernels.stability_terms.calls": "count",
    "kernels.stability_terms.us_per_call": "us",
    "kernels.self_s": "s",
    "kernels.rhs_u.alloc_bytes_per_cell": "B/cell",
    "kernels.rhs_v.alloc_bytes_per_cell": "B/cell",
    "solver.steps": "count",
    "solver.step.calls": "count",
    "solver.probe_steps": "count",
    "solver.step.us_per_call": "us",
    "solver.step.self_us_per_call": "us",
    "solver.cfl_dt.calls": "count",
    "solver.cfl_dt.calls_per_step": "calls/step",
    "solver.run.self_s": "s",
    "solver.conversions.calls": "count",
    "solver.self_s": "s",
    "diagnostics.frames": "count",
    "diagnostics.collect.us_per_call": "us",
    "diagnostics.reciprocal_residual.us_per_call": "us",
    "diagnostics.gronwall_bound_v.s": "s",
    "diagnostics.self_s": "s",
    "diagnostics.frame_s": "s",
    "harness.self_s": "s",
    "harness.artifact_files": "count",
    "harness.artifact_bytes": "B",
    "harness.write_MB_per_s": "MB/s",
    "harness.build_initial.calls": "count",
    "setup.import_s": "s",
    "setup.load_config_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
}

# one thread everywhere, so a run measures the package and not the BLAS pool;
# a fixed hash seed keeps dict and set layouts the same from run to run
_SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in _SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _fixed_layout() -> None:
    """Turn off address-space randomisation in the child about to start.

    Where a process's heap and stack land can shift its speed for its
    whole life, which adds spread between runs; a fixed layout removes that
    source. Only the child is affected.
    """
    try:
        ctypes.CDLL(None).personality(_ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def _spawn(cmd: list, env: dict, timeout: float) -> tuple[int, dict]:
    """Run one worker to completion; return its start time and last JSON line."""
    start_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(timeout, 1.0), preexec_fn=_fixed_layout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return start_ns, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _args(argv)
    t_begin = time.monotonic()
    if not (ROOT / "src" / "dvns1d" / "__init__.py").is_file():
        print(f"error: no dvns1d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ini_text = scenario_ini(workload, args.seed)
    work = WORK_ROOT / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ini = work / "scenario.ini"
        ini.write_text(ini_text)
        worker = [sys.executable, str(Path(__file__).with_name("worker.py")),
                  "--workload", workload.name, "--ini", str(ini), "--src", str(ROOT / "src")]
        env = _env()
        setups = []
        for _ in range(SETUP_SAMPLES):
            start_ns, rep = _spawn(worker + ["--mode", "setup"], env, 30.0)
            setups.append(dict(rep, setup_s=(rep["ready_ns"] - start_ns) / 1e9))
        remaining = DEADLINE_S - (time.monotonic() - t_begin)
        start_ns, rep = _spawn(
            worker + ["--mode", "measure", "--work", str(work), "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--spans", str(WORK_ROOT / f"spans-{workload.name}.csv")],
            env, remaining)
        setups.append(dict(rep["setup"], setup_s=(rep["setup"]["ready_ns"] - start_ns) / 1e9,
                           probe_s=rep["probes"][0]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not rep["walls"] or (args.trace and "layers" not in rep):
        print(f"error: no entry call completed: {rep['problems']}", file=sys.stderr)
        return 1
    # times in the result are rescaled to the reference host's speed;
    # the raw samples are in the detail line
    wall = statistics.median(rep["scaled_walls"])
    if args.trace:
        values = dict(rep["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.load_config_s"] = statistics.median(s["load_config_s"] for s in setups)
        values["trace.overhead_frac"] = statistics.median(rep["scaled_traced_walls"]) / wall - 1.0
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(s["setup_s"] * REFERENCE_S / s["probe_s"] for s in setups),
            "peak_rss_mb": rep["peak_rss_mb"],
            "ok_frac": (rep["ops"] - rep["failed"]) / rep["ops"],
        }
        units = END_TO_END

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "ini_sha256": hashlib.sha256(ini_text.encode()).hexdigest(),
        "calls": len(rep["walls"]) + len(rep["traced_walls"]),
        "wall_samples_s": rep["walls"],
        "traced_wall_samples_s": rep["traced_walls"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "host_probe_samples_s": rep["probes"],
        "first_call": rep["first"],
        "digests_agree": rep["digests_agree"],
        "counts_agree": rep.get("counts_agree"),
        "problems": rep["problems"],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["ops"],
        "failed": rep["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
