"""One workload process: set up, then repeat the entry call for a while.

    python3 perfbench/worker.py --mode setup   --ini scenario.ini ...
    python3 perfbench/worker.py --mode measure --ini scenario.ini ...

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread counts set to 1. It makes the calls `dvns1d run` and
`dvns1d sweep` make: harness.load_config on the INI, then
harness.run_scenario or harness.sweep. `setup` mode stops after
load_config. Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import time

T_START = time.perf_counter()


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ini", required=True)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--work", help="directory the artifacts are written to (measure mode)")
    ap.add_argument("--spans", help="file the last traced call's spans go to")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _setup(args):
    """Import the package and load the config, timing both."""
    from pathlib import Path

    t0 = time.perf_counter()
    import dvns1d
    from dvns1d import harness
    t1 = time.perf_counter()
    if not Path(dvns1d.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"dvns1d was imported from {dvns1d.__file__}, not from {args.src}")
    scenario = harness.load_config(args.ini)
    t2 = time.perf_counter()
    ready_ns = time.monotonic_ns()
    return scenario, {"import_s": t1 - t0, "load_config_s": t2 - t1,
                      "interpreter_s": t0 - T_START, "ready_ns": ready_ns}


# per-layer metrics that are exact counts and must repeat call after call
EXACT_COUNTS = (".calls", ".steps", "probe_steps", "frames", "artifact_files", "artifact_bytes")


def layer_metrics(table: dict, steps: int, wall: float, load_table: dict,
                  artifact_files: int, artifact_bytes: int) -> dict:
    """The per-layer metrics of one traced entry call."""
    from spans import layer_self

    def calls(*names):
        return sum(table[n]["calls"] for n in names if n in table)

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def own(*names):
        return sum(table[n]["self_s"] for n in names if n in table)

    def us_per_call(seconds, n):
        return seconds / n * 1e6 if n else 0.0

    layers = layer_self(table)
    step = ("solver.step_u", "solver.step_v")
    m = {}
    for name in ("kernels.rhs_u", "kernels.rhs_v", "kernels.stability_terms"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = us_per_call(total(name), calls(name))
    m["kernels.self_s"] = layers.get("kernels", 0.0)
    m["solver.steps"] = steps
    m["solver.step.calls"] = calls(*step)
    m["solver.probe_steps"] = calls(*step) - steps
    m["solver.step.us_per_call"] = us_per_call(total(*step), calls(*step))
    m["solver.step.self_us_per_call"] = us_per_call(own(*step), calls(*step))
    m["solver.cfl_dt.calls"] = calls("solver.cfl_dt")
    m["solver.cfl_dt.calls_per_step"] = calls("solver.cfl_dt") / steps if steps else 0.0
    m["solver.run.self_s"] = own("solver.run")
    m["solver.conversions.calls"] = calls("solver.effective_velocity", "solver.recover_u")
    m["solver.self_s"] = layers.get("solver", 0.0)
    m["diagnostics.frames"] = calls("diagnostics.collect")
    for name in ("diagnostics.collect", "diagnostics.reciprocal_residual"):
        m[f"{name}.us_per_call"] = us_per_call(total(name), calls(name))
    m["diagnostics.gronwall_bound_v.s"] = total("diagnostics.gronwall_bound_v")
    m["diagnostics.self_s"] = layers.get("diagnostics", 0.0)
    m["diagnostics.frame_s"] = total("solver.emit")
    harness_self = layers.get("harness", 0.0)
    m["harness.self_s"] = harness_self
    m["harness.artifact_files"] = artifact_files
    m["harness.artifact_bytes"] = artifact_bytes
    m["harness.write_MB_per_s"] = artifact_bytes / 1e6 / harness_self if harness_self > 0 else 0.0
    # load_config validates by building the initial data once more
    m["harness.build_initial.calls"] = calls("harness.build_initial") + load_table.get(
        "harness.build_initial", {}).get("calls", 0)
    m["trace.accounted_frac"] = sum(layers.values()) / wall
    return m


def _alloc_probe(scenario) -> dict:
    """Peak bytes one fused RHS call holds above what was live before it."""
    import tracemalloc

    import dvns1d
    from dvns1d import harness, kernels

    mesh = dvns1d.build_mesh(scenario.L, scenario.N)
    profile = dvns1d.background_profile(mesh, scenario.rho_minus, scenario.rho_plus)
    su = harness.build_initial(scenario, mesh, profile)
    sv = dvns1d.effective_velocity(su, mesh, scenario.params)
    p = scenario.params
    rest = (mesh.dx, p.alpha, p.gamma, p.a, p.mu0, p.visc_floor)
    out = {}
    for name, state in (("rhs_u", su), ("rhs_v", sv)):
        fn = getattr(kernels, name)
        fn(state.rho, state.vel, *rest)  # first call allocates interpreter caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn(state.rho, state.vel, *rest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"kernels.{name}.alloc_bytes_per_cell"] = (peak - base) / mesh.N
    return out


def _measure(args, scenario, setup) -> dict:
    import resource
    import shutil
    import statistics
    import traceback
    from pathlib import Path

    import checks
    import spans
    from hostspeed import HostProbe, scaled
    from workloads import WORKLOADS, expected_frames

    from dvns1d import diagnostics, harness, kernels, solver

    modules = {"kernels": kernels, "solver": solver, "diagnostics": diagnostics, "harness": harness}
    wl = WORKLOADS[args.workload]
    frames = expected_frames(wl)
    forms = ["U", "V"] if wl.run["solver_form"] == "both" else [wl.run["solver_form"]]
    if wl.kind == "run":
        entry, entry_span = harness.run_scenario, "harness.run_scenario"
        ops_per_call = len(forms)

        def call(fn, out):
            return fn(scenario, out)

        def check(files):
            return checks.check_run(files, forms, frames, wl.grid["N"])
    else:
        entry, entry_span = harness.sweep, "harness.sweep"
        points = ops_per_call = len(wl.alpha_grid) * len(wl.gamma_grid)

        def call(fn, out):
            return fn(scenario, list(wl.alpha_grid), list(wl.gamma_grid), out)

        def check(files):
            return checks.check_sweep(files, points)

    work = Path(args.work)
    probe = HostProbe()
    walls, traced_walls, layer_rows, problems = [], [], [], []
    scaled_walls, scaled_traced, probes = [], [], [probe.run()]
    ops = failed = 0
    first = None  # digest, file count, byte count and check values of the first call
    digests_agree = True
    last_spans = None
    min_calls = 4 if args.trace else 3
    t_begin = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t_begin
        typical = statistics.median(walls + traced_walls) if walls or traced_walls else 0.0
        if k >= min_calls and elapsed + typical > args.seconds:
            break
        traced = bool(args.trace) and k % 2 == 1
        out = work / f"call{k}"
        try:
            if traced:
                load_tracer = spans.Tracer()
                with spans.patched(load_tracer, modules):
                    harness.load_config(args.ini)
                tracer = spans.Tracer()
                with spans.patched(tracer, modules):
                    fn = tracer.wrap(entry_span, entry)
                    t0 = time.perf_counter()
                    code = call(fn, out)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                code = call(entry, out)
                wall = time.perf_counter() - t0
            probes.append(probe.run())
            files = checks.read_dir(out)
        except Exception:  # the program failed: every op of this call counts as failed
            problems.append(f"call {k}: {traceback.format_exc(limit=3)}")
            ops += ops_per_call
            failed += ops_per_call
            shutil.rmtree(out, ignore_errors=True)
            k += 1
            continue
        shutil.rmtree(out, ignore_errors=True)
        result = check(files)
        digest = checks.digest(files)
        nbytes = sum(len(b) for b in files.values())
        if first is None:
            first = {"digest": digest, "artifact_files": len(files), "artifact_bytes": nbytes,
                     "values": result["values"]}
        bad = result["failed"]
        if code != 0:
            result["problems"]["exit"] = [f"entry call returned {code!r}"]
            bad = result["ops"]
        elif digest != first["digest"]:
            digests_agree = False
            result["problems"]["digest"] = ["artifacts differ from the first call's"]
            bad = result["ops"]
        ops += result["ops"]
        failed += bad
        if result["problems"]:
            problems.append(f"call {k}: {json.dumps(result['problems'])}")
        if traced:
            traced_walls.append(wall)
            scaled_traced.append(scaled(wall, probes[-2], probes[-1]))
            span_list = tracer.spans()
            layer_rows.append(layer_metrics(
                spans.summarise(span_list), tracer.steps_taken, wall,
                spans.summarise(load_tracer.spans()), len(files), nbytes))
            last_spans = span_list
        else:
            walls.append(wall)
            scaled_walls.append(scaled(wall, probes[-2], probes[-1]))
        k += 1

    report = {
        "setup": setup,
        "walls": walls,
        "traced_walls": traced_walls,
        "scaled_walls": scaled_walls,
        "scaled_traced_walls": scaled_traced,
        "probes": probes,
        "ops": ops,
        "failed": failed,
        "problems": problems[:10],
        "digests_agree": digests_agree,
        "first": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if layer_rows:
        counts_agree = all(
            row[key] == layer_rows[0][key]
            for row in layer_rows for key in row if key.endswith(EXACT_COUNTS)
        )
        layers = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        layers.update(_alloc_probe(scenario))
        report.update(layers=layers, counts_agree=counts_agree)
        if args.spans and last_spans is not None:
            spans.write_spans(args.spans, last_spans)
    return report


def main(argv=None) -> int:
    import warnings

    args = _args(argv)
    with warnings.catch_warnings():
        # exploration-mode points warn on purpose; the benchmark's checks
        # read the artifacts instead
        warnings.simplefilter("ignore")
        scenario, setup = _setup(args)
        if args.mode == "setup":
            from hostspeed import HostProbe

            report = dict(setup, probe_s=HostProbe().run())
        else:
            report = _measure(args, scenario, setup)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
