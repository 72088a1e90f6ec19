"""In-memory spans around the calls into each dvns1d layer.

The package looks its layer functions up as module attributes at call time
(`kernels.rhs_u`, `solver.step_u`, `diagnostics.collect`, ...), so replacing
those attributes with timing wrappers traces every call without touching the
package source. Spans are kept in flat lists while the traced call runs and
are summarised, or written out, after it returns.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

# (module name, attribute, span name). A span name's prefix is its layer.
# effective_velocity is bound twice: harness imports it by name.
TARGETS = (
    ("kernels", "rhs_u", "kernels.rhs_u"),
    ("kernels", "rhs_v", "kernels.rhs_v"),
    ("kernels", "stability_terms", "kernels.stability_terms"),
    ("solver", "run", "solver.run"),
    ("solver", "step_u", "solver.step_u"),
    ("solver", "step_v", "solver.step_v"),
    ("solver", "cfl_dt", "solver.cfl_dt"),
    ("solver", "effective_velocity", "solver.effective_velocity"),
    ("solver", "recover_u", "solver.recover_u"),
    ("solver", "_emit", "solver.emit"),
    ("diagnostics", "collect", "diagnostics.collect"),
    ("diagnostics", "reciprocal_residual", "diagnostics.reciprocal_residual"),
    ("diagnostics", "gronwall_bound_v", "diagnostics.gronwall_bound_v"),
    ("harness", "build_initial", "harness.build_initial"),
    ("harness", "effective_velocity", "solver.effective_velocity"),
)


class Tracer:
    """Records (name, start, end, parent index) for every wrapped call."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.steps_taken = 0  # sum of Trajectory.steps returned by solver.run
        self._stack = [-1]

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter
        count_steps = name == "solver.run"

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_steps:
                self.steps_taken += result.steps
            return result

        return traced

    def spans(self) -> list:
        return list(zip(self.names, self.starts, self.ends, self.parents))


@contextlib.contextmanager
def patched(tracer: Tracer, modules: dict, targets=TARGETS):
    """Replace each target attribute by a traced wrapper; restore on exit.

    A target the package no longer has is skipped, so its counts read 0.
    """
    saved = []
    try:
        for mod_name, attr, span_name in targets:
            module = modules[mod_name]
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    `spans` is a list of (name, start, end, parent index), parent -1 for a
    root. Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarise(spans) -> dict:
    """Per span name: calls, total seconds, self seconds."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, selfs):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return dict(table)


def layer_self(table: dict) -> dict:
    """Self seconds summed per layer (the span name's prefix)."""
    out = defaultdict(float)
    for name, row in table.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return dict(out)


def write_spans(path, spans) -> None:
    """One span per line: index, parent, name, start and end in seconds."""
    with open(path, "w") as fh:
        fh.write("index,parent,name,start_s,end_s\n")
        for idx, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{idx},{parent},{name},{start!r},{end!r}\n")
