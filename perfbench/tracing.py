"""Spans around the calls into each weakkam layer, and their reduction.

Tracing happens entirely in the benchmark: ``install`` rebinds the names each
calling module looks up (``weakkam.harness.peierls_barrier``,
``weakkam.mather.solve_standard_form``, ``weakkam.action_barrier.barrier_step``
and so on) to wrappers that record a span per call. A span holds its name,
start, end, parent span, thread and the run's identifier, plus a few counts
taken from the call's arguments and result. Spans stay in memory and are
written once, when the run ends.

``layer_metrics`` turns the spans of one run into the per-layer metrics the
benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

# (module, name, span name): every rebinding the tracer makes. A function a
# module imported by name is rebound in that module, so the same function can
# appear under several callers.
_WRAPPED = [
    ("harness", "stability_bounds", "models.stability_bounds"),
    ("harness", "make_stencil", "models.make_stencil"),
    ("harness", "build_kernel", "action_barrier.build_kernel"),
    ("discounted", "build_kernel", "action_barrier.build_kernel"),
    ("harness", "peierls_barrier", "action_barrier.peierls_barrier"),
    ("action_barrier", "barrier_step", "action_barrier.barrier_step"),
    ("harness", "aubry_report", "action_barrier.aubry_report"),
    ("harness", "critical_value_estimate", "discounted.critical_value_estimate"),
    ("harness", "solve_discounted", "discounted.solve_discounted"),
    ("discounted", "solve_discounted", "discounted.solve_discounted"),
    ("mather", "discounted_occupation_measure", "discounted.discounted_occupation_measure"),
    ("harness", "min_mean_cycle", "mather.min_mean_cycle"),
    ("harness", "solve_mather_lp", "mather.solve_mather_lp"),
    ("harness", "compute_u0", "mather.compute_u0"),
    ("harness", "u0_mechanical", "mather.u0_mechanical"),
    ("harness", "verify_limit", "mather.verify_limit"),
    ("mather", "solve_standard_form", "simplex.solve_standard_form"),
    ("io", "write_csv", "io.write_csv"),
    ("io", "write_json", "io.write_json"),
    ("io", "write_values_binary", "io.write_values_binary"),
    ("io", "write_barrier", "io.write_barrier"),
    ("io", "measure_to_csv", "io.measure_to_csv"),
]

# point evaluations counted while a stability_bounds span is open
_COUNTED = ["eval_hamiltonian", "eval_lagrangian"]


def _counts(name, args, kwargs, result):
    """Counts a span carries, read from its call's arguments and result."""
    if name == "models.make_stencil":
        return {"offsets": result.num_offsets}
    if name == "action_barrier.build_kernel":
        return {"edges": result.num_nodes * result.num_offsets}
    if name == "action_barrier.barrier_step":
        kernel, h = args[0], args[1]
        return {"rows": h.shape[0], "updates": h.shape[0] * h.shape[1] * kernel.num_offsets}
    if name == "action_barrier.peierls_barrier":
        return {"rows": result.values.shape[0]}
    if name == "discounted.solve_discounted":
        return {"sweeps": result.iterations}
    if name == "mather.solve_mather_lp":
        return {"pivots": result.iterations}
    if name == "simplex.solve_standard_form":
        rows, cols = args[0].shape
        warm = kwargs.get("basis", args[3] if len(args) > 3 else None) is not None
        return {"pivots": result.iterations, "cells": rows * cols, "warm": warm}
    return {}


class Recorder:
    """In-memory span store for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._stacks: dict[int, list[dict]] = {}

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            # a pool worker's first span is caused by the span its submitter
            # has open on the main thread
            main = self._stacks.get(self._main) or []
            parent = main[-1]["id"] if main else None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "thread": threading.get_ident(),
            "run": self.run_id,
            "counts": {},
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def innermost(self, name: str) -> dict | None:
        for span in reversed(self._stack()):
            if span["name"] == name:
                return span
        return None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span["counts"].update(_counts(name, args, kwargs, result))
            return result

        return traced

    def count_points(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            bounds = self.innermost("models.stability_bounds")
            if bounds is not None:
                bounds["counts"]["points"] = bounds["counts"].get("points", 0) + len(result)
            return result

        return counted

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


def install(recorder: Recorder) -> None:
    """Rebind every traced name in the weakkam modules to a span wrapper."""
    import importlib

    for module, attr, name in _WRAPPED:
        mod = importlib.import_module(f"weakkam.{module}")
        setattr(mod, attr, recorder.wrap(name, getattr(mod, attr)))
    models = importlib.import_module("weakkam.models")
    for attr in _COUNTED:
        setattr(models, attr, recorder.count_points(getattr(models, attr)))


# ---------------------------------------------------------------------------
# reduction


def _union_length(intervals, lo, hi) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _union_length(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


LAYERS = ("models", "action_barrier", "discounted", "mather", "simplex", "io", "harness")


def layer_metrics(spans: list[dict], workers: int, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in seconds)."""
    by_id = {s["id"]: s for s in spans}

    def named(name, parent=None):
        out = [s for s in spans if s["name"] == name]
        if parent is not None:
            out = [s for s in out if s["parent"] is not None and by_id[s["parent"]]["name"] == parent]
        return out

    def busy(group):
        return sum((s["end"] - s["start"] for s in group), 0.0)

    def total(group, key):
        return sum(s["counts"].get(key, 0) for s in group)

    selfs = self_times(spans)
    bounds = named("models.stability_bounds")
    stencils = named("models.make_stencil")
    kernels = named("action_barrier.build_kernel")
    peierls = named("action_barrier.peierls_barrier")
    steps = named("action_barrier.barrier_step")
    critical = named("discounted.critical_value_estimate")
    lps = named("mather.solve_mather_lp")
    u0 = named("mather.compute_u0")
    simplex = named("simplex.solve_standard_form")
    u0_solves = named("simplex.solve_standard_form", parent="mather.compute_u0")
    u0_targets = [s for s in u0_solves if s["counts"]["warm"]]
    schedule = named("discounted.solve_discounted", parent="harness.cli_dispatch")
    top_io = [s for s in spans if s["name"].startswith("io.")
              and not (s["parent"] and by_id[s["parent"]]["name"].startswith("io."))]

    peierls_s = busy(peierls)
    barrier_rows = total(peierls, "rows")
    pivots = total(simplex, "pivots")
    metrics = {
        "models.bounds_s": busy(bounds),
        "models.bounds_points": total(bounds, "points"),
        "models.stencil_offsets": stencils[-1]["counts"]["offsets"] if stencils else 0,
        "action_barrier.kernel_s": busy(kernels),
        "action_barrier.edges": kernels[-1]["counts"]["edges"] if kernels else 0,
        "action_barrier.peierls_s": peierls_s,
        "action_barrier.barrier_steps": total(steps, "rows") / barrier_rows if barrier_rows else 0,
        "action_barrier.minplus_updates": total(steps, "updates"),
        # computed, not measured: per update the gather reads one f64, the add
        # writes a temporary, and the running minimum reads it and reads and
        # writes the output
        "action_barrier.minplus_bytes_computed": 40 * total(steps, "updates"),
        "action_barrier.worker_busy_frac": busy(steps) / (workers * peierls_s) if peierls_s else 0.0,
        "action_barrier.aubry_s": busy(named("action_barrier.aubry_report")),
        "discounted.critical_s": busy(critical),
        "discounted.sweeps_c0": total(
            named("discounted.solve_discounted", parent="discounted.critical_value_estimate"), "sweeps"
        ),
        "discounted.solve_s": busy(schedule),
        "discounted.sweeps": total(schedule, "sweeps"),
        "discounted.occupation_s": busy(named("discounted.discounted_occupation_measure")),
        "mather.karp_s": busy(named("mather.min_mean_cycle")),
        "mather.lp_s": busy(lps),
        "mather.lp_pivots": total(lps, "pivots"),
        "mather.u0_s": busy(u0),
        "mather.u0_base_pivots": total([s for s in u0_solves if not s["counts"]["warm"]], "pivots"),
        "mather.u0_target_pivots": total(u0_targets, "pivots"),
        "mather.u0_warm_hit_frac": (
            sum(s["counts"]["pivots"] <= 1 for s in u0_targets) / len(u0_targets) if u0_targets else 0.0
        ),
        "mather.u0_target_s_max": max((s["end"] - s["start"] for s in u0_targets), default=0.0),
        "mather.verify_s": busy(named("mather.verify_limit")),
        "simplex.calls": len(simplex),
        "simplex.pivots": pivots,
        "simplex.busy_s": busy(simplex),
        "simplex.ms_per_pivot": 1000.0 * busy(simplex) / pivots if pivots else 0.0,
        "simplex.lp_cells": max((s["counts"]["cells"] for s in simplex), default=0),
        "io.write_s": busy(top_io),
        "io.bytes_written": output_bytes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            (selfs[s["id"]] for s in spans if s["name"].split(".")[0] == layer), 0.0
        )
    return metrics


def load(path) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def output_size(directory) -> int:
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(directory)
        for f in files
    )
