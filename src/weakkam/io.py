"""Flat-file artifact formats: CSV tables, raw f64 dumps, JSON sidecars.

Floats are printed with 17 significant digits so every CSV value round-trips
to the exact double it came from; binary dumps are little-endian float64.
All writers are deterministic given identical inputs.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .action_barrier import BarrierMatrix
from .errors import WeakKamError

__all__ = [
    "fmt",
    "write_json",
    "write_barrier",
    "read_barrier",
    "write_values_binary",
    "read_values_binary",
    "write_solution",
    "trajectory_to_csv",
    "measure_to_csv",
    "write_csv",
]


def fmt(x) -> str:
    """Render a float with 17 significant digits (exact f64 round-trip)."""
    return f"{float(x):.17g}"


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_values_binary(path, values: np.ndarray) -> None:
    np.asarray(values, dtype="<f8").ravel().tofile(path)


def read_values_binary(path, count: int | None = None) -> np.ndarray:
    """The f64 values of a file of count values, or of any whole number of
    them; a file of another size, a trailing partial value included, raises."""
    size = os.path.getsize(path)
    if size % 8 or (count is not None and size != 8 * count):
        expected = "a whole number of" if count is None else f"{count}"
        raise WeakKamError(f"{path}: expected {expected} f64 values, found {size} bytes")
    return np.fromfile(path, dtype="<f8")


def write_barrier(barrier: BarrierMatrix, base_path) -> None:
    """Write <base>.bin (little-endian f64, row-major) plus a JSON sidecar."""
    base = os.fspath(base_path)
    write_values_binary(base + ".bin", barrier.values)
    sidecar = {
        "rows": int(barrier.values.shape[0]),
        "cols": int(barrier.values.shape[1]),
        "tau": barrier.tau,
        "c": barrier.c,
        "steps": barrier.steps,
        "residual": barrier.residual,
        "stable": barrier.stable,
        "dtype": "<f8",
        "order": "C",
    }
    write_json(base + ".json", sidecar)


def read_barrier(base_path) -> BarrierMatrix:
    base = os.fspath(base_path)
    with open(base + ".json") as fh:
        meta = json.load(fh)
    values = read_values_binary(base + ".bin", meta["rows"] * meta["cols"])
    return BarrierMatrix(
        values=values.reshape(meta["rows"], meta["cols"]),
        tau=meta["tau"],
        c=meta["c"],
        steps=meta["steps"],
        residual=meta["residual"],
        stable=meta["stable"],
    )


def write_solution(sol, base_path) -> None:
    """DiscountedSolution metadata as JSON plus a binary value dump."""
    base = os.fspath(base_path)
    write_values_binary(base + ".bin", sol.values.values)
    write_json(
        base + ".json",
        {
            "lambda": sol.lam,
            "tau": sol.tau,
            "c": sol.c,
            "beta": sol.beta,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "tol": sol.tol,
            "nodes": int(sol.grid.num_nodes),
            "sizes": list(sol.grid.sizes),
            "dtype": "<f8",
        },
    )


def trajectory_to_csv(traj, stencil, path) -> None:
    def gen():
        for step, (node, k, speed) in enumerate(zip(traj.nodes, traj.offsets, traj.speeds)):
            off = stencil.offsets[int(k)]
            yield (step, int(node), " ".join(str(o) for o in off), float(speed))
    write_csv(path, ["step", "node", "offset", "speed"], gen())


def measure_to_csv(measure, path) -> None:
    """Edge-measure rows: tail node, per-axis offset columns, weight."""
    dim = measure.grid.dim
    header = ["tail_node"] + [f"offset_{a}" for a in range(dim)] + ["weight"]
    def gen():
        for tail, k, w in zip(measure.tails, measure.offset_ids, measure.weights):
            off = measure.stencil.offsets[int(k)]
            yield (int(tail), *[int(o) for o in off], float(w))
    write_csv(path, header, gen())
