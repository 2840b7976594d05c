"""The benchmark's workloads: seeded configs, reference values and the gate.

Each workload is one ``weakkam`` subcommand on a generated config. The seed
draws the potential amplitude ``a`` uniformly from [0.9, 1.1] (seed 0 gives
``a = 1``, the shipped problems); the program sees only the config file and
its command-line arguments. Every workload has a closed-form reference value
in ``a``, so each run is checked against the analytic answer as well as
against the program's own cross-checks.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import struct
from dataclasses import dataclass
from typing import Callable

AMPLITUDE_RANGE = (0.9, 1.1)
REF_TOL = 0.05          # the acceptance suite's tolerance on analytic references
LP_VS_CYCLE_TOL = 1e-8
U0_AGREE_TOL = 1e-5
KARP_TOL = 1e-9


def amplitude(seed: int) -> float:
    """Potential amplitude for a seed; seed 0 is the shipped problem."""
    if seed == 0:
        return 1.0
    return random.Random(seed).uniform(*AMPLITUDE_RANGE)


def _mechanical(sizes, amplitudes, frequencies, schedule, discretization=None) -> dict:
    config = {
        "problem": {
            "family": "mechanical",
            "dim": len(sizes),
            "sizes": list(sizes),
            "potential": {"name": "cosine", "amplitudes": amplitudes, "frequencies": frequencies},
        },
        "schedule": schedule,
    }
    if discretization:
        config["discretization"] = discretization
    return config


@dataclass(frozen=True)
class Outcome:
    """What the gate needs from one finished run's artifacts."""

    exit_code: int
    karp_c: float | None = None
    barrier_stable: bool | None = None
    reference: float | None = None      # the measured value checked against the closed form
    flags: dict | None = None           # report.json flags by name, converge runs only
    plateau: float | None = None
    tau: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                        # weakkam subcommand
    config: Callable[[float], dict]     # amplitude -> config document (no output_dir)
    max_v: Callable[[float], float]     # analytic critical value c(H) = max V
    reference_name: str
    measure: Callable[[str, dict | None], float]  # (output dir, report) -> reference value
    expected: Callable[[float, Outcome], float]   # its closed form in a

    def write_config(self, a: float, path, output_dir) -> None:
        document = dict(self.config(a), output_dir=os.fspath(output_dir))
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")


# grid sizes are scaled so one run of each takes a few seconds on a 2-core
# machine and a timed run holds several; the stressed layer keeps its share
PENDULUM_N = 300
TWO_WELL_N = 120
TORUS_N = 8

WORKLOADS = [
    Workload(
        name=f"pendulum-{PENDULUM_N}-barrier",
        why=(
            "weakkam peierls, V = a cos 2 pi x: the windowed Peierls barrier is most of the run, "
            "no LP or discounted solve, and the full n x n barrier.bin must be written"
        ),
        command="peierls",
        config=lambda a: _mechanical(
            [PENDULUM_N], [a], [1.0],
            {"lambdas": [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125,
                         0.00390625, 0.001953125],
             "critical_lambdas": [0.2, 0.1, 0.05, 0.025], "u0_targets": 16},
            {"tau_rule": "sqrt_h"},
        ),
        max_v=lambda a: a,
        reference_name="h(0, 1/2)",
        measure=lambda out_dir, report: _barrier_entry(out_dir, 0, PENDULUM_N // 2),
        # Maupertuis action between the two rest points: int_0^1/2 sqrt(2a(1 - cos 2 pi x)) dx
        expected=lambda a, out: 2.0 * math.sqrt(a) / math.pi,
    ),
    Workload(
        name="two-well-u0",
        why=(
            "weakkam converge, V = a cos 4 pi x, 8 u0 targets: the simplex (Mather LP, cold u0 "
            "basis, warm targets of which three sit in the wrong well) is most of the run"
        ),
        command="converge",
        config=lambda a: _mechanical(
            [TWO_WELL_N], [a], [2.0],
            {"lambdas": [0.25, 0.125, 0.0625, 0.03125],
             "critical_lambdas": [0.2, 0.1, 0.05, 0.025], "u0_targets": 8},
        ),
        max_v=lambda a: a,
        reference_name="u0(1/4)",
        measure=lambda out_dir, report: _u0_at(out_dir, TWO_WELL_N // 4),
        # action from the nearest maximum of V: int_0^1/4 sqrt(2a(1 - cos 4 pi x)) dx
        expected=lambda a, out: math.sqrt(a) / math.pi,
    ),
    Workload(
        name="torus-2d",
        why=(
            "weakkam converge, 2-D torus, V = a(cos 2 pi x0 + cos 2 pi x1): sampled stability "
            "bounds dominate; the default lambda schedule is kept, so the known ineq_prim defect "
            "shows as exit 2"
        ),
        command="converge",
        config=lambda a: _mechanical(
            [TORUS_N, TORUS_N], [a, a], [1.0, 1.0], {"u0_targets": 8},
        ),
        max_v=lambda a: 2.0 * a,
        reference_name="c_cross",
        measure=lambda out_dir, report: report["c_cross"],
        expected=lambda a, out: 2.0 * a,
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS}


# ---------------------------------------------------------------------------
# reading a run's artifacts


def _barrier_entry(out_dir, row: int, col: int) -> float:
    with open(os.path.join(out_dir, "barrier.json")) as fh:
        cols = json.load(fh)["cols"]
    with open(os.path.join(out_dir, "barrier.bin"), "rb") as fh:
        fh.seek(8 * (row * cols + col))
        return struct.unpack("<d", fh.read(8))[0]


def _u0_at(out_dir, node: int) -> float:
    with open(os.path.join(out_dir, "u0.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            if int(row["node"]) == node:
                return float(row["value"])
    raise ValueError(f"u0.csv has no node {node}")


def read_outcome(workload: Workload, out_dir, exit_code: int) -> Outcome:
    """Parse the artifacts of a run that exited 0 (pass) or 2 (verdict fail)."""
    if exit_code not in (0, 2):
        return Outcome(exit_code=exit_code)
    if workload.command == "peierls":
        with open(os.path.join(out_dir, "barrier.json")) as fh:
            sidecar = json.load(fh)
        return Outcome(
            exit_code=exit_code,
            karp_c=sidecar["c"],
            barrier_stable=sidecar["stable"],
            reference=workload.measure(out_dir, None),
        )
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    flags = {f["name"]: f for f in report["flags"]}
    return Outcome(
        exit_code=exit_code,
        karp_c=report["c_cross"],
        barrier_stable=report["barrier_stable"],
        reference=workload.measure(out_dir, report),
        flags=flags,
        plateau=report["plateau"],
        tau=report["bounds"]["tau"],
    )


def ref_err(workload: Workload, a: float, outcome: Outcome) -> float:
    expected = workload.expected(a, outcome)
    return abs(outcome.reference - expected) / abs(expected)


def gate(workload: Workload, a: float, outcome: Outcome) -> list[str]:
    """Correctness checks a run must pass; returns the checks it missed.

    Exit code 2 is the program's own verification verdict: the run still
    completed and is checked here like any other, and the verdict itself is
    counted separately by the caller.
    """
    if outcome.exit_code not in (0, 2):
        return [f"exit code {outcome.exit_code}"]
    missed = []
    c_ref = workload.max_v(a)
    if abs(outcome.karp_c - c_ref) > KARP_TOL * max(1.0, abs(c_ref)):
        missed.append(f"Karp c {outcome.karp_c!r} != max V {c_ref!r}")
    if not outcome.barrier_stable:
        missed.append("barrier_stable")
    err = ref_err(workload, a, outcome)
    if not err <= REF_TOL:
        missed.append(f"ref_err {err:.3g} on {workload.reference_name} > {REF_TOL}")
    if outcome.flags is not None:
        for name, tol in (("lp_vs_min_mean_cycle", LP_VS_CYCLE_TOL), ("u0_methods_agree", U0_AGREE_TOL)):
            flag = outcome.flags.get(name)
            if flag is None or not flag["measured"] <= tol:
                missed.append(f"{name} {flag and flag['measured']!r} > {tol}")
    return missed


def free_workload(root) -> Workload:
    """The shipped free-particle config (n = 32), used by the smoke mode.

    A discrete free particle at c = 0 pays h/(2 tau) per node it moves, so the
    barrier between antipodal nodes is exactly (1/2) * h / (2 tau).
    """
    with open(os.path.join(root, "configs", "free.json")) as fh:
        shipped = json.load(fh)
    shipped.pop("output_dir", None)
    n = shipped["problem"]["sizes"][0]
    return Workload(
        name="free",
        why="smoke test: the shipped free-particle config",
        command="converge",
        config=lambda a: json.loads(json.dumps(shipped)),
        max_v=lambda a: 0.0,
        reference_name="h(0, 1/2)",
        measure=lambda out_dir, report: _barrier_entry(out_dir, 0, n // 2),
        expected=lambda a, out: 0.25 / (n * out.tau),
    )
