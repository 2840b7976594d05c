"""Experiment configuration, the end-to-end pipeline, and the CLI.

A single JSON document describes the problem, the discretization, and the
lambda schedule; ``run_pipeline`` executes bounds -> stencil -> ergodic
critical-value estimate -> kernel at the exact critical shift -(minimum cycle
mean) -> barrier -> Aubry/classes -> Mather LP -> u0 -> discounted solves ->
verification, writing every artifact to the output directory as it is
produced so failures keep their partial results. Timings go to their own
file so report.json stays byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import io
from .action_barrier import (
    TOL_STABLE,
    aubry_report,
    build_kernel,
    peierls_barrier,
    tight_subgraph,
    verify_subsolution,
)
from .discounted import backward_trajectory, critical_value_estimate, solve_discounted
from .errors import ConfigError, WeakKamError
from .mather import (
    TOL_CONSTRAINT,
    CheckResult,
    compute_u0,
    cycle_marginals,
    min_mean_cycle,
    solve_mather_lp,
    u0_critical_cycles,
    u0_mechanical,  # not called here: perfbench/tracing.py and the stage-call test getattr it
    verify_limit,
)
from .models import (
    GridFunction,
    build_grid,
    cosine_potential,
    default_time_step,
    eval_hamiltonian,
    make_stencil,
    mechanical,
    read_potential_table,
    stability_bounds,
    table_potential,
    zero_potential,
)

__all__ = [
    "ProblemConfig",
    "DiscretizationConfig",
    "ScheduleConfig",
    "ExperimentConfig",
    "RunReport",
    "load_config",
    "run_pipeline",
    "cli_dispatch",
    "main",
]

REPORT_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFICATION = 2
EXIT_USAGE = 64

# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ProblemConfig:
    family: str = "mechanical"
    dim: int = 1
    sizes: tuple[int, ...] = (32,)
    potential: dict = field(default_factory=lambda: {"name": "zero"})
    drift: tuple[float, ...] | None = None


@dataclass(frozen=True)
class DiscretizationConfig:
    tau_rule: str = "sqrt_h"       # or "explicit"
    tau: float | None = None
    stencil_k: int | None = None
    alpha: float | None = None     # override the computed velocity bound
    v_search: float | None = None


@dataclass(frozen=True)
class ScheduleConfig:
    lambdas: tuple[float, ...] = (0.5, 0.25, 0.125, 0.0625)
    critical_lambdas: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    u0_targets: int | tuple[int, ...] | None = 16


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    output_dir: str = "out"
    threads: int = 1

    def validate(self) -> "ExperimentConfig":
        p, d, s = self.problem, self.discretization, self.schedule
        for block, prefix in ((self, ""), (p, "problem."), (d, "discretization."),
                              (s, "schedule.")):
            _check_types(block, prefix)
        if p.family not in ("mechanical", "transport"):
            raise ConfigError(f"unknown family {p.family!r}")
        if p.dim not in (1, 2) or len(p.sizes) != p.dim:
            raise ConfigError("dim must be 1 or 2 with matching sizes")
        if any(size < 2 for size in p.sizes):
            raise ConfigError("problem.sizes must be at least 2")
        _check_potential(p)
        if p.drift is not None and len(p.drift) != p.dim:
            raise ConfigError("problem.drift must be a vector of length dim")
        if p.family == "transport":
            if p.drift is None:
                raise ConfigError("transport family needs a problem.drift")
            if p.potential.get("name", "zero") != "zero":
                raise ConfigError("transport family takes no problem.potential other than zero")
        if d.tau_rule not in ("sqrt_h", "explicit"):
            raise ConfigError(f"unknown tau rule {d.tau_rule!r}")
        if d.tau_rule == "explicit" and d.tau is None:
            raise ConfigError("explicit tau rule needs a positive tau")
        if d.tau_rule != "explicit" and d.tau is not None:
            raise ConfigError("discretization.tau is only read when tau_rule is 'explicit'")
        for name in ("alpha", "v_search", "tau", "stencil_k"):
            value = getattr(d, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"discretization.{name} must be positive, got {value!r}")
        for name in ("lambdas", "critical_lambdas"):
            bad = [l for l in getattr(s, name) if not 0 < l < math.inf]
            if bad:
                raise ConfigError(f"schedule.{name}: lambdas must be positive and finite, "
                                  f"got {bad[0]!r}")
        lam = s.lambdas
        if len(lam) < 1 or any(b >= a for a, b in zip(lam, lam[1:])):
            raise ConfigError("schedule.lambdas must be strictly decreasing")
        # the critical estimate extrapolates the last three entries to lambda = 0
        crit = s.critical_lambdas
        if len(crit) < 3 or any(b >= a for a, b in zip(crit, crit[1:])):
            raise ConfigError("schedule.critical_lambdas must hold at least 3 strictly "
                              "decreasing entries")
        # f"{lam:g}" names a stage and the discounted artifacts; %g rounds
        # monotonically, so only neighbours in a decreasing schedule can collide
        for a, b in zip(lam, lam[1:]):
            if f"{a:g}" == f"{b:g}":
                raise ConfigError(f"schedule.lambdas {a!r} and {b!r} share the label {a:g}")
        t, nodes = s.u0_targets, math.prod(p.sizes)
        bad_count = isinstance(t, int) and t < 1
        bad_nodes = isinstance(t, tuple) and not (t and all(0 <= x < nodes for x in t))
        if bad_count or bad_nodes:
            raise ConfigError(f"schedule.u0_targets must be a count >= 1 or nodes in [0, {nodes})")
        if isinstance(t, tuple) and len(set(t)) < len(t):
            twice = next(x for i, x in enumerate(t) if x in t[:i])
            raise ConfigError(f"schedule.u0_targets lists node {twice} more than once")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if "\0" in self.output_dir:
            raise ConfigError(f"output_dir must be a directory path, got {self.output_dir!r}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        def pick(cls, name):
            block = raw.get(name)
            if block is None:
                return cls()
            if not isinstance(block, dict):
                raise ConfigError(f"{name} must be a JSON object")
            unknown = set(block) - set(cls.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown config keys {sorted(unknown)} in {cls.__name__}")
            coerced = {}
            for key, value in block.items():
                if isinstance(value, list):
                    value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
                coerced[key] = value
            return cls(**coerced)

        if not isinstance(raw, dict):
            raise ConfigError("a config must be a JSON object")
        unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        cfg = ExperimentConfig(
            problem=pick(ProblemConfig, "problem"),
            discretization=pick(DiscretizationConfig, "discretization"),
            schedule=pick(ScheduleConfig, "schedule"),
            output_dir=raw.get("output_dir", "out"),
            threads=raw.get("threads", 1),
        )
        return cfg.validate()


def _matches(value, annotation: str) -> bool:
    """Whether value fits one option of a field annotation, e.g. 'tuple[int, ...]'."""
    if annotation == "None":
        return value is None
    if annotation.startswith("tuple["):
        inner = annotation[len("tuple[") : -len(", ...]")]
        return isinstance(value, tuple) and all(_matches(v, inner) for v in value)
    kinds = {"int": int, "float": (int, float), "str": str, "dict": dict}[annotation]
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_types(block, prefix: str) -> None:
    """Reject a config field whose value fits none of its annotated types."""
    for f in fields(block):
        if f.type.endswith("Config"):
            continue
        value = getattr(block, f.name)
        if not any(_matches(value, option) for option in f.type.split(" | ")):
            raise ConfigError(f"{prefix}{f.name} must be {f.type}, got {value!r}")


# potential name -> the keys its block may set besides "name"
_POTENTIAL_KEYS = {
    "zero": (),
    "cosine": ("amplitudes", "frequencies", "amplitude", "frequency"),
    "table": ("path",),
}


def _finite(value) -> bool:
    return _matches(value, "float") and math.isfinite(value)


def _check_potential(p: ProblemConfig) -> None:
    """Reject a problem.potential block with unknown keys or mistyped values."""
    block = p.potential
    name = block.get("name", "zero")
    if not isinstance(name, str) or name not in _POTENTIAL_KEYS:
        raise ConfigError(f"unknown potential {name!r}")
    unknown = set(block) - {"name", *_POTENTIAL_KEYS[name]}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in problem.potential {name!r}")
    path = block.get("path")
    if name == "table" and not (isinstance(path, str) and "\0" not in path):
        raise ConfigError(f"problem.potential.path must be a file path, got {path!r}")
    for key in ("amplitude", "frequency"):
        if key in block and key + "s" in block:
            raise ConfigError(f"problem.potential sets both {key} and {key}s")
        one, many = block.get(key, 1.0), block.get(key + "s", [1.0])
        if not _finite(one):
            raise ConfigError(f"problem.potential.{key} must be a finite number, got {one!r}")
        if not (isinstance(many, (list, tuple)) and len(many) in (1, p.dim)
                and all(map(_finite, many))):
            raise ConfigError(
                f"problem.potential.{key}s must be a list of 1 or {p.dim} finite numbers, "
                f"got {many!r}"
            )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


def _build_spec(cfg: ProblemConfig, grid):
    name = cfg.potential.get("name", "zero")
    if name == "cosine":
        amps = cfg.potential.get("amplitudes", [cfg.potential.get("amplitude", 1.0)])
        freqs = cfg.potential.get("frequencies", [cfg.potential.get("frequency", 1.0)])
        potential = cosine_potential(amps, freqs)
    elif name == "table":
        potential = table_potential(grid, read_potential_table(cfg.potential["path"], grid))
    else:
        potential = zero_potential()
    return mechanical(potential, dim=cfg.dim, drift=cfg.drift)


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class RunReport:
    version: int
    config: dict
    bounds: dict
    c_est: float
    c_cross: float           # -min mean cycle
    cross_delta: float
    c_used: float
    critical_table: list
    spread_warning: bool
    barrier_residual: float
    barrier_stable: bool
    aubry_nodes: list
    mather_classes: list
    lp_value: float
    lp_vs_cycle: float
    u0_method: str
    u0_cross_delta: float
    counters: dict           # deterministic solver work: rounds and LP fallbacks
    convergence: list        # rows (lambda, sup_error, min_neg, max_neg, lipschitz)
    plateau: float
    flags: list              # dicts from CheckResult
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _u0_target_list(option, grid):
    if option is None:
        return np.arange(grid.num_nodes, dtype=np.int64)
    if isinstance(option, int):
        count = min(option, grid.num_nodes)
        spaced = np.linspace(0, grid.num_nodes, count, endpoint=False).astype(np.int64)
        return np.asarray(sorted(set(spaced.tolist())), dtype=np.int64)
    return np.asarray(sorted(int(t) for t in option), dtype=np.int64)


class _Run:
    """One run of the staged pipeline on a validated config.

    Each stage is an attribute computed on first use and then kept. A stage
    resolves its inputs first, so the time it records is its own; runs under
    its timings.json name, labelling a WeakKamError ``[stage <name>]``; and
    writes its artifact as soon as it has it, so failures keep their partial
    results. Nothing is written while ``out`` is None.
    """

    def __init__(self, config: ExperimentConfig, out_dir=None):
        self.config = config.validate()
        self.out = os.fspath(out_dir or self.config.output_dir)
        self.timings: dict[str, float] = {}
        self.rss_growth: dict[str, float] = {}  # MB each stage raised the peak RSS by
        self._solutions = {}

    def _timed(self, name, fn):
        start, peak = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            return fn()
        except WeakKamError as exc:
            raise WeakKamError(f"[stage {name}] {exc}") from exc
        finally:
            self.timings[name] = self.timings.get(name, 0.0) + time.perf_counter() - start
            grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak) / 1024  # KiB
            self.rss_growth[name] = self.rss_growth.get(name, 0.0) + grown

    def write(self, name, writer):
        """Call writer(path) for the artifact called name in the output directory."""
        if self.out is not None:
            os.makedirs(self.out, exist_ok=True)
            writer(os.path.join(self.out, name))

    @cached_property
    def grid(self):
        p = self.config.problem
        return self._timed("grid", lambda: build_grid(p.dim, p.sizes))

    @cached_property
    def _spec0(self):  # the spec before its velocity search box is set
        grid = self.grid
        return self._timed("spec", lambda: _build_spec(self.config.problem, grid))

    @cached_property
    def bounds(self):
        """Stability bounds at the level max |H(x, 0)| over the nodes."""
        grid, spec = self.grid, self._spec0

        def at_level():
            coords = grid.coordinates
            level = float(np.abs(eval_hamiltonian(spec, coords, np.zeros_like(coords))).max())
            return stability_bounds(spec, level, grid=grid)

        return self._timed("bounds", at_level)

    @cached_property
    def alpha(self):
        """The velocity bound: discretization.alpha, else the stability bounds'."""
        bounds, alpha = self.bounds, self.config.discretization.alpha
        return alpha if alpha is not None else bounds.alpha

    @cached_property
    def spec(self):
        """The spec with its velocity search box: v_search, else 2 alpha."""
        v_search = self.config.discretization.v_search
        return self._spec0.with_v_search(v_search if v_search is not None else 2.0 * self.alpha)

    @cached_property
    def stencil(self):
        d, s, grid, alpha = self.config.discretization, self.config.schedule, self.grid, self.alpha

        def build():
            tau = d.tau if d.tau_rule == "explicit" else default_time_step(grid, alpha)
            lam = min(s.lambdas + s.critical_lambdas)
            if math.exp(-lam * tau) == 1.0:  # no discount at any lambda of the run
                key = "tau" if d.tau_rule == "explicit" else "alpha"
                raise ConfigError(f"discretization.{key} gives tau = {tau:.3g}, too small to "
                                  f"discount: exp(-lambda*tau) rounds to 1 at lambda = {lam:g}")
            return make_stencil(grid, tau, alpha, k=d.stencil_k)

        return self._timed("stencil", build)

    @cached_property
    def kernel0(self):
        """The kernel at shift 0, built once for the critical table and Howard's run."""
        grid, spec, stencil = self.grid, self.spec, self.stencil
        return self._timed("kernel", lambda: build_kernel(grid, spec, stencil, c=0.0))

    @cached_property
    def critical(self):
        """(c_est, table): exact discounted solutions at shift 0 down critical_lambdas."""
        grid, spec, stencil, s, kernel0 = (
            self.grid, self.spec, self.stencil, self.config.schedule, self.kernel0
        )
        c_est, table = self._timed("critical", lambda: critical_value_estimate(
            grid, spec, stencil, s.critical_lambdas, kernel=kernel0
        ))
        self.write("critical.csv", lambda path: io.write_csv(
            path,
            ["lambda", "min_neg_lambda_u", "max_neg_lambda_u", "mid", "spread"],
            [tuple(map(float, row)) for row in table.rows()],
        ))
        return c_est, table

    @cached_property
    def critical_graph(self):
        """Kernel at the critical shift -(minimum cycle mean), a cycle achieving
        it, and the CriticalGraph of Howard's run.

        Howard's policy iteration and the one criticality test run once, on
        kernel0. The CriticalGraph reads only the edge Lagrangian and the
        stencil offsets, which no shift changes, so it is handed on to
        peierls_barrier (whose barrier passes it to aubry_report,
        u0_critical_cycles, compute_u0 and verify_limit), solve_mather_lp and
        the verify subcommand. The critical kernel is kernel0 at shift -mean:
        it shares those arrays and derives its costs when a stage reads them.
        """
        kernel0 = self.kernel0

        def critical_kernel():
            graph = tight_subgraph(kernel0)
            mean, cycle = min_mean_cycle(kernel0, tight=graph)
            return replace(kernel0, c=-mean), cycle, graph

        return self._timed("kernel", critical_kernel)

    @cached_property
    def barrier(self):
        kernel, _, graph = self.critical_graph
        barrier = self._timed("peierls", lambda: peierls_barrier(kernel, tight=graph))
        self.write("barrier", lambda path: io.write_barrier(barrier, path))
        return barrier

    @cached_property
    def aubry(self):
        barrier = self.barrier
        aubry = self._timed("aubry", lambda: aubry_report(barrier))
        class_of = {node: cid for cid, cls in enumerate(aubry.classes) for node in cls}
        self.write("aubry.csv", lambda path: io.write_csv(
            path,
            ["node", "diagonal", "class_id"],
            [
                (int(nd), float(dv), class_of[int(nd)])
                for nd, dv in zip(aubry.nodes, aubry.diagonal)
            ],
        ))
        return aubry

    @cached_property
    def mather(self):
        kernel, _, graph = self.critical_graph
        lp = self._timed("mather_lp", lambda: solve_mather_lp(kernel, tight=graph))
        self.write("mather_measure.csv", lambda path: io.measure_to_csv(lp.measure, path))
        return lp

    @cached_property
    def u0(self):
        """(u0 at every node by the critical cycles, reported on every family;
        u0 by the LP at the u0_targets, its independent cross-check; their sup
        distance there)."""
        barrier, kernel = self.barrier, self.critical_graph[0]
        targets = _u0_target_list(self.config.schedule.u0_targets, self.grid)
        u0 = self._timed("u0", lambda: u0_critical_cycles(barrier))
        self.write("u0.csv", lambda path: io.write_csv(
            path,
            ["node", "value", "method"],
            [(int(t), float(v), u0.method) for t, v in zip(u0.targets, u0.values)],
        ))
        # near-Mather budget: mean Lagrangian within 1e-6 of -c
        u0_lp = self._timed("u0_lp", lambda: compute_u0(barrier, kernel, kernel.c, 1e-6, targets))
        return u0, u0_lp, float(np.abs(u0.values[u0_lp.targets] - u0_lp.values).max())

    def discounted(self, lam):
        """u_lambda by policy iteration on the critical kernel, solved once per lambda."""
        if lam not in self._solutions:
            grid, spec, stencil = self.grid, self.spec, self.stencil
            kernel = self.critical_graph[0]
            self._solutions[lam] = self._timed(f"discounted_{lam:g}", lambda: solve_discounted(
                grid, spec, lam, stencil, kernel.c, kernel=kernel
            ))
        return self._solutions[lam]

    @cached_property
    def report(self) -> RunReport:
        """Every stage in order, the verification battery, and the run's
        convergence.csv, report.json and timings.json."""
        bounds, stencil = self.bounds, self.stencil
        c_est, table = self.critical
        (kernel, _, graph), barrier = self.critical_graph, self.barrier
        aubry, lp = self.aubry, self.mather
        u0, u0_lp, u0_cross_delta = self.u0
        solutions = [self.discounted(lam) for lam in self.config.schedule.lambdas]
        verification = self._timed(
            "verify", lambda: verify_limit(u0, solutions, [lp], kernel, barrier)
        )

        err_by_lam = dict(verification.sup_errors)
        convergence = []
        for sol in solutions:
            neg = -sol.lam * sol.values.values
            convergence.append((
                float(sol.lam), float(err_by_lam[sol.lam]), float(neg.min()), float(neg.max()),
                float(sol.values.lipschitz_quotient()),
            ))
        self.write("convergence.csv", lambda path: io.write_csv(
            path,
            ["lambda", "sup_error", "min_neg_lambda_u", "max_neg_lambda_u", "lipschitz_quotient"],
            convergence,
        ))

        lp_vs_cycle = abs(lp.value + kernel.c)
        checks = [
            *verification.checks,
            CheckResult(
                "barrier_stable", "pass" if barrier.stable else "warn",
                barrier.residual, TOL_STABLE,
            ),
            CheckResult(
                "critical_spread", "warn" if table.spread_warning else "pass",
                float(table.spreads[-1]), float(table.spreads[0]),
                detail="-lambda*u spread must shrink along the schedule",
            ),
            CheckResult(
                "lp_vs_min_mean_cycle", "pass" if lp_vs_cycle <= 1e-8 else "fail",
                float(lp_vs_cycle), 1e-8,
            ),
            CheckResult(
                "u0_methods_agree", "pass" if u0_cross_delta <= 1e-5 else "fail",
                u0_cross_delta, 1e-5,
            ),
        ]
        flags = [asdict(c) for c in checks]

        # runtime-only knobs (worker count, target directory) stay out of the
        # report so identical experiments produce byte-identical report.json
        config_dict = self.config.to_dict()
        config_dict.pop("threads")
        config_dict.pop("output_dir")
        report = RunReport(
            version=REPORT_VERSION,
            config=config_dict,
            bounds={
                "kappa": bounds.kappa,
                "A_kappa": bounds.A_kappa,
                "C0": bounds.C0,
                "alpha": self.alpha,
                "v_search": self.spec.v_search,
                "c": bounds.c,
                "tau": stencil.tau,
                "stencil_offsets": stencil.num_offsets,
            },
            c_est=float(c_est),
            c_cross=float(kernel.c),
            cross_delta=float(abs(c_est - kernel.c)),
            c_used=float(kernel.c),
            critical_table=[list(map(float, r)) for r in table.rows()],
            spread_warning=bool(table.spread_warning),
            barrier_residual=barrier.residual,
            barrier_stable=bool(barrier.stable),
            aubry_nodes=[int(x) for x in aubry.nodes],
            mather_classes=[list(map(int, cls)) for cls in aubry.classes],
            lp_value=float(lp.value),
            lp_vs_cycle=float(lp_vs_cycle),
            u0_method=u0.method,
            u0_cross_delta=u0_cross_delta,
            counters={
                "howard_rounds": graph.howard_rounds,
                "barrier_relax_rounds": barrier.relax_rounds,
                "lp_fallbacks": int(lp.iterations > 0) + u0_lp.fallbacks,
                "lp_fallback_howard_runs": lp.iterations + u0_lp.howard_runs,
                "critical_policy_rounds": sum(table.rounds),
                "discounted_policy_rounds": sum(sol.iterations for sol in solutions),
            },
            convergence=[list(map(float, r)) for r in convergence],
            plateau=float(verification.plateau),
            flags=flags,
            passed=all(f["status"] != "fail" for f in flags),
        )
        self.write("report.json", lambda path: io.write_json(path, report.to_dict()))
        from . import import_s  # bound once the package has finished loading

        timings = {"import_s": import_s, "stages": self.timings, "rss_growth_mb": self.rss_growth}
        self.write("timings.json", lambda path: io.write_json(path, timings))
        return report


def run_pipeline(config: ExperimentConfig, out_dir=None) -> RunReport:
    """Execute the full experiment and write all artifacts.

    Stage order: stability bounds, stencil, ergodic critical-value estimate
    (exact discounted solutions at shift 0 by policy iteration down
    critical_lambdas), kernel at the critical shift -(minimum cycle mean),
    Peierls barrier, Aubry set and Mather classes from its critical graph,
    Mather LP, u0 (the least mean barrier row over one critical cycle at
    every node, cross-checked by the LP at the u0_targets), discounted solves
    by policy iteration down the lambda schedule, verification battery.
    """
    return _Run(config, out_dir).report


# ---------------------------------------------------------------------------
# command-line interface: each subcommand reads the stages it needs from one
# run and prints one line per result


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    if args.grid is not None:
        sizes = (args.grid,) * config.problem.dim
        config = replace(config, problem=replace(config.problem, sizes=sizes))
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    if args.threads is not None:
        config = replace(config, threads=args.threads)
    if args.lam is not None:
        config = replace(config, schedule=replace(config.schedule, lambdas=(args.lam,)))
    return config


def _cmd_bounds(run: _Run, args) -> int:
    b = run.bounds
    print(
        f"kappa={io.fmt(b.kappa)} A_kappa={io.fmt(b.A_kappa)} C0={io.fmt(b.C0)} "
        f"alpha={io.fmt(run.alpha)} v_search={io.fmt(run.spec.v_search)} c={io.fmt(b.c)}"
    )
    return EXIT_OK


def _cmd_critical(run: _Run, args) -> int:
    c_est, table = run.critical
    print(f"c_est={io.fmt(c_est)} spread_warning={table.spread_warning}")
    return EXIT_OK


def _cmd_peierls(run: _Run, args) -> int:
    barrier, kernel = run.barrier, run.critical_graph[0]
    print(f"c={io.fmt(kernel.c)} residual={io.fmt(barrier.residual)} stable={barrier.stable}")
    return EXIT_OK if barrier.stable else EXIT_VERIFICATION


def _cmd_discounted(run: _Run, args) -> int:
    for lam in run.config.schedule.lambdas:
        sol = run.discounted(lam)
        run.write(f"discounted_{lam:g}", lambda path: io.write_solution(sol, path))
        # start at the lowest node that ties the maximum up to rounding, so a
        # last-bit change in u cannot move the start between symmetric wells
        u = sol.values.values
        top = u >= u.max() - 1e-12 * max(1.0, float(np.abs(u).max()))
        traj = backward_trajectory(sol, int(np.argmax(top)), min(400, 4 * run.grid.num_nodes))
        run.write(
            f"trajectory_{lam:g}.csv", lambda path: io.trajectory_to_csv(traj, run.stencil, path)
        )
        print(f"lambda={io.fmt(lam)} iterations={sol.iterations} residual={io.fmt(sol.residual)}")
    return EXIT_OK


def _cmd_mather(run: _Run, args) -> int:
    lp, (kernel, cycle, _) = run.mather, run.critical_graph
    run.write("mather.json", lambda path: io.write_json(path, {
        "lp_value": lp.value,
        "min_mean": -kernel.c,
        "cycle": [int(x) for x in cycle],
        "support_size": int(lp.support_edges.shape[0]),
        "projected_support": [int(x) for x in np.nonzero(lp.projected > 1e-12)[0]],
    }))
    print(f"lp_value={io.fmt(lp.value)} min_mean={io.fmt(-kernel.c)}")
    return EXIT_OK


def _cmd_u0(run: _Run, args) -> int:
    report = run.report
    print(f"u0 method={report.u0_method} plateau={io.fmt(report.plateau)}")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_converge(run: _Run, args) -> int:
    report = run.report
    print(
        f"c_est={io.fmt(report.c_est)} c_cross={io.fmt(report.c_cross)} "
        f"plateau={io.fmt(report.plateau)} passed={report.passed}"
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_verify(run: _Run, args) -> int:
    run.out = None  # checks the given u0 against the run's stages and writes nothing
    kernel, grid = run.critical_graph[0], run.grid
    values = io.read_values_binary(args.u0, grid.num_nodes)
    violation = verify_subsolution(GridFunction(grid, values), kernel)
    # the worst integral over the LP measure and each critical cycle's uniform measure
    measures = [run.mather.projected, *cycle_marginals(run.critical_graph[2], grid.num_nodes)]
    integral = max(float(mu @ values) for mu in measures)
    ok = violation <= TOL_CONSTRAINT and integral <= TOL_CONSTRAINT
    print(f"subsolution_violation={io.fmt(violation)} measure_integral={io.fmt(integral)}")
    return EXIT_OK if ok else EXIT_VERIFICATION


_COMMANDS = {
    "bounds": _cmd_bounds,
    "critical": _cmd_critical,
    "peierls": _cmd_peierls,
    "discounted": _cmd_discounted,
    "mather": _cmd_mather,
    "u0": _cmd_u0,
    "converge": _cmd_converge,
    "verify": _cmd_verify,
}


def cli_dispatch(argv) -> int:
    parser = _Parser(prog="weakkam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
        if name == "verify":
            p.add_argument("--u0", required=True)
    args = parser.parse_args(argv)
    try:
        run = _Run(_apply_overrides(load_config(args.config), args))
        return _COMMANDS[args.command](run, args)
    except (WeakKamError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_ERROR


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
