"""Closed measures on the action graph, Mather measures, and the limit u0.

A probability measure on stencil edges is *closed* when inflow equals
outflow at every node; that is the discrete form of asking the average of
d phi(v) to vanish for all node functions phi. Minimizing the mean edge
Lagrangian over closed measures recovers -c(H); the minimizers are the
discrete Mather measures, and u0 is the cheapest mu-average of barrier rows
over them.

Both edge programs, the Mather program (least mean Lbar over closed
measures) and the u0 program (near-Mather measures at sampled targets), are
closed at the vertex the critical graph implies: `_certifies` checks the
uniform measure on a critical cycle against node potentials phi, the
cycle's own prices extended by shortest paths to it (the barrier's
Bellman-Ford loop and step, action_barrier._distances and _relax), by weak
duality on the kernel's own arrays, where the reduced cost of an edge is
weights + phi(head) - phi(tail). The Mather value then matches Howard's
minimum cycle mean to 1e-8, and u0 at the targets the least mean of the
barrier rows over the critical cycles (`u0_critical_cycles`) to 1e-5. When
that check fails, `_graph_search` runs Howard's method on the program's own
costs, once for the Mather program, and along a Newton search on the budget
multiplier for the u0 program (Dinkelbach; Megiddo 1979), and `_certifies`
must accept its end, one cycle or a mix of two, or the program raises. No
LP solver is called: `weakkam.simplex` is the tests' dense-simplex oracle
for both, imported here only for the benchmark tracer to rebind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .action_barrier import (ActionKernel, BarrierMatrix, CriticalGraph, _distances,
                             _reduced_cost_blocks, aubry_report, tight_subgraph,
                             verify_subsolution)
# discounted_occupation_measure is not called here: perfbench/tracing.py rebinds it
from .discounted import (DiscountedSolution, OccupationMeasure, _evaluate_policy,
                         discounted_occupation_measure)
from .errors import ConvergenceError, EmptyAubryError, InfeasibleError, WeakKamError
from .models import LagrangianSpec, TorusGrid, eval_lagrangian
# solve_standard_form is not called here: perfbench/tracing.py getattr's it
from .simplex import solve_standard_form

__all__ = [
    "MatherSolveResult",
    "LimitFunctionResult",
    "CheckResult",
    "VerificationReport",
    "min_mean_cycle",
    "solve_mather_lp",
    "closedness_residual",
    "u0_critical_cycles",
    "compute_u0",
    "u0_mechanical",
    "worst_integrals",
    "verify_limit",
]


# ---------------------------------------------------------------------------
# measures


def closedness_residual(measure: OccupationMeasure) -> float:
    """Max over the measure's grid nodes of |inflow - outflow|; zero
    characterizes closed measures.

    A discounted occupation measure from x0 has inflow - outflow = (1 - beta)
    (delta_x0 - nu), nu a probability measure on its orbit, so its residual
    is at most 1 - beta.
    """
    n, w = measure.grid.num_nodes, measure.weights
    return float(abs(np.bincount(measure.heads(), w, n) - np.bincount(measure.tails, w, n)).max())


# ---------------------------------------------------------------------------
# minimum mean cycle


def min_mean_cycle(
    kernel: ActionKernel, tight: CriticalGraph | None = None
) -> tuple[float, list[int]]:
    """Minimum mean per-unit-time Lagrangian over directed stencil cycles.

    Howard's mean and the nodes of cycles[0], the cycle of the critical class
    with the lowest node, come from the CriticalGraph of tight_subgraph, or
    from tight when the caller already holds it; it does not depend on the
    kernel's shift. The negated mean is an estimate of c(H) independent of
    the LP route.
    """
    graph = tight_subgraph(kernel) if tight is None else tight
    return graph.mean, (graph.cycles[0] % kernel.num_nodes).tolist()


# ---------------------------------------------------------------------------
# Mather LP


@dataclass(frozen=True, eq=False)
class MatherSolveResult:
    """Optimal closed measure, its value (= -c(H) estimate), and its support."""

    measure: OccupationMeasure
    value: float
    support_edges: np.ndarray   # (E, 2) rows of (tail, offset id)
    projected: np.ndarray       # position marginal over nodes
    iterations: int             # Howard runs of the fallback: 0 when the certificate closes


def _cycle_potentials(kernel: ActionKernel, weights: np.ndarray, cycle: np.ndarray) -> np.ndarray:
    """Node potentials phi pricing the cycle's edges at zero and the rest by shortest paths.

    `weights` is (num_offsets, num_nodes) by tail and sums to zero around
    the cycle, whose edges `cycle` (k*n + tail) are listed in walking order.
    phi is 0 at the first edge's tail and phi(tail) = weight + phi(head)
    walking back along the cycle; the barrier's Bellman-Ford loop _distances
    then lowers every other node to its least weight + phi(head), on strict
    improvement only. A node that reaches no cycle node keeps phi = inf.
    These are the duals of the spanning basis the cycle and a shortest-path
    in-tree to it form (network simplex); the basis itself is never needed.
    """
    n = kernel.num_nodes
    cyc_k, cyc_t = np.divmod(np.asarray(cycle, dtype=np.int64), n)
    phi = np.full(n, np.inf)
    phi[cyc_t[0]] = 0.0
    for k, t, head in zip(cyc_k[:0:-1], cyc_t[:0:-1], np.roll(cyc_t, -1)[:0:-1]):
        phi[t] = weights[k, t] + phi[head]
    free = np.ones(n, dtype=bool)
    free[cyc_t] = False
    _distances(weights, kernel, 1, phi[None], free)
    return phi


_CERT_TOL = 1e-9  # weak-duality tolerance of _certifies


def _certifies(kernel: ActionKernel, weights, cycles, phi, slack: float = 0.0) -> bool:
    """Whether a measure on cycles and the potentials phi prove each other optimal.

    Weak duality, with weights + phi(head) - phi(tail) the reduced cost of
    an edge: the measure is feasible when each cycle closes (each edge's
    head is the next edge's tail) and the budget slack is >= -_CERT_TOL; phi
    is dual feasible when finite with no reduced cost below -_CERT_TOL, a
    running minimum over action_barrier._reduced_cost_blocks, head's term
    first as _cycle_potentials builds phi; and the two values agree when
    every cycle edge's reduced cost is within _CERT_TOL of 0.
    """
    if not (slack >= -_CERT_TOL and np.isfinite(phi).all()):
        return False
    for cycle in cycles:
        cyc_k, cyc_t = np.divmod(cycle, kernel.num_nodes)
        on_cycle = np.roll(phi[cyc_t], -1) + weights[cyc_k, cyc_t] - phi[cyc_t]
        closes = np.array_equal(kernel.neighbors(1, cyc_k, cyc_t), np.roll(cyc_t, -1))
        if not (closes and np.abs(on_cycle).max() <= _CERT_TOL):
            return False
    blocks = _reduced_cost_blocks(kernel, weights, phi, head_first=True)
    return min(float(block.min()) for _, _, block in blocks) >= -_CERT_TOL


_LINE_RTOL = 1e-12  # the Newton search stops within this * max(1, |line|) of the line
_MAX_NEWTON = 100   # Newton steps before ConvergenceError


def _graph_search(kernel: ActionKernel, cost, cycle, budget: float | None):
    """(weights, cycles, masses, Howard runs) of an optimal closed measure.

    A run at multiplier s is tight_subgraph on w_s = cost + s Lbar (weights
    is w_s less its mean), and its cycle C is the critical cycle of least
    Lbar mean l_C, h_C being its cost mean. A cycle meets the budget B when
    its l is at most B + _CERT_TOL, the slack _certifies accepts. Without a
    budget, or when C at s = 0 meets B, C is the answer. Otherwise C is I,
    and F is cycle if it meets B, else tight_subgraph(kernel)'s; each Newton
    step runs where the lines h + s l of I and F meet, and C replaces F if
    it meets B, else I, until C is not below that line: the answer is then
    the mix of I and F whose mean Lbar is B, or F alone when l_F > B.
    """
    n, lag = kernel.num_nodes, kernel.edge_lagrangian

    def means(c):
        cyc_k, cyc_t = np.divmod(c, n)
        return math.fsum(cost[cyc_k, cyc_t]) / c.size, math.fsum(lag[cyc_k, cyc_t]) / c.size

    def howard(s):
        w = cost + s * lag if s else cost
        graph = tight_subgraph(replace(kernel, edge_lagrangian=w))
        best = min(graph.cycles, key=lambda c: means(c)[1])
        return w - graph.mean, best, means(best)

    limit = math.inf if budget is None else budget + _CERT_TOL
    weights, low, (h_i, l_i) = howard(0.0)
    if l_i <= limit:
        return weights, (low,), (1.0,), 1
    high = cycle if means(cycle)[1] <= limit else tight_subgraph(kernel).cycles[0]
    h_f, l_f = means(high)
    if l_f > limit:
        raise InfeasibleError(f"no critical cycle meets the budget {budget:.6g}; increase eps_c")
    for runs in range(2, _MAX_NEWTON + 2):
        s = max(0.0, (h_f - h_i) / (l_i - l_f))
        weights, found, (h_c, l_c) = howard(s)
        line = h_f + s * l_f
        if h_c + s * l_c >= line - _LINE_RTOL * max(1.0, abs(line)):
            theta = max(0.0, (budget - l_f) / (l_i - l_f))
            return weights, (low, high), (theta, 1.0 - theta), runs
        if l_c > limit:
            low, h_i, l_i = found, h_c, l_c
        else:
            high, h_f, l_f = found, h_c, l_c
    raise ConvergenceError(f"u0 multiplier search hit the cap of {_MAX_NEWTON} Newton steps",
                           iterations=_MAX_NEWTON)


def _solve_edge_program(kernel: ActionKernel, cost, weights, cycle, budget: float | None = None):
    """(value, measure, Howard runs) of the least cost over closed measures.

    The measures have unit mass, and mean Lbar <= budget when one is given
    (the u0 program). cost and weights = cost - (the mean cost of cycle) are
    (num_offsets, num_nodes) by tail; cycle lists its edges in walking order.
    The answer is the uniform measure on cycle when _certifies accepts it,
    else the end of _graph_search, which it must accept, or WeakKamError.
    """
    n, lag = kernel.num_nodes, kernel.edge_lagrangian

    def certified(weights, ends, masses):
        spent = sum(m * lag[np.divmod(c, n)].mean() for m, c in zip(masses, ends))
        slack = 0.0 if budget is None else budget - spent
        return _certifies(kernel, weights, ends, _cycle_potentials(kernel, weights, ends[0]), slack)

    ends, masses, runs = (np.asarray(cycle, dtype=np.int64),), (1.0,), 0
    if not certified(weights, ends, masses):
        weights, ends, masses, runs = _graph_search(kernel, cost, ends[0], budget)
        if not certified(weights, ends, masses):
            raise WeakKamError(f"the graph search's measure ({runs} Howard runs) fails its "
                               "weak-duality certificate")
    support, inverse = np.unique(np.concatenate(ends), return_inverse=True)
    x = np.bincount(inverse, np.concatenate([np.full(c.size, m / c.size)
                                             for m, c in zip(masses, ends)]))
    offset_ids, tails = np.divmod(support[x > 0], n)
    measure = OccupationMeasure(kernel.grid, kernel.stencil, tails, offset_ids, x[x > 0])
    return math.fsum(cost[offset_ids, tails] * measure.weights), measure, runs


def solve_mather_lp(kernel: ActionKernel, tight: CriticalGraph | None = None) -> MatherSolveResult:
    """Minimize the mean edge Lagrangian over unit-mass closed edge measures.

    The program is closed at the uniform measure on cycles[0] of tight, the
    CriticalGraph of tight_subgraph for this kernel (computed when None), or
    else at the cycle of one Howard run on the Lagrangian.
    """
    graph = tight_subgraph(kernel) if tight is None else tight
    lag = kernel.edge_lagrangian
    value, measure, runs = _solve_edge_program(kernel, lag, lag - graph.mean, graph.cycles[0])
    return MatherSolveResult(
        measure=measure,
        value=value,
        support_edges=np.stack([measure.tails, measure.offset_ids], axis=1),
        projected=measure.node_marginal(),
        iterations=runs,
    )


# ---------------------------------------------------------------------------
# the limit function u0


@dataclass(frozen=True, eq=False)
class LimitFunctionResult:
    """u0 on target nodes plus the certificate that produced each value."""

    targets: np.ndarray
    values: np.ndarray
    method: str                       # "critical-cycles", "lp" or "mechanical-shortcut"
    certificates: tuple               # per target: cycle index, OccupationMeasure or node id
    c_est: float
    eps: float
    fallbacks: int = 0                # targets the start pair did not close
    howard_runs: int = 0              # Howard runs of those targets' graph search


def u0_critical_cycles(h: BarrierMatrix, kernel: ActionKernel | None = None
                       ) -> LimitFunctionResult:
    """u0(x) = min over projected Mather measures mu of the mu-average of h(., x).

    The extreme mu are the uniform measures on the critical cycles. Two
    nodes y, r of one Mather class have h(y, x) = h(y, r) + h(r, x), so the
    least over a class's cycles is the least mean of h(., r) plus h(r, x),
    r the class's lowest node. A class of one node has one critical cycle,
    its self-loop, and gives the row h(r, .). A larger class can hold
    several critical cycles whose means of h(., r) differ: with the kernel
    of h, its least mean comes from compute_u0 at r over the Mather
    measures themselves (c_est = -h.graph.mean, eps_c = 0); without, from
    the one cycle h.graph holds for the class, which can only read above
    it. Every node is a target; each certificate is the index of the class,
    and of its cycle in h.graph.cycles, that attains the minimum.
    """
    if h.graph is None:
        raise WeakKamError("u0_critical_cycles needs a barrier built on a critical graph")
    n = h.num_nodes
    means = np.array([h.values[c % n].mean(axis=0) for c in h.graph.cycles])
    many = [i for i, cls in enumerate(h.graph.classes) if len(cls) > 1]
    if kernel is not None and many:
        reps = [h.graph.classes[i][0] for i in many]
        at_rep = compute_u0(h, kernel, -h.graph.mean, 0.0, reps).values
        means[many] = at_rep[:, None] + h.values[reps]
    best = np.argmin(means, axis=0)
    return LimitFunctionResult(
        targets=np.arange(n, dtype=np.int64),
        values=means[best, np.arange(n)],
        method="critical-cycles",
        certificates=tuple(best.tolist()),
        c_est=float(h.c),
        eps=0.0,
    )


def compute_u0(
    h: BarrierMatrix,
    kernel: ActionKernel,
    c_est: float,
    eps_c: float,
    targets,
    threads: int = 1,
) -> LimitFunctionResult:
    """u0(x) as the cheapest mu-average of h(., x) over (near-)Mather measures.

    For each target x this solves: minimize sum_y mu(y) h(y, x) over closed
    unit-mass edge measures whose mean Lagrangian is at most -c_est + eps_c,
    where mu is the tail marginal; at c_est = -h.graph.mean and eps_c = 0
    these are the Mather measures. One LP per target, closed at the measure
    h.graph implies, the uniform measure on the cycle of u0_critical_cycles'
    certificate at x, of mean h(., x) = v, priced by potentials under node
    weights h(y, x) - v, or else by the graph search of _solve_edge_program,
    so the LP stays an independent certificate. Before any target is solved,
    h without its critical graph (a min-plus power) and a target that is not
    an int in [0, n), a bool or a float included, raise WeakKamError, and a
    budget more than _CERT_TOL below h.graph's mean InfeasibleError. threads
    is accepted and has no effect: the targets are solved one after another.
    """
    given = np.atleast_1d(np.asarray(targets, dtype=object)).tolist()
    bad = [t for t in given if isinstance(t, bool) or not isinstance(t, (int, np.integer))
           or not 0 <= t < kernel.num_nodes]
    if bad:
        raise WeakKamError(f"u0 target {bad[0]} is not a node in [0, {kernel.num_nodes})")
    targets = np.array(given, dtype=np.int64)
    budget = -float(c_est) + float(eps_c)
    start = u0_critical_cycles(h)
    if h.graph.mean > budget + _CERT_TOL:
        raise InfeasibleError(f"no closed measure meets the near-optimality budget {budget:.6g}; "
                              "increase eps_c (the discretization rarely reaches -c_est exactly)")
    shape = kernel.edge_lagrangian.shape
    solved = [_solve_edge_program(kernel, np.broadcast_to(h.values[:, t], shape),
                                  np.broadcast_to(h.values[:, t] - start.values[t], shape),
                                  h.graph.cycles[start.certificates[t]], budget)
              for t in targets.tolist()]
    return LimitFunctionResult(
        targets=targets,
        values=np.array([s[0] for s in solved]),
        method="lp",
        certificates=tuple(s[1] for s in solved),
        c_est=float(c_est),
        eps=float(eps_c),
        fallbacks=sum(s[2] > 0 for s in solved),
        howard_runs=sum(s[2] for s in solved),
    )


def u0_mechanical(
    h: BarrierMatrix,
    spec: LagrangianSpec,
    grid: TorusGrid,
    c_est: float,
    eps: float,
) -> LimitFunctionResult:
    """Shortcut for a spec minimized at v = 0: u0 = min over rest points of h rows.

    When the constants are critical subsolutions the projected Mather and
    Aubry sets are both {y : L(y,0) + c = 0}, and u0(x) = min over that set
    of h(y, x). Guarded: mechanical specs without drift only; a drifting
    spec, whose fiber minimum sits at v = w, and tabulated specs must go
    through the LP route instead.
    """
    if not (spec.family == "mechanical" and all(abs(w) < 1e-15 for w in spec.drift)):
        raise WeakKamError(
            "u0_mechanical requires argmin_v L(x,.) = 0 for every x; "
            "use compute_u0 for this family"
        )
    coords = grid.coordinates
    l0 = eval_lagrangian(spec, coords, np.zeros_like(coords))
    rest = np.nonzero(np.abs(l0 + c_est) <= eps)[0]
    if rest.size == 0:
        raise EmptyAubryError(
            f"no node has |L(y,0) + {c_est:.6g}| <= {eps:.3g}; "
            "eps is too small or the shift is off"
        )
    rows = h.values[rest]
    arg = np.argmin(rows, axis=0)
    values = rows[arg, np.arange(grid.num_nodes)]
    return LimitFunctionResult(
        targets=np.arange(grid.num_nodes, dtype=np.int64),
        values=values,
        method="mechanical-shortcut",
        certificates=tuple(int(rest[a]) for a in arg),
        c_est=float(c_est),
        eps=float(eps),
    )


# ---------------------------------------------------------------------------
# verification battery


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str        # "pass" | "fail" | "warn"
    measured: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    sup_errors: tuple[tuple[float, float], ...]  # (lambda, ||u_lambda - u0||_inf)
    plateau: float

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def worst_integrals(functions, mather: list[MatherSolveResult], graph: CriticalGraph):
    """Each function's largest integral against the Mather measures at hand:
    each result's projection and the uniform measure on each cycle of graph."""
    n = len(functions[0])
    measures = [res.projected for res in mather] + [
        np.bincount(c % n, minlength=n) / c.size for c in graph.cycles]
    return [max(float(mu @ f) for mu in measures) for f in functions]


# verification thresholds: the measure constraint int w dmu <= TOL_CONSTRAINT,
# and the shift _PROBE_DELTA that must break it
TOL_CONSTRAINT = 1e-6
_PROBE_DELTA = 0.01


def verify_limit(
    u0: LimitFunctionResult,
    solutions: list[DiscountedSolution],
    mather: list[MatherSolveResult],
    kernel: ActionKernel,
    barrier: BarrierMatrix,
) -> VerificationReport:
    """Run the convergence-theorem battery and report per-check pass/fail.

    Checks: (a) u0 is a discrete critical subsolution, to
    max(10 * barrier.residual, 1e-9); (b) the integral of u0 and of each
    u_lambda against every Mather measure is at most TOL_CONSTRAINT, the
    measures being those of mather and the uniform measures on the cycles of
    barrier.graph; (c) adding _PROBE_DELTA to u0 breaks (b), so u0 is maximal
    among shifted candidates; (d) ||u_lambda - u0||_inf is nonincreasing down
    the schedule; (e) at every node x, u_lambda(x) >= kappa*(w(x) - <w,
    occupation_x>) for u0 and the barrier rows of the first two Aubry nodes,
    kappa = (1-beta)/(lambda tau), occupation_x being the exact discounted
    occupation measure of the smallest lambda's policy orbit from x; a
    subsolution to (a)'s tolerance t meets it to t/(lambda tau) plus the tol
    of u_lambda, the threshold. u0 must cover every node and barrier must
    carry its critical graph; WeakKamError otherwise.
    """
    grid = kernel.grid
    if not np.array_equal(u0.targets, np.arange(grid.num_nodes)):
        raise WeakKamError("verify_limit needs u0 at every node")
    aubry = aubry_report(barrier)

    def check(name, ok, measured, threshold, detail=""):
        return CheckResult(name, "pass" if ok else "fail", measured, threshold, detail)

    # (a) subsolution violation
    tol_subsolution = max(10.0 * barrier.residual, 1e-9)
    violation = verify_subsolution(u0.values, kernel)
    checks = [check("u0_subsolution", violation <= tol_subsolution, violation, tol_subsolution)]

    # (b) measure constraints, against each LP measure and each cycle's uniform measure
    worst_u0, *worst_ul = worst_integrals(
        [u0.values, *(sol.values.values for sol in solutions)], mather, barrier.graph)
    checks.append(check(
        "u0_measure_constraint", worst_u0 <= TOL_CONSTRAINT, worst_u0, TOL_CONSTRAINT
    ))
    if solutions:
        worst_ul = max(worst_ul)
        checks.append(check(
            "u_lambda_measure_constraint", worst_ul <= TOL_CONSTRAINT, worst_ul, TOL_CONSTRAINT
        ))

    # (c) maximality probe: the shifted candidate must violate (b)
    probe = worst_u0 + _PROBE_DELTA
    checks.append(check(
        "maximality_probe", probe > TOL_CONSTRAINT, probe, TOL_CONSTRAINT,
        detail=f"u0 + {_PROBE_DELTA} must break the measure constraint",
    ))

    # (d) sup-error table down the lambda schedule
    sup_errors = [
        (sol.lam, float(np.abs(sol.values.values - u0.values).max()))
        for sol in sorted(solutions, key=lambda s: -s.lam)
    ]
    plateau = sup_errors[-1][1] if sup_errors else float("nan")
    if solutions:
        slack = 2.0 * solutions[0].tol + 1e-12
        monotone = all(b <= a + slack for (_, a), (_, b) in zip(sup_errors, sup_errors[1:]))
        checks.append(check(
            "sup_error_monotone", monotone, plateau, slack,
            detail="sup errors must be nonincreasing as lambda decreases",
        ))

    # (e) subsolution lower bound: <w, occupation_x> is the smallest lambda's
    # policy's own discounted evaluation of (1 - beta) w at the tails, and the
    # solver weights costs by kappa = (1 - beta)/(lambda tau), so summing
    # w(head) - w(tail) <= cost + tol_subsolution along the orbit of x gives
    # u_lambda(x) >= kappa * (w(x) - <w, occupation_x>) - tol_subsolution/(lambda tau)
    if solutions:
        sol = min(solutions, key=lambda s: s.lam)
        beta, kappa = sol.beta, (1.0 - sol.beta) / (sol.lam * sol.tau)
        succ = sol.kernel.neighbors(-1, sol.policy, np.arange(grid.num_nodes))
        candidates = [u0.values] + [barrier.row(int(y)) for y in aubry.nodes[:2]]
        u = sol.values.values
        worst_margin = min(
            float((u - kappa * (w - _evaluate_policy((1.0 - beta) * w[succ], succ, beta))).min())
            for w in candidates)
        floor = -(tol_subsolution / (sol.lam * sol.tau) + sol.tol)
        checks.append(check(
            "ineq_prim", worst_margin >= floor, worst_margin, floor,
            detail=("u_lambda(x) >= kappa*(w(x) - <w, occupation_x>) at every node, to "
                    "tol_subsolution/(lambda tau) + tol, kappa = (1-beta)/(lambda tau)"),
        ))

    return VerificationReport(checks=tuple(checks), sup_errors=tuple(sup_errors), plateau=plateau)
