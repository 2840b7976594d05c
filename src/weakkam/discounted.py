"""The discounted equation on the action graph: u_lambda by policy iteration,
the critical-value table, and occupation measures.

All solvers share the action kernel's edge costs: one backward step of
duration tau from x lands at a stencil predecessor y = x - tau*v_k and pays

    u(x) = min_k  (1 - beta)/(lambda*tau) * cost(y -> x) + beta * u(y),

with beta = exp(-lambda*tau). The weight (1-beta)/lambda is the exact value
of the integral of exp(lambda*s) over one backward step, so along any fixed
path the discounted cost is monotone in lambda whenever the shifted running
cost is nonnegative; that monotonicity is exact, not approximate, and the
tests rely on it.

A policy picks one stencil offset per node, so it maps every node to one
predecessor: a functional graph. Howard's policy iteration evaluates each
policy exactly by pointer doubling; its one loop serves the critical-value
table at shift 0 and the lambda schedule at the critical shift. An
occupation measure is a closed geometric sum over the rho (tail plus cycle)
shape of one policy orbit. `discounted_sweeps`, plain Jacobi value
iteration, stays as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action_barrier import (ActionKernel, _block_buffer, _howard_rounds, _improve, _reduce,
                             _relax, build_kernel)
from .errors import ConvergenceError, WeakKamError
from .models import GridFunction, LagrangianSpec, TorusGrid, VelocityStencil

__all__ = [
    "DiscountedSolution",
    "TrajectorySample",
    "DiscountedOccupationMeasure",
    "CriticalValueTable",
    "discounted_sweeps",
    "discounted_policy_iteration",
    "solve_discounted",
    "critical_value_estimate",
    "backward_trajectory",
    "calibration_residual",
    "discounted_occupation_measure",
]


@dataclass(frozen=True)
class DiscountedSolution:
    """Fixed point of the discounted one-step operator, certified to tol,
    and the policy whose exact value it is."""

    lam: float
    tau: float
    c: float
    values: GridFunction
    policy: np.ndarray           # terminal policy: stencil offset index per node
    iterations: int              # policy-iteration rounds
    residual: float              # final Bellman residual max|Tu - u|
    tol: float                   # certified bound on max|u - u*|
    kernel: ActionKernel

    @property
    def beta(self) -> float:
        return math.exp(-self.lam * self.tau)

    @property
    def grid(self) -> TorusGrid:
        return self.kernel.grid

    @property
    def stencil(self) -> VelocityStencil:
        return self.kernel.stencil


def discounted_sweeps(kernel: ActionKernel, lam: float, n_sweeps: int, init=None) -> np.ndarray:
    """Apply exactly n_sweeps Jacobi updates and return the iterate.

    Starting from zero this is the optimal cost over truncated n-step
    horizons, which exhaustive path enumeration must reproduce exactly; one
    sweep from u is the Bellman operator T u.
    """
    tau = kernel.stencil.tau
    beta = math.exp(-lam * tau)
    cost_in = (1.0 - beta) / (lam * tau) * kernel.costs_by_head()
    u = np.zeros(kernel.num_nodes) if init is None else np.asarray(init, dtype=float).copy()
    cand = _block_buffer(cost_in.shape)
    for _ in range(n_sweeps):
        u = _relax(beta * u[None], cost_in, kernel, -1, cand)[0]
    return u


# the error bound max|u - u*| every solve certifies
_TOL = 1e-8


def _evaluate_policy(step_cost: np.ndarray, succ: np.ndarray, beta: float) -> np.ndarray:
    """Exact solution of u = step_cost + beta * u[succ] by pointer doubling.

    After j doublings, a(x) is the sum of the first 2^j discounted step costs
    along the orbit x, succ(x), succ(succ(x)), ... and the rest of the series
    is b * u(succ^(2^j)(x)) with b = beta^(2^j); it is dropped once b is
    below double rounding.
    """
    a, p, b = step_cost, succ, beta
    while b >= 2.0**-53:
        a = a + b * a[p]
        p = p[p]
        b *= b
    return a


def discounted_policy_iteration(
    kernel: ActionKernel, lam: float
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Exact discounted fixed point by Howard's policy iteration.

    Starts from the per-node cheapest step, evaluates each policy exactly and
    improves it by `_improve`, as the minimum-mean-cycle run does. Returns
    (u, policy, rounds, residual): the terminal policy, its exact value u,
    the rounds (one evaluation plus one improvement pass each; the last
    finds nothing to improve) and the Bellman residual max|Tu - u| of that
    last pass. ConvergenceError after _MAX_ROUNDS rounds. Beside the scaled
    in-edge costs, the passes hold one block of offsets, which every round
    reuses.
    """
    tau = kernel.stencil.tau
    beta = math.exp(-lam * tau)
    if not beta < 1.0:
        raise WeakKamError("discount lambda*tau must be positive and above double rounding")
    cost_in = kernel.costs_by_head()
    cost_in *= (1.0 - beta) / (lam * tau)
    cols, shape = np.arange(kernel.num_nodes), cost_in.shape
    policy = _reduce(lambda lo, hi: cost_in[lo:hi], shape)[1]
    q = _block_buffer(shape)
    for rounds in _howard_rounds("discounted"):
        u = _evaluate_policy(cost_in[policy, cols], kernel.neighbors(-1, policy, cols), beta)
        beta_u = beta * u

        def step(lo, hi):  # cost_in + beta * u(tail) on one block of offsets
            block = kernel.gather(beta_u, -1, lo, hi, q)
            block += cost_in[lo:hi]
            return block

        improved, tu = _improve(step, shape, policy, np.abs(u).max())
        if improved is None:
            # tu is the Bellman operator T u, one discounted_sweeps step
            return u, policy, rounds, float(np.abs(tu - u).max())
        policy = improved


def _check_kernel(kernel: ActionKernel, grid: TorusGrid, stencil: VelocityStencil, c: float):
    """Refuse a kernel built on another grid, stencil or shift than the arguments."""
    if kernel.grid != grid:
        raise WeakKamError(f"the kernel is on grid {kernel.grid.sizes}, not {grid.sizes}")
    if kernel.stencil.tau != stencil.tau or kernel.stencil.offsets != stencil.offsets:
        raise WeakKamError("the kernel was built on another stencil (tau or offsets)")
    if kernel.c != float(c):
        raise WeakKamError(f"the kernel is at shift c = {kernel.c!r}, not {float(c)!r}")


def solve_discounted(
    grid: TorusGrid,
    spec: LagrangianSpec,
    lam: float,
    stencil: VelocityStencil,
    c: float,
    kernel: ActionKernel | None = None,
) -> DiscountedSolution:
    """u_lambda on the kernel at shift c by policy iteration, certified to _TOL.

    Runs `discounted_policy_iteration`. The Bellman operator T is a
    beta-contraction, so the residual r = max|Tu - u| of its last pass bounds
    the distance to the true fixed point by r/(1-beta); a residual above
    tol*(1-beta) raises ConvergenceError. tol is _TOL, or 4 ulps of max(1,
    max|u|), the rounding of the exact u, over (1-beta) where that is more.
    The policy is the terminal one, whose exact value is u. A given kernel
    must be that of grid and stencil at shift c; it is built here when None.
    """
    if kernel is None:
        kernel = build_kernel(grid, spec, stencil, c)
    _check_kernel(kernel, grid, stencil, c)
    u, policy, rounds, residual = discounted_policy_iteration(kernel, lam)
    gap = 1.0 - math.exp(-lam * stencil.tau)
    tol = max(_TOL, 4 * np.finfo(float).eps * max(1.0, float(np.abs(u).max())) / gap)
    threshold = tol * gap
    if not residual <= threshold:
        raise ConvergenceError(
            f"policy iteration stopped at Bellman residual {residual:.3e} above "
            f"tol*(1-beta) = {threshold:.3e}",
            residual=residual,
            iterations=rounds,
        )
    return DiscountedSolution(
        lam=float(lam), tau=float(stencil.tau), c=float(c), values=GridFunction(grid, u),
        policy=policy.astype(np.int64), iterations=rounds, residual=residual, tol=tol,
        kernel=kernel)


# ---------------------------------------------------------------------------
# critical value by ergodic approximation


@dataclass(frozen=True)
class CriticalValueTable:
    """Per-lambda ranges of -lambda*u_lambda plus the extrapolated estimate."""

    lambdas: tuple[float, ...]
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    mids: tuple[float, ...]
    spreads: tuple[float, ...]
    c_est: float
    spread_warning: bool
    rounds: tuple[int, ...]      # policy-iteration rounds per lambda

    def rows(self):
        return list(zip(self.lambdas, self.mins, self.maxs, self.mids, self.spreads))


def _neville_at_zero(xs: list[float], ys: list[float]) -> float:
    """Polynomial extrapolation of (xs, ys) to x = 0."""
    vals = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x1 * vals[i] - x0 * vals[i + 1]) / (x1 - x0)
    return vals[0]


def critical_value_estimate(
    grid: TorusGrid,
    spec: LagrangianSpec,
    stencil: VelocityStencil,
    lambda_schedule,
    kernel: ActionKernel | None = None,
) -> tuple[float, CriticalValueTable]:
    """Estimate c(H) from -lambda*u_lambda along a decreasing lambda schedule.

    For each lambda, finds the exact discounted solution u_lambda at shift
    c = 0 by policy iteration (at most _MAX_ROUNDS rounds, else
    ConvergenceError), records the node range of -lambda*u_lambda, and
    Richardson-extrapolates the midpoint sequence to lambda = 0 (Neville on
    the last three points). The per-lambda spread max - min must shrink along
    the schedule; if it does not, the table carries a warning flag signaling
    a too-coarse discretization. A given kernel must be that of grid and
    stencil at shift 0; it is built here when None.
    """
    lambdas = [float(l) for l in lambda_schedule]
    if len(lambdas) < 3:
        raise WeakKamError("the lambda schedule needs at least 3 entries")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise WeakKamError("the lambda schedule must be strictly decreasing")

    if kernel is None:
        kernel = build_kernel(grid, spec, stencil, c=0.0)
    _check_kernel(kernel, grid, stencil, 0.0)
    mins, maxs, mids, spreads, rounds = [], [], [], [], []
    for lam in lambdas:
        u, _, n_rounds, _ = discounted_policy_iteration(kernel, lam)
        neg = -lam * u
        mins.append(float(neg.min()))
        maxs.append(float(neg.max()))
        mids.append(0.5 * (mins[-1] + maxs[-1]))
        spreads.append(maxs[-1] - mins[-1])
        rounds.append(n_rounds)

    tail = min(3, len(lambdas))
    c_est = _neville_at_zero(lambdas[-tail:], mids[-tail:])
    warn = any(s2 > s1 * 1.1 + 1e-12 for s1, s2 in zip(spreads, spreads[1:]))
    table = CriticalValueTable(
        lambdas=tuple(lambdas), mins=tuple(mins), maxs=tuple(maxs), mids=tuple(mids),
        spreads=tuple(spreads), c_est=float(c_est), spread_warning=warn, rounds=tuple(rounds))
    return float(c_est), table


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class TrajectorySample:
    """Backward orbit of the converged policy from a start node."""

    start: int
    nodes: np.ndarray            # length N+1, nodes[0] = start, going backward in time
    offsets: np.ndarray          # length N, stencil offset index used at each step
    speeds: np.ndarray           # length N


def backward_trajectory(sol: DiscountedSolution, x0: int, n_steps: int) -> TrajectorySample:
    """Follow sol.policy backward n_steps steps from x0."""
    succ = sol.kernel.neighbors(-1, sol.policy, np.arange(sol.grid.num_nodes))
    nodes = np.empty(n_steps + 1, dtype=np.int64)
    nodes[0] = int(x0) % sol.grid.num_nodes
    for i in range(n_steps):
        nodes[i + 1] = succ[nodes[i]]
    offsets = sol.policy[nodes[:-1]].astype(np.int64)
    return TrajectorySample(start=int(x0), nodes=nodes, offsets=offsets,
                            speeds=sol.stencil.speeds()[offsets])


def calibration_residual(sol: DiscountedSolution, traj: TrajectorySample) -> float:
    """Signed defect of the discounted calibration identity along a trajectory.

    Evaluates beta^N u(gamma(-N tau)) + sum of discounted step costs - u(x0)
    by the Horner recursion of one Bellman step. u is the exact value of
    sol.policy, so policy trajectories telescope to rounding; arbitrary
    trajectories give residual >= -N*tol, the discrete domination inequality.
    """
    beta = sol.beta
    weight = (1.0 - beta) / (sol.lam * sol.tau)
    u = sol.values.values
    costs = sol.kernel.costs
    n = traj.offsets.size
    if not np.array_equal(sol.kernel.neighbors(-1, traj.offsets, traj.nodes[:n]), traj.nodes[1:]):
        raise WeakKamError("trajectory step does not match its recorded offset")
    acc = u[traj.nodes[n]]
    for i in range(n - 1, -1, -1):
        acc = weight * costs[traj.offsets[i], traj.nodes[i + 1]] + beta * acc
    return float(acc - u[traj.nodes[0]])


# ---------------------------------------------------------------------------
# discounted occupation measures


class EdgeMeasure:
    """Weights on stencil edges keyed by (tail node, offset id); subclasses are
    dataclasses with fields grid, stencil, tails, offset_ids and weights."""

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def node_marginal(self) -> np.ndarray:
        return np.bincount(self.tails, self.weights, self.grid.num_nodes)

    def heads(self) -> np.ndarray:
        steps = np.array(self.stencil.offsets, dtype=np.int64).reshape(self.stencil.num_offsets, -1)
        return self.grid.shift_indices(self.tails, steps[self.offset_ids].T)


@dataclass(frozen=True)
class DiscountedOccupationMeasure(EdgeMeasure):
    """Geometric edge weights along a backward policy trajectory.

    Edge i runs from tails[i] (the earlier point) with stencil offset
    offset_ids[i]; its raw weight is (1-beta)*beta^i, renormalized to total
    mass one after truncation at N steps. The tail of the discarded series,
    beta^N, is reported so callers can judge the truncation.
    """

    grid: TorusGrid
    stencil: VelocityStencil
    lam: float
    x0: int
    tails: np.ndarray
    offset_ids: np.ndarray
    weights: np.ndarray
    steps: int
    tail_bound: float
    tail_warning: bool
    final_node: int


# the default horizon makes the discarded tail beta^N at most _TAIL_THRESHOLD,
# capped at _MAX_STEPS steps
_TAIL_THRESHOLD = 1e-8
_MAX_STEPS = 20_000_000


def discounted_occupation_measure(
    sol: DiscountedSolution, x0: int, n_steps: int | None = None
) -> DiscountedOccupationMeasure:
    """Build the discounted occupation measure of the policy orbit from x0.

    By default the horizon is chosen so the geometric tail beta^N falls below
    _TAIL_THRESHOLD (1e-8), at most _MAX_STEPS steps; a measure whose tail
    stays above the threshold, by the cap or a given n_steps, is flagged. The
    exact discrete identity sum_i w_i (Lbar_i + c) = lambda * (u(x0) -
    beta^N u(x_N)) / (1 - beta^N) holds for the renormalized weights.
    """
    beta = sol.beta
    if n_steps is None:
        needed = int(math.ceil(math.log(1.0 / _TAIL_THRESHOLD) / (sol.lam * sol.tau)))
        n_steps = min(needed, _MAX_STEPS)
    tail = beta**n_steps

    # walk the orbit x_0 = x0, x_{i+1} = x_i - o_policy[x_i] until the
    # horizon or the first repeat x_L = x_mu; step i is fixed by x_i alone
    n = sol.grid.num_nodes
    succ = sol.kernel.neighbors(-1, sol.policy, np.arange(n)).tolist()
    first_visit: dict[int, int] = {}
    x = int(x0) % n
    while len(first_visit) < n_steps and x not in first_visit:
        first_visit[x] = len(first_visit)
        x = succ[x]
    nodes = np.fromiter(first_visit, dtype=np.int64, count=len(first_visit))
    walked = nodes.size

    # step i carries (1-beta)*beta^i; on the cycle x_mu..x_{L-1} step i recurs
    # at i + period, i + 2*period, ... up to N-1, a geometric series in
    # beta^period with count_i terms
    raw = (1.0 - beta) * np.power(beta, np.arange(walked))
    if walked < n_steps:
        mu = first_visit[x]
        period = walked - mu
        counts = (n_steps - 1 - np.arange(mu, walked)) // period + 1
        raw[mu:] *= (1.0 - np.power(beta, period * counts)) / (1.0 - beta**period)
        x = int(nodes[mu + (n_steps - mu) % period])
    raw /= 1.0 - tail

    offsets = sol.policy[nodes]
    tails = sol.kernel.neighbors(-1, offsets, nodes)
    order = np.argsort(tails * sol.stencil.num_offsets + offsets)
    tails = tails[order].astype(np.int64)
    offset_ids = offsets[order].astype(np.int64)
    weights = raw[order]

    return DiscountedOccupationMeasure(
        grid=sol.grid,
        stencil=sol.stencil,
        lam=sol.lam,
        x0=int(x0),
        tails=tails,
        offset_ids=offset_ids,
        weights=weights,
        steps=n_steps,
        tail_bound=float(tail),
        tail_warning=bool(tail > _TAIL_THRESHOLD),
        final_node=x,
    )
