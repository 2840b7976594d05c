"""One-step action kernels, min-plus matrix algebra, and the Peierls barrier.

The kernel is the single edge-cost graph shared by every solver in the
package: the Peierls barrier, the discounted policy iteration and the
occupation-measure programs all price the directed edge y -> y + tau*v_k with

    cost(y -> head) = tau * (Lbar(y, k) + c),
    Lbar(y, k) = (L(y, v_k) + L(head, v_k)) / 2.

Averaging the two endpoint values (trapezoidal in time) keeps the finite-time
action free of the O(tau * osc V) telescoping bias a one-sided rule carries,
while every cross-solver identity stays exact because all modules read the
same arrays.

The kernel stores Lbar alone. On the torus the graph is a Cayley graph, an
edge's head its tail plus the stencil offset, so every pass reads the ends
of its edges by offset arithmetic: `ActionKernel.gather` copies a block of
offsets from windows of wrap-padded values, `ActionKernel.neighbors`
shifts given nodes, and no (offsets, nodes) index table is stored.

The Peierls barrier is exact on this graph: the minimum mean cycle, by
Howard's policy iteration, gives the critical shift and the CriticalGraph
(critical nodes, Mather classes, one cycle per class), and the barrier is
the shortest path through the critical nodes, a min-plus product of factors
with one row per Mather class. Min-plus powers h_{n tau} stay as the
brute-force oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, EmptyAubryError, WeakKamError
from .models import GridFunction, LagrangianSpec, TorusGrid, VelocityStencil, eval_lagrangian

__all__ = [
    "ActionKernel",
    "BarrierMatrix",
    "AubryReport",
    "build_kernel",
    "minplus_product",
    "minplus_power",
    "barrier_step",
    "CriticalGraph",
    "tight_subgraph",
    "peierls_barrier",
    "aubry_set",
    "mather_classes",
    "aubry_report",
    "verify_subsolution",
]


# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True, eq=False)
class ActionKernel:
    """Sparse one-step edges y -> y + o_k costing tau*(Lbar(y,k) + c), stored
    as Lbar alone: every pass reads the ends of the edges by offset
    arithmetic, through `gather` or `neighbors`. The kernel at another shift,
    replace(kernel, c=c2), shares every array."""

    grid: TorusGrid
    stencil: VelocityStencil
    c: float
    edge_lagrangian: np.ndarray  # (num_offsets, num_nodes), Lbar indexed by tail

    @property
    def num_nodes(self) -> int:
        return self.grid.num_nodes

    @property
    def num_offsets(self) -> int:
        return self.stencil.num_offsets

    def _priced(self, lbar: np.ndarray) -> np.ndarray:
        """tau*(lbar + c) in place: the one place c and tau are applied."""
        lbar += self.c
        lbar *= self.stencil.tau
        return lbar

    @cached_property
    def costs(self) -> np.ndarray:
        """(num_offsets, num_nodes) costs by tail, derived on first read and read-only."""
        costs = self._priced(self.edge_lagrangian.copy())
        costs.flags.writeable = False
        return costs

    def costs_by_head(self) -> np.ndarray:
        """(num_offsets, num_nodes) costs of the edge into each node, a fresh
        array on every call: the cost_in of every pass over the in-edges."""
        return self._priced(self.lagrangian_by_head())

    def lagrangian_by_head(self) -> np.ndarray:
        """(num_offsets, num_nodes) Lbar of the edge into each node, a fresh
        array: row k is Lbar[k] gathered at the tails x - o_k."""
        out = np.empty_like(self.edge_lagrangian)
        for lo, hi in self._chunks():
            self.gather(self.edge_lagrangian[lo:hi], -1, lo, hi, out[lo:])
        return out

    def _chunks(self):
        """(lo, hi) of each chunk of offsets whose rows, wrap-padded as gather
        pads them, hold at most one block of _BLOCK_ROWS rows of floats."""
        return _blocks(self.num_offsets, _BLOCK_ROWS * self.num_nodes // self._layout[1].size)

    @cached_property
    def _layout(self):
        """The offsets as a (num_offsets, dim) array; the node indices of the
        grid wrap-padded by the stencil radius R per axis, node 0's flat
        position R there, each offset's flat shift there, and the end of the
        run of offsets, shifts stepping by one, that each offset is in."""
        steps = np.array(self.stencil.offsets, dtype=np.int64).reshape(self.num_offsets, -1)
        radius = np.abs(steps).max(axis=0)
        axes = [np.arange(-r, n + r) % n for r, n in zip(radius.tolist(), self.grid.sizes)]
        pad_index = np.ravel_multi_index(np.ix_(*axes), self.grid.sizes)
        strides = np.array(pad_index.strides) // pad_index.itemsize
        shifts = steps @ strides
        ends = np.append(np.flatnonzero(np.diff(shifts) != 1) + 1, self.num_offsets)
        return (steps, pad_index, int(radius @ strides), shifts.tolist(),
                np.repeat(ends, np.diff(ends, prepend=0)).tolist())

    def gather(self, values: np.ndarray, sign: int, lo: int, hi: int, out: np.ndarray):
        """out[j, x] = values[x + sign*o_k] for the offsets k = lo + j < hi, in
        the C-ordered buffer out, returned as out[:hi - lo]: the values at the
        tails of the in-edges (sign -1) or the heads of the out-edges (+1).
        values is one vector, or one row per offset, row j for offset lo + j.
        It is copied wrap-padded by the stencil radius and read one strided
        window per run of offsets, so no index array is formed."""
        _, pad_index, center, shifts, ends = self._layout
        padded, block = np.take(values, pad_index, axis=-1), out[:hi - lo]
        windows, item = block.reshape(hi - lo, *self.grid.sizes), padded.itemsize
        row = padded.strides[0] if values.ndim > 1 else 0  # from one offset's row to the next
        a = lo
        while a < hi:
            b = min(ends[a], hi)
            windows[a - lo:b - lo] = np.ndarray(
                (b - a, *self.grid.sizes), padded.dtype, padded,
                (a - lo) * row + (center + sign * shifts[a]) * item,
                (row + sign * item, *padded.strides[values.ndim - 1:]))
            a = b
        return block

    def neighbors(self, sign: int, ks, nodes) -> np.ndarray:
        """node + sign*o_k of each (offset k, node) pair, ks and nodes
        broadcast: the head of out-edge k at a tail (sign +1), or the tail of
        in-edge k at a head (-1), by index arithmetic."""
        steps = sign * self._layout[0][np.asarray(ks)]
        return self.grid.shift_indices(nodes, np.moveaxis(steps, -1, 0))

    def _table(self, sign: int) -> np.ndarray:
        table = self.neighbors(sign, *np.ogrid[:self.num_offsets, :self.num_nodes])
        table.flags.writeable = False
        return table

    # (num_offsets, num_nodes) head of each edge by tail, and tail of each edge
    # by head: derived read-only on first read, for dense() and the tests
    head_index = cached_property(lambda self: self._table(1))
    pred_index = cached_property(lambda self: self._table(-1))

    def dense(self) -> np.ndarray:
        """Dense (n, n) cost matrix with +inf on non-stencil pairs; offsets
        that alias one head on a tiny grid keep the least cost."""
        mat = np.full((self.num_nodes, self.num_nodes), np.inf)
        tails = np.broadcast_to(np.arange(self.num_nodes), self.head_index.shape)
        np.minimum.at(mat, (tails, self.head_index), self.costs)
        return mat


def build_kernel(
    grid: TorusGrid,
    spec: LagrangianSpec,
    stencil: VelocityStencil,
    c: float,
) -> ActionKernel:
    """Assemble the shared edge graph at shift c: its Lbar."""
    if spec.dim != grid.dim:
        raise WeakKamError("spec dimension does not match the grid")
    if any(max(abs(off[a]) for off in stencil.offsets) * h >= 0.5
           for a, h in enumerate(grid.spacing)):
        raise WeakKamError("stencil displacement exceeds half the torus: wrap is ambiguous")
    n, m, coords = grid.num_nodes, stencil.num_offsets, grid.coordinates
    kernel = ActionKernel(grid=grid, stencil=stencil, c=float(c), edge_lagrangian=np.empty((m, n)))
    lag = kernel.edge_lagrangian
    if spec.family == "mechanical":
        # L(x, v_k) = K_k - V(x), K_k = |v_k - w|^2/2: V once on the nodes, then L at
        # the tails plus L at the heads by chunks of 4096 floats, so the V gathered
        # there and numpy's ufunc buffer for the broadcast V hold 64 kB together
        dv = stencil.velocities - np.asarray(spec.drift)
        lag[:], pot = 0.5 * np.sum(dv * dv, axis=1)[:, None], spec.potential(coords)
        at_head = np.empty((min(max(1, 4096 // n), m), n))
        for lo, hi in _blocks(m, len(at_head)):
            head, tail = kernel.gather(pot, 1, lo, hi, at_head), lag[lo:hi]
            np.subtract(tail, head, out=head)
            tail -= pot
            tail += head
    else:  # one offset at a time: L at the heads is gathered from L at the tails
        for row, off, v in zip(lag, stencil.offsets, stencil.velocities):
            tail = eval_lagrangian(spec, coords, np.broadcast_to(v, (n, grid.dim)))
            np.add(tail, tail[grid.shift_indices(np.arange(n), off)], out=row)
    lag *= 0.5
    return kernel


# ---------------------------------------------------------------------------
# min-plus algebra


@dataclass(frozen=True, eq=False)
class BarrierMatrix:
    """Dense pairwise action values: h_{n tau} at a horizon, or the Peierls barrier.

    steps is the horizon n of a min-plus power and None for the barrier; the
    barrier carries its row fixed-point residual, stability flag,
    Bellman-Ford round count and critical graph instead; its values are
    made from factors with one row per Mather class (peierls_barrier).
    """

    values: np.ndarray           # (num_nodes, num_nodes)
    tau: float
    c: float
    steps: int | None = None     # exact horizon n for h_{n tau}, else None
    residual: float | None = None
    stable: bool | None = None
    relax_rounds: int | None = None        # Bellman-Ford rounds of the barrier
    graph: CriticalGraph | None = None     # the critical graph the barrier rests on

    @property
    def num_nodes(self) -> int:
        return self.values.shape[1]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.values).copy()

    def row(self, y: int) -> np.ndarray:
        return self.values[y]


def minplus_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(min, +) matrix product; +inf encodes a missing edge. The result starts
    as the first term with a finite entry in a's column; later terms share one buffer."""
    n = a.shape[1]
    if b.shape[0] != n:
        raise WeakKamError("inner dimensions do not match")
    out = term = None
    for k in range(n):
        col = a[:, k]
        if not np.isfinite(col).any():
            continue
        if out is None:
            out = col[:, None] + b[k, :][None, :]
        else:
            term = np.add(col[:, None], b[k, :][None, :], out=term)
            np.minimum(out, term, out=out)
    return np.full((a.shape[0], b.shape[1]), np.inf) if out is None else out


def minplus_power(kernel: ActionKernel, n: int) -> BarrierMatrix:
    """n-step minimal path costs h_{n tau} by repeated min-plus squaring."""
    if n < 1:
        raise WeakKamError("power requires n >= 1")
    base = kernel.dense()
    acc = None
    sq = base
    bits = n
    while bits:
        if bits & 1:
            acc = sq if acc is None else minplus_product(acc, sq)
        bits >>= 1
        if bits:
            sq = minplus_product(sq, sq)
    return BarrierMatrix(values=acc, tau=kernel.stencil.tau, c=kernel.c, steps=n)


# offsets per block of every pass over the in-edges: a pass holds blocks of
# (_BLOCK_ROWS, num_nodes) values, never the whole (num_offsets, num_nodes) array
_BLOCK_ROWS = 64


def _blocks(m: int, rows: int | None = None):
    """(lo, hi) of each block of at most rows, by default _BLOCK_ROWS, of m offsets, in order."""
    rows = rows or _BLOCK_ROWS
    return [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def _block_buffer(shape: tuple[int, int], dtype=float) -> np.ndarray:
    """A C-ordered buffer for one block of an (offsets, nodes) array of this shape."""
    return np.empty((min(_BLOCK_ROWS, shape[0]), shape[1]), dtype=dtype)


def _relax(h: np.ndarray, cost_in: np.ndarray, kernel: ActionKernel, sign: int,
           cand: np.ndarray) -> np.ndarray:
    """One relaxation: out(y, x) = min_k h(y, x + sign*o_k) + cost_in[k, x],
    over the in-edges of x (sign -1) or its out-edges (+1).

    Row y's candidates fill the caller's C-ordered buffer cand, of at least
    min(_BLOCK_ROWS, num_offsets) rows, one block of offsets at a time by
    kernel.gather (cost_in may be a broadcast view), and a running minimum
    over the blocks goes straight into the output row. min is exact, so the
    floats are those of a per-offset running minimum whatever the block size.
    """
    out, low, blocks = np.empty_like(h), np.empty(h.shape[1]), _blocks(kernel.num_offsets)
    for r in range(h.shape[0]):
        for lo, hi in blocks:
            block = kernel.gather(h[r], sign, lo, hi, cand)
            np.add(block, cost_in[lo:hi], out=block)
            if lo:
                np.minimum(out[r], np.min(block, axis=0, out=low), out=out[r])
            else:
                np.min(block, axis=0, out=out[r])
    return out


def _reduced_cost_blocks(kernel: ActionKernel, weights, phi, shift=0.0, head_first=False):
    """(lo, hi, block) per block of offsets, block[j, x] the reduced cost
    (weights - shift) - phi(x) + phi(x + o_k) of out-edge k = lo + j, in a
    buffer the next block overwrites: the one pass that prices edges against
    potentials. The terms come in the order phi was built in, so its own
    edges price at exactly 0: the tail's first for a bias or a subsolution,
    the head's (head_first) for shortest paths to a cycle."""
    buf, at_head, at_tail = _block_buffer(weights.shape), _block_buffer(weights.shape), -phi
    for lo, hi in _blocks(kernel.num_offsets):
        block = np.subtract(weights[lo:hi], shift, out=buf[:hi - lo])
        at = (kernel.gather(phi, 1, lo, hi, at_head), at_tail)
        for term in (at if head_first else at[::-1]):  # x + -y is x - y, bit for bit
            block += term
        yield lo, hi, block


def barrier_step(kernel: ActionKernel, h: np.ndarray) -> np.ndarray:
    """One Lax-Oleinik step h'(y, x) = min_z h(y, z) + cost(z -> x), by _relax."""
    cost_in = kernel.costs_by_head()
    return _relax(h, cost_in, kernel, -1, _block_buffer(cost_in.shape))


# a node switches in-edge only when that lowers its value by more than this
# fraction of the largest one, well above their rounding
_IMPROVE_RTOL = 1e-14
# round cap of every Howard run, read when it starts; the shipped configs take
# at most 10 rounds, pendulum n=1000 down to lambda = 1e-7 takes 15
_MAX_ROUNDS = 1000


def _howard_rounds(what: str):
    """Rounds 1, 2, ... of one Howard run; ConvergenceError past _MAX_ROUNDS."""
    yield from range(1, _MAX_ROUNDS + 1)
    raise ConvergenceError(f"{what}: policy iteration hit the cap of {_MAX_ROUNDS} rounds "
                           "with a node still improving", iterations=_MAX_ROUNDS)


def _reduce(fill, shape: tuple[int, int], policy: np.ndarray | None = None):
    """(low, best, held) over an (offsets, nodes) array q of this shape that
    is never formed: fill(lo, hi) gives its rows lo:hi, one block at a time.

    low is q.min(axis=0), a running minimum, which is exact; best is
    q.argmin(axis=0), a running argmin that moves on a strict < only, so
    ties go to the lowest offset across blocks as within one; held is
    q[policy, cols], each node's value at its policy offset, read as that
    offset's block passes (None without a policy).
    """
    n = shape[1]
    cols = np.arange(n)
    low, best = np.full(n, np.inf), np.zeros(n, dtype=np.intp)
    held = None if policy is None else np.empty(n)
    block_best = np.empty(n, dtype=np.intp)
    for lo, hi in _blocks(shape[0]):
        q = fill(lo, hi)
        q.argmin(axis=0, out=block_best)
        block_low = q[block_best, cols]
        lower = block_low < low
        np.copyto(low, block_low, where=lower)
        np.copyto(best, block_best + lo, where=lower)
        if policy is not None:
            mine = (policy >= lo) & (policy < hi)
            held[mine] = q[policy[mine] - lo, cols[mine]]
    return low, best, held


def _improve(fill, shape: tuple[int, int], policy: np.ndarray, scale: float):
    """Howard's improvement step on in-edge values q (offset by node), given
    block by block as _reduce takes them: a node moves to its argmin, ties
    to the lowest index, only on a gain above _IMPROVE_RTOL * scale, so
    exact ties keep the incumbent. Returns the improved policy, None if no
    node gains, and q.min(axis=0)."""
    low, best, held = _reduce(fill, shape, policy)
    better = held - low > _IMPROVE_RTOL * scale
    return (np.where(better, best, policy) if better.any() else None), low


def _evaluate_cycle_policy(
    kernel: ActionKernel, lag_in: np.ndarray, policy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle means and biases of the policy x -> x - o_policy[x], exactly.

    Each node's orbit is a rho: a tail into one cycle. A cycle's mean eta is
    the sum of its Lbar (math.fsum) over its length; its lowest node gets
    bias 0 (so a cycle that outlives a round keeps its biases, and the
    rounds cannot loop), and every other node of the rho the bias
    v(x) = Lbar(x) - eta + v(next), walked back from that root.
    """
    n = kernel.num_nodes
    cols = np.arange(n)
    succ = kernel.neighbors(-1, policy, cols).tolist()
    step = lag_in[policy, cols].tolist()
    eta = [0.0] * n
    bias = [0.0] * n
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 evaluated
    for start in range(n):
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = succ[x]
        if state[x] == 1:  # the walk closed a new cycle at x
            cut = path.index(x)
            cycle = path[cut:]
            low = cycle.index(min(cycle))
            cycle = cycle[low:] + cycle[:low]
            mean = math.fsum(step[y] for y in cycle) / len(cycle)
            for y in cycle:
                eta[y], state[y] = mean, 2
            for y in reversed(cycle[1:]):
                bias[y] = step[y] - mean + bias[succ[y]]
            path = path[:cut]
        for y in reversed(path):
            eta[y] = eta[succ[y]]
            bias[y] = step[y] - eta[y] + bias[succ[y]]
            state[y] = 2
    return np.array(eta), np.array(bias)


def _min_cycle_mean(kernel: ActionKernel, lag_in: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Minimum mean Lbar over cycles by Howard's policy iteration, on the
    kernel's in-edges with Lbar lag_in by head.

    A policy picks one in-edge per node (a functional graph), starting from
    each node's cheapest one. A round evaluates it exactly, then improves it
    by `_improve`: a node first moves to the in-edge whose tail has the least
    cycle mean, and when no node can lower its mean, to the in-edge of least
    bias among tails of equal mean to within _improve's threshold (lest two
    cycles whose equal means round apart hide a third below both). The last
    round finds nothing to improve; ConvergenceError after _MAX_ROUNDS.
    Returns the mean, that of an actual cycle of the graph, the last round's
    bias, which then meets bias(head) <= Lbar - mean + bias(tail) on every
    edge to within _IMPROVE_RTOL * max|bias|, and the number of rounds. The
    improvement passes run block by block in two float buffers and a mask
    of one block each, which every round reuses.
    """
    shape = lag_in.shape
    policy = _reduce(lambda lo, hi: lag_in[lo:hi], shape)[1]
    gathered, q = _block_buffer(shape), _block_buffer(shape)
    off_mean = _block_buffer(shape, dtype=bool)
    for rounds in _howard_rounds("minimum mean cycle"):
        eta, bias = _evaluate_cycle_policy(kernel, lag_in, policy)
        eta_tol = _IMPROVE_RTOL * np.abs(eta).max()

        def eta_in(lo, hi):  # the cycle mean at each in-edge's tail
            return kernel.gather(eta, -1, lo, hi, gathered)

        def reduced(lo, hi):  # lag_in - eta + bias(tail) from tails of equal mean, else inf
            off = np.greater(np.subtract(eta_in(lo, hi), eta, out=q[:hi - lo]), eta_tol,
                             out=off_mean[:hi - lo])
            block = np.subtract(lag_in[lo:hi], eta, out=q[:hi - lo])
            block += kernel.gather(bias, -1, lo, hi, gathered)
            np.copyto(block, np.inf, where=off)
            return block

        # gains are measured against each node's own in-edge, so a cycle's
        # root, whose bias is 0 by definition, never switches on rounding
        improved = _improve(eta_in, shape, policy, np.abs(eta).max())[0]
        if improved is None:
            improved = _improve(reduced, shape, policy, np.abs(bias).max())[0]
            if improved is None:
                return float(eta.min()), bias, rounds
        policy = improved


@dataclass(frozen=True, eq=False)
class CriticalGraph:
    """Howard's minimum mean Lbar and the critical classes and cycles.

    classes are the strongly connected components of the tight edges that
    carry a cycle (the Mather classes), each sorted, ordered by lowest node;
    cycles[i] is a cycle of classes[i] as edge ids k*n + tail in walking order;
    howard_rounds counts the rounds of the Howard run that gave the mean.
    """

    mean: float
    classes: list[list[int]]
    cycles: list[np.ndarray]
    howard_rounds: int


def _cyclic_components(adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of adj that carry a cycle, each sorted,
    ordered by lowest node: Tarjan's algorithm (1972) on an explicit call
    stack, O(nodes + edges). A node's index is its position on Tarjan's
    stack, which orders the nodes there as discovery does, and n once its
    component is out.
    """
    n = len(adj)
    index, low = [-1] * n, [0] * n
    stack, classes = [], []
    for root in range(n):
        calls = [] if index[root] >= 0 else [(root, iter(adj[root]))]
        while calls:
            v, edges = calls[-1]
            if index[v] < 0:
                index[v] = low[v] = len(stack)
                stack.append(v)
            for w in edges:
                if index[w] < 0:
                    calls.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                calls.pop()
                if calls:
                    u = calls[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = stack[index[v]:]
                    del stack[index[v]:]
                    for w in comp:
                        index[w] = n
                    if len(comp) > 1 or v in adj[v]:
                        classes.append(sorted(comp))
    return sorted(classes)


def tight_subgraph(kernel: ActionKernel) -> CriticalGraph:
    """The CriticalGraph of the kernel, by the package's one criticality test.

    The mean comes from Howard's policy iteration (ConvergenceError when it
    runs out of rounds) and is the mean of a real cycle, so that cycle's
    reduced costs Lbar - mean sum to zero up to rounding, and a self-loop's
    is exactly zero. An edge is tight when its slack under Howard's terminal
    bias, Lbar - mean + bias(tail) - bias(head), is at most 1e-9: no slack
    is below -1e-14 * max|bias|, so every minimum mean cycle runs on tight
    edges, and every tight cycle has mean within 1e-9 of the minimum. A
    class's cycle walks from its lowest node along each node's lowest-offset
    tight edge inside the class until a node repeats. Howard's gathered Lbar
    is freed before the slack test, _reduced_cost_blocks at phi = -bias,
    which fills an (m, n) mask; the class test reads the tight edges alone.

    Only edge_lagrangian and the offsets are read, so the result does not
    depend on the kernel's shift c: one call serves every kernel built on
    the same grid, Lagrangian and stencil.
    """
    m, n = kernel.edge_lagrangian.shape
    mean, bias, rounds = _min_cycle_mean(kernel, kernel.lagrangian_by_head())
    tight = np.empty((m, n), dtype=bool)
    for lo, hi, slack in _reduced_cost_blocks(kernel, kernel.edge_lagrangian, -bias, mean):
        np.less_equal(slack, 1e-9, out=tight[lo:hi])

    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (offset, head) by tail
    tails, ks = np.nonzero(tight.T)  # by tail, then offset
    for tail, k, head in zip(tails.tolist(), ks.tolist(), kernel.neighbors(1, ks, tails).tolist()):
        out[tail].append((k, head))
    classes = _cyclic_components([[head for _, head in edges] for edges in out])
    if not classes:
        raise WeakKamError("no tight cycle found; potentials failed to stabilize")

    label = [-1] * n
    for i, cls in enumerate(classes):
        for x in cls:
            label[x] = i
    cycles = []
    for cls in classes:
        seen, x = {}, cls[0]  # node -> offset of its step, in walking order
        while x not in seen:
            seen[x], head = next((k, head) for k, head in out[x] if label[head] == label[x])
            x = head
        walk = list(seen)
        cycles.append(np.array([seen[y] * n + y for y in walk[walk.index(x):]], dtype=np.int64))
    return CriticalGraph(mean=mean, classes=classes, cycles=cycles, howard_rounds=rounds)


def _distances(cost_in, kernel: ActionKernel, sign: int, d: np.ndarray,
               free=True) -> tuple[np.ndarray, int]:
    """Bellman-Ford from the rows d, in place: least cost over paths of any length.

    Each round is one _relax of d by cost_in on the kernel's in-edges (sign
    -1) or out-edges (+1), all rounds sharing one block of candidates, and a
    node that free marks takes its relaxed value on strict improvement only.
    Without negative cycles the rows settle within num_nodes rounds. Returns
    d and the number of rounds run, the last of which changes nothing unless
    num_nodes ran out.
    """
    cand = _block_buffer(cost_in.shape)
    for rounds in range(1, kernel.num_nodes + 1):
        step = _relax(d, cost_in, kernel, sign, cand)
        better = (step < d) & free
        if not better.any():
            break
        d[better] = step[better]
    return d, rounds


# a barrier is stable when its fixed-point residual is at most this
TOL_STABLE = 1e-6


def peierls_barrier(kernel: ActionKernel, tight: CriticalGraph | None = None) -> BarrierMatrix:
    """Exact Peierls barrier from the critical graph of the action kernel.

    Under the reduced costs tau*(Lbar - mean), the kernel's at shift -mean
    with mean Howard's minimum mean Lbar, no cycle is negative and the
    critical nodes (those of the CriticalGraph's classes) carry the
    zero-cost cycles. The liminf of h_{n tau} is then h(y, x) = min over
    critical z of d(y, z) + d(z, x), d the least cost over paths of any
    length (max-plus spectral theory).

    Two nodes of one class lie on a zero-cost cycle, so their rows d(z, .)
    and columns d(., z) differ by a constant and give the same term: one
    source per class, its lowest node r, suffices, and h is the min-plus
    product of the factors d(., r) and d(r, .) (Baccelli, Cohen, Olsder &
    Quadrat, Synchronization and Linearity, 1992, ch. 3).

    tight is the CriticalGraph of tight_subgraph for this kernel's
    Lagrangian, computed here when None and kept as the barrier's graph. It
    does not depend on the shift, so a caller that already ran it on a kernel
    at another shift passes it in instead of running Howard's method again.

    values is one barrier step of h at the kernel's own shift, taken on the
    factor d(r, .), one row per class, and residual is that step's
    fixed-point defect on the factor rows, max |step(d(r, .)) - d(r, .)| over
    their finite entries. A min-plus product is 1-Lipschitz in the sup norm,
    so this bounds max |values - h|. At the critical shift the factor rows
    are Bellman-Ford fixed points, which a step gives back bit for bit but at
    the source (the least cycle through it, 0 up to rounding), so the
    residual is 0 or rounding; off it, tau*|mean + c|. The barrier is stable
    when the residual is at most TOL_STABLE. relax_rounds counts the
    Bellman-Ford rounds of both distance passes.
    """
    tau = kernel.stencil.tau
    graph = tight_subgraph(kernel) if tight is None else tight
    reps = np.array([cls[0] for cls in graph.classes], dtype=np.int64)
    start = np.full((reps.size, kernel.num_nodes), np.inf)
    start[np.arange(reps.size), reps] = 0.0
    # each pass prices its own view at shift -mean, released when it returns:
    # forward d(r, x) on in-edges by head, backward d(y, r) as row r on out-edges by tail
    from_rep, rounds_from = _distances(
        replace(kernel, c=-graph.mean).costs_by_head(), kernel, -1, start.copy())
    to_rep, rounds_to = _distances(replace(kernel, c=-graph.mean).costs, kernel, 1, start)
    stepped = barrier_step(kernel, from_rep)
    finite = np.isfinite(from_rep)
    residual = float(np.abs(stepped[finite] - from_rep[finite]).max())
    return BarrierMatrix(values=minplus_product(to_rep.T, stepped), tau=tau, c=kernel.c,
                         residual=residual, stable=bool(residual <= TOL_STABLE),
                         relax_rounds=rounds_from + rounds_to, graph=graph)


# ---------------------------------------------------------------------------
# Aubry set and Mather classes


def aubry_set(h: BarrierMatrix, eps: float) -> np.ndarray:
    """Nodes with h(y, y) <= eps; empty output is an error, not a result."""
    diag = h.diagonal()
    nodes = np.nonzero(diag <= eps)[0]
    if nodes.size == 0:
        raise EmptyAubryError(
            f"no node satisfies h(y,y) <= {eps:.3g} (min diagonal {diag.min():.3g}); "
            "the critical shift or eps is misconfigured"
        )
    return nodes.astype(np.int64)


def mather_classes(h: BarrierMatrix, aubry: np.ndarray, eps: float) -> list[list[int]]:
    """Union-find components of delta_M(x, y) <= eps on the Aubry nodes."""
    aubry = np.asarray(aubry, dtype=np.int64)
    m = aubry.size
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    vals = h.values
    for i in range(m):
        for j in range(i + 1, m):
            delta = vals[aubry[i], aubry[j]] + vals[aubry[j], aubry[i]]
            if delta <= eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(int(aubry[i]))
    return [sorted(groups[r]) for r in sorted(groups)]


@dataclass(frozen=True, eq=False)
class AubryReport:
    """Aubry nodes, their diagonal values, and the Mather-class structure."""

    nodes: np.ndarray
    diagonal: np.ndarray        # h(y, y) for y in nodes
    classes: list[list[int]]


def aubry_report(h: BarrierMatrix) -> AubryReport:
    """The Aubry nodes and Mather classes of h's CriticalGraph, and h's
    diagonal on them.

    The classes are the graph's cyclic SCCs of tight edges, so no tolerance
    is read; aubry_set and mather_classes stay as the eps-based oracles that
    decide these sets from h alone.
    """
    if h.graph is None:
        raise WeakKamError("aubry_report needs a barrier built on a critical graph")
    nodes = np.array(sorted(y for cls in h.graph.classes for y in cls), dtype=np.int64)
    return AubryReport(nodes=nodes, diagonal=h.diagonal()[nodes], classes=h.graph.classes)


# ---------------------------------------------------------------------------
# subsolution verifier


def verify_subsolution(u: GridFunction | np.ndarray, kernel: ActionKernel) -> float:
    """Worst violation of u(head) - u(tail) <= cost over all kernel edges,
    minus the least reduced cost of kernel.costs at phi = -u (+0.0 for 0).

    A value <= tol certifies a discrete critical subsolution when the kernel
    carries the critical shift. A non-finite u raises WeakKamError: a NaN
    would drop out of the minimum and pass.
    """
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)
    if vals.shape != (kernel.num_nodes,):
        raise WeakKamError("u must assign one value per grid node")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise WeakKamError(f"u must be finite at every node; u[{bad[0]}] = {vals[bad[0]]}")
    return 0.0 - min(float(block.min())
                     for _, _, block in _reduced_cost_blocks(kernel, kernel.costs, -vals))
