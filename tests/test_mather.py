import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakkam as wk
from weakkam import action_barrier, discounted, mather
from weakkam.action_barrier import _min_cycle_mean, tight_subgraph
from weakkam.errors import ConvergenceError, EmptyAubryError, WeakKamError
from weakkam.mather import _CERT_TOL, _certifies, _cycle_potentials, _solve_edge_program
from weakkam.simplex import solve_standard_form

from conftest import (PEAK_SLACK, make_problem, pendulum_potential, table_kernel, traced_peak,
                      two_well_potential)


def _reduced_costs(kernel, weights, phi):
    """weights + phi(head) - phi(tail) per edge, (num_offsets, num_nodes) by tail.

    For weights = c - value this is c - yA over the columns of dense_edge_columns
    at y = phi - phi[n - 1] on the conservation rows, value on the mass row
    and 0 on the budget row. The production check takes only its minimum,
    block by block (action_barrier._reduced_cost_blocks); this full array is
    the oracle for it.
    """
    reduced = np.take(phi, kernel.head_index)
    reduced += weights
    reduced -= phi
    return reduced


def cycle_mean_oracle(kernel):
    """Exhaustive minimum mean over simple cycles, via networkx enumeration."""
    import networkx as nx

    g = nx.DiGraph()
    for k in range(kernel.num_offsets):
        for tail in range(kernel.num_nodes):
            head = int(kernel.head_index[k, tail])
            w = float(kernel.edge_lagrangian[k, tail])
            if g.has_edge(tail, head):
                w = min(w, g[tail][head]["weight"])
            g.add_edge(tail, head, weight=w)
    best = np.inf
    for cyc in nx.simple_cycles(g):
        total = sum(
            g[cyc[i]][cyc[(i + 1) % len(cyc)]]["weight"] for i in range(len(cyc))
        )
        best = min(best, total / len(cyc))
    return best


def karp_mean(kernel):
    """Karp's minimum mean Lbar over cycles, from the (n+1) x n table.

    D_k(x) = min over edges into x of D_{k-1}(tail) + Lbar(edge), D_0 = 0,
    and the mean is min over x of max over k < n of (D_n(x) - D_k(x))/(n - k).
    """
    n = kernel.num_nodes
    pred = kernel.pred_index
    lag_in = np.take_along_axis(kernel.edge_lagrangian, pred, axis=1)
    d = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        d[k] = (d[k - 1][pred] + lag_in).min(axis=0)
    ratios = (d[n][None, :] - d[:n]) / (n - np.arange(n))[:, None]
    return float(ratios.max(axis=0).min())


def closed_walk_mean_oracle(kernel):
    """Least Lbar per step over closed walks of at most n steps.

    Min-plus powers of the dense Lbar matrix give every closed walk's least
    total by length. A closed walk splits into simple cycles, so this is the
    minimum simple-cycle mean, without enumerating the cycles.
    """
    n = kernel.num_nodes
    lbar = np.full((n, n), np.inf)
    for k in range(kernel.num_offsets):
        np.minimum.at(lbar, (np.arange(n), kernel.head_index[k]), kernel.edge_lagrangian[k])
    walk, best = lbar, np.inf
    for length in range(1, n + 1):
        best = min(best, float(np.diag(walk).min()) / length)
        walk = (walk[:, :, None] + lbar[None, :, :]).min(axis=1)
    return best


def random_table8_kernel():
    rng = np.random.default_rng(3)
    grid = wk.build_grid(1, [8])
    values = rng.uniform(-1.0, 1.0, 8)
    spec = wk.mechanical(wk.table_potential(grid, values), dim=1)
    stencil = wk.make_stencil(grid, 0.25, 1.0)
    return wk.build_kernel(grid, spec, stencil, c=0.0)


def dense_edge_columns(kernel):
    """The oracle's assembly: the closed-measure constraints as a dense matrix.

    One conservation row per node except the last (rows sum to zero, so the
    last is redundant), then the unit-mass row, over flattened edges
    k*n + tail. Edge k*n + t has +1 at its tail row, -1 at its head row and
    1 in the mass row; a self-loop's pair cancels, and an end in the dropped
    last row is left out.
    """
    n = kernel.num_nodes
    n_edges = kernel.num_offsets * n
    a = np.zeros((n, n_edges))
    cols = np.arange(n_edges)
    tails = cols % n
    heads = kernel.head_index.reshape(-1)
    keep_t = tails < n - 1
    keep_h = heads < n - 1
    np.add.at(a, (tails[keep_t], cols[keep_t]), 1.0)
    np.add.at(a, (heads[keep_h], cols[keep_h]), -1.0)
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    return a, b


def dense_u0_columns(kernel, budget):
    """The u0 program: dense_edge_columns, then the budget row
    sum m Lbar + slack = budget with the slack >= 0 as the last column."""
    a_core, b_core = dense_edge_columns(kernel)
    n, n_edges = a_core.shape
    a = np.zeros((n + 1, n_edges + 1))
    a[:n, :-1] = a_core
    a[n, :-1] = kernel.edge_lagrangian.reshape(-1)
    a[n, -1] = 1.0
    return a, np.concatenate([b_core, [budget]])


BUILT = {
    "cosine4x4": lambda: make_problem(
        4, wk.cosine_potential([1.0, 1.0], [1.0, 1.0]), dim=2, tau=0.25, alpha=1.0
    ),
    "transport8": lambda: make_problem(8, drift=[0.5], tau=0.25, alpha=1.0),
    "transport32": lambda: make_problem(32, drift=[0.3]),
    "two_well32": lambda: make_problem(32, two_well_potential()),
    "drift64": lambda: make_problem(64, pendulum_potential(), drift=[2.0]),
}


def problem(name, request):
    """A problem built here, or else the conftest fixture of that name."""
    return BUILT[name]() if name in BUILT else request.getfixturevalue(name)


class TestAssembly:
    def test_free_self_loops_vanish_from_conservation_rows(self, free32):
        kernel = free32.kernel
        a, _ = dense_edge_columns(kernel)
        tails = np.tile(np.arange(32), kernel.num_offsets)
        loops = np.nonzero(kernel.head_index.reshape(-1) == tails)[0]
        assert loops.size == 32
        dense = a[:, loops]
        np.testing.assert_array_equal(dense[:-1], 0.0)
        np.testing.assert_array_equal(dense[-1], 1.0)

    def test_negative_budget_takes_the_sign_flip(self, pendulum16):
        p = pendulum16
        budget = -p.c_star + 1e-6
        assert budget < 0
        h = wk.peierls_barrier(p.kernel)
        u, ub = dense_u0_columns(p.kernel, budget)
        c = np.concatenate([np.tile(h.values[:, 5], p.kernel.num_offsets), [0.0]])
        res = solve_standard_form(u, ub, c)
        assert np.abs(u @ res.x - ub).max() <= 1e-10
        assert ub[-1] == budget  # the caller's right-hand side is left as given
        # the duals price the caller's rows, the flipped budget row included
        assert (c - res.duals @ u).min() >= -1e-9
        assert abs(res.duals @ ub - res.objective) <= 1e-9


def highs(a, b, c):
    from scipy.optimize import linprog

    res = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * c.size, method="highs")
    assert res.status == 0, res.message
    return res.fun


class TestLPCertificates:
    @pytest.mark.parametrize("name", ["pendulum16", "two_well32", "transport8"])
    def test_objectives_match_highs(self, name, request):
        p = problem(name, request)
        kernel = p.kernel
        lp = wk.solve_mather_lp(kernel)
        a_ref, b_ref = dense_edge_columns(kernel)
        assert lp.value == pytest.approx(
            highs(a_ref, b_ref, kernel.edge_lagrangian.reshape(-1)), abs=1e-9
        )

        h = wk.peierls_barrier(kernel)
        n = kernel.num_nodes
        targets = [0, n // 3, n - 1]
        u0 = wk.compute_u0(h, kernel, p.c_star, 1e-6, targets)
        u_ref, ub_ref = dense_u0_columns(kernel, -p.c_star + 1e-6)
        for t, value in zip(targets, u0.values):
            c = np.concatenate([np.tile(h.values[:, t], kernel.num_offsets), [0.0]])
            assert value == pytest.approx(highs(u_ref, ub_ref, c), abs=1e-9)

    def test_two_well60_solve_certifies_itself(self):
        # a cold solve of hundreds of pivots on the n = 60 two-well program
        kernel = make_problem(60, two_well_potential()).kernel
        a, b = dense_edge_columns(kernel)
        c = kernel.edge_lagrangian.reshape(-1)
        res = solve_standard_form(a, b, c)
        assert (c - res.duals @ a).min() >= -1e-9
        assert abs(res.duals @ b - res.objective) <= 1e-9
        assert np.abs(a @ res.x - b).max() <= 1e-10


def u0_objective(h, kernel, t):
    return np.concatenate([np.tile(h.values[:, t], kernel.num_offsets), [0.0]])


def wrong_loop(kernel):
    """The rest self-loop at the node of largest rest Lagrangian, as an edge id:
    a cycle that is not critical."""
    zero = kernel.stencil.zero_index
    return zero * kernel.num_nodes + int(np.argmax(kernel.edge_lagrangian[zero]))


def wrong_graph(kernel):
    """The kernel's CriticalGraph with wrong_loop as its only cycle."""
    return replace(tight_subgraph(kernel), cycles=[np.array([wrong_loop(kernel)])])


class TestCriticalGraphStart:
    """Both edge programs close at the measure the critical graph implies."""

    NAMES = ["pendulum16", "two_well32", "transport8", "transport32", "cosine4x4"]

    @pytest.mark.parametrize("name", NAMES)
    def test_mather_lp_takes_no_pivot(self, name, request):
        kernel = problem(name, request).kernel
        lp = wk.solve_mather_lp(kernel)
        assert lp.iterations == 0
        a, b = dense_edge_columns(kernel)
        cold = solve_standard_form(a, b, kernel.edge_lagrangian.reshape(-1))
        assert cold.iterations > 0
        assert abs(lp.value - cold.objective) <= 1e-12

    @pytest.mark.parametrize("name", NAMES)
    def test_u0_takes_no_pivot(self, name, request):
        p = problem(name, request)
        kernel = p.kernel
        h = wk.peierls_barrier(kernel)
        n = kernel.num_nodes
        targets = np.arange(0, n, max(1, n // 8))
        u0 = wk.compute_u0(h, kernel, p.c_star, 1e-6, targets)
        assert u0.fallbacks == u0.howard_runs == 0
        a, b = dense_u0_columns(kernel, -p.c_star + 1e-6)
        for t, value in zip(targets, u0.values):
            cold = solve_standard_form(a, b, u0_objective(h, kernel, t))
            assert abs(value - cold.objective) <= 1e-12

    def test_spanning_basis_prices_unequal_cycle_weights(self, pendulum16):
        # weights r + psi(tail) - psi(head), r >= 0 random and 0 on the 2-cycle
        # 0 -> 3 -> 0: no cycle is negative, the cycle is optimal, and its two
        # edges carry unequal weights, so its nodes need distinct potentials,
        # those of the spanning basis the cycle and its in-tree form
        kernel = pendulum16.kernel
        n = kernel.num_nodes
        offsets = kernel.stencil.offsets
        cycle = np.array([offsets.index((3,)) * n + 0, offsets.index((-3,)) * n + 3])
        rng = np.random.default_rng(7)
        r = rng.uniform(0.1, 1.0, kernel.edge_lagrangian.shape)
        r.reshape(-1)[cycle] = 0.0
        psi = rng.uniform(-1.0, 1.0, n)
        weights = r + psi[None, :] - psi[kernel.head_index]
        phi = _cycle_potentials(kernel, weights, cycle)
        assert phi[0] != phi[3]
        assert _certifies(kernel, weights, (cycle,), phi)
        value, _, runs = _solve_edge_program(kernel, weights, weights, cycle)
        assert runs == 0 and abs(value) <= 1e-12
        a, b = dense_edge_columns(kernel)
        assert abs(solve_standard_form(a, b, weights.reshape(-1)).objective) <= 1e-12

    @pytest.mark.usefixtures("no_simplex")
    def test_spanning_basis_refuses_a_second_cycle(self, pendulum16):
        # a negative 2-cycle 8 -> 11 -> 8 away from the given cycle: Bellman-Ford
        # never settles, so the potentials price that cycle's edges below zero
        # and one Howard run on the weights finds the cheaper cycle
        kernel = pendulum16.kernel
        n = kernel.num_nodes
        offsets = kernel.stencil.offsets
        fwd, back = offsets.index((3,)), offsets.index((-3,))
        weights = np.ones(kernel.edge_lagrangian.shape)
        weights[fwd, 0] = weights[back, 3] = 0.0
        weights[fwd, 8] = weights[back, 11] = -0.5
        cycle = np.array([fwd * n + 0, back * n + 3])
        assert not _certifies(kernel, weights, (cycle,), _cycle_potentials(kernel, weights, cycle))
        value, measure, runs = _solve_edge_program(kernel, weights, weights, cycle)
        assert runs == 1 and abs(value + 0.5) <= 1e-12
        assert sorted(measure.tails.tolist()) == [8, 11]
        a, b = dense_edge_columns(kernel)
        assert abs(solve_standard_form(a, b, weights.reshape(-1)).objective - value) <= 1e-12


def edge_program(p, program):
    """(cost, value, cycle, budget) of the Mather program, or of the u0 program
    at target n // 3, as the library builds them: cost by tail, the mean cost
    value of the cycle, and the u0 budget (None for the Mather program)."""
    kernel = p.kernel
    if program == "mather":
        graph = tight_subgraph(kernel)
        return kernel.edge_lagrangian, graph.mean, graph.cycles[0], None
    h = wk.peierls_barrier(kernel)
    start = wk.u0_critical_cycles(h)
    t = kernel.num_nodes // 3
    cost = np.broadcast_to(h.values[:, t], kernel.head_index.shape)
    cycle = h.graph.cycles[start.certificates[t]]
    return cost, start.values[t], cycle, -p.c_star + 1e-6


def lp_form(kernel, cost, budget):
    """(a, b, c) of an edge program over the columns of dense_edge_columns."""
    a, b = dense_edge_columns(kernel) if budget is None else dense_u0_columns(kernel, budget)
    c = cost.reshape(-1)
    return a, b, (c if budget is None else np.append(c, 0.0))


def potential_duals(kernel, phi, value, budget):
    """The LP duals that node potentials stand for: phi - phi[n - 1] on the
    conservation rows, value on the mass row and 0 on the budget row."""
    n = kernel.num_nodes
    y = np.zeros(n if budget is None else n + 1)
    y[:n] = phi - phi[n - 1]
    y[n - 1] = value
    return y


def jacobi_potentials(kernel, weights, cycle):
    """_cycle_potentials as its own Jacobi loop, the oracle the shared
    Bellman-Ford loop must match bit for bit: the cycle walked back from its
    first tail, then rounds that lower each node off the cycle to its least
    weights + phi(head), on strict improvement only."""
    n = kernel.num_nodes
    heads = kernel.head_index
    cyc_k, cyc_t = np.divmod(np.asarray(cycle, dtype=np.int64), n)
    phi = np.full(n, np.inf)
    phi[cyc_t[0]] = 0.0
    for k, t in zip(cyc_k[:0:-1], cyc_t[:0:-1]):
        phi[t] = weights[k, t] + phi[heads[k, t]]
    free = np.ones(n, dtype=bool)
    free[cyc_t] = False
    at_head = np.empty(heads.shape)
    for _ in range(n):
        np.take(phi, heads, out=at_head, mode="clip")
        at_head += weights
        best = at_head.min(axis=0)
        better = free & (best < phi)
        if not better.any():
            break
        phi[better] = best[better]
    return phi


def program_weights(p, program):
    """(weights, cycle) of an edge program as the library passes them: the u0
    program's weights are its target column broadcast over the offsets."""
    cost, value, cycle, budget = edge_program(p, program)
    if budget is None:
        return cost - value, cycle
    return np.broadcast_to(cost[0] - value, cost.shape), cycle


class TestTreeCertificate:
    """Both edge programs close by weak duality on the graph's own arrays."""

    NAMES = ["pendulum16", "two_well32", "transport8", "cosine4x4"]

    @pytest.mark.parametrize("program", ["mather", "u0"])
    @pytest.mark.parametrize("name", NAMES)
    def test_graph_reduced_costs_are_the_lp_reduced_costs(self, name, program, request):
        p = problem(name, request)
        kernel = p.kernel
        cost, value, cycle, budget = edge_program(p, program)
        phi = _cycle_potentials(kernel, cost - value, cycle)
        a, _, c = lp_form(kernel, cost, budget)
        lp_reduced = c - potential_duals(kernel, phi, value, budget) @ a
        graph_reduced = _reduced_costs(kernel, cost - value, phi).reshape(-1)
        assert np.abs(lp_reduced[:graph_reduced.size] - graph_reduced).max() <= 1e-12
        if budget is not None:
            assert lp_reduced[-1] == 0.0  # the budget slack's column

    @pytest.mark.parametrize("program", ["mather", "u0"])
    @pytest.mark.parametrize("name", NAMES)
    def test_matches_the_dense_run_from_the_same_basis(self, name, program, request):
        p = problem(name, request)
        kernel = p.kernel
        cost, value, cycle, budget = edge_program(p, program)
        got, measure, runs = _solve_edge_program(kernel, cost, cost - value, cycle, budget)
        assert runs == 0
        # the certified measure and the potentials' duals are an optimal
        # primal-dual pair of the assembled program
        a, b, c = lp_form(kernel, cost, budget)
        x = np.zeros(c.size)
        x[measure.offset_ids * kernel.num_nodes + measure.tails] = measure.weights
        if budget is not None:
            x[-1] = budget - measure.pairing(kernel.edge_lagrangian)  # the budget slack
        y = potential_duals(kernel, _cycle_potentials(kernel, cost - value, cycle), value, budget)
        assert np.abs(a @ x - b).max() <= 1e-12 and x.min() >= 0.0
        assert (c - y @ a).min() >= -1e-9
        assert abs(float(c @ x) - float(b @ y)) <= 1e-12
        assert abs(got - float(c @ x)) <= 1e-12
        assert abs(got - solve_standard_form(a, b, c).objective) <= 1e-12

    @pytest.mark.parametrize("program", ["mather", "u0"])
    @pytest.mark.parametrize("name", NAMES)
    def test_shared_relaxation_keeps_the_bits(self, name, program, request):
        # the potentials of the shared Bellman-Ford loop are those of the
        # Jacobi loop, and one relaxation less phi(tail) has the least of
        # the full reduced-cost array as its minimum, bit for bit
        p = problem(name, request)
        kernel = p.kernel
        weights, cycle = program_weights(p, program)
        assert (program == "u0") == (weights.strides[0] == 0)
        phi = _cycle_potentials(kernel, weights, cycle)
        assert phi.tobytes() == jacobi_potentials(kernel, weights, cycle).tobytes()
        least = action_barrier._relax(phi[None], weights, kernel, 1, np.empty(weights.shape))[0]
        assert (least - phi).min().tobytes() == _reduced_costs(kernel, weights, phi).min().tobytes()

    @pytest.mark.parametrize("program", ["mather", "u0"])
    @pytest.mark.parametrize("name", NAMES)
    def test_reduced_cost_pass_matches_the_full_array(self, name, program, request):
        # the blocks of the one reduced-cost pass, stacked in offset order, are
        # the full array bit for bit in either order of the potential terms;
        # head's first, as the certificate reads it, they are the oracle's
        p = problem(name, request)
        kernel = p.kernel
        weights, cycle = program_weights(p, program)
        phi = _cycle_potentials(kernel, weights, cycle)
        at_head = np.take(phi, kernel.head_index)
        head_first = _reduced_costs(kernel, weights, phi)
        for order, full in ((False, (weights - 0.0) - phi + at_head), (True, head_first)):
            blocks = action_barrier._reduced_cost_blocks(kernel, weights, phi, head_first=order)
            stacked = np.concatenate([block.copy() for _, _, block in blocks])
            assert stacked.tobytes() == full.tobytes()

    @pytest.mark.usefixtures("no_simplex")
    @pytest.mark.parametrize("name", TestCriticalGraphStart.NAMES)
    def test_mather_lp_falls_back_from_a_wrong_cycle(self, name, request):
        kernel = problem(name, request).kernel
        lp = wk.solve_mather_lp(kernel, tight=wrong_graph(kernel))
        assert lp.iterations == 1  # one Howard run on the Lagrangian
        right = wk.solve_mather_lp(kernel)
        assert right.iterations == 0
        assert abs(lp.value - right.value) <= 1e-12

    @pytest.mark.usefixtures("no_simplex")
    @pytest.mark.parametrize("name", TestCriticalGraphStart.NAMES)
    def test_u0_falls_back_from_a_wrong_cycle(self, name, request):
        p = problem(name, request)
        h = wk.peierls_barrier(p.kernel)
        targets = [0, p.kernel.num_nodes // 3]
        u0 = wk.compute_u0(replace(h, graph=wrong_graph(p.kernel)), p.kernel, p.c_star, 1e-6,
                           targets)
        # the wrong loop does not meet the budget, so the search's feasible
        # cycle is tight_subgraph's own
        assert u0.fallbacks == len(targets) and u0.howard_runs >= len(targets)
        right = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, targets)
        assert right.fallbacks == right.howard_runs == 0
        assert np.abs(u0.values - right.values).max() <= 1e-12

    def test_refuses_a_pair_that_misses_a_check(self, pendulum16):
        kernel = pendulum16.kernel
        cost, value, cycle, _ = edge_program(pendulum16, "mather")
        weights = cost - value
        phi = _cycle_potentials(kernel, weights, cycle)
        assert _certifies(kernel, weights, (cycle,), phi)
        # each case below fails exactly one of the checks
        loops = np.arange(weights.size) // kernel.num_nodes == kernel.stencil.zero_index
        off_cycle = int(np.setdiff1d(np.nonzero(~loops)[0], cycle)[0])  # not a self-loop
        assert not _certifies(kernel, weights, (np.array([off_cycle]),), phi)   # closes
        assert not _certifies(kernel, weights, (cycle, np.array([off_cycle])), phi)
        assert not _certifies(kernel, weights, (cycle,), phi, slack=-1e-6)      # slack >= -tol
        assert _certifies(kernel, weights, (cycle,), phi, slack=-_CERT_TOL)
        raised = weights.copy()
        raised.reshape(-1)[cycle[0]] += 1e-6
        assert not _certifies(kernel, raised, (cycle,), phi)                    # cycle costs 0
        priced_in = weights.copy()
        priced_in.reshape(-1)[off_cycle] -= (
            _reduced_costs(kernel, weights, phi).reshape(-1)[off_cycle] + 1e-6
        )
        assert not _certifies(kernel, priced_in, (cycle,), phi)                 # pricing

    def test_certifies_a_raised_edge_off_the_cycle(self, pendulum16):
        # a tight edge off the cycle raised by 1e-6 leaves the potentials
        # feasible and the cycle at zero, so the pair still proves optimality
        kernel = pendulum16.kernel
        cost, value, cycle, _ = edge_program(pendulum16, "mather")
        weights = cost - value
        phi = _cycle_potentials(kernel, weights, cycle)
        reduced = _reduced_costs(kernel, weights, phi).reshape(-1)
        tight = np.setdiff1d(np.nonzero(np.abs(reduced) <= _CERT_TOL)[0], cycle)
        raised = weights.copy()
        raised.reshape(-1)[tight[0]] += 1e-6
        assert _certifies(kernel, raised, (cycle,), phi)
        lifted = cost.copy()
        lifted.reshape(-1)[tight[0]] += 1e-6
        got, _, runs = _solve_edge_program(kernel, lifted, raised, cycle)
        assert runs == 0 and got == wk.solve_mather_lp(kernel).value

    def test_refuses_a_node_that_reaches_no_cycle_without_warning(self, pendulum16):
        # +inf on every out-edge of a node off the cycle leaves its potential
        # at +inf; the check must refuse before forming inf - inf
        kernel = pendulum16.kernel
        cost, value, cycle, _ = edge_program(pendulum16, "mather")
        weights = cost - value
        node = int(np.setdiff1d(np.arange(kernel.num_nodes), cycle % kernel.num_nodes)[0])
        weights[:, node] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = _cycle_potentials(kernel, weights, cycle)
            assert phi[node] == np.inf
            assert not _certifies(kernel, weights, (cycle,), phi)


class TestPeakAllocation:
    def test_certificate_and_potentials_hold_one_stencil_array(self, pendulum200):
        # _certifies' reduced costs, and _cycle_potentials' buffer reused by every round
        kernel = pendulum200.kernel
        graph = tight_subgraph(kernel)
        weights, cycle = kernel.edge_lagrangian - graph.mean, graph.cycles[0]
        phi = _cycle_potentials(kernel, weights, cycle)
        bound = 8 * kernel.num_offsets * kernel.num_nodes + PEAK_SLACK
        assert traced_peak(_certifies, kernel, weights, (cycle,), phi) <= bound
        assert traced_peak(_cycle_potentials, kernel, weights, cycle) <= bound

    def test_one_u0_target_holds_blocks_only(self, pendulum200, pendulum200_barrier):
        # the target's weights are broadcast views of one barrier column, so
        # its potentials and certificate hold a block of candidates each
        kernel = pendulum200.kernel
        m, n = kernel.num_offsets, kernel.num_nodes
        bound = 2 * 8 * min(action_barrier._BLOCK_ROWS, m) * n + PEAK_SLACK
        assert bound < 8 * m * n
        peak = traced_peak(wk.compute_u0, pendulum200_barrier, kernel, kernel.c, 1e-6, [17])
        assert peak <= bound


def permutation_kernel(lag, heads):
    """A kernel whose offset k sends node t to heads[k, t], a permutation,
    with edge Lagrangian lag: an explicit-table kernel, the inverse
    permutations its tails."""
    return table_kernel(lag, heads, np.argsort(heads, axis=1))


@st.composite
def edge_programs(draw):
    """(kernel, node weights, budget) of a random edge program: n in [3, 12]
    nodes and m in [1, 4] offsets, each offset a random permutation of the
    nodes as its heads table with its inverse as its tails, offset 0 one
    n-cycle so that every node reaches every other as on a torus; Lbar and the node
    weights on the 1/4 lattice in [-2, 2], and a budget the minimum mean Lbar
    plus a lattice value in [0, 2]. Every cycle sum is exact."""
    n, m = draw(st.integers(3, 12)), draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    heads = np.empty((m, n), dtype=np.int64)
    heads[0, order] = np.roll(order, -1)
    for k in range(1, m):
        heads[k] = draw(st.permutations(range(n)))
    quarters = draw(st.lists(st.integers(-8, 8), min_size=(m + 1) * n, max_size=(m + 1) * n))
    lattice = np.array(quarters, dtype=float).reshape(m + 1, n) / 4
    kernel = permutation_kernel(lattice[:m], heads)
    budget = tight_subgraph(kernel).mean + draw(st.integers(0, 8)) / 4
    return kernel, lattice[m], budget


def drifting_table32():
    """H = p^2/2 + w(x) p, w = 0.5 + 0.3 cos 2 pi x, tabulated on 32 nodes and
    481 momenta in [-12, 12]: not reversible, so L(x, v) != L(x, -v)."""
    grid = wk.build_grid(1, [32])
    momenta = np.linspace(-12.0, 12.0, 481)
    w = 0.5 + 0.3 * np.cos(2.0 * np.pi * grid.coordinates[:, 0])
    return make_problem(32, spec=wk.tabulated(grid, momenta, 0.5 * momenta**2 + np.outer(w, momenta)))


@pytest.fixture
def no_simplex(monkeypatch):
    """Both names of solve_standard_form in the package patched to raise: the
    edge programs must close on the action graph alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("an edge program called the simplex")

    monkeypatch.setattr(wk.simplex, "solve_standard_form", refuse)
    monkeypatch.setattr(wk.mather, "solve_standard_form", refuse)


def refusing_the_start(monkeypatch):
    """_certifies refusing every first call and deciding every second one: the
    start pair of each edge program is refused, its graph search's end pair
    is checked as before."""
    calls = itertools.count()
    real = mather._certifies
    monkeypatch.setattr(mather, "_certifies",
                        lambda *args, **kwargs: next(calls) % 2 == 1 and real(*args, **kwargs))


@pytest.mark.usefixtures("no_simplex")
class TestGraphFallback:
    def test_u0_program_on_a_nonreversible_table(self):
        # with no weight on the budget row the cycle's potentials price some
        # edge of every target's program below -0.03, so each target runs the
        # graph search: 96 Howard runs in all, where the dense simplex took
        # 2,368 pivots
        p = drifting_table32()
        kernel, n = p.kernel, p.grid.num_nodes
        h = wk.peierls_barrier(kernel)
        u0 = wk.compute_u0(h, kernel, p.c_star, 1e-6, np.arange(n))
        assert u0.fallbacks == n and u0.howard_runs == 96
        a, b = dense_u0_columns(kernel, -p.c_star + 1e-6)
        for t, value in enumerate(u0.values):
            c = u0_objective(h, kernel, t)
            assert abs(value - solve_standard_form(a, b, c).objective) <= 1e-12
            assert value == pytest.approx(highs(a, b, c), abs=1e-9)
        assert np.abs(u0.values - wk.u0_critical_cycles(h).values).max() <= 1e-5

    @pytest.mark.parametrize("name", TestCriticalGraphStart.NAMES)
    def test_forced_fallback_matches_the_certificate(self, name, request, monkeypatch):
        # every start pair refused: both programs at every target close by the
        # graph search, at the certificate path's values
        p = problem(name, request)
        kernel = p.kernel
        h = wk.peierls_barrier(kernel)
        targets = np.arange(kernel.num_nodes)
        right_lp = wk.solve_mather_lp(kernel)
        right = wk.compute_u0(h, kernel, p.c_star, 1e-6, targets)
        refusing_the_start(monkeypatch)
        lp = wk.solve_mather_lp(kernel)
        u0 = wk.compute_u0(h, kernel, p.c_star, 1e-6, targets)
        assert lp.iterations == 1 and abs(lp.value - right_lp.value) <= 1e-12
        assert u0.fallbacks == targets.size and u0.howard_runs >= targets.size
        assert np.abs(u0.values - right.values).max() <= 1e-12

    @pytest.mark.parametrize("name", ["pendulum16", "drift64"])
    def test_class_cycle_one_ulp_above_the_budget(self, name, request, monkeypatch):
        # Howard's mean moved one ulp below the class cycles' own mean Lbar: at
        # eps_c = 0 the graph search takes a cycle within _CERT_TOL of the budget
        # as feasible, as _certifies does, so the class cycle still ends it
        p = problem(name, request)
        kernel, h = p.kernel, wk.peierls_barrier(p.kernel)
        targets = np.arange(kernel.num_nodes)
        right = wk.compute_u0(h, kernel, kernel.c, 0.0, targets)
        lag, n = kernel.edge_lagrangian, kernel.num_nodes
        means = [math.fsum(lag[np.divmod(c, n)]) / c.size for c in h.graph.cycles]
        moved = np.nextafter(min(means), -np.inf)
        refusing_the_start(monkeypatch)
        u0 = wk.compute_u0(replace(h, graph=replace(h.graph, mean=moved)),
                           replace(kernel, c=-moved), -moved, 0.0, targets)
        assert u0.fallbacks == targets.size
        np.testing.assert_array_equal(u0.values, right.values)

    def test_refused_end_pair_raises(self, pendulum16, monkeypatch):
        monkeypatch.setattr(mather, "_certifies", lambda *args: False)
        with pytest.raises(WeakKamError, match=r"Howard runs\) fails its weak-duality certificate"):
            wk.solve_mather_lp(pendulum16.kernel)

    @given(edge_programs())
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_battery_matches_the_simplex_and_highs(self, program):
        kernel, nodes, budget = program
        lag, shape = kernel.edge_lagrangian, kernel.head_index.shape
        cycle = tight_subgraph(kernel).cycles[0]
        with pytest.MonkeyPatch.context() as patch:
            refusing_the_start(patch)
            for cost, bound in ((lag, None), (np.broadcast_to(nodes, shape), budget)):
                value, measure, runs = _solve_edge_program(kernel, cost, cost - 0.0, cycle, bound)
                assert runs >= 1
                # closed on the kernel's own head_index, which no stencil offset describes here
                n, w = kernel.num_nodes, measure.weights
                heads = kernel.head_index[measure.offset_ids, measure.tails]
                net = np.bincount(heads, w, n) - np.bincount(measure.tails, w, n)
                assert np.abs(net).max() <= 1e-12
                assert abs(measure.mass - 1.0) <= 1e-12 and measure.weights.min() > 0.0
                if bound is not None:
                    assert measure.pairing(lag) <= bound + 1e-12
                a, b, c = lp_form(kernel, cost, bound)
                assert abs(value - solve_standard_form(a, b, c).objective) <= 1e-9
                assert abs(value - highs(a, b, c)) <= 1e-9


class TestLargeAmplitude:
    """Under _certifies' absolute 1e-9, Howard's terminal bias stops being a
    Mather certificate once max|bias| reaches ~1e9: its reduced costs, the
    head's term first as _certifies sums them, go to -2.4e-7 at cosine
    16x16, a = 1e4, and -1.5e-5 at pendulum n=200, a = 1e6. Summed the
    tail's term first, the order of tight_subgraph's own test and the one
    the bias was built in, their least is 0.0 at both. The cycle's
    potentials still close both edge programs there, and the Mather class
    stays the potential's maximum."""

    BUILD = {
        "cosine16x16": lambda: make_problem(16, wk.cosine_potential([1e4, 1e4], [1.0, 1.0]), dim=2),
        "pendulum200": lambda: make_problem(200, wk.cosine_potential([1e6], [1.0])),
    }

    @pytest.mark.parametrize("name", sorted(BUILD))
    def test_potentials_close_where_howards_bias_does_not(self, name):
        p = self.BUILD[name]()
        kernel = p.kernel
        pred = kernel.pred_index
        lag_in = np.take_along_axis(kernel.edge_lagrangian, pred, axis=1)
        mean, bias, _ = _min_cycle_mean(kernel, lag_in)
        graph = tight_subgraph(kernel)
        weights = kernel.edge_lagrangian - mean
        assert not _certifies(kernel, weights, (graph.cycles[0],), -bias)
        tail_first = action_barrier._reduced_cost_blocks(kernel, weights, -bias)
        assert min(block.min() for _, _, block in tail_first) == 0.0
        assert graph.classes == [[0]]
        lp = wk.solve_mather_lp(kernel, tight=graph)
        assert lp.iterations == 0 and lp.value == mean
        h = wk.peierls_barrier(kernel, tight=graph)
        targets = np.linspace(0, kernel.num_nodes - 1, 8).astype(np.int64)
        u0 = wk.compute_u0(h, kernel, p.c_star, 1e-6, targets)
        assert u0.fallbacks == u0.howard_runs == 0


class TestMinMeanCycle:
    def test_free_particle_self_loop(self, free32):
        mean, cycle = wk.min_mean_cycle(free32.kernel0)
        assert mean == 0.0
        assert len(cycle) == 1

    def test_pendulum_well_loop(self, pendulum200):
        mean, cycle = wk.min_mean_cycle(pendulum200.kernel0)
        assert mean == -1.0
        assert cycle == [0]

    def test_transport_winding_cycle(self):
        p = make_problem(8, drift=[0.5], tau=0.25, alpha=1.0)
        mean, cycle = wk.min_mean_cycle(p.kernel0)
        assert abs(mean) <= 1e-15
        assert len(cycle) == 8  # whole-torus rotation at the drift velocity

    def test_matches_exhaustive_enumeration(self, pendulum8):
        mean, cycle = wk.min_mean_cycle(pendulum8.kernel0)
        assert mean == pytest.approx(cycle_mean_oracle(pendulum8.kernel0), abs=1e-12)

    def test_random_tabulated_potential_matches_oracle(self):
        kernel = random_table8_kernel()
        mean, cycle = wk.min_mean_cycle(kernel)
        assert mean == pytest.approx(cycle_mean_oracle(kernel), abs=1e-12)
        # the returned cycle achieves the reported mean
        total = 0.0
        for i, node in enumerate(cycle):
            nxt = cycle[(i + 1) % len(cycle)]
            step = np.inf
            for k in range(kernel.num_offsets):
                if kernel.head_index[k, node] == nxt:
                    step = min(step, kernel.edge_lagrangian[k, node])
            total += step
        assert total / len(cycle) == pytest.approx(mean, abs=1e-9)


class TestHowardMean:
    @pytest.mark.parametrize(
        "name", ["pendulum8", "random_table8", "transport8", "cosine4x4"]
    )
    def test_matches_karp_and_exhaustive_oracles(self, name, request):
        if name == "random_table8":
            kernel = random_table8_kernel()
        else:
            kernel = problem(name, request).kernel0
        mean = tight_subgraph(kernel).mean
        assert abs(mean - karp_mean(kernel)) <= 1e-12
        walks = closed_walk_mean_oracle(kernel)
        assert abs(mean - walks) <= 1e-12
        if name != "cosine4x4":
            # too many simple cycles for networkx: 412,224 of length <= 8 alone
            assert abs(walks - cycle_mean_oracle(kernel)) <= 1e-12

    def test_mean_is_the_self_loop_where_karp_rounds_up(self):
        # two-well n = 120 at a = 1.0731...: Karp's table gives a mean a few
        # ulps above the critical self-loop's Lbar = -a, policy iteration
        # returns that loop's Lbar itself
        p = make_problem(120, wk.cosine_potential([1.0731271511775198], [2.0]))
        kernel = p.kernel0
        loop = kernel.stencil.offsets.index((0,))
        mean = tight_subgraph(kernel).mean
        assert mean == kernel.edge_lagrangian[loop].min()
        assert karp_mean(kernel) > mean

    def test_means_that_round_apart_hide_no_lower_cycle(self):
        # the cycles 0 -> 5 -> 0 and 2 -> 6 -> 2 both have mean -0.3, but their
        # sums round apart by an ulp; 6 -> 5 -> 0 -> 1 -> 6 runs through both at
        # mean -0.3375, so the equal-mean pass must look across the two (an
        # exact-equality test there stopped at -0.30000000000000004)
        heads = np.array([[1, 6, 0, 4, 5, 2, 3], [5, 1, 6, 3, 4, 0, 2], [0, 1, 2, 3, 4, 6, 5]])
        lag = np.zeros(heads.shape)
        lag[1, 5], lag[1, 6] = -1.5, -0.25
        nodes = np.array([0.0, -0.25, 0.0, 0.0, 0.0, 0.0, -0.5])
        kernel = permutation_kernel(nodes + 0.4 * lag, heads)
        assert tight_subgraph(kernel).mean == -0.3375 == closed_walk_mean_oracle(kernel)

    def test_a_kept_cycle_keeps_its_root(self):
        # rooting each cycle where the first walk met it moved the root of a
        # cycle that outlived a round, shifted its basin's biases up, and the
        # equal-mean rounds then went around a loop of policies until the cap
        heads = np.array([[1, 3, 4, 2, 5, 6, 7, 8, 9, 0], [0, 1, 3, 2, 6, 5, 4, 7, 8, 9],
                          [0, 1, 2, 5, 4, 3, 6, 7, 8, 9], [0, 1, 2, 5, 4, 3, 6, 7, 8, 9]])
        lag = np.tile([0.0, 0.0, 0.0, -1.0, -0.5, -0.25, 0.0, 0.0, 0.0, 0.0], (4, 1))
        lag[2, 4] = -0.625
        kernel = permutation_kernel(lag, heads)
        assert tight_subgraph(kernel).mean == -0.625 == closed_walk_mean_oracle(kernel)

    def test_round_cap_raises(self, pendulum8, monkeypatch):
        # the first policy of pendulum8 is not optimal: one round cannot end
        kernel = pendulum8.kernel0
        pred = kernel.pred_index
        lag_in = np.take_along_axis(kernel.edge_lagrangian, pred, axis=1)
        monkeypatch.setattr(action_barrier, "_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError, match="minimum mean cycle: .* cap of 1 rounds"):
            _min_cycle_mean(kernel, lag_in)
        monkeypatch.setattr(action_barrier, "_MAX_ROUNDS", 2)
        assert _min_cycle_mean(kernel, lag_in)[0] == -1.0

    @pytest.mark.parametrize(
        "name", ["pendulum8", "random_table8", "transport8", "cosine4x4"]
    )
    def test_terminal_bias_prices_every_edge(self, name, request):
        # bias(head) <= Lbar - mean + bias(tail) on every edge up to Howard's
        # improvement tolerance, so tight_subgraph's tight edges carry every
        # minimum mean cycle
        if name == "random_table8":
            kernel = random_table8_kernel()
        else:
            kernel = problem(name, request).kernel0
        pred = kernel.pred_index
        lag_in = np.take_along_axis(kernel.edge_lagrangian, pred, axis=1)
        mean, bias, _ = _min_cycle_mean(kernel, lag_in)
        slack = lag_in - mean + bias[pred] - bias
        assert slack.min() >= -1e-14 * np.abs(bias).max() - 1e-12


class TestMatherLP:
    def test_free_particle_zero(self, free32):
        lp = wk.solve_mather_lp(free32.kernel0)
        assert abs(lp.value) <= 1e-12
        assert lp.measure.mass == pytest.approx(1.0, abs=1e-9)

    def test_pendulum_dirac_at_well(self, pendulum200_lp):
        lp = pendulum200_lp
        assert lp.value == pytest.approx(-1.0, abs=1e-12)
        assert np.nonzero(lp.projected > 1e-12)[0].tolist() == [0]

    def test_two_well_vertex_is_one_loop(self):
        p = make_problem(16, two_well_potential())
        lp = wk.solve_mather_lp(p.kernel)
        support = np.nonzero(lp.projected > 1e-12)[0].tolist()
        assert support in ([0], [8])
        assert lp.value == pytest.approx(-1.0, abs=1e-12)

    def test_agrees_with_karp_on_builtins(self, pendulum16, free32):
        for p in (pendulum16, free32):
            mean, _ = wk.min_mean_cycle(p.kernel0)
            lp = wk.solve_mather_lp(p.kernel0)
            assert abs(lp.value - mean) <= 1e-8

    def test_feasibility_residuals(self, pendulum200_lp):
        lp = pendulum200_lp
        assert wk.closedness_residual(lp.measure) <= 1e-9
        assert lp.measure.mass == pytest.approx(1.0, abs=1e-9)


class TestClosedness:
    def test_single_nonloop_edge(self, pendulum16):
        p = pendulum16
        k = next(
            i for i, off in enumerate(p.stencil.offsets) if off != (0,) * p.grid.dim
        )
        m = wk.OccupationMeasure(
            grid=p.grid, stencil=p.stencil,
            tails=np.array([3]), offset_ids=np.array([k]), weights=np.array([1.0]),
        )
        assert wk.closedness_residual(m) == 1.0

    def test_self_loop_closed(self, pendulum16):
        p = pendulum16
        m = wk.OccupationMeasure(
            grid=p.grid, stencil=p.stencil,
            tails=np.array([3]), offset_ids=np.array([p.stencil.zero_index]),
            weights=np.array([1.0]),
        )
        assert wk.closedness_residual(m) == 0.0


class TestComputeU0:
    def test_free_particle_zero(self, free32):
        h = wk.peierls_barrier(free32.kernel0)
        res = wk.compute_u0(h, free32.kernel0, 0.0, 1e-6, [0, 5, 16])
        np.testing.assert_allclose(res.values, 0.0, atol=1e-10)
        assert res.method == "lp"

    def test_certificates_are_feasible_measures(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        res = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, [8])
        m = res.certificates[0]
        assert m.mass == pytest.approx(1.0, abs=1e-9)
        assert wk.closedness_residual(m) <= 1e-9
        value = m.pairing(p.kernel.edge_lagrangian)
        assert value <= -p.c_star + 1e-6 + 1e-9

    def test_monotone_in_eps_c(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        tight = wk.compute_u0(h, p.kernel, p.c_star, 1e-8, [4, 8, 12])
        loose = wk.compute_u0(h, p.kernel, p.c_star, 1e-2, [4, 8, 12])
        assert (loose.values <= tight.values + 1e-12).all()

    def test_below_any_feasible_average(self, pendulum16, ):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        lp = wk.solve_mather_lp(p.kernel)
        res = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, np.arange(16))
        averages = lp.projected @ h.values
        assert (res.values <= averages + 1e-9).all()

    def test_infeasible_budget_advises(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        with pytest.raises(wk.InfeasibleError, match="eps_c"):
            wk.compute_u0(h, p.kernel, p.c_star + 0.5, 1e-9, [0])

    def test_thread_count_invariant_values(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        targets = np.arange(16)
        one = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, targets, threads=1)
        four = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, targets, threads=4)
        np.testing.assert_array_equal(one.values, four.values)

    def test_needs_the_critical_graph(self, pendulum16):
        p = pendulum16
        power = wk.minplus_power(p.kernel, 2)
        with pytest.raises(WeakKamError, match="critical graph"):
            wk.compute_u0(power, p.kernel, p.c_star, 1e-6, [0])

    @pytest.mark.parametrize("target", [-1, 16, 1.5, True])
    def test_refuses_a_target_outside_the_grid(self, pendulum16, target):
        # a float or a bool is refused by name, not cast to a node
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        with pytest.raises(WeakKamError, match=f"u0 target {target} is not a node"):
            wk.compute_u0(h, p.kernel, p.c_star, 1e-6, [0, target])


class TestU0CriticalCycles:
    @pytest.mark.parametrize("name", ["pendulum16", "two_well32", "transport8", "cosine4x4"])
    def test_matches_the_lp_at_every_node(self, name, request):
        p = problem(name, request)
        h = wk.peierls_barrier(p.kernel)
        res = wk.u0_critical_cycles(h)
        lp = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, np.arange(p.grid.num_nodes))
        assert res.method == "critical-cycles"
        np.testing.assert_array_equal(res.targets, lp.targets)
        assert np.abs(res.values - lp.values).max() <= 1e-9

    @pytest.mark.parametrize("name", ["pendulum16", "two_well32", "cosine4x4"])
    def test_bit_equal_to_the_rest_points_on_mechanical(self, name, request):
        p = problem(name, request)
        h = wk.peierls_barrier(p.kernel)
        mech = wk.u0_mechanical(h, p.spec, p.grid, p.c_star, 1e-7)
        assert wk.u0_critical_cycles(h).values.tobytes() == mech.values.tobytes()

    def test_certificate_is_the_cycle_of_least_mean(self):
        p = BUILT["transport32"]()
        h = wk.peierls_barrier(p.kernel)
        res = wk.u0_critical_cycles(h)
        means = np.array([h.values[c % 32].mean(axis=0) for c in h.graph.cycles])
        assert len(means) == 2
        np.testing.assert_array_equal(res.values, means.min(axis=0))
        np.testing.assert_array_equal(res.certificates, means.argmin(axis=0))

    def test_needs_the_critical_graph(self, pendulum16):
        with pytest.raises(WeakKamError, match="critical graph"):
            wk.u0_critical_cycles(wk.minplus_power(pendulum16.kernel, 2))


class TestU0Mechanical:
    def test_pendulum_is_well_row(self, pendulum200, pendulum200_barrier, pendulum200_u0):
        np.testing.assert_array_equal(pendulum200_u0.values, pendulum200_barrier.values[0])
        assert pendulum200_u0.method == "mechanical-shortcut"
        assert set(pendulum200_u0.certificates) == {0}

    def test_two_well_min_of_rows(self):
        p = make_problem(16, two_well_potential())
        h = wk.peierls_barrier(p.kernel)
        res = wk.u0_mechanical(h, p.spec, p.grid, p.c_star, 1e-9)
        np.testing.assert_array_equal(
            res.values, np.minimum(h.values[0], h.values[8])
        )

    def test_cross_check_with_lp(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        mech = wk.u0_mechanical(h, p.spec, p.grid, p.c_star, 1e-9)
        lp = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, np.arange(16))
        assert np.abs(mech.values - lp.values).max() <= 1e-5

    def test_guard_rejects_drifting_transport(self):
        p = make_problem(8, drift=[0.5], tau=0.25, alpha=1.0)
        h = wk.peierls_barrier(p.kernel0)
        with pytest.raises(WeakKamError, match="argmin"):
            wk.u0_mechanical(h, p.spec, p.grid, 0.0, 1e-9)

    def test_guard_rejects_tabulated(self, pendulum16):
        p = pendulum16
        mom = np.linspace(-6, 6, 121)
        table = 0.5 * mom[None, :] ** 2 + np.cos(2 * np.pi * p.grid.coordinates[:, :1])
        h = wk.peierls_barrier(p.kernel)
        with pytest.raises(WeakKamError, match="argmin"):
            wk.u0_mechanical(h, wk.tabulated(p.grid, mom, table), p.grid, p.c_star, 1e-9)

    def test_empty_rest_set_is_error(self, pendulum16):
        h = wk.peierls_barrier(pendulum16.kernel)
        with pytest.raises(EmptyAubryError):
            wk.u0_mechanical(h, pendulum16.spec, pendulum16.grid, 0.5, 1e-12)


class TestUniquenessProbe:
    def test_same_class_rows_agree_after_shift(self):
        # transport with representable drift: one Mather class covering the torus
        p = make_problem(8, drift=[0.5], tau=0.25, alpha=1.0)
        h = wk.peierls_barrier(p.kernel0)
        aubry = wk.aubry_set(h, 1e-9)
        classes = wk.mather_classes(h, aubry, 1e-9)
        assert len(classes) == 1
        y1, y2 = classes[0][0], classes[0][3]
        w1 = h.values[y1]
        w2 = h.values[y2] + h.values[y1, y2]
        assert np.abs(w1 - w2).max() <= 1e-9


def ineq_prim(report):
    return next(c for c in report.checks if c.name == "ineq_prim")


class TestIneqPrim:
    """Check (e) reads the smallest lambda's policy at every node at once."""

    @pytest.mark.parametrize("name", ["pendulum16", "transport8", "cos2d"])
    def test_every_node_pairing_is_the_occupation_measure(self, name, request, monkeypatch):
        p = problem(name, request)
        h = wk.peierls_barrier(p.kernel)
        u0 = wk.u0_critical_cycles(h)
        sols = [wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
                for lam in (0.1, 0.025)]
        sol = sols[-1]
        if name == "transport8":
            # the drift carries every orbit once round the torus: a period-8 cycle
            assert wk.backward_trajectory(sol, 3, 8).nodes.tolist() == [3, 2, 1, 0, 7, 6, 5, 4, 3]
        evaluations = []

        def recording(step_cost, succ, beta):
            evaluations.append(discounted._evaluate_policy(step_cost, succ, beta))
            return evaluations[-1]

        monkeypatch.setattr(mather, "_evaluate_policy", recording)
        report = wk.verify_limit(u0, sols, [wk.solve_mather_lp(p.kernel)], p.kernel, h)
        assert ineq_prim(report).status == "pass"
        candidates = [u0.values] + [h.row(int(y)) for y in wk.aubry_report(h).nodes[:2]]
        assert len(evaluations) == len(candidates)
        for w, got in zip(candidates, evaluations):
            want = np.array([wk.discounted_occupation_measure(sol, x).node_marginal() @ w
                             for x in range(p.grid.num_nodes)])
            assert np.abs(got - want).max() <= 1e-12

    def test_a_fault_between_the_old_samples_fails(self, pendulum200, pendulum200_barrier,
                                                   pendulum200_u0, pendulum200_solutions,
                                                   pendulum200_lp):
        # u_lambda at the smallest lambda lowered by 1e-4 at node 7, which eight
        # evenly spaced samples of the 200 nodes never visit; no other check sees it
        sols = list(pendulum200_solutions)
        low = min(range(len(sols)), key=lambda i: sols[i].lam)
        u = sols[low].values.values.copy()
        u[7] -= 1e-4
        sols[low] = replace(sols[low], values=wk.GridFunction(pendulum200.grid, u))
        report = wk.verify_limit(pendulum200_u0, sols, [pendulum200_lp], pendulum200.kernel,
                                 pendulum200_barrier)
        check = ineq_prim(report)
        assert [c.name for c in report.checks if c.status == "fail"] == ["ineq_prim"]
        assert abs(check.measured + 1e-4) <= 1e-9 and -1e-4 < check.threshold < 0.0


class TestVerifyLimit:
    def test_free_particle_all_pass(self, free32):
        p = free32
        h = wk.peierls_barrier(p.kernel0)
        u0 = wk.u0_mechanical(h, p.spec, p.grid, 0.0, 1e-9)
        sols = [
            wk.solve_discounted(p.grid, p.spec, lam, p.stencil, 0.0, kernel=p.kernel0)
            for lam in (0.4, 0.2, 0.1)
        ]
        lp = wk.solve_mather_lp(p.kernel0)
        report = wk.verify_limit(u0, sols, [lp], p.kernel0, barrier=h)
        assert report.passed
        assert report.plateau == 0.0
        names = {c.name for c in report.checks}
        assert {
            "u0_subsolution",
            "u0_measure_constraint",
            "u_lambda_measure_constraint",
            "maximality_probe",
            "sup_error_monotone",
            "ineq_prim",
        } <= names

    def test_probe_catches_shifted_u0(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        u0 = wk.u0_mechanical(h, p.spec, p.grid, p.c_star, 1e-9)
        shifted = wk.LimitFunctionResult(
            targets=u0.targets, values=u0.values + 0.01, method=u0.method,
            certificates=u0.certificates, c_est=u0.c_est, eps=u0.eps,
        )
        lp = wk.solve_mather_lp(p.kernel)
        report = wk.verify_limit(shifted, [], [lp], p.kernel, barrier=h)
        failed = {c.name for c in report.checks if c.status == "fail"}
        assert "u0_measure_constraint" in failed

    def test_needs_u0_at_every_node(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        partial = wk.compute_u0(h, p.kernel, p.c_star, 1e-6, [0, 5])
        lp = wk.solve_mather_lp(p.kernel)
        with pytest.raises(WeakKamError, match="every node"):
            wk.verify_limit(partial, [], [lp], p.kernel, barrier=h)

    def test_needs_the_critical_graph(self, pendulum16):
        p = pendulum16
        h = wk.peierls_barrier(p.kernel)
        u0 = wk.u0_critical_cycles(h)
        lp = wk.solve_mather_lp(p.kernel)
        power = wk.minplus_power(p.kernel, 2)
        with pytest.raises(WeakKamError, match="critical graph"):
            wk.verify_limit(u0, [], [lp], p.kernel, barrier=power)
