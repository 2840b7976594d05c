import itertools
import math
import os
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakkam as wk
from weakkam import action_barrier
from weakkam.action_barrier import _cyclic_components, barrier_step
from weakkam.discounted import discounted_policy_iteration
from weakkam.errors import EmptyAubryError, WeakKamError
from weakkam.harness import _Run, load_config

from conftest import (PEAK_SLACK, in_edge_problems, make_problem, maupertuis_barrier,
                      pendulum_potential, table_kernel, traced_peak, two_well_potential)


def brute_force_h(kernel, steps):
    """Exhaustive enumeration of all stencil paths of the given length."""
    n = kernel.num_nodes
    best = np.full((n, n), np.inf)
    offs = range(kernel.num_offsets)
    for start in range(n):
        for seq in itertools.product(offs, repeat=steps):
            node = start
            total = 0.0
            for k in seq:
                total = total + kernel.costs[k, node]
                node = int(kernel.head_index[k, node])
            best[start, node] = min(best[start, node], total)
    return best


ORACLE_PROBLEMS = {
    "pendulum16": lambda: make_problem(16, pendulum_potential()).kernel,
    "two_well16": lambda: make_problem(16, two_well_potential()).kernel,
    "free32": lambda: make_problem(32).kernel0,
    "transport8": lambda: make_problem(8, drift=[0.5], tau=0.25, alpha=1.0).kernel0,
}


class TestKernel:
    def test_free_self_edges_cost_zero(self, free32):
        k = free32.kernel0
        zero = k.stencil.zero_index
        np.testing.assert_array_equal(k.costs[zero], 0.0)
        np.testing.assert_array_equal(k.head_index[zero], np.arange(32))

    def test_pendulum_self_edge_at_well(self, pendulum16):
        k = wk.build_kernel(pendulum16.grid, pendulum16.spec, pendulum16.stencil, c=1.0)
        zero = k.stencil.zero_index
        assert k.costs[zero, 0] == 0.0

    def test_pendulum_costs_nonnegative_at_max_v(self, pendulum16):
        k = wk.build_kernel(pendulum16.grid, pendulum16.spec, pendulum16.stencil, c=1.0)
        assert k.costs.min() >= 0.0

    def test_self_loops_on_diagonal(self, pendulum16):
        dense = pendulum16.kernel.dense()
        assert np.isfinite(np.diag(dense)).all()

    def test_costs_by_head_consistent(self, pendulum16):
        k = pendulum16.kernel
        by_head = k.costs_by_head()
        for kk in range(k.num_offsets):
            np.testing.assert_array_equal(by_head[kk], k.costs[kk][k.pred_index[kk]])
        # a fresh array on every read, which the kernel does not keep
        assert k.costs_by_head() is not by_head and by_head.flags.writeable
        assert "costs_by_head" not in vars(k)


class TestDerivedCosts:
    """The kernel stores Lbar alone; its costs are derived at its own shift
    on first read, so a kernel at another shift is a view."""

    def test_a_shift_allocates_nothing_until_a_cost_is_read(self, pendulum200):
        p = pendulum200
        kernel0 = replace(p.kernel0)  # a view with no cache of its own
        m, n = kernel0.num_offsets, kernel0.num_nodes
        views = []
        peak = traced_peak(lambda: views.append(replace(kernel0, c=p.c_star)))
        assert peak < 8 * m * n
        (view,) = views
        assert view.edge_lagrangian is kernel0.edge_lagrangian
        fresh = wk.build_kernel(p.grid, p.spec, p.stencil, p.c_star)
        assert view.costs_by_head().tobytes() == fresh.costs_by_head().tobytes()
        assert view.costs.tobytes() == fresh.costs.tobytes()
        assert not {"costs", "head_index", "pred_index"} & kernel0.__dict__.keys()

    def test_kernel_has_no_stored_costs(self, pendulum16):
        with pytest.raises(TypeError, match="costs"):
            replace(pendulum16.kernel, costs=pendulum16.kernel.costs)

    def test_kernel_stores_only_its_lagrangian(self, pendulum16):
        # the edge index tables are offset arithmetic, derived read-only when read
        kernel = replace(pendulum16.kernel)
        assert [f.name for f in fields(kernel)] == ["grid", "stencil", "c", "edge_lagrangian"]
        with pytest.raises(TypeError, match="head_index"):
            replace(kernel, head_index=kernel.head_index)
        assert not (kernel.head_index.flags.writeable or kernel.pred_index.flags.writeable)


def default_inputs(grid, spec):
    """(grid, spec, stencil, c) with the stencil and level of spec's bounds."""
    bounds = wk.stability_bounds(spec, grid)
    return grid, spec, wk.make_stencil(grid, wk.default_time_step(grid, bounds.alpha),
                                       bounds.alpha), bounds.c


# the inputs of default_inputs: 261 offsets, so the last chunk of the build
# (13 offsets) and of the in-edge gather (34) is part-full; a 2-D cosine grid
# of 169 offsets in 13 runs; the drift 2 config; and a tabulated
# H = p^2/2 + cos 2 pi x, whose L is the conjugate on its momentum grid
DEFAULT_INPUTS = {
    "pendulum300": lambda: (wk.build_grid(1, [300]), wk.mechanical(pendulum_potential())),
    "cos16": lambda: (wk.build_grid(2, [16, 16]),
                      wk.mechanical(wk.cosine_potential([1.0], [1.0]), dim=2)),
    "drift64": lambda: (wk.build_grid(1, [64]), wk.mechanical(pendulum_potential(), drift=[2.0])),
    "tabulated24": lambda: (wk.build_grid(1, [24]), wk.tabulated(
        wk.build_grid(1, [24]), np.linspace(-12, 12, 961),
        0.5 * np.linspace(-12, 12, 961) ** 2
        + np.cos(2 * np.pi * np.arange(24) / 24)[:, None])),
}


def kernel_inputs(name, request):
    """(grid, spec, stencil, c) of a fixture; of DEFAULT_INPUTS; of a 6x10
    torus with stencil radii (1, 2), whose padded rows differ in length from
    its windows; or of a 3-node torus whose stencil reaches every node and
    lists the offset +1 twice, so two offsets share every head."""
    if name in DEFAULT_INPUTS:
        return default_inputs(*DEFAULT_INPUTS[name]())
    if name == "rect6x10":
        grid = wk.build_grid(2, [6, 10])
        spec = wk.mechanical(wk.cosine_potential([1.0, 0.5], [1.0, 2.0]), dim=2)
        return grid, spec, wk.make_stencil(grid, 0.1, 1.5), 0.5
    if name != "aliased3":
        p = request.getfixturevalue(name)
        return p.grid, p.spec, p.stencil, p.c_star
    grid = wk.build_grid(1, [3])
    spec = wk.mechanical(pendulum_potential())
    s = wk.make_stencil(grid, 0.25, 1.0)
    stencil = wk.VelocityStencil(s.tau, s.offsets + ((1,),),
                                 np.vstack([s.velocities, s.velocities[-1:]]))
    return grid, spec, stencil, 0.75


class TestKernelBuild:
    @pytest.mark.parametrize("name", ["pendulum16", "cos2d", "rect6x10", "aliased3",
                                      *DEFAULT_INPUTS])
    def test_matches_the_whole_array_expression_bitwise(self, name, request):
        # the in-place build, by chunks of offsets from V on the nodes (a
        # tabulated H one offset at a time), against Lbar = 0.5*(L(tail) +
        # L(head)) evaluated on whole (m, n) arrays of L, and the derived costs
        # against tau*(Lbar + c) and its gather by head, at shift 0 and at c
        grid, spec, stencil, c = kernel_inputs(name, request)
        kernel = wk.build_kernel(grid, spec, stencil, c)
        n, idx, offsets = grid.num_nodes, np.arange(grid.num_nodes), stencil.offsets
        lagr = np.stack([
            wk.eval_lagrangian(spec, grid.coordinates, np.broadcast_to(v, (n, grid.dim)))
            for v in stencil.velocities
        ])
        heads = np.stack([grid.shift_indices(idx, off) for off in offsets])
        preds = np.stack([grid.shift_indices(idx, tuple(-o for o in off)) for off in offsets])
        lbar = 0.5 * (lagr + np.take_along_axis(lagr, heads, axis=1))
        assert kernel.edge_lagrangian.tobytes() == lbar.tobytes()
        for shifted in (replace(kernel, c=0.0), kernel):
            priced = stencil.tau * (lbar + shifted.c)
            assert shifted.costs.tobytes() == priced.tobytes()
            by_head = np.take_along_axis(priced, preds, axis=1)
            assert shifted.costs_by_head().tobytes() == by_head.tobytes()
            assert shifted.costs is shifted.costs and not shifted.costs.flags.writeable
        np.testing.assert_array_equal(kernel.head_index, heads)
        np.testing.assert_array_equal(kernel.pred_index, preds)
        if name == "aliased3":
            np.testing.assert_array_equal(kernel.head_index[-1], kernel.head_index[-2])

    def test_no_call_per_offset(self, request, monkeypatch):
        # V is evaluated once on the nodes, and the in-edge Lbar takes one
        # gather per chunk of offsets
        grid, spec, stencil, c = kernel_inputs("pendulum300", request)
        calls = []

        def potential(x):
            calls.append(len(x))
            return spec.potential(x)

        kernel = wk.build_kernel(grid, replace(spec, potential=potential), stencil, c)
        assert calls == [grid.num_nodes]
        gathered = []
        gather = wk.ActionKernel.gather
        monkeypatch.setattr(wk.ActionKernel, "gather",
                            lambda self, *args: gathered.append(args[2:4]) or gather(self, *args))
        kernel.lagrangian_by_head()
        assert gathered == kernel._chunks() and len(gathered) == 8 < kernel.num_offsets


class TestGather:
    """The block gather and the per-edge lookup against np.take and fancy
    indexing on the derived tables, in both directions, for every block of
    7 offsets: the blocks cross the stencil's rows and its runs."""

    @pytest.mark.parametrize("name", ["pendulum16", "cos2d", "rect6x10", "aliased3"])
    def test_matches_the_tables(self, name, request, monkeypatch):
        monkeypatch.setattr(action_barrier, "_BLOCK_ROWS", 7)
        kernel = wk.build_kernel(*kernel_inputs(name, request))
        (m, n), rng = kernel.edge_lagrangian.shape, np.random.default_rng(7)
        values = rng.normal(size=n)
        buffer = action_barrier._block_buffer((m, n))
        ks, nodes = np.divmod(rng.permutation(m * n), n)  # every edge, in a random order
        for sign, table in ((-1, kernel.pred_index), (1, kernel.head_index)):
            blocks = action_barrier._blocks(m)
            assert len(blocks) == -(-m // 7)
            for lo, hi in blocks:
                got = kernel.gather(values, sign, lo, hi, buffer)
                assert np.shares_memory(got, buffer) and got.shape == (hi - lo, n)
                assert got.tobytes() == np.take(values, table[lo:hi]).tobytes()
            np.testing.assert_array_equal(kernel.neighbors(sign, ks, nodes), table[ks, nodes])
        assert kernel.lagrangian_by_head().tobytes() == np.take_along_axis(
            kernel.edge_lagrangian, kernel.pred_index, axis=1).tobytes()

    @pytest.mark.parametrize("name", ["pendulum300", "cos16"])
    def test_lagrangian_by_head_reads_each_row_at_its_tails(self, name, request):
        # chunks of offsets, padded rows at most one block of floats: in 1-D
        # more than 64 offsets, in 2-D chunks that cross the stencil's runs
        kernel = wk.build_kernel(*kernel_inputs(name, request))
        lag, by_head, runs = kernel.edge_lagrangian, kernel.lagrangian_by_head(), kernel._layout[4]
        chunks = kernel._chunks()
        assert len(chunks) > 1 and chunks[-1][1] == kernel.num_offsets
        assert kernel.num_offsets > 64 or any(runs[lo] < hi for lo, hi in chunks)
        for k in range(kernel.num_offsets):
            assert by_head[k].tobytes() == lag[k][kernel.pred_index[k]].tobytes(), k


class TestArgmin:
    @pytest.mark.parametrize("rows", [1, 7, 64, 1000])
    def test_matches_argmin_on_lattice_ties(self, rows, monkeypatch):
        # values on a lattice of quarters tie in nearly every column, across
        # the block boundaries too; the lowest index wins, whatever the block size
        monkeypatch.setattr(action_barrier, "_BLOCK_ROWS", rows)
        rng = np.random.default_rng(rows)
        q = rng.integers(-2, 3, size=(9, 150)) / 4.0
        q[rng.random(q.shape) < 0.1] = np.inf
        q[:, 5] = 0.25
        q[:, 7] = np.inf
        policy = rng.integers(0, 9, size=150)
        blocks = []

        def fill(lo, hi):
            blocks.append(hi - lo)
            return q[lo:hi]

        low, best, held = action_barrier._reduce(fill, q.shape, policy)
        assert blocks == [min(rows, 9 - lo) for lo in range(0, 9, rows)]
        assert best.dtype == np.intp
        np.testing.assert_array_equal(best, q.argmin(axis=0))
        assert low.tobytes() == q.min(axis=0).tobytes()
        assert held.tobytes() == q[policy, np.arange(150)].tobytes()
        assert action_barrier._reduce(fill, q.shape)[2] is None


def block_bytes(kernel):
    """Bytes of one block of offsets, the scratch unit of every in-edge pass."""
    return 8 * min(action_barrier._BLOCK_ROWS, kernel.num_offsets) * kernel.num_nodes


class TestPeakAllocation:
    """tracemalloc peaks of the stages that read the kernel, as inputs + outputs
    + k (m, n) float arrays of 8*m*n bytes + the blocks of offsets the passes
    hold: a reintroduced (m, n) temporary fails the bound."""

    def test_build_kernel_allocates_its_one_array(self, pendulum200):
        # Lbar alone: no cost array and no index table is made
        p = pendulum200
        m, n = p.kernel.num_offsets, p.kernel.num_nodes
        peak = traced_peak(wk.build_kernel, p.grid, p.spec, p.stencil, p.c_star)
        assert peak <= 8 * m * n + PEAK_SLACK

    def test_tight_subgraph_holds_one_array_and_its_mask(self, pendulum200):
        # Howard's gathered Lbar, its two float blocks and the block argmin's
        # transposed copy; then the m*n-byte tight mask
        kernel = pendulum200.kernel
        m, n = kernel.num_offsets, kernel.num_nodes
        bound = 8 * m * n + m * n + 3 * block_bytes(kernel) + PEAK_SLACK
        assert traced_peak(action_barrier.tight_subgraph, kernel) <= bound

    def test_peierls_barrier_holds_one_array(self, pendulum200):
        # one priced array at a time, each distance pass's and the factor
        # step's, released with it, beside one block of candidates; the
        # n x n values (8 n^2 < 8 m n + one block here, and one class needs
        # no term buffer) are made once the passes are done
        kernel = replace(pendulum200.kernel)
        m, n = kernel.num_offsets, kernel.num_nodes
        graph = action_barrier.tight_subgraph(kernel)
        assert len(graph.classes) == 1 and 8 * n * n < 8 * m * n + block_bytes(kernel)
        bound = 8 * m * n + block_bytes(kernel) + PEAK_SLACK
        assert traced_peak(wk.peierls_barrier, kernel, graph) <= bound


def in_edge_results(p):
    """The bits of everything the in-edge passes decide on problem p: Howard's
    mean, bias and rounds, the CriticalGraph, the barrier, one discounted
    solve, the Mather program and u0 at every third node, with certificates."""
    kernel0, kernel = replace(p.kernel0), replace(p.kernel)
    howard = action_barrier._min_cycle_mean(kernel0, kernel0.lagrangian_by_head())
    graph = action_barrier.tight_subgraph(kernel0)
    barrier = wk.peierls_barrier(kernel, tight=graph)
    lp = wk.solve_mather_lp(kernel, tight=graph)
    u0 = wk.compute_u0(barrier, kernel, kernel.c, 1e-6, list(range(0, kernel.num_nodes, 3)))
    measures = [lp.measure, *u0.certificates]
    return [np.asarray(x).tobytes() for x in (
        *howard, graph.mean, *graph.cycles, graph.howard_rounds,
        barrier.values, barrier.residual, barrier.relax_rounds,
        *discounted_policy_iteration(kernel, 0.05), lp.value, u0.values,
        *(a for mu in measures for a in (mu.tails, mu.offset_ids, mu.weights)),
    )] + [graph.classes]


class TestBlockSize:
    """The block of offsets every in-edge pass holds changes no bit: min is
    exact, and the running argmin keeps ties at the lowest offset."""

    @pytest.mark.parametrize("name", ["pendulum16", "cos2d"])
    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_changes_no_result(self, name, rows, request, monkeypatch):
        p = request.getfixturevalue(name)
        want = in_edge_results(p)
        monkeypatch.setattr(action_barrier, "_BLOCK_ROWS", rows)
        assert in_edge_results(p) == want


class TestMinPlus:
    def test_power_one_is_kernel(self, pendulum16):
        h1 = wk.minplus_power(pendulum16.kernel, 1)
        np.testing.assert_array_equal(h1.values, pendulum16.kernel.dense())

    def test_two_step_free_particle_example(self):
        # n=4 grid, K=1, tau=1, c=0: two steps from 0 to 0.5 cost 2 * (0.25^2)/2
        grid = wk.build_grid(1, [4])
        spec = wk.mechanical(wk.zero_potential(), dim=1)
        stencil = wk.make_stencil(grid, 1.0, 0.25)
        kernel = wk.build_kernel(grid, spec, stencil, c=0.0)
        h2 = wk.minplus_power(kernel, 2)
        assert h2.values[0, 2] == pytest.approx(0.0625, abs=1e-15)
        oracle = brute_force_h(kernel, 2)
        np.testing.assert_array_equal(h2.values, oracle)

    def test_power_matches_brute_force(self, pendulum8):
        k = pendulum8.kernel
        for steps in (1, 2, 3, 4, 5, 6):
            got = wk.minplus_power(k, steps).values
            oracle = brute_force_h(k, steps)
            finite = np.isfinite(oracle)
            np.testing.assert_array_equal(np.isfinite(got), finite)
            assert np.max(np.abs(got[finite] - oracle[finite])) <= 1e-12

    def test_repeated_squaring_matches_product(self, pendulum16):
        k = pendulum16.kernel
        p2 = wk.minplus_power(k, 2).values
        p4 = wk.minplus_power(k, 4).values
        p6 = wk.minplus_power(k, 6).values
        np.testing.assert_array_equal(p6, wk.minplus_product(p2, p4))

    def test_subadditive_in_horizon(self, pendulum16):
        k = pendulum16.kernel
        h1 = wk.minplus_power(k, 1).values
        h2 = wk.minplus_power(k, 2).values
        bound = wk.minplus_product(h1, h1)
        assert (h2 <= bound + 1e-12).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_product_is_the_running_min_from_inf_bitwise(self, seed):
        # the product starts from its first term with a finite entry in a's column
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(6, 5)), rng.normal(size=(5, 4))
        a[rng.random(a.shape) < 0.3] = np.inf
        a[:, 0] = np.inf
        b[rng.random(b.shape) < 0.3] = np.inf
        want = np.full((6, 4), np.inf)
        for k in range(5):
            np.minimum(want, a[:, k, None] + b[k], out=want)
        assert wk.minplus_product(a, b).tobytes() == want.tobytes()
        nothing = wk.minplus_product(np.full((6, 5), np.inf), b)
        assert nothing.tobytes() == np.full((6, 4), np.inf).tobytes()

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_product_associative_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.uniform(0, 2, (5, 5)) for _ in range(3))
        left = wk.minplus_product(wk.minplus_product(a, b), c)
        right = wk.minplus_product(a, wk.minplus_product(b, c))
        np.testing.assert_allclose(left, right, atol=1e-12)


class TestPeierls:
    def test_free_particle_floor(self, free32):
        h = wk.peierls_barrier(free32.kernel0)
        assert h.stable
        # transit cost floor: one node per step at the slowest nonzero speed
        q = free32.grid.spacing[0] / free32.tau
        dist = np.abs(free32.grid.wrap_displacement(
            free32.grid.coordinates[:, 0][None, :], free32.grid.coordinates[:, 0][:, None]
        ))
        floor = dist * free32.grid.spacing[0] / (2 * free32.tau)
        np.testing.assert_allclose(h.values, floor, atol=1e-12)
        assert np.abs(h.diagonal()).max() == 0.0

    def test_pendulum_diagonal_zero_at_well(self, pendulum200_barrier):
        assert pendulum200_barrier.values[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert pendulum200_barrier.stable

    def test_pendulum_matches_maupertuis(self, pendulum200, pendulum200_barrier):
        oracle = maupertuis_barrier(pendulum200.spec.potential, 1.0, 0.0, 0.5)
        got = pendulum200_barrier.values[0, 100]
        assert abs(got - oracle) / oracle <= 0.05

    def test_diagonal_nonnegative(self, pendulum200_barrier):
        assert pendulum200_barrier.diagonal().min() >= -1e-9

    def test_triangle_inequality_exhaustive_small(self, pendulum16):
        h = wk.peierls_barrier(pendulum16.kernel).values
        lhs = h[:, None, :]                      # h(y, x)
        rhs = h[:, :, None] + h[None, :, :]      # h(y, z) + h(z, x)
        assert (lhs <= rhs + 1e-9).all()

    def test_mixed_inequality_finite_horizon(self, pendulum16):
        h = wk.peierls_barrier(pendulum16.kernel).values
        for steps in (1, 3):
            ht = wk.minplus_power(pendulum16.kernel, steps).values
            assert (h[:, None, :] <= h[:, :, None] + ht[None, :, :] + 1e-9).all()

    def test_one_step_fixed_point_rows(self, pendulum16):
        barrier = wk.peierls_barrier(pendulum16.kernel)
        stepped = barrier_step(pendulum16.kernel, barrier.values)
        assert np.abs(stepped - barrier.values).max() <= max(barrier.residual, 1e-9)

    def test_unstable_when_shift_is_off(self, pendulum16):
        bad = wk.build_kernel(pendulum16.grid, pendulum16.spec, pendulum16.stencil, c=0.9)
        h = wk.peierls_barrier(bad)
        assert not h.stable
        assert h.residual > 1e-3

    @pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
    def test_matches_windowed_minplus_oracle(self, name):
        # past its transient h_{m tau} is periodic in m with the critical cycle
        # period, at most n, so n consecutive late horizons attain the liminf
        kernel = ORACLE_PROBLEMS[name]()
        n = kernel.num_nodes
        oracle = np.minimum.reduce(
            [wk.minplus_power(kernel, m).values for m in range(8 * n, 9 * n)]
        )
        got = wk.peierls_barrier(kernel).values
        assert np.max(np.abs(got - oracle)) <= 1e-12


def per_offset_step(kernel, h):
    """barrier_step as a running minimum over offsets of n x n temporaries.

    This was the production step before the row-wise one; it stays as the
    oracle the row-wise step must match bit for bit.
    """
    cost_in = kernel.costs_by_head()
    out = np.full_like(h, np.inf)
    for k in range(kernel.num_offsets):
        np.minimum(out, h[:, kernel.pred_index[k]] + cost_in[k][None, :], out=out)
    return out


class TestBarrierStep:
    @pytest.mark.parametrize("name", ["pendulum16", "free32", "cos2d"])
    @pytest.mark.parametrize(
        "per_node, extra", [(0, 0), (0, 1), (0, 3), (1, 0), (1, 5)],
        ids=["0", "1", "3", "n", "n+5"],
    )
    def test_matches_per_offset_loop_bitwise(self, name, per_node, extra, request):
        kernel = request.getfixturevalue(name).kernel
        n = kernel.num_nodes
        num_rows = per_node * n + extra
        rng = np.random.default_rng(num_rows)
        h = rng.normal(scale=3.0, size=(num_rows, n))
        h[rng.random(h.shape) < 0.3] = np.inf
        if num_rows > 1:
            h[1] = np.inf  # a row that reaches nothing stays unreachable
        got = barrier_step(kernel, h)
        want = per_offset_step(kernel, h)
        assert got.shape == want.shape == (num_rows, n)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_matches_per_offset_loop_on_the_barrier(self, pendulum16):
        h = wk.peierls_barrier(pendulum16.kernel).values
        got = barrier_step(pendulum16.kernel, h)
        assert got.tobytes() == per_offset_step(pendulum16.kernel, h).tobytes()

    def test_peak_allocation_is_output_plus_four_stencil_arrays(self, cos2d):
        # n = 64 nodes and m = 25 offsets: the bound is 84 kB, and the per-offset
        # loop, with its two n x n temporaries per offset, needs 146 kB
        kernel = cos2d.kernel
        n, m = kernel.num_nodes, kernel.num_offsets
        h = wk.peierls_barrier(kernel).values
        tracemalloc.start()
        try:
            barrier_step(kernel, h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 32 * m * n


def record_relaxations(monkeypatch):
    """(passes, rows) of a peierls_barrier call: copies of the inputs
    (cost_in, sign, d, free) of every _distances call, and the row count of
    every _relax call, the Bellman-Ford rounds and then the factor step."""
    passes, rows = [], []
    distances, relax = action_barrier._distances, action_barrier._relax

    def recorded_distances(cost_in, kernel, sign, d, free=True):
        passes.append((cost_in.copy(), sign, d.copy(), free))
        return distances(cost_in, kernel, sign, d, free)

    def recorded_relax(h, cost_in, kernel, sign, cand):
        rows.append(h.shape[0])
        return relax(h, cost_in, kernel, sign, cand)

    monkeypatch.setattr(action_barrier, "_distances", recorded_distances)
    monkeypatch.setattr(action_barrier, "_relax", recorded_relax)
    return passes, rows


class TestRelaxRounds:
    def test_counts_bellman_ford_steps(self, pendulum16, monkeypatch):
        passes, rows = record_relaxations(monkeypatch)
        barrier = wk.peierls_barrier(pendulum16.kernel)
        # every relaxation steps one row per class; all but the factor step,
        # the last, are rounds of the two distance passes
        assert len(passes) == 2
        assert set(rows) == {len(barrier.graph.classes)}
        assert barrier.relax_rounds == len(rows) - 1
        assert 2 <= barrier.relax_rounds <= 2 * pendulum16.kernel.num_nodes

    def test_passes_start_from_one_source_per_class(self, monkeypatch):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "transport.json")
        run = _Run(load_config(path))
        run.out = None  # write nothing
        kernel, _, graph = run.critical_graph
        assert [len(cls) for cls in graph.classes] == [32, 32]
        passes, rows = record_relaxations(monkeypatch)
        barrier = wk.peierls_barrier(kernel, tight=graph)
        assert set(rows) == {2}
        assert barrier.relax_rounds == len(rows) - 1
        # each pass starts from the unit rows of the sources 0 and 1, the
        # lowest nodes of the classes, and may lower every node
        want = np.full((2, kernel.num_nodes), np.inf)
        want[[0, 1], [0, 1]] = 0.0
        assert len(passes) == 2
        for _, _, start, free in passes:
            np.testing.assert_array_equal(start, want)
            assert free is True

    def test_given_tight_subgraph_gives_the_same_barrier(self, pendulum16):
        tight = action_barrier.tight_subgraph(pendulum16.kernel0)
        given = wk.peierls_barrier(pendulum16.kernel, tight=tight)
        own = wk.peierls_barrier(pendulum16.kernel)
        assert given.values.tobytes() == own.values.tobytes()
        assert (given.residual, given.relax_rounds) == (own.residual, own.relax_rounds)


def closure_distances(cost_in, pred, d, free):
    """d times the min-plus closure of the edges pred[k, x] -> x into the free
    nodes, the closure by repeated squaring of min(I, C) with minplus_product."""
    m, n = pred.shape
    c = np.full((n, n), np.inf)
    np.minimum.at(c, (pred.reshape(-1), np.tile(np.arange(n), m)), cost_in.reshape(-1))
    c[:, ~np.broadcast_to(free, n)] = np.inf
    np.fill_diagonal(c, np.minimum(np.diag(c), 0.0))
    for _ in range(n.bit_length()):
        c = wk.minplus_product(c, c)
    return wk.minplus_product(d, c)


def reachable(pred, d, free):
    """Nodes a path from a finite start entry reaches through free nodes."""
    reach = np.isfinite(d)
    for _ in range(pred.shape[1]):
        reach = reach | (reach[:, pred].any(axis=1) & free)
    return reach


class TestDistances:
    """The one Bellman-Ford loop the barrier's passes and the cycle potentials share."""

    @given(in_edge_problems())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_the_minplus_closure(self, problem):
        cost_in, pred, start, free = problem
        kernel = table_kernel(cost_in, preds=pred)
        got, rounds = action_barrier._distances(cost_in, kernel, -1, start.copy(), free)
        np.testing.assert_array_equal(got, closure_distances(cost_in, pred, start, free))
        reach = reachable(pred, start, free)
        assert np.isinf(got[~reach]).all() and np.isfinite(got[reach]).all()
        assert 1 <= rounds <= pred.shape[1]

    def test_relax_reads_a_broadcast_cost_like_its_copy(self, pendulum16):
        # the u0 program's weights are one column broadcast over the offsets
        kernel = pendulum16.kernel
        rng = np.random.default_rng(5)
        shape = kernel.edge_lagrangian.shape
        broadcast = np.broadcast_to(rng.normal(size=kernel.num_nodes), shape)
        assert broadcast.strides[0] == 0
        h = rng.normal(size=(3, kernel.num_nodes))
        cand = np.empty(shape)
        got = action_barrier._relax(h, broadcast, kernel, 1, cand)
        want = action_barrier._relax(h, broadcast.copy(), kernel, 1, cand)
        assert got.tobytes() == want.tobytes()


class TestAubry:
    def test_pendulum_single_well(self, pendulum200_barrier):
        assert wk.aubry_set(pendulum200_barrier, 1e-7).tolist() == [0]

    def test_free_particle_everything(self, free32):
        h = wk.peierls_barrier(free32.kernel0)
        assert wk.aubry_set(h, 1e-9).tolist() == list(range(32))

    def test_two_wells(self):
        p = make_problem(16, two_well_potential())
        h = wk.peierls_barrier(p.kernel)
        assert wk.aubry_set(h, 1e-7).tolist() == [0, 8]

    def test_empty_is_an_error(self, pendulum16):
        bad = wk.build_kernel(pendulum16.grid, pendulum16.spec, pendulum16.stencil, c=1.5)
        h = wk.peierls_barrier(bad)
        with pytest.raises(EmptyAubryError):
            wk.aubry_set(h, 1e-12)


class TestMatherClasses:
    def test_pendulum_singleton(self, pendulum200_barrier):
        aubry = wk.aubry_set(pendulum200_barrier, 1e-7)
        assert wk.mather_classes(pendulum200_barrier, aubry, 1e-7) == [[0]]

    def test_two_wells_two_classes(self):
        p = make_problem(16, two_well_potential())
        h = wk.peierls_barrier(p.kernel)
        aubry = wk.aubry_set(h, 1e-7)
        assert wk.mather_classes(h, aubry, 1e-7) == [[0], [8]]

    def test_free_particle_single_class(self, free32):
        # discretely delta_M(x, y) = d(x, y) * h / tau, the velocity-quantization
        # floor; neighbor links close the whole torus into one class once eps
        # clears the single-cell value h^2/tau
        h = wk.peierls_barrier(free32.kernel0)
        aubry = wk.aubry_set(h, 1e-9)
        eps = 2.0 * free32.grid.spacing[0] ** 2 / free32.tau
        classes = wk.mather_classes(h, aubry, eps)
        assert len(classes) == 1 and len(classes[0]) == 32

    def test_delta_symmetric_and_triangle(self):
        p = make_problem(16, two_well_potential())
        h = wk.peierls_barrier(p.kernel)
        nodes = wk.aubry_report(h).nodes
        block = h.values[np.ix_(nodes, nodes)]
        delta = block + block.T
        np.testing.assert_array_equal(delta, delta.T)
        assert delta.min() >= -1e-9


def nx_cyclic_components(adj):
    """Strongly connected components of adj that carry a cycle, by networkx."""
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((tail, head) for tail, heads in enumerate(adj) for head in heads)
    comps = [sorted(c) for c in nx.strongly_connected_components(g)]
    return sorted(c for c in comps if len(c) > 1 or g.has_edge(c[0], c[0]))


def in_edge_kernel(cost_in, pred):
    """The TableKernel of the edges pred[k, x] -> x at cost cost_in[k, x],
    each row of pred a permutation: its Lbar and heads by tail."""
    heads = np.argsort(pred, axis=1)
    return table_kernel(np.take_along_axis(cost_in, heads, axis=1), heads, pred)


def critical_cycle_oracle(cost_in, pred):
    """(least cycle mean, cyclic components of the edges on cycles that
    attain it) of the edges pred[k, x] -> x: every simple cycle by networkx,
    summed in exact quarters and compared as fractions. Of parallel edges
    only the cheapest can lie on such a cycle."""
    import networkx as nx

    g = nx.DiGraph()
    for (k, x), q in np.ndenumerate(np.rint(4 * cost_in).astype(int)):
        tail = int(pred[k, x])
        if not g.has_edge(tail, x) or q < g[tail][x]["q"]:
            g.add_edge(tail, x, q=q)
    means = [(Fraction(sum(g[a][b]["q"] for a, b in zip(c, c[1:] + c[:1])), 4 * len(c)), c)
             for c in nx.simple_cycles(g)]
    least = min(mean for mean, _ in means)
    adj = [[] for _ in range(pred.shape[1])]
    for mean, c in means:
        if mean == least:
            for a, b in zip(c, c[1:] + c[:1]):
                adj[a].append(b)
    return least, nx_cyclic_components(adj)


class TestCriticalGraphOracle:
    """tight_subgraph on random in-edge tables, where equal means are common,
    against every simple cycle."""

    @given(in_edge_problems(permutations=True))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_matches_every_simple_cycle(self, problem):
        cost_in, pred = problem[:2]
        kernel, n = in_edge_kernel(cost_in, pred), pred.shape[1]
        tight_adj = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(action_barrier, "_cyclic_components",
                          lambda adj: tight_adj.append(adj) or _cyclic_components(adj))
            graph = action_barrier.tight_subgraph(kernel)
        least, classes = critical_cycle_oracle(cost_in, pred)
        # Howard's mean is the fsum of a cycle's quarters over its length: the
        # correctly rounded least mean
        assert graph.mean == float(least)
        assert graph.classes == classes == nx_cyclic_components(tight_adj[0])
        for cls, cycle in zip(graph.classes, graph.cycles, strict=True):
            k, tails = np.divmod(cycle, n)
            assert set(tails.tolist()) <= set(cls)
            np.testing.assert_array_equal(kernel.heads[k, tails], np.roll(tails, -1))
            assert Fraction(int(np.rint(4 * kernel.edge_lagrangian[k, tails]).sum()),
                            4 * tails.size) == least


class TestHowardBiases:
    """Howard's terminal biases on random in-edge tables, pinned exactly: 0 at
    each cycle's lowest node, and Lbar - eta + bias(succ) at every other node
    of the terminal policy. Any fixed root keeps every mean and class, so only
    the biases show which one is taken."""

    @given(in_edge_problems(permutations=True))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_terminal_biases_are_rooted_at_each_cycles_lowest_node(self, problem):
        cost_in, pred = problem[:2]
        kernel, n = in_edge_kernel(cost_in, pred), pred.shape[1]
        evaluate, rounds = action_barrier._evaluate_cycle_policy, []

        def recorded(kernel, lag_in, policy):
            rounds.append((policy, *evaluate(kernel, lag_in, policy)))
            return rounds[-1][1:]

        lag_in = kernel.lagrangian_by_head()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(action_barrier, "_evaluate_cycle_policy", recorded)
            mean, bias, _ = action_barrier._min_cycle_mean(kernel, lag_in)
        policy, eta, last = rounds[-1]
        np.testing.assert_array_equal(bias, last)
        assert mean == eta.min()
        succ = kernel.neighbors(-1, policy, np.arange(n))
        step = lag_in[policy, np.arange(n)]
        root = np.zeros(n, dtype=bool)
        for start in range(n):
            walk, x = [], start
            while x not in walk:
                walk.append(x)
                x = int(succ[x])
            cycle = walk[walk.index(x):]
            root[min(cycle)] = True
            assert eta[x] == math.fsum(step[cycle]) / len(cycle)
        np.testing.assert_array_equal(eta, eta[succ])
        np.testing.assert_array_equal(bias[root], 0.0)
        np.testing.assert_array_equal(bias[~root], (step - eta + bias[succ])[~root])


class TestCyclicComponents:
    def test_long_ring_is_one_component(self):
        n = 10_000  # far deeper than the recursion limit
        adj = [[(i + 1) % n] for i in range(n)]
        classes = action_barrier._cyclic_components(adj)
        assert classes == [list(range(n))] == nx_cyclic_components(adj)

    def test_bridge_nodes_belong_to_no_class(self):
        # cycle 0 -> 1 -> 2 -> 0, bridge 2 -> 3 -> 4 -> 5, cycle 5 -> 6 -> 7 -> 5
        adj = [[1], [2], [0, 3], [4], [5], [6], [7], [5]]
        classes = action_barrier._cyclic_components(adj)
        assert classes == [[0, 1, 2], [5, 6, 7]] == nx_cyclic_components(adj)

    def test_singleton_needs_a_self_loop(self):
        adj = [[1], [1, 2], []]
        classes = action_barrier._cyclic_components(adj)
        assert classes == [[1]] == nx_cyclic_components(adj)


CRITICAL_GRAPH_PROBLEMS = {
    "pendulum16": lambda: make_problem(16, pendulum_potential()),
    "two_well32": lambda: make_problem(32, two_well_potential()),
    "free32": lambda: make_problem(32),
    "cos2d": lambda: make_problem(8, wk.cosine_potential([1.0, 1.0], [1.0, 1.0]), dim=2),
    "transport16": lambda: make_problem(16, drift=[0.3]),
    "transport6x6": lambda: make_problem(6, dim=2, drift=[0.3, 0.4]),
}


class TestCriticalGraph:
    @pytest.mark.parametrize("name", sorted(CRITICAL_GRAPH_PROBLEMS))
    def test_matches_networkx_and_the_barrier(self, name, monkeypatch):
        p = CRITICAL_GRAPH_PROBLEMS[name]()
        kernel, n = p.kernel0, p.kernel0.num_nodes
        tight_adj = []
        original = action_barrier._cyclic_components

        def recorded(adj):
            tight_adj.append(adj)
            return original(adj)

        monkeypatch.setattr(action_barrier, "_cyclic_components", recorded)
        graph = action_barrier.tight_subgraph(kernel)
        (adj,) = tight_adj
        assert graph.classes == nx_cyclic_components(adj)

        h = wk.peierls_barrier(p.kernel, tight=graph)
        aubry = wk.aubry_set(h, 1e-7)
        assert graph.classes == wk.mather_classes(h, aubry, 1e-7)
        assert sorted(sum(graph.classes, [])) == aubry.tolist()
        report = wk.aubry_report(h)
        assert report.classes == graph.classes and report.nodes.tolist() == aubry.tolist()
        np.testing.assert_array_equal(report.diagonal, h.diagonal()[aubry])

        assert len(graph.cycles) == len(graph.classes)
        for cls, cycle in zip(graph.classes, graph.cycles):
            k, tails = np.divmod(cycle, n)
            heads = kernel.head_index[k, tails]
            np.testing.assert_array_equal(heads, np.roll(tails, -1))
            assert set(tails.tolist()) <= set(cls)
            assert all(head in adj[tail] for tail, head in zip(tails, heads))
            mean = math.fsum(kernel.edge_lagrangian[k, tails]) / len(cycle)
            assert abs(mean - graph.mean) <= 1e-12


def dense_distances(costs, sources):
    """Rows d(s, .) by Bellman-Ford on a dense (n, n) cost matrix: min-plus
    products with it until a round changes nothing, at most n rounds."""
    d = np.full((sources.size, costs.shape[0]), np.inf)
    d[np.arange(sources.size), sources] = 0.0
    for _ in range(costs.shape[0]):
        nxt = np.minimum(d, wk.minplus_product(d, costs))
        if np.array_equal(nxt, d):
            break
        d = nxt
    return d


def all_critical_sources(kernel, graph):
    """The barrier's factors from every critical node, not one per class, on
    the dense matrix of the kernel at the reduced shift -mean:
    (crit, from_crit, to_crit), rows of from_crit d(z, .), of to_crit d(., z)."""
    crit = np.sort(np.concatenate(graph.classes))
    reduced = replace(kernel, c=-graph.mean).dense()
    return crit, dense_distances(reduced, crit), dense_distances(reduced.T, crit)


def dense_route_values(kernel, graph):
    """The barrier before its class factors: the min-plus product over every
    critical node, then one barrier step on all n of its rows."""
    _, from_crit, to_crit = all_critical_sources(kernel, graph)
    return barrier_step(kernel, wk.minplus_product(to_crit.T, from_crit))


class TestReducedCosts:
    @pytest.mark.parametrize("name", sorted(CRITICAL_GRAPH_PROBLEMS))
    def test_are_the_shifted_costs_at_the_critical_shift(self, name, monkeypatch):
        # mean + c is exactly 0.0 there, so the view at shift -mean that each
        # distance pass prices carries the bits of costs - tau*(mean + c): by
        # head on the in-edges forward, by tail on the out-edges backward
        p = CRITICAL_GRAPH_PROBLEMS[name]()
        graph = action_barrier.tight_subgraph(p.kernel0)
        kernel = p.kernel
        assert graph.mean + kernel.c == 0.0
        passes, _ = record_relaxations(monkeypatch)
        wk.peierls_barrier(kernel, tight=graph)
        old = kernel.costs - kernel.stencil.tau * (graph.mean + kernel.c)
        (forward, fwd_sign, _, _), (backward, back_sign, _, _) = passes
        assert forward.tobytes() == np.take_along_axis(old, kernel.pred_index, axis=1).tobytes()
        assert backward.tobytes() == old.tobytes()
        assert (fwd_sign, back_sign) == (-1, 1)


class TestFactoredBarrier:
    @pytest.fixture(scope="class", params=sorted(CRITICAL_GRAPH_PROBLEMS))
    def case(self, request):
        p = CRITICAL_GRAPH_PROBLEMS[request.param]()
        graph = action_barrier.tight_subgraph(p.kernel0)
        return p, graph, wk.peierls_barrier(p.kernel, tight=graph)

    def test_values_match_the_dense_route(self, case):
        p, graph, barrier = case
        want = dense_route_values(p.kernel, graph)
        assert np.max(np.abs(barrier.values - want)) <= 1e-14

    def test_class_nodes_shift_the_representative(self, case):
        # d(z, .) = d(z, r) + d(r, .) and d(., z) = d(., r) + d(r, z) for
        # every node z of the class of lowest node r
        p, graph, _ = case
        crit, from_crit, to_crit = all_critical_sources(p.kernel, graph)
        pos = {z: i for i, z in enumerate(crit.tolist())}
        for cls in graph.classes:
            r = pos[cls[0]]
            for z in cls:
                i = pos[z]
                np.testing.assert_allclose(
                    from_crit[i], from_crit[i, cls[0]] + from_crit[r], rtol=0, atol=1e-12
                )
                np.testing.assert_allclose(
                    to_crit[i], to_crit[r] + from_crit[r, z], rtol=0, atol=1e-12
                )

    def test_residual_is_zero_at_the_critical_shift(self, case):
        _, _, barrier = case
        assert barrier.residual == 0.0 and barrier.stable

    def test_rows_are_rows_of_the_full_barrier(self, case):
        # the rows of a class are its lowest node's row of the full barrier,
        # shifted: h(z, .) = h(z, r) + h(r, .), which the u0 cycle route averages
        _, graph, barrier = case
        for cls in graph.classes:
            r = cls[0]
            for z in cls:
                np.testing.assert_allclose(
                    barrier.row(z), barrier.values[z, r] + barrier.row(r), rtol=0, atol=1e-12
                )

    def test_residual_off_the_shift_is_the_shift_gap(self, case):
        p, graph, _ = case
        off = wk.build_kernel(p.grid, p.spec, p.stencil, c=0.9)
        barrier = wk.peierls_barrier(off, tight=graph)
        gap = p.stencil.tau * abs(graph.mean + 0.9)
        assert abs(barrier.residual - gap) <= 1e-15


class TestVerifySubsolution:
    def test_constant_is_subsolution(self, pendulum16):
        u = wk.GridFunction(pendulum16.grid, np.full(16, 3.7))
        assert wk.verify_subsolution(u, pendulum16.kernel) <= 0.0

    def test_barrier_row_is_subsolution(self, pendulum200, pendulum200_barrier):
        v = wk.verify_subsolution(pendulum200_barrier.values[0], pendulum200.kernel)
        assert v <= 1e-9

    def test_doubled_row_violates(self, pendulum200, pendulum200_barrier):
        v = wk.verify_subsolution(2.0 * pendulum200_barrier.values[0], pendulum200.kernel)
        assert v > 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_u_is_refused(self, pendulum16, value):
        u = np.zeros(16)
        u[5] = value
        with pytest.raises(WeakKamError, match="finite at every node"):
            wk.verify_subsolution(u, pendulum16.kernel)


class TestEquivariance:
    def test_translation_shifts_everything(self):
        # shifting the potential by s nodes shifts barriers and Aubry sets
        n, shift = 16, 5
        base = make_problem(n, pendulum_potential())

        def shifted_potential(x):
            return pendulum_potential()(np.asarray(x) - shift / n)

        moved = make_problem(n, shifted_potential)
        hb = wk.peierls_barrier(base.kernel).values
        hm = wk.peierls_barrier(moved.kernel).values
        perm = (np.arange(n) - shift) % n
        np.testing.assert_allclose(hm, hb[np.ix_(perm, perm)], atol=1e-12)
        assert wk.aubry_set(wk.peierls_barrier(moved.kernel), 1e-7).tolist() == [shift]


class TestBarrierIO:
    def test_binary_round_trip(self, pendulum16, tmp_path):
        from weakkam import io

        h = wk.peierls_barrier(pendulum16.kernel)
        io.write_barrier(h, tmp_path / "barrier")
        back = io.read_barrier(tmp_path / "barrier")
        np.testing.assert_array_equal(back.values, h.values)
        assert back.residual == h.residual and back.stable == h.stable
        assert back.tau == h.tau and back.c == h.c
