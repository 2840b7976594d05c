import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakkam as wk
from weakkam import action_barrier, discounted
from weakkam.discounted import discounted_policy_iteration, discounted_sweeps
from weakkam.errors import ConvergenceError, WeakKamError

from conftest import (PEAK_SLACK, in_edge_problems, make_problem, pendulum_potential, table_kernel,
                      traced_peak)


def brute_force_discounted(kernel, lam, steps):
    """Optimal truncated discounted cost by full path enumeration."""
    tau = kernel.stencil.tau
    beta = math.exp(-lam * tau)
    weight = (1.0 - beta) / (lam * tau)
    n = kernel.num_nodes
    best = np.full(n, np.inf)
    for start in range(n):
        for seq in itertools.product(range(kernel.num_offsets), repeat=steps):
            node = start
            total = 0.0
            # assemble exactly the Horner recursion the solver uses
            costs = []
            for k in seq:
                prev = int(kernel.pred_index[k, node])
                costs.append(weight * kernel.costs[k, prev])
                node = prev
            acc = 0.0
            for c in reversed(costs):
                acc = c + beta * acc
            best[start] = min(best[start], acc)
    return best


def step_walk_occupation_measure(sol, x0):
    """Reference occupation measure: walk N policy steps, N so large that the
    discarded tail beta^N is below 2^-60, and add up the weights
    (1-beta)*beta^i edge by edge, with no renormalization."""
    beta = sol.beta
    n_steps = int(60 * math.log(2.0) / (sol.lam * sol.tau)) + 1
    assert beta**n_steps < 2.0**-60
    traj = wk.backward_trajectory(sol, x0, n_steps)
    raw = (1.0 - beta) * np.power(beta, np.arange(n_steps))
    key = traj.nodes[1:] * sol.stencil.num_offsets + traj.offsets
    uniq, inverse = np.unique(key, return_inverse=True)
    weights = np.array([math.fsum(raw[inverse == j]) for j in range(uniq.size)])
    return dict(
        tails=(uniq // sol.stencil.num_offsets).astype(np.int64),
        offset_ids=(uniq % sol.stencil.num_offsets).astype(np.int64),
        weights=weights,
    )


def assert_matches_step_walk(sol, x0):
    """The closed-form occupation measure equals the infinite-horizon step
    walk: the same support in the same order, weights to 1e-12 (the sums run
    in another order)."""
    got = wk.discounted_occupation_measure(sol, x0)
    ref = step_walk_occupation_measure(sol, x0)
    np.testing.assert_array_equal(got.tails, ref["tails"])
    np.testing.assert_array_equal(got.offset_ids, ref["offset_ids"])
    assert got.tails.dtype == got.offset_ids.dtype == np.int64
    assert np.abs(got.weights - ref["weights"]).max() <= 1e-12
    return got


def assert_splits_at_horizon(sol, x0, n_steps):
    """The measure from x0 is its first n steps plus beta^n times the measure
    from the node n steps back, mu(x0) = (1-beta) sum_{i<n} beta^i delta_i +
    beta^n mu(x_n): the same support in the same order, weights to 1e-12."""
    beta = sol.beta
    traj = wk.backward_trajectory(sol, x0, n_steps)
    split = np.zeros((sol.grid.num_nodes, sol.stencil.num_offsets))  # by (tail, offset)
    steps = (1.0 - beta) * np.power(beta, np.arange(n_steps))
    np.add.at(split, (traj.nodes[1:], traj.offsets), steps)
    rest = wk.discounted_occupation_measure(sol, int(traj.nodes[-1]))
    np.add.at(split, (rest.tails, rest.offset_ids), beta**n_steps * rest.weights)
    got = wk.discounted_occupation_measure(sol, x0)
    tails, offset_ids = np.nonzero(split)
    np.testing.assert_array_equal(got.tails, tails)
    np.testing.assert_array_equal(got.offset_ids, offset_ids)
    assert np.abs(got.weights - split[tails, offset_ids]).max() <= 1e-12
    return got


def converged_sweeps(kernel, lam, chunk=500, max_chunks=400):
    """Value iteration from zero until one sweep changes u by at most 1e-14."""
    u = np.zeros(kernel.num_nodes)
    for _ in range(max_chunks):
        u = discounted_sweeps(kernel, lam, chunk, init=u)
        nxt = discounted_sweeps(kernel, lam, 1, init=u)
        if np.abs(nxt - u).max() <= 1e-14:
            return nxt
        u = nxt
    raise AssertionError("value iteration did not settle to 1e-14")


@pytest.fixture(scope="module")
def transport8():
    return make_problem(8, drift=[0.5], tau=0.25, alpha=1.0)


@pytest.fixture(scope="module")
def cos4x4():
    # the default time step does not fit a 4x4 torus: one-cell stencil, speed 1
    potential = wk.cosine_potential([1.0, 1.0], [1.0, 1.0])
    return make_problem(4, potential=potential, dim=2, tau=0.25, alpha=1.0)


class TestSolveDiscounted:
    def test_free_particle_zero_and_stay(self, free32):
        sol = wk.solve_discounted(
            free32.grid, free32.spec, 0.2, free32.stencil, c=0.0, kernel=free32.kernel0
        )
        np.testing.assert_array_equal(sol.values.values, 0.0)
        assert (sol.policy == free32.stencil.zero_index).all()

    @pytest.mark.parametrize("name", ["pendulum16", "cos2d"])
    def test_without_a_kernel_builds_the_same_one(self, request, name):
        p = request.getfixturevalue(name)
        given = wk.solve_discounted(p.grid, p.spec, 0.1, p.stencil, p.c_star, kernel=p.kernel)
        built = wk.solve_discounted(p.grid, p.spec, 0.1, p.stencil, p.c_star)
        assert built.values.values.tobytes() == given.values.values.tobytes()
        np.testing.assert_array_equal(built.policy, given.policy)
        assert (built.iterations, built.residual, built.tol, built.c) == (
            given.iterations, given.residual, given.tol, given.c)

    def test_pendulum_zero_at_well(self, pendulum200):
        p = pendulum200
        for lam in (0.5, 0.01):
            sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
            assert sol.values.values[0] == 0.0
            assert sol.values.values.min() >= 0.0

    def test_lambda_monotone_pointwise_exact(self, pendulum16):
        p = pendulum16
        sols = {
            lam: wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
            for lam in (0.2, 0.1)
        }
        # L + c >= 0, so values can only grow as lambda decreases
        slack = 2 * sols[0.2].tol
        assert (sols[0.1].values.values >= sols[0.2].values.values - slack).all()

    def test_value_band(self, pendulum16):
        p = pendulum16
        lam = 0.17
        sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
        scaled = lam * sol.values.values
        lbar = p.kernel.edge_lagrangian
        lo = lbar.min() + p.c_star
        coords = p.grid.coordinates
        stay = wk.eval_lagrangian(p.spec, coords, np.zeros_like(coords)) + p.c_star
        assert (scaled >= lo - 1e-9).all()
        assert (scaled <= stay + 1e-9).all()

    def test_residual_bounds_error(self, pendulum16, monkeypatch):
        p = pendulum16
        monkeypatch.setattr(discounted, "_TOL", 1e-10)
        sol = wk.solve_discounted(p.grid, p.spec, 0.25, p.stencil, p.c_star, kernel=p.kernel)
        one_more = discounted_sweeps(p.kernel, 0.25, 1, init=sol.values.values)
        assert np.abs(one_more - sol.values.values).max() <= 1e-10

    @pytest.mark.parametrize("name", ["pendulum16", "pendulum200", "transport8", "cos4x4"])
    @pytest.mark.parametrize("lam", [0.2, 0.01])
    def test_values_are_the_policy_value(self, request, name, lam):
        # u = w*cost(policy) + beta*u(pred(policy)) at every node, to rounding
        p = request.getfixturevalue(name)
        sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
        k, u, beta = p.kernel, sol.values.values, sol.beta
        cols = np.arange(k.num_nodes)
        step = (1.0 - beta) / (lam * sol.tau) * k.costs_by_head()[sol.policy, cols]
        identity = step + beta * u[k.pred_index[sol.policy, cols]]
        assert np.abs(identity - u).max() <= 4 * np.spacing(np.abs(u).max())

    def test_uncertifiable_tol_raises(self, pendulum16, monkeypatch):
        # a Bellman residual above tol*(1-beta) raises; the exact solve's sits at
        # the rounding of u, so a larger one is planted
        p = pendulum16
        solve = discounted_policy_iteration
        monkeypatch.setattr(discounted, "discounted_policy_iteration",
                            lambda kernel, lam: (*solve(kernel, lam)[:3], 1e-9))
        with pytest.raises(ConvergenceError, match="residual 1.000e-09 above") as err:
            wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        assert err.value.residual == 1e-9
        assert err.value.iterations >= 1

    @pytest.mark.parametrize("lam", [3e-7, 1e-7])
    def test_tol_floors_at_the_rounding_of_u(self, pendulum200, lam):
        # at these lambda 1e-8*(1-beta) is below the residual of the exact solve,
        # 2.2e-16; tol is then 4 ulps of max(1, max|u|) over (1-beta), still certified
        p = pendulum200
        sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
        gap = 1.0 - sol.beta
        assert 0.0 < sol.residual <= sol.tol * gap
        floor = 4 * np.finfo(float).eps * max(1.0, np.abs(sol.values.values).max())
        assert sol.tol == floor / gap > discounted._TOL

    def test_tol_is_1e_8_where_the_floor_does_not_bind(self, pendulum200_solutions):
        assert {sol.tol for sol in pendulum200_solutions} == {1e-8}

    def test_round_cap_raises(self, pendulum16, monkeypatch):
        # the cap is read when the run starts
        p = pendulum16
        monkeypatch.setattr(action_barrier, "_MAX_ROUNDS", 3)
        with pytest.raises(ConvergenceError, match="discounted: .* cap of 3 rounds") as err:
            wk.solve_discounted(p.grid, p.spec, 0.01, p.stencil, p.c_star, kernel=p.kernel)
        assert err.value.iterations == 3

    def test_residual_is_the_last_pass(self, pendulum16, monkeypatch):
        # the residual is read off the last improvement pass: no extra Bellman sweep
        p = pendulum16
        ref = wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        calls = []
        monkeypatch.setattr(discounted, "discounted_sweeps", lambda *a, **k: calls.append(a))
        sol = wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        assert calls == []
        one_more = discounted_sweeps(p.kernel, 0.05, 1, init=sol.values.values)
        assert sol.residual == ref.residual == float(np.abs(one_more - sol.values.values).max())

    @pytest.mark.parametrize("lam", [0.0, 1e-300])
    def test_lambda_without_discount_rejected(self, pendulum16, lam):
        # at 1e-300, beta = exp(-lambda*tau) rounds to 1 and the step weight to 0
        p = pendulum16
        with pytest.raises(WeakKamError, match="double rounding"):
            wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)

    def test_equi_lipschitz_across_schedule(self, pendulum200, pendulum200_solutions):
        quotients = [s.values.lipschitz_quotient() for s in pendulum200_solutions]
        assert max(quotients) < 1.5 * min(quotients)

    def test_truncated_horizon_matches_brute_force(self, pendulum8):
        for lam in (0.5, 0.05):
            for steps in (1, 2, 3, 4):
                got = discounted_sweeps(pendulum8.kernel, lam, steps)
                oracle = brute_force_discounted(pendulum8.kernel, lam, steps)
                assert np.abs(got - oracle).max() <= 1e-12


# case -> ((grid, stencil) of pendulum16 with one of them changed, text the error names)
KERNEL_MISMATCHES = {
    "grid": (lambda p: (wk.build_grid(1, [32]), p.stencil), "grid"),
    "tau": (lambda p: (p.grid, replace(p.stencil, tau=0.5 * p.stencil.tau)), "stencil"),
    "offsets": (lambda p: (p.grid, replace(p.stencil, offsets=p.stencil.offsets[1:])), "stencil"),
}


class TestKernelMismatch:
    """A given kernel is refused when it was built for other arguments than
    the ones its solution is recorded under."""

    @pytest.mark.parametrize("case", sorted(KERNEL_MISMATCHES))
    def test_solve_refuses(self, pendulum16, case):
        p = pendulum16
        other, named = KERNEL_MISMATCHES[case]
        grid, stencil = other(p)
        with pytest.raises(WeakKamError, match=named):
            wk.solve_discounted(grid, p.spec, 0.1, stencil, p.c_star, kernel=p.kernel)

    def test_solve_refuses_another_shift(self, pendulum16):
        p = pendulum16
        with pytest.raises(WeakKamError, match="shift c = "):
            wk.solve_discounted(p.grid, p.spec, 0.1, p.stencil, 0.0, kernel=p.kernel)

    @pytest.mark.parametrize("case", sorted(KERNEL_MISMATCHES))
    def test_table_refuses(self, pendulum16, case):
        p = pendulum16
        other, named = KERNEL_MISMATCHES[case]
        grid, stencil = other(p)
        with pytest.raises(WeakKamError, match=named):
            wk.critical_value_estimate(grid, p.spec, stencil, [0.2, 0.1, 0.05], kernel=p.kernel0)

    def test_table_refuses_a_shifted_kernel(self, pendulum16):
        p = pendulum16
        assert p.kernel.c != 0.0
        with pytest.raises(WeakKamError, match="shift c = "):
            wk.critical_value_estimate(p.grid, p.spec, p.stencil, [0.2, 0.1, 0.05], kernel=p.kernel)


class TestPolicyIteration:
    @pytest.mark.parametrize("name", ["pendulum16", "free32", "transport8", "cos4x4"])
    @pytest.mark.parametrize("lam", [0.2, 0.025])
    def test_matches_converged_value_iteration(self, request, name, lam):
        p = request.getfixturevalue(name)
        u, _, rounds, _ = discounted_policy_iteration(p.kernel0, lam)
        oracle = converged_sweeps(p.kernel0, lam)
        assert rounds >= 1
        assert np.abs(u - oracle).max() <= 1e-10
        # the lambda schedule runs the same loop on the critical kernel
        sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
        assert np.abs(sol.values.values - converged_sweeps(p.kernel, lam)).max() <= 1e-12

    @given(in_edge_problems(), st.sampled_from([0.5, 0.1, 0.05]))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_random_in_edge_tables_match_value_iteration(self, problem, lam):
        # costs on the 1/4 lattice, so tied in-edges are common; Lbar is keyed
        # by (offset, tail), as every kernel keys it, and tau is 1
        cost_in, pred = problem[:2]
        kernel = table_kernel(cost_in, preds=pred)
        sol = wk.solve_discounted(kernel.grid, None, lam, kernel.stencil, 0.0, kernel=kernel)
        assert np.abs(sol.values.values - converged_sweeps(kernel, lam)).max() <= sol.tol

    def test_round_cap_raises(self, pendulum16, monkeypatch):
        p = pendulum16
        monkeypatch.setattr(action_barrier, "_MAX_ROUNDS", 1)
        with pytest.raises(ConvergenceError, match="cap of 1 rounds") as err:
            wk.critical_value_estimate(p.grid, p.spec, p.stencil, [0.2, 0.1, 0.05])
        assert err.value.iterations == 1

    def test_rounds_recorded_per_lambda(self, pendulum16, free32):
        p = pendulum16
        _, table = wk.critical_value_estimate(p.grid, p.spec, p.stencil, [0.2, 0.1, 0.05])
        assert len(table.rounds) == 3 and min(table.rounds) >= 2
        # the cheapest step (stay put) is already optimal for the free particle
        _, table = wk.critical_value_estimate(free32.grid, free32.spec, free32.stencil, [0.2, 0.1, 0.05])
        assert table.rounds == (1, 1, 1)

    def test_table_solves_through_solve_discounted(self, pendulum16, monkeypatch):
        # each lambda of the table is a certified solve at shift 0 on the given kernel
        p, solved, original = pendulum16, [], discounted.solve_discounted

        def recorded(*args, **kwargs):
            solved.append(original(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(discounted, "solve_discounted", recorded)
        lambdas = [0.2, 0.1, 0.05]
        _, table = wk.critical_value_estimate(p.grid, p.spec, p.stencil, lambdas, kernel=p.kernel0)
        assert [sol.lam for sol in solved] == lambdas
        assert all(sol.c == 0.0 and sol.kernel is p.kernel0 for sol in solved)
        assert table.rounds == tuple(sol.iterations for sol in solved)
        assert table.mins == tuple(float((-sol.lam * sol.values.values).min()) for sol in solved)


class TestPeakAllocation:
    def test_policy_iteration_holds_one_stencil_array(self, pendulum200):
        # the scaled in-edge costs, the block of candidates every round reuses
        # and the block argmin's transposed copy
        kernel = replace(pendulum200.kernel)
        m, n = kernel.num_offsets, kernel.num_nodes
        block = 8 * min(action_barrier._BLOCK_ROWS, m) * n
        bound = 8 * m * n + 2 * block + PEAK_SLACK
        assert traced_peak(discounted_policy_iteration, kernel, 0.05) <= bound

    def test_policy_iteration_leaves_the_by_head_cache_unfilled(self, pendulum16):
        # the scaled in-edge costs are the fresh array costs_by_head gives, so
        # the kernel keeps no cost array and no index table beside them
        kernel = replace(pendulum16.kernel)
        discounted_policy_iteration(kernel, 0.05)
        assert not {"costs", "head_index", "pred_index"} & kernel.__dict__.keys()


class TestCriticalValue:
    def test_free_particle(self, free32):
        c, table = wk.critical_value_estimate(
            free32.grid, free32.spec, free32.stencil, [0.2, 0.1, 0.05]
        )
        assert abs(c) <= 1e-9
        assert not table.spread_warning

    def test_transport_representable(self, transport8):
        p = transport8
        c, table = wk.critical_value_estimate(p.grid, p.spec, p.stencil, [0.2, 0.1, 0.05, 0.025])
        assert abs(c) <= 1e-9

    def test_pendulum_small_grid(self, pendulum16):
        p = pendulum16
        c, table = wk.critical_value_estimate(p.grid, p.spec, p.stencil, [0.2, 0.1, 0.05, 0.025])
        assert abs(c - 1.0) <= 0.05
        spreads = table.spreads
        assert all(b <= a * 1.1 + 1e-12 for a, b in zip(spreads, spreads[1:]))

    def test_schedule_validation(self, pendulum16):
        p = pendulum16
        with pytest.raises(WeakKamError):
            wk.critical_value_estimate(p.grid, p.spec, p.stencil, [0.1, 0.2, 0.3])
        with pytest.raises(WeakKamError):
            wk.critical_value_estimate(p.grid, p.spec, p.stencil, [0.2, 0.1])


class TestTrajectories:
    def test_free_particle_constant(self, free32):
        sol = wk.solve_discounted(
            free32.grid, free32.spec, 0.2, free32.stencil, c=0.0, kernel=free32.kernel0
        )
        traj = wk.backward_trajectory(sol, 11, 20)
        assert (traj.nodes == 11).all()
        assert (traj.speeds == 0.0).all()

    def test_pendulum_stays_at_well(self, pendulum16):
        p = pendulum16
        sol = wk.solve_discounted(p.grid, p.spec, 0.1, p.stencil, p.c_star, kernel=p.kernel)
        traj = wk.backward_trajectory(sol, 0, 30)
        assert (traj.nodes == 0).all()

    def test_pendulum_accumulates_on_aubry(self, pendulum16):
        p = pendulum16
        sol = wk.solve_discounted(p.grid, p.spec, 0.01, p.stencil, p.c_star, kernel=p.kernel)
        traj = wk.backward_trajectory(sol, 8, 200)
        assert 0 in traj.nodes
        first = int(np.nonzero(traj.nodes == 0)[0][0])
        assert (traj.nodes[first:] == 0).all()

    def test_speeds_within_alpha(self, pendulum200):
        p = pendulum200
        sol = wk.solve_discounted(p.grid, p.spec, 0.01, p.stencil, p.c_star, kernel=p.kernel)
        traj = wk.backward_trajectory(sol, 100, 500)
        assert traj.speeds.max() <= p.bounds.alpha + 1e-12

    def test_step_displacements_match_offsets(self, pendulum16):
        p = pendulum16
        sol = wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        traj = wk.backward_trajectory(sol, 5, 50)
        for i, k in enumerate(traj.offsets):
            off = p.stencil.offsets[int(k)]
            assert p.grid.shift_indices(np.array([traj.nodes[i]]), tuple(-o for o in off))[0] == traj.nodes[i + 1]


class TestCalibration:
    def test_free_particle_exact_zero(self, free32):
        sol = wk.solve_discounted(
            free32.grid, free32.spec, 0.2, free32.stencil, c=0.0, kernel=free32.kernel0
        )
        traj = wk.backward_trajectory(sol, 3, 25)
        assert wk.calibration_residual(sol, traj) == 0.0

    def test_policy_trajectory_telescopes(self, pendulum16, monkeypatch):
        p = pendulum16
        monkeypatch.setattr(discounted, "_TOL", 1e-10)
        sol = wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        n_steps = 60
        traj = wk.backward_trajectory(sol, 8, n_steps)
        # values is the exact value of the policy: each step holds to rounding
        # (the measured residual is 0.0)
        ulp = np.spacing(np.abs(sol.values.values).max())
        assert abs(wk.calibration_residual(sol, traj)) <= n_steps * ulp

    def test_perturbed_trajectory_dominates(self, pendulum16, monkeypatch):
        p = pendulum16
        monkeypatch.setattr(discounted, "_TOL", 1e-10)
        sol = wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        n_steps = 12
        traj = wk.backward_trajectory(sol, 8, n_steps)
        # overwrite one step with a deliberately different offset
        offsets = traj.offsets.copy()
        kicked = (int(offsets[4]) + 1) % p.stencil.num_offsets
        offsets[4] = kicked
        nodes = traj.nodes.copy()
        for i in range(4, n_steps):
            nodes[i + 1] = p.kernel.pred_index[offsets[i], nodes[i]]
        perturbed = wk.TrajectorySample(
            start=8, nodes=nodes, offsets=offsets, speeds=p.stencil.speeds()[offsets]
        )
        res = wk.calibration_residual(sol, perturbed)
        assert res >= -n_steps * 1e-10
        assert res > 1e-8  # suboptimal step costs strictly more here


class TestOccupationMeasure:
    def test_mass_one(self, pendulum16):
        p = pendulum16
        sol = wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        occ = wk.discounted_occupation_measure(sol, 8)
        assert occ.mass == pytest.approx(1.0, abs=1e-12)
        assert (occ.weights >= 0).all()

    def test_free_particle_self_loop(self, free32):
        sol = wk.solve_discounted(
            free32.grid, free32.spec, 0.2, free32.stencil, c=0.0, kernel=free32.kernel0
        )
        occ = assert_matches_step_walk(sol, 7)
        assert occ.tails.tolist() == [7]
        assert occ.offset_ids.tolist() == [free32.stencil.zero_index]
        assert occ.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_value_identity(self, pendulum16):
        # sum_i w_i (Lbar_i + c) = lambda u(x0) over the whole orbit: u is the
        # exact value of the policy, so the identity holds to rounding
        p = pendulum16
        edge_vals = p.kernel.edge_lagrangian + p.c_star
        for lam in (0.5, 0.05, 0.01):
            sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
            for x0 in range(p.grid.num_nodes):
                occ = wk.discounted_occupation_measure(sol, x0)
                assert abs(occ.pairing(edge_vals) - lam * sol.values.values[x0]) <= 1e-12
                assert abs(occ.mass - 1.0) <= 1e-12

    def test_conservation_defect_order_lambda(self, pendulum16):
        p = pendulum16
        defects = {}
        for lam in (0.04, 0.02, 0.01):
            sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
            occ = wk.discounted_occupation_measure(sol, 8)
            defects[lam] = wk.closedness_residual(occ)
        # inflow - outflow is (1 - beta)(delta_x0 - nu), nu a probability on the orbit
        for lam, defect in defects.items():
            assert defect <= 3.0 * lam * p.tau
        assert defects[0.01] < defects[0.04]


class TestOccupationMeasureOracle:
    """The closed form over the policy orbit's tail and cycle against the step walk."""

    @pytest.mark.parametrize("lam", [0.05, 0.01])
    def test_pendulum(self, pendulum16, lam):
        p = pendulum16
        sol = wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
        for x0 in range(p.grid.num_nodes):
            assert_matches_step_walk(sol, x0)

    @pytest.mark.parametrize("n_steps", [1, 5, 7, 8, 9, 10])
    def test_truncated_horizon(self, pendulum16, n_steps):
        # the orbit of node 8 is 8, 10, 11, ..., 15 and then 0 for ever: the
        # horizon splits it before, at and after the point where the cycle
        # closes, and the measure keeps its seven tail edges and the self-loop
        # at 0, which carries all of beta^7
        p = pendulum16
        sol = wk.solve_discounted(p.grid, p.spec, 0.05, p.stencil, p.c_star, kernel=p.kernel)
        orbit = wk.backward_trajectory(sol, 8, 10).nodes
        assert orbit.tolist() == [8, 10, 11, 12, 13, 14, 15, 0, 0, 0, 0]
        occ = assert_splits_at_horizon(sol, 8, n_steps)
        assert_matches_step_walk(sol, 8)
        assert occ.tails.tolist() == [0, 0, 10, 11, 12, 13, 14, 15]
        loop = occ.offset_ids == p.stencil.zero_index
        assert occ.tails[loop].tolist() == [0]
        assert occ.weights[loop][0] == pytest.approx(sol.beta**7, abs=1e-15)

    @pytest.mark.parametrize("n_steps", [None, 5, 8, 13])
    def test_transport_cycle(self, transport8, n_steps):
        # the drift carries every orbit once round the torus: a period-8 cycle,
        # split by the horizon before, at and after one turn
        p = transport8
        sol = wk.solve_discounted(p.grid, p.spec, 0.025, p.stencil, p.c_star, kernel=p.kernel)
        assert wk.backward_trajectory(sol, 3, 8).nodes.tolist() == [3, 2, 1, 0, 7, 6, 5, 4, 3]
        for x0 in range(p.grid.num_nodes):
            if n_steps is None:
                assert_matches_step_walk(sol, x0)
            else:
                assert_splits_at_horizon(sol, x0, n_steps)

    def test_2d_cosine(self, cos2d):
        p = cos2d
        sol = wk.solve_discounted(p.grid, p.spec, 0.0625, p.stencil, p.c_star, kernel=p.kernel)
        for x0 in range(0, p.grid.num_nodes, 3):
            assert_matches_step_walk(sol, x0)
