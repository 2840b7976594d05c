"""Two-dimensional torus coverage: the solvers share all code paths with 1-D,
so these tests pin the index arithmetic and re-run the exactly-known cases."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import weakkam as wk
from weakkam.harness import ScheduleConfig, load_config, run_pipeline

from conftest import make_problem


@pytest.fixture(scope="module")
def free2d():
    return make_problem(8, dim=2)


class TestFreeParticle2D:
    def test_critical_value_zero(self, free2d):
        mean, cycle = wk.min_mean_cycle(free2d.kernel0)
        assert mean == 0.0
        c, _ = wk.critical_value_estimate(
            free2d.grid, free2d.spec, free2d.stencil, [0.2, 0.1, 0.05]
        )
        assert abs(c) <= 1e-9

    def test_discounted_vanishes(self, free2d):
        sol = wk.solve_discounted(
            free2d.grid, free2d.spec, 0.2, free2d.stencil, 0.0, kernel=free2d.kernel0
        )
        np.testing.assert_array_equal(sol.values.values, 0.0)

    def test_barrier_diagonal_and_aubry(self, free2d):
        h = wk.peierls_barrier(free2d.kernel0)
        assert np.abs(h.diagonal()).max() == 0.0
        assert wk.aubry_set(h, 1e-9).size == free2d.grid.num_nodes


class TestMechanical2D:
    def test_critical_value_is_max_potential(self, cos2d):
        assert cos2d.c_star == pytest.approx(2.0, abs=1e-12)

    def test_aubry_is_origin(self, cos2d):
        h = wk.peierls_barrier(cos2d.kernel)
        assert wk.aubry_set(h, 1e-7).tolist() == [0]

    def test_lp_matches_karp(self, cos2d):
        lp = wk.solve_mather_lp(cos2d.kernel0)
        mean, _ = wk.min_mean_cycle(cos2d.kernel0)
        assert abs(lp.value - mean) <= 1e-8
        assert np.nonzero(lp.projected > 1e-12)[0].tolist() == [0]

    def test_u0_routes_agree(self, cos2d):
        h = wk.peierls_barrier(cos2d.kernel)
        mech = wk.u0_mechanical(h, cos2d.spec, cos2d.grid, cos2d.c_star, 1e-9)
        targets = np.arange(0, cos2d.grid.num_nodes, 7)
        lp = wk.compute_u0(h, cos2d.kernel, cos2d.c_star, 1e-6, targets)
        assert np.abs(mech.values[targets] - lp.values).max() <= 1e-5

    def test_monotone_in_lambda(self, cos2d):
        p = cos2d
        u_a = wk.solve_discounted(p.grid, p.spec, 0.2, p.stencil, p.c_star, kernel=p.kernel)
        u_b = wk.solve_discounted(p.grid, p.spec, 0.1, p.stencil, p.c_star, kernel=p.kernel)
        assert (u_b.values.values >= u_a.values.values - 2e-8).all()


@pytest.fixture(scope="module")
def cos2d_battery(cos2d):
    """Barrier, u0, Mather LP and u_lambda on the default lambda schedule."""
    p = cos2d
    h = wk.peierls_barrier(p.kernel)
    sols = [
        wk.solve_discounted(p.grid, p.spec, lam, p.stencil, p.c_star, kernel=p.kernel)
        for lam in ScheduleConfig().lambdas
    ]
    return dict(
        barrier=h,
        u0=wk.u0_mechanical(h, p.spec, p.grid, p.c_star, 1e-9),
        solutions=sols,
        mather=[wk.solve_mather_lp(p.kernel)],
    )


def ineq_prim(battery, kernel, barrier):
    report = wk.verify_limit(
        battery["u0"], battery["solutions"], battery["mather"], kernel, barrier=barrier,
    )
    return next(c for c in report.checks if c.name == "ineq_prim")


class TestIneqPrim2D:
    def test_default_schedule_passes(self, cos2d, cos2d_battery):
        check = ineq_prim(cos2d_battery, cos2d.kernel, cos2d_battery["barrier"])
        assert check.status == "pass", check

    def test_non_subsolution_fails(self, cos2d, cos2d_battery):
        # twice a barrier row is no critical subsolution, so the lower bound
        # through the occupation measures must break
        h = cos2d_battery["barrier"]
        check = ineq_prim(cos2d_battery, cos2d.kernel, replace(h, values=2.0 * h.values))
        assert check.status == "fail", check


@pytest.fixture(scope="module")
def drift2d():
    # drift (h/tau, 0): one-node step along axis 0 each tick; the radius-1
    # stencil reaches h/tau along each axis, so that is its speed bound
    return make_problem(6, dim=2, drift=[1 / 6 / 0.25, 0.0], tau=0.25, alpha=1 / 6 / 0.25)


class TestTransport2D:
    def test_winding_cycle_and_flat_barrier(self, drift2d):
        p = drift2d
        mean, cycle = wk.min_mean_cycle(p.kernel0)
        assert abs(mean) <= 1e-15
        assert len(cycle) == 6
        h = wk.peierls_barrier(p.kernel0)
        # free motion along the drift direction: zero cost within each row orbit
        orbit = [p.grid.flat_index((i, 0)) for i in range(6)]
        sub = h.values[np.ix_(orbit, orbit)]
        assert np.abs(sub).max() <= 1e-12

    def test_diagonal_zero_everywhere(self, drift2d):
        h = wk.peierls_barrier(drift2d.kernel0)
        assert np.abs(h.diagonal()).max() <= 1e-12


class TestTable2D:
    def test_two_axis_csv(self, tmp_path):
        grid = wk.build_grid(2, [4, 4])
        path = tmp_path / "v2.csv"
        with open(path, "w") as fh:
            fh.write("i,j,value\n")
            for i in range(4):
                for j in range(4):
                    fh.write(f"{i},{j},{float(np.cos(2 * np.pi * i / 4) + j)!r}\n")
        vals = wk.models.read_potential_table(path, grid)
        assert vals.shape == (4, 4)
        assert vals[1, 2] == pytest.approx(np.cos(np.pi / 2) + 2)
        pot = wk.table_potential(grid, vals)
        np.testing.assert_allclose(pot(grid.coordinates), vals.ravel())


class TestShippedConfig:
    def test_transport_config_runs_every_check(self, tmp_path):
        # 2 Mather classes of 32 nodes and no rest point: u0 comes from the
        # critical cycles at every node, so all ten checks run and pass
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "transport.json")
        report = run_pipeline(load_config(path), tmp_path)
        golden = os.path.join(os.path.dirname(__file__), "data", "report_schema.json")
        with open(golden) as fh:
            flags = json.load(fh)["flags"]
        assert [f["name"] for f in report.flags] == flags and len(flags) == 10
        assert all(f["status"] == "pass" for f in report.flags)
        assert report.u0_method == "critical-cycles"
        assert len(report.mather_classes) == 2
        assert report.u0_cross_delta <= 1e-9

    def test_torus_2d_config_converges(self, tmp_path):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "torus_2d.json")
        report = run_pipeline(load_config(path), tmp_path)
        assert report.passed
        assert report.c_cross == 2.0
        assert report.counters["lp_fallbacks"] == 0

    @pytest.mark.parametrize("amplitudes,frequencies", [([1.0, 1.0], [1.0]), ([1.0], [1.0, 1.0])])
    def test_cosine_lists_broadcast(self, tmp_path, amplitudes, frequencies):
        # a list of one entry serves every axis: the run is the spelled-out one, bit for bit
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "torus_2d.json")
        spelled = load_config(path)
        potential = {"name": "cosine", "amplitudes": amplitudes, "frequencies": frequencies}
        mixed = replace(spelled, problem=replace(spelled.problem, potential=potential))
        run_pipeline(spelled, tmp_path / "spelled")
        run_pipeline(mixed, tmp_path / "mixed")
        names = sorted(os.listdir(tmp_path / "spelled"))
        assert names == sorted(os.listdir(tmp_path / "mixed"))
        for name in names:
            a, b = ((tmp_path / d / name).read_bytes() for d in ("spelled", "mixed"))
            if name == "report.json":
                a, b = ({**json.loads(doc), "config": None} for doc in (a, b))
            if name != "timings.json":
                assert a == b, name

    def test_transport_2d_config_converges(self, tmp_path):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "transport_2d.json")
        report = run_pipeline(load_config(path), tmp_path)
        assert report.passed
        assert report.barrier_residual == 0.0
        # 144 critical nodes in 12 classes of 12, the rows of the torus
        assert report.mather_classes == [list(range(i, i + 12)) for i in range(0, 144, 12)]
        assert report.counters["lp_fallbacks"] == 0


class TestCoarse2DGrids:
    """The stencil reaches alpha along each axis and its diagonal velocities
    are faster still: every velocity it holds is evaluated, and each of
    these grids converges with all ten checks passing."""

    @pytest.mark.parametrize("name,n", [
        ("free.json", 5), ("free.json", 7), ("free.json", 17),
        ("torus_2d.json", 5), ("transport_2d.json", 5),
    ])
    def test_converges_with_every_check_passing(self, name, n, tmp_path):
        cfg = load_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", name))
        cfg = replace(cfg, problem=replace(cfg.problem, dim=2, sizes=(n, n)))
        report = run_pipeline(cfg, tmp_path)
        assert len(report.flags) == 10
        assert all(f["status"] == "pass" for f in report.flags), report.flags
        assert report.counters["lp_fallbacks"] == 0
        if name == "torus_2d.json":
            assert report.c_cross == 2.0  # max V
