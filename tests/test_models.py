import codecs
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakkam as wk
from weakkam.errors import NoSublevelError, TruncationError, WeakKamError


class TestBuildGrid:
    def test_1d_nodes_and_spacing(self):
        grid = wk.build_grid(1, [4])
        assert grid.num_nodes == 4
        assert grid.spacing == (0.25,)
        np.testing.assert_allclose(grid.coordinates[:, 0], [0.0, 0.25, 0.5, 0.75])

    def test_2d_node_count(self):
        grid = wk.build_grid(2, [3, 3])
        assert grid.num_nodes == 9
        assert grid.spacing == (1 / 3, 1 / 3)
        # counted exactly: an int64 product wraps round to 0
        assert wk.build_grid(2, [2**32, 2**32]).num_nodes == 2**64

    def test_displacement_wraps(self):
        grid = wk.build_grid(1, [10])
        d = grid.wrap_displacement([0.1], [0.9])
        np.testing.assert_allclose(d, [0.2], atol=1e-15)

    @pytest.mark.parametrize("dim,sizes", [(3, [4, 4, 4]), (0, []), (1, [1]), (2, [4, 1])])
    def test_rejects_bad_shapes(self, dim, sizes):
        with pytest.raises(WeakKamError):
            wk.build_grid(dim, sizes)

    @given(st.integers(2, 50), st.integers(2, 12), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_index_maps_are_bijective(self, n0, n1, dim):
        grid = wk.build_grid(dim, [n0, n1][:dim])
        for flat in range(grid.num_nodes):
            assert grid.flat_index(grid.multi_index(flat)) == flat

    @given(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_displacement_representative_range(self, a, b):
        grid = wk.build_grid(1, [7])
        d = grid.wrap_displacement([a], [b])[0]
        assert -0.5 <= d < 0.5
        # same point up to wrap
        assert abs(((b + d) - a + 0.5) % 1.0 - 0.5) < 1e-12


class TestLegendreTransform:
    def setup_method(self):
        self.p = np.arange(-5.0, 5.0 + 1e-12, 0.01)

    def test_self_conjugate_quadratic(self):
        l = wk.legendre_transform(0.5 * self.p**2, self.p, [1.0])
        assert abs(l[0] - 0.5) <= 1e-3

    def test_constant_shift_negates(self):
        l = wk.legendre_transform(0.5 * self.p**2 + 1.0, self.p, [0.0])
        assert abs(l[0] - (-1.0)) <= 1e-3

    def test_biconjugation_recovers_quadratic(self):
        v = np.arange(-3.0, 3.0 + 1e-12, 0.01)
        l = wk.legendre_transform(0.5 * self.p**2, self.p, v)
        interior = self.p[np.abs(self.p) <= 1.0]
        back = wk.legendre_transform(l, v, interior)
        np.testing.assert_allclose(back, 0.5 * interior**2, atol=1e-3)

    def test_narrow_grid_flags_truncation(self):
        p = np.linspace(-1, 1, 101)
        with pytest.raises(TruncationError):
            wk.legendre_transform(0.5 * p**2, p, [3.0])

    def test_output_convex_along_grid(self):
        v = np.linspace(-3, 3, 301)
        l = wk.legendre_transform(np.abs(self.p) ** 1.5, self.p, v)
        second = l[:-2] - 2 * l[1:-1] + l[2:]
        assert second.min() >= -1e-9


class TestEvalLagrangian:
    def test_mechanical_values(self):
        spec = wk.mechanical(wk.cosine_potential([1.0], [1.0]))
        assert wk.eval_lagrangian(spec, 0.0, 0.0)[0] == pytest.approx(-1.0)
        assert wk.eval_lagrangian(spec, 0.5, 2.0)[0] == pytest.approx(3.0)

    def test_transport_drift_annihilates(self):
        spec = wk.mechanical(wk.zero_potential(), drift=[1.0])
        assert wk.eval_lagrangian(spec, 0.3, 1.0)[0] == 0.0

    def test_cosine_lists_of_two_lengths_above_one(self):
        # a list of one entry broadcasts; two longer lists must match
        with pytest.raises(WeakKamError, match="matching length"):
            wk.cosine_potential([1.0, 1.0, 1.0], [1.0, 2.0])

    def test_drift_length_must_match_dim(self):
        with pytest.raises(WeakKamError, match="drift"):
            wk.mechanical(wk.cosine_potential([1.0], [1.0]), dim=2, drift=[0.5])

    def test_mechanical_minimum_exact(self):
        spec = wk.mechanical(wk.cosine_potential([0.7], [2.0]))
        xs = np.linspace(0, 1, 17)[:, None]
        l0 = wk.eval_lagrangian(spec, xs, np.zeros_like(xs))
        np.testing.assert_array_equal(l0, -spec.potential(xs))
        for v in (0.1, -0.3, 1.0):
            lv = wk.eval_lagrangian(spec, xs, np.full_like(xs, v))
            assert (lv >= l0).all()

    def test_midpoint_convexity_sampled(self):
        # L(x, (v+w)/2) <= (L(x,v) + L(x,w))/2 on random velocity pairs
        rng = np.random.default_rng(11)
        grid = wk.build_grid(1, [16])
        p = np.linspace(-6, 6, 1201)
        specs = [
            wk.mechanical(wk.cosine_potential([1.0], [1.0])),
            wk.mechanical(wk.zero_potential(), drift=[0.7]),
            wk.tabulated(grid, p, np.broadcast_to(np.abs(p) ** 1.7, (16, p.size)).copy()),
        ]
        for spec in specs:
            x = rng.uniform(0, 1, (100, 1))
            v = rng.uniform(-2, 2, (100, 1))
            w = rng.uniform(-2, 2, (100, 1))
            mid = wk.eval_lagrangian(spec, x, 0.5 * (v + w))
            avg = 0.5 * (wk.eval_lagrangian(spec, x, v) + wk.eval_lagrangian(spec, x, w))
            assert (mid <= avg + 1e-9).all()

    def test_superlinearity_surrogate_on_search_box(self):
        # L >= (kappa+1)|v| - A_kappa on |v| <= 2 alpha, twice the stencil's reach
        spec = wk.mechanical(wk.cosine_potential([1.0], [1.0]))
        b = wk.stability_bounds(spec, wk.build_grid(1, [200]))
        xs = np.linspace(0, 1, 101)[:, None]
        vs = np.linspace(-2 * b.alpha, 2 * b.alpha, 201)
        for v in vs:
            lv = wk.eval_lagrangian(spec, xs, np.full_like(xs, v))
            assert (lv >= (b.kappa + 1) * abs(v) - b.A_kappa - 1e-9).all()

    def test_fenchel_inequality_analytic_families(self):
        rng = np.random.default_rng(7)
        cosine = wk.cosine_potential([1.0], [1.0])
        for spec in (wk.mechanical(cosine), wk.mechanical(wk.zero_potential(), drift=[0.4]),
                     wk.mechanical(cosine, drift=[-0.6])):
            x = rng.uniform(0, 1, (200, 1))
            v = rng.uniform(-3, 3, (200, 1))
            p = rng.uniform(-3, 3, (200, 1))
            lhs = wk.eval_lagrangian(spec, x, v) + wk.eval_hamiltonian(spec, x, p)
            assert (lhs - (p[:, 0] * v[:, 0]) >= -1e-9).all()


class TestTabulated:
    def test_matches_analytic_quadratic(self):
        grid = wk.build_grid(1, [16])
        p = np.linspace(-6, 6, 1201)
        table = np.broadcast_to(0.5 * p**2, (16, p.size)).copy()
        spec = wk.tabulated(grid, p, table)
        v = np.array([[0.0], [0.5], [-1.25]])
        x = np.zeros_like(v)
        got = wk.eval_lagrangian(spec, x, v)
        np.testing.assert_allclose(got, 0.5 * v[:, 0] ** 2, atol=1e-4)

    def test_x_dependent_table(self):
        # H = p^2/2 + cos(2 pi x): L should match the mechanical family
        grid = wk.build_grid(1, [32])
        p = np.linspace(-6, 6, 2401)
        xs = grid.coordinates[:, 0]
        table = 0.5 * p[None, :] ** 2 + np.cos(2 * np.pi * xs)[:, None]
        spec = wk.tabulated(grid, p, table)
        ref = wk.mechanical(wk.cosine_potential([1.0], [1.0]))
        v = np.linspace(-2, 2, 9)[:, None]
        for x in xs[::5]:
            xb = np.full_like(v, x)
            np.testing.assert_allclose(
                wk.eval_lagrangian(spec, xb, v),
                wk.eval_lagrangian(ref, xb, v),
                atol=1e-3,
            )


class TestStabilityBounds:
    def test_free_quadratic_kappa(self):
        # max |H(x, 0)| = 0: the sublevel is {0}, and alpha = (0 + 1)^2 / 2
        b = wk.stability_bounds(wk.mechanical(wk.zero_potential()), wk.build_grid(1, [32]))
        assert (b.c, b.kappa, b.A_kappa, b.C0, b.alpha) == (0.0, 0.0, 0.5, 0.0, 0.5)

    def test_pendulum_kappa_sampled(self):
        spec = wk.mechanical(wk.cosine_potential([1.0], [1.0]))
        b = wk.stability_bounds(spec, wk.build_grid(1, [200]))
        # oracle: dense sampling of sup_x sqrt(2(1 - cos 2 pi x)) = 2
        xs = np.linspace(0, 1, 20001)
        oracle = np.sqrt(2 * (1 - np.cos(2 * np.pi * xs))).max()
        assert b.kappa == pytest.approx(oracle, abs=5e-3)
        assert b.kappa == pytest.approx(2.0, abs=5e-3)

    def test_alpha_composition(self):
        spec = wk.mechanical(wk.cosine_potential([1.0], [1.0]))
        b = wk.stability_bounds(spec, wk.build_grid(1, [200]))
        assert b.alpha == pytest.approx(b.A_kappa + b.C0)
        assert b.kappa >= 0 and b.alpha > 0


def _drift_bounds(w, c, v_min=0.0, v_max=0.0):
    # H = |p|^2/2 + w.p + V with V in [v_min, v_max], both attained
    speed = float(np.linalg.norm(w))
    kappa = speed + np.sqrt(speed**2 + 2 * (c - v_min))
    a_kappa = (kappa + 1) * speed + (kappa + 1) ** 2 / 2 + v_max
    return kappa, a_kappa, max(abs(c - v_max), speed**2 / 2 - v_min + c)


# name -> (spec, level max |H(x, 0)| over the nodes, grid, closed-form (kappa, A_kappa, C0))
CLOSED_FORMS = {
    "pendulum": (
        wk.mechanical(wk.cosine_potential([1.0], [1.0])), 1.0, wk.build_grid(1, [200]),
        (2.0, 5.5, 2.0),
    ),
    "cosine_2d": (
        wk.mechanical(wk.cosine_potential([1.0, 1.0], [1.0, 1.0]), dim=2), 2.0,
        wk.build_grid(2, [8, 8]), (np.sqrt(8), (1 + np.sqrt(8)) ** 2 / 2 + 2, 4.0),
    ),
    "pendulum_drift": (
        wk.mechanical(wk.cosine_potential([1.0], [1.0]), drift=[0.5]), 1.0,
        wk.build_grid(1, [200]), _drift_bounds([0.5], 1.0, -1.0, 1.0),
    ),
    "transport_1d": (
        wk.mechanical(wk.zero_potential(), drift=[0.7]), 0.0, wk.build_grid(1, [32]),
        _drift_bounds([0.7], 0.0),
    ),
    "transport_2d": (
        wk.mechanical(wk.zero_potential(), dim=2, drift=[0.3, -0.4]), 0.0,
        wk.build_grid(2, [8, 8]),
        _drift_bounds([0.3, -0.4], 0.0),
    ),
}


def _mesh(lo, hi, per_axis, dim):
    mesh = np.meshgrid(*[np.linspace(lo, hi, per_axis)] * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


class TestExactBounds:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_closed_forms(self, name):
        spec, c, grid, (kappa, a_kappa, c0) = CLOSED_FORMS[name]
        b = wk.stability_bounds(spec, grid)
        assert b.c == c
        assert abs(b.kappa - kappa) <= 1e-12
        assert abs(b.A_kappa - a_kappa) <= 1e-12
        assert abs(b.C0 - c0) <= 1e-12
        assert b.alpha == b.A_kappa + b.C0

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_dense_grid_oracle(self, name):
        # sups over a dense (x, p) and (x, v) grid never exceed the bounds and
        # come within one grid step of them
        spec, c, grid, _ = CLOSED_FORMS[name]
        b = wk.stability_bounds(spec, grid)
        per_axis = (501, 2001) if spec.dim == 1 else (21, 61)
        xs = _mesh(0.0, 1.0, per_axis[0], spec.dim)
        half = b.kappa + 2.0
        step = 2 * half / (per_axis[1] - 1)
        zs = _mesh(-half, half, per_axis[1], spec.dim)
        x, z = np.repeat(xs, len(zs), axis=0), np.tile(zs, (len(xs), 1))
        norms = np.linalg.norm(z, axis=1)
        kappa = norms[wk.eval_hamiltonian(spec, x, z) <= c].max()
        a_kappa = ((b.kappa + 1) * norms - wk.eval_lagrangian(spec, x, z)).max()
        assert b.kappa - step <= kappa <= b.kappa + 1e-12
        assert b.A_kappa - step <= a_kappa <= b.A_kappa + 1e-12

    @pytest.mark.parametrize("sizes, spike", [([500], (7,)), ([12, 12], (5, 7))])
    def test_spike_table_is_exact_at_the_nodes(self, sizes, spike):
        # V = 0 but for 10 at one node: the level is 10, kappa = sqrt(20), and
        # the spike, which no point between the nodes sees, enters A_kappa
        grid = wk.build_grid(len(sizes), sizes)
        values = np.zeros(grid.sizes)
        values[spike] = 10.0
        spec = wk.mechanical(wk.table_potential(grid, values), dim=grid.dim)
        b = wk.stability_bounds(spec, grid)
        a_kappa = 0.5 * (1 + np.sqrt(20)) ** 2 + 10
        assert abs(b.c - 10) <= 1e-12 and abs(b.kappa - np.sqrt(20)) <= 1e-12
        assert abs(b.A_kappa - a_kappa) <= 1e-12
        assert abs(b.C0 - 10) <= 1e-12
        assert abs(b.alpha - (a_kappa + 10)) <= 1e-12

    def test_tabulated_matches_mechanical(self):
        grid = wk.build_grid(1, [16])
        p = np.linspace(-6, 6, 1201)
        xs = grid.coordinates[:, 0]
        table = 0.5 * p[None, :] ** 2 + np.cos(2 * np.pi * xs)[:, None]
        mechanical = wk.mechanical(wk.cosine_potential([1.0], [1.0]))
        got = wk.stability_bounds(wk.tabulated(grid, p, table), grid)
        ref = wk.stability_bounds(mechanical, grid)
        for field in ("c", "kappa", "A_kappa", "C0", "alpha"):
            assert getattr(got, field) == pytest.approx(getattr(ref, field), abs=1e-9)

    def test_tabulated_sublevel_at_grid_edge(self):
        # H = p^2/2 - 2 sits at level max |H(x, 0)| = 2 on |p| <= sqrt(8),
        # past the grid's edge at 1.5
        grid = wk.build_grid(1, [8])
        p = np.linspace(-1.5, 1.5, 301)
        spec = wk.tabulated(grid, p, np.broadcast_to(0.5 * p**2 - 2.0, (8, p.size)).copy())
        with pytest.raises(NoSublevelError, match="coercive"):
            wk.stability_bounds(spec, grid)

    def test_tabulated_truncation(self):
        # the sublevel ends at |p| = 2 inside the grid, but kappa + 1 = 3 does not
        grid = wk.build_grid(1, [16])
        p = np.linspace(-2.5, 2.5, 501)
        table = 0.5 * p[None, :] ** 2 + np.cos(2 * np.pi * grid.coordinates[:, :1])
        with pytest.raises(TruncationError, match="kappa"):
            wk.stability_bounds(wk.tabulated(grid, p, table), grid)


class TestStencil:
    def test_structure(self):
        grid = wk.build_grid(1, [32])
        st = wk.make_stencil(grid, 0.2, 1.0)
        zero = (0,)
        assert zero in st.offsets
        offs = set(st.offsets)
        assert all(tuple(-o for o in off) in offs for off in offs)
        assert st.speeds().max() >= 1.0

    def test_wrap_guard(self):
        grid = wk.build_grid(1, [8])
        with pytest.raises(wk.StencilError):
            wk.make_stencil(grid, 1.0, 0.5)  # radius 4, and 4 * (1/8) = 0.5: ambiguous

    def test_default_time_step_clamps(self):
        grid = wk.build_grid(1, [200])
        tau = wk.default_time_step(grid, 7.5)
        assert tau <= np.sqrt(min(grid.spacing)) + 1e-15
        st = wk.make_stencil(grid, tau, 7.5)
        max_disp = max(abs(o[0]) for o in st.offsets) * grid.spacing[0]
        assert max_disp < 0.5

    def test_2d_offsets(self):
        grid = wk.build_grid(2, [8, 8])
        st = wk.make_stencil(grid, 0.25, 1.0)
        assert st.velocities.shape[1] == 2
        assert (0, 0) in st.offsets

    @pytest.mark.parametrize("sizes", [[8], [8, 8], [6, 10], [200]])
    def test_every_axis_reaches_alpha(self, sizes):
        # along each axis the outermost offset reaches alpha, and one step
        # less does not unless the radius is the least one, 1
        grid = wk.build_grid(len(sizes), sizes)
        for alpha in (0.1, 0.5, 0.6, 1.5, 7.5):
            tau = min(0.1, wk.default_time_step(grid, alpha))
            st = wk.make_stencil(grid, tau, alpha)
            for axis, h in enumerate(grid.spacing):
                radius = max(off[axis] for off in st.offsets)
                assert radius * h / tau >= alpha * (1 - 1e-12)
                assert radius == 1 or (radius - 1) * h / tau < alpha

    def test_fields(self):
        # alpha sizes the stencil and is kept nowhere else: no search box on
        # the spec, no speed bound on the stencil
        assert [f.name for f in fields(wk.VelocityStencil)] == ["tau", "offsets", "velocities"]
        assert "v_search" not in {f.name for f in fields(wk.LagrangianSpec)}
        assert "v_search" not in {f.name for f in fields(wk.StabilityBounds)}


class TestGridFunction:
    def test_lipschitz_quotient(self):
        grid = wk.build_grid(1, [8])
        u = wk.GridFunction(grid, np.sin(2 * np.pi * grid.coordinates[:, 0]))
        xs = grid.coordinates[:, 0]
        steps = np.abs(np.diff(np.r_[np.sin(2 * np.pi * xs), np.sin(0.0)]))
        assert u.lipschitz_quotient() == pytest.approx(steps.max() / 0.125)

    def test_shape_check(self):
        grid = wk.build_grid(1, [8])
        with pytest.raises(WeakKamError):
            wk.GridFunction(grid, np.zeros(7))

    def test_equal_values_compare_by_identity(self):
        # == on two arrays of several values raised ValueError, and hash TypeError
        grid = wk.build_grid(1, [8])
        values = np.arange(8.0)
        u, twin = wk.GridFunction(grid, values), wk.GridFunction(grid, values.copy())
        assert u == u and not u == twin and u != twin
        assert len({u, twin}) == 2


def test_every_array_holder_compares_by_identity():
    # the package's dataclasses with an ndarray field take eq=False, so ==
    # and hash are identity's: the arrays are never compared
    holders = {cls.__name__: cls for module in (wk.action_barrier, wk.discounted, wk.mather,
                                                wk.models, wk.simplex)
               for cls in vars(module).values() if is_dataclass(cls)
               and cls.__module__ == module.__name__
               and any("np.ndarray" in str(f.type) for f in fields(cls))}
    assert sorted(holders) == sorted([
        "ActionKernel", "AubryReport", "BarrierMatrix", "CriticalGraph", "DiscountedSolution",
        "GridFunction", "LagrangianSpec", "LimitFunctionResult", "MatherSolveResult",
        "OccupationMeasure", "SimplexResult", "TrajectorySample", "VelocityStencil"])
    assert not [name for name, cls in holders.items() if cls.__dataclass_params__.eq]


class TestPotentialTable:
    def test_csv_round_trip(self, tmp_path):
        grid = wk.build_grid(1, [6])
        values = np.cos(2 * np.pi * grid.coordinates[:, 0])
        path = tmp_path / "v.csv"
        with open(path, "w") as fh:
            fh.write("node,value\n")
            for i, v in enumerate(values):
                fh.write(f"{i},{float(v)!r}\n")
        got = wk.models.read_potential_table(path, grid)
        np.testing.assert_array_equal(got, values)

    def test_bom_table_reads_as_the_plain_one(self, tmp_path):
        # no header: the BOM must not turn node 0's row into one
        grid = wk.build_grid(1, [6])
        text = "".join(f"{i},{0.5 * i - 1}\n" for i in range(6)).encode()
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        bom.write_bytes(codecs.BOM_UTF8 + text)
        want = wk.models.read_potential_table(plain, grid)
        np.testing.assert_array_equal(wk.models.read_potential_table(bom, grid), want)
        np.testing.assert_array_equal(want, 0.5 * np.arange(6) - 1)

    def test_interpolation_hits_nodes(self):
        grid = wk.build_grid(1, [8])
        values = np.arange(8.0)
        pot = wk.table_potential(grid, values)
        np.testing.assert_allclose(pot(grid.coordinates), values)
        # periodic midpoint between last and first node
        assert pot(np.array([[15 / 16]]))[0] == pytest.approx((7.0 + 0.0) / 2)
