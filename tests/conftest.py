"""Shared problem fixtures.

The n=200 pendulum artifacts are expensive (barrier ~2s, LP ~3s), so they
are built once per session and shared between the module tests and the
acceptance suite.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import weakkam as wk


@dataclass
class Problem:
    grid: wk.TorusGrid
    spec: wk.LagrangianSpec
    bounds: wk.StabilityBounds
    stencil: wk.VelocityStencil
    c_star: float
    kernel: wk.ActionKernel       # at the critical shift c_star
    kernel0: wk.ActionKernel      # at shift 0

    @property
    def tau(self) -> float:
        return self.stencil.tau


def make_problem(n, potential=None, level=None, dim=1, drift=None, tau=None, k=None, alpha=None,
                 spec=None):
    """The problem of a mechanical potential and drift, or of a given spec, on
    the n^dim grid."""
    grid = wk.build_grid(dim, [n] * dim)
    if spec is None:
        spec = wk.mechanical(potential or wk.zero_potential(), dim=dim, drift=drift)
    if level is None:
        coords = grid.coordinates
        level = float(np.abs(wk.eval_hamiltonian(spec, coords, np.zeros_like(coords))).max())
    bounds = wk.stability_bounds(spec, level, grid=grid)
    use_alpha = alpha or bounds.alpha
    spec = spec.with_v_search(max(bounds.v_search, 2 * use_alpha))
    tau = tau or wk.default_time_step(grid, use_alpha)
    stencil = wk.make_stencil(grid, tau, use_alpha, k=k)
    kernel0 = wk.build_kernel(grid, spec, stencil, c=0.0)
    mean, _ = wk.min_mean_cycle(kernel0)
    c_star = -mean
    kernel = wk.build_kernel(grid, spec, stencil, c=c_star)
    return Problem(
        grid=grid, spec=spec, bounds=bounds, stencil=stencil,
        c_star=c_star, kernel=kernel, kernel0=kernel0,
    )


@dataclass(frozen=True)
class TableKernel(wk.ActionKernel):
    """An action kernel on explicit edge tables, for the random graphs no
    stencil describes: heads[k, t] is the head of edge k at tail t and
    preds[k, x] the tail of edge k into x. It overrides the block gather and
    the per-edge lookup, so head_index and pred_index derive from the tables;
    a table no pass of the test reads may be None."""

    heads: np.ndarray | None
    preds: np.ndarray | None

    def gather(self, values, sign, lo, hi, out):
        table = self.heads if sign > 0 else self.preds
        return np.take(values, table[lo:hi], out=out[:hi - lo])

    def neighbors(self, sign, ks, nodes):
        return (self.heads if sign > 0 else self.preds)[ks, nodes]


def table_kernel(lag, heads=None, preds=None):
    """A TableKernel with edge Lagrangian lag, an (offsets, nodes) array, on
    the 1-D grid of its nodes; its stencil only counts the offsets."""
    m, n = lag.shape
    stencil = wk.VelocityStencil(tau=1.0, offsets=tuple((k,) for k in range(m)),
                                 velocities=np.zeros((m, 1)), alpha=1.0)
    return TableKernel(grid=wk.build_grid(1, [n]), stencil=stencil, c=0.0,
                       edge_lagrangian=lag, heads=heads, preds=preds)


# what a peak bound allows beyond its (m, n) arrays: numpy's 64 kB ufunc
# buffer and the O(n) lists; one (m, n) float array of pendulum200 is 315 kB
PEAK_SLACK = 96 * 1024


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while fn(*args) runs, above what was live before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pendulum_potential():
    return wk.cosine_potential([1.0], [1.0])


def two_well_potential():
    return wk.cosine_potential([1.0], [2.0])


@pytest.fixture(scope="session")
def pendulum200():
    return make_problem(200, pendulum_potential())


@pytest.fixture(scope="session")
def pendulum200_barrier(pendulum200):
    return wk.peierls_barrier(pendulum200.kernel)


@pytest.fixture(scope="session")
def pendulum200_u0(pendulum200, pendulum200_barrier):
    return wk.u0_mechanical(
        pendulum200_barrier, pendulum200.spec, pendulum200.grid, pendulum200.c_star, 1e-9
    )


@pytest.fixture(scope="session")
def pendulum200_solutions(pendulum200):
    p = pendulum200
    return [
        wk.solve_discounted(
            p.grid, p.spec, 2.0**-j, p.stencil, p.c_star, kernel=p.kernel
        )
        for j in range(1, 10)
    ]


@pytest.fixture(scope="session")
def pendulum200_lp(pendulum200):
    return wk.solve_mather_lp(pendulum200.kernel)


@pytest.fixture(scope="session")
def pendulum16():
    return make_problem(16, pendulum_potential())


@pytest.fixture(scope="session")
def pendulum8():
    # tiny graph for exhaustive oracles: modest stencil keeps paths countable
    return make_problem(8, pendulum_potential(), tau=0.25, k=2, alpha=1.0)


@pytest.fixture(scope="session")
def free32():
    return make_problem(32)


@pytest.fixture(scope="session")
def cos2d():
    # V(x) = cos(2 pi x0) + cos(2 pi x1) on 8x8, max V = 2 at the origin node
    return make_problem(8, potential=wk.cosine_potential([1.0, 1.0], [1.0, 1.0]), dim=2)


def maupertuis_action(potential_1d, c, a, b):
    """Adaptive quadrature of sqrt(2(c - V(s))) from a to b (straight arc)."""
    from scipy.integrate import quad

    val, _ = quad(
        lambda s: np.sqrt(max(2.0 * (c - potential_1d(np.array([[s]]))[0]), 0.0)),
        a,
        b,
        limit=400,
    )
    return val


def maupertuis_barrier(potential_1d, c, y, x):
    """min over the two torus arcs from y to x of the Maupertuis action."""
    lo, hi = min(y, x), max(y, x)
    direct = maupertuis_action(potential_1d, c, lo, hi)
    around = maupertuis_action(potential_1d, c, hi, lo + 1.0)
    return min(direct, around)
