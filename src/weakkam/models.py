"""Torus grids, Lagrangian families, and the bounds that size discretizations.

Positions live on the flat torus [0,1)^d with d in {1, 2}. A Lagrangian is
described by a family tag plus parameters; the built-in families are

* ``mechanical``  L(x,v) = |v - w|^2/2 - V(x),  H(x,p) = |p|^2/2 + w.p + V(x),
  with a constant drift w (zero unless given); ``transport`` is the
  mechanical family with V = 0.
* ``tabulated``   H sampled on nodes x a momentum grid; L via the numerical
  convex conjugate (1-D only).

H is convex in p, so the stability bounds that size every discretization
follow exactly from Fenchel duality; only positions are sampled.

Everything here is immutable after construction and free of hidden state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    NoSublevelError,
    StencilError,
    TruncationError,
    VelocityBoundError,
    WeakKamError,
)

__all__ = [
    "TorusGrid",
    "LagrangianSpec",
    "StabilityBounds",
    "VelocityStencil",
    "build_grid",
    "legendre_transform",
    "eval_lagrangian",
    "eval_hamiltonian",
    "stability_bounds",
    "make_stencil",
    "default_time_step",
    "cosine_potential",
    "zero_potential",
    "table_potential",
    "read_potential_table",
    "mechanical",
    "transport",
    "tabulated",
    "GridFunction",
]


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class TorusGrid:
    """Periodic node lattice on [0,1)^d with wrap-around arithmetic."""

    dim: int
    sizes: tuple[int, ...]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(1.0 / n for n in self.sizes)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.sizes))

    @cached_property
    def coordinates(self) -> np.ndarray:
        """(num_nodes, dim) array of node coordinates in C order."""
        axes = [np.arange(n) / n for n in self.sizes]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def flat_index(self, multi) -> int:
        multi = tuple(int(m) % n for m, n in zip(multi, self.sizes))
        return int(np.ravel_multi_index(multi, self.sizes))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(int(flat) % self.num_nodes, self.sizes))

    def wrap_displacement(self, y, x) -> np.ndarray:
        """Per-axis representative of y - x in [-1/2, 1/2)."""
        d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
        return (d + 0.5) % 1.0 - 0.5

    def torus_distance(self, y, x) -> float:
        return float(np.linalg.norm(self.wrap_displacement(y, x)))

    def shift_indices(self, flat: np.ndarray, offset) -> np.ndarray:
        """Flat indices of node + offset (per-axis integer steps, wrapped); a
        step may be an integer array broadcast with flat, one step per element."""
        multi = np.unravel_index(np.asarray(flat, dtype=np.int64), self.sizes)
        shifted = tuple((m + k) % n for m, k, n in zip(multi, offset, self.sizes))
        return np.ravel_multi_index(shifted, self.sizes).astype(np.int64)

    def neighbor_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All nearest-neighbor (node, node, distance) pairs, one per axis direction."""
        tails = np.tile(np.arange(self.num_nodes, dtype=np.int64), self.dim)
        steps = np.repeat(np.eye(self.dim, dtype=np.int64), self.num_nodes, axis=0)
        return tails, self.shift_indices(tails, steps.T), np.repeat(self.spacing, self.num_nodes)


def build_grid(dim: int, sizes) -> TorusGrid:
    """Construct a torus grid; rejects dim outside {1, 2} and sizes below 2."""
    if dim not in (1, 2):
        raise WeakKamError(f"grid dimension must be 1 or 2, got {dim}")
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) != dim:
        raise WeakKamError(f"expected {dim} axis sizes, got {len(sizes)}")
    if any(n < 2 for n in sizes):
        raise WeakKamError(f"each axis needs at least 2 nodes, got {sizes}")
    return TorusGrid(dim=dim, sizes=sizes)


# ---------------------------------------------------------------------------
# potentials


def zero_potential() -> Callable[[np.ndarray], np.ndarray]:
    def v(x: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(x).shape[0])

    v.label = "zero"  # type: ignore[attr-defined]
    return v


def cosine_potential(amplitudes, frequencies) -> Callable[[np.ndarray], np.ndarray]:
    """Separable cosine potential V(x) = sum_i a_i cos(2 pi f_i x_i)."""
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if amps.shape != freqs.shape:
        raise WeakKamError("amplitudes and frequencies must have matching length")

    def v(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.sum(amps * np.cos(2.0 * np.pi * freqs * x), axis=1)

    v.label = f"cosine(a={amps.tolist()}, f={freqs.tolist()})"  # type: ignore[attr-defined]
    return v


def table_potential(grid: TorusGrid, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Potential from node values, evaluated by periodic multilinear interpolation."""
    values = np.asarray(values, dtype=float).reshape(grid.sizes)

    def v(x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        frac = x * np.asarray(grid.sizes, dtype=float)
        base = np.floor(frac).astype(np.int64)
        t = frac - base
        out = np.zeros(x.shape[0])
        # accumulate the 2^d corner weights of the surrounding cell
        for corner in np.ndindex(*(2,) * grid.dim):
            idx = tuple(
                (base[:, a] + corner[a]) % grid.sizes[a] for a in range(grid.dim)
            )
            w = np.ones(x.shape[0])
            for a in range(grid.dim):
                w = w * (t[:, a] if corner[a] else 1.0 - t[:, a])
            out += w * values[idx]
        return out

    v.label = "table"  # type: ignore[attr-defined]
    return v


def read_potential_table(path, grid: TorusGrid) -> np.ndarray:
    """Read a tabulated potential from CSV with columns: node index per axis, value."""
    values = np.full(grid.sizes, np.nan)
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if not row[0].strip().lstrip("+-").isdigit():
                continue  # header line
            idx = tuple(int(c) for c in row[: grid.dim])
            values[idx] = float(row[grid.dim])
    if np.isnan(values).any():
        raise WeakKamError(f"potential table {path} does not cover every node")
    return values


# ---------------------------------------------------------------------------
# Lagrangian specifications


@dataclass(frozen=True)
class LagrangianSpec:
    """A Lagrangian family plus the data needed to evaluate L and H."""

    family: str
    dim: int
    potential: Callable[[np.ndarray], np.ndarray] | None = None
    drift: tuple[float, ...] | None = None
    momentum_grid: np.ndarray | None = None
    hamiltonian_table: np.ndarray | None = None  # (nodes, momenta), 1-D only
    table_grid: TorusGrid | None = None
    v_search: float | None = None

    def with_v_search(self, v_search: float) -> "LagrangianSpec":
        return replace(self, v_search=float(v_search))


def mechanical(potential: Callable, dim: int = 1, drift=None) -> LagrangianSpec:
    """H = |p|^2/2 + w.p + V(x); the drift w is zero when none is given."""
    drift = (0.0,) * dim if drift is None else tuple(float(w) for w in np.atleast_1d(drift))
    if len(drift) != dim:
        raise WeakKamError("drift vector length must match dim")
    return LagrangianSpec(family="mechanical", dim=dim, potential=potential, drift=drift)


def transport(drift, dim: int = 1) -> LagrangianSpec:
    return mechanical(zero_potential(), dim, drift)


def tabulated(grid: TorusGrid, momentum_grid, hamiltonian_table) -> LagrangianSpec:
    """Spec backed by a Hamiltonian sampled on grid nodes x a momentum grid."""
    if grid.dim != 1:
        raise WeakKamError("tabulated Hamiltonians are supported in dimension 1 only")
    p = np.asarray(momentum_grid, dtype=float)
    table = np.asarray(hamiltonian_table, dtype=float)
    if table.shape != (grid.num_nodes, p.size):
        raise WeakKamError(
            f"hamiltonian table shape {table.shape} != ({grid.num_nodes}, {p.size})"
        )
    if not np.isfinite(table).all():
        raise WeakKamError("hamiltonian table contains non-finite samples")
    return LagrangianSpec(
        family="tabulated",
        dim=1,
        momentum_grid=p,
        hamiltonian_table=table,
        table_grid=grid,
    )


def _as_points(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x.reshape(-1, 1) if dim == 1 else x.reshape(1, -1)
    if x.shape[1] != dim:
        raise WeakKamError(f"points have {x.shape[1]} components, expected {dim}")
    return x


def _interp_table_rows(spec: LagrangianSpec, x: np.ndarray) -> np.ndarray:
    """Periodic-linear interpolation of the sampled Hamiltonian H(x, .) rows."""
    n = spec.table_grid.sizes[0]
    frac = x[:, 0] * n
    base = np.floor(frac).astype(np.int64)
    t = (frac - base)[:, None]
    lo = spec.hamiltonian_table[base % n]
    hi = spec.hamiltonian_table[(base + 1) % n]
    return (1.0 - t) * lo + t * hi


def eval_hamiltonian(spec: LagrangianSpec, x, p) -> np.ndarray:
    """Evaluate H(x, p) for matching batches of points and momenta."""
    x = _as_points(x, spec.dim)
    p = _as_points(p, spec.dim)
    if spec.family == "mechanical":
        return 0.5 * np.sum(p * p, axis=1) + p @ np.asarray(spec.drift) + spec.potential(x)
    if spec.family == "tabulated":
        rows = _interp_table_rows(spec, x)
        pg = spec.momentum_grid
        out = np.empty(x.shape[0])
        for i in range(x.shape[0]):
            out[i] = np.interp(p[i, 0], pg, rows[i])
        return out
    raise WeakKamError(f"unknown family {spec.family!r}")


def eval_lagrangian(spec: LagrangianSpec, x, v) -> np.ndarray:
    """Evaluate L(x, v); velocities must stay inside the configured search box."""
    x = _as_points(x, spec.dim)
    v = _as_points(v, spec.dim)
    speed = np.sqrt(np.sum(v * v, axis=1))
    if spec.v_search is not None and np.any(speed > spec.v_search * (1 + 1e-12)):
        raise VelocityBoundError(
            f"velocity {speed.max():.6g} exceeds search box {spec.v_search:.6g}; "
            "the stencil is misconfigured for these bounds"
        )
    if spec.family == "mechanical":
        dv = v - np.asarray(spec.drift)
        return 0.5 * np.sum(dv * dv, axis=1) - spec.potential(x)
    if spec.family == "tabulated":
        rows = _interp_table_rows(spec, x)
        return _conjugate_rows(rows, spec.momentum_grid, v[:, 0])
    raise WeakKamError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# Legendre transform


def _conjugate_rows(h_rows: np.ndarray, p_grid: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise max_p p*v - H(p) with a boundary-attainment guard."""
    scores = p_grid[None, :] * v[:, None] - h_rows
    arg = np.argmax(scores, axis=1)
    on_edge = (arg == 0) | (arg == p_grid.size - 1)
    if np.any(on_edge):
        bad = float(np.abs(v[on_edge]).max())
        raise TruncationError(
            f"conjugate attained on the momentum-box boundary for |v| up to {bad:.6g}; "
            "widen the momentum grid"
        )
    return scores[np.arange(v.size), arg]


def legendre_transform(h_samples, p_grid, v_grid) -> np.ndarray:
    """Numerical convex conjugate: L(v) = max_p p*v - H(p) on a momentum grid.

    Raises :class:`TruncationError` when the max is attained on the boundary of
    the momentum grid for some requested velocity, which means the grid is too
    narrow to trust the value.
    """
    h = np.asarray(h_samples, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    v = np.atleast_1d(np.asarray(v_grid, dtype=float))
    if h.shape != p.shape:
        raise WeakKamError("h_samples and p_grid must have the same shape")
    if not np.isfinite(h).all():
        raise WeakKamError("h_samples must be finite")
    return _conjugate_rows(h[None, :].repeat(v.size, axis=0), p, v)


# ---------------------------------------------------------------------------
# stability bounds


@dataclass(frozen=True)
class StabilityBounds:
    """Bounds on the c-sublevel of H that size every downstream discretization."""

    kappa: float       # momentum bound: sup ||p|| over the c-sublevel of H
    A_kappa: float     # superlinearity offset: L >= (kappa+1)||v|| - A_kappa
    C0: float          # bound on ||lambda u_lambda||_inf
    alpha: float       # velocity bound for optimal trajectories
    v_search: float    # half-width of the velocity search box
    c: float           # level the bounds were computed at


def _sample_points(spec: LagrangianSpec, grid: TorusGrid | None) -> np.ndarray:
    # 2-D sampling is capped harder: the bounds are safety margins and the
    # product grids grow quadratically
    if grid is not None:
        counts = [min(10 * n, 4096 if spec.dim == 1 else 64) for n in grid.sizes]
    else:
        counts = [1024 if spec.dim == 1 else 48] * spec.dim
    axes = [np.arange(c) / c for c in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _table_sublevel_radius(rows: np.ndarray, p: np.ndarray, c: float) -> float:
    """Largest |p| at which a row, linear between momentum samples, crosses c."""
    inside = rows <= c
    if (inside[:, 0] | inside[:, -1]).any():
        raise NoSublevelError(
            f"sublevel {{H <= {c:.6g}}} reaches the edge of the momentum grid; "
            "H may not be coercive"
        )
    hit = inside.any(axis=1)
    rows, inside = rows[hit], inside[hit]
    first = np.argmax(inside, axis=1)
    last = p.size - 1 - np.argmax(inside[:, ::-1], axis=1)
    i = np.arange(rows.shape[0])
    radius = 0.0
    for k, j in ((last, last + 1), (first, first - 1)):
        t = (c - rows[i, k]) / (rows[i, j] - rows[i, k])
        radius = max(radius, float(np.abs(p[k] + t * (p[j] - p[k])).max(initial=0.0)))
    return radius


def stability_bounds(
    spec: LagrangianSpec, c: float, grid: TorusGrid | None = None
) -> StabilityBounds:
    """Exact kappa_c, A_kappa, C0 and alpha at level c for H convex in p.

    Positions x are sampled (V and the table rows are black boxes in x);
    momenta and velocities are not. Fenchel duality gives the bounds
    (Rockafellar, Convex Analysis, 1970, section 26):

    * kappa_c = sup{|p| : H(x,p) <= c}. For the mechanical family
      |p|^2/2 + w.p + V(x) this is
      |w| + sqrt(|w|^2 + 2(c - min_x H(x,0))); for a table it is the
      outermost crossing of level c by the rows, linear between momenta.
    * A_kappa = sup (kappa+1)|v| - L(x,v) = max_x H(x, +-(kappa+1)e), with
      e = w/|w|, or the first axis when there is no drift.
    * min L = -max_x H(x, 0).

    alpha = A_kappa + C0 bounds the speeds of optimal discrete trajectories,
    and the default search box is v_search = 2*alpha.
    """
    xs = _sample_points(spec, grid)
    zeros = np.zeros_like(xs)
    h_at_zero = eval_hamiltonian(spec, xs, zeros)
    if c < float(h_at_zero.min()) - 1e-12:
        raise NoSublevelError(
            f"no sampled point has H(x,0) <= c = {c:.6g} "
            f"(min H(x,0) = {h_at_zero.min():.6g})"
        )

    if spec.family == "tabulated":
        p = spec.momentum_grid
        kappa = _table_sublevel_radius(_interp_table_rows(spec, xs), p, c)
        if -(kappa + 1.0) < p[0] or kappa + 1.0 > p[-1]:
            raise TruncationError(
                f"kappa+1 = {kappa + 1.0:.6g} lies outside the momentum grid "
                f"[{p[0]:.6g}, {p[-1]:.6g}]; widen the momentum grid"
            )
        e = np.ones(1)
    else:
        w = np.asarray(spec.drift)
        speed = float(np.linalg.norm(w))
        kappa = speed + math.sqrt(max(speed**2 + 2.0 * (c - float(h_at_zero.min())), 0.0))
        e = w / speed if speed > 0 else np.eye(spec.dim)[0]

    reach = (kappa + 1.0) * e
    a_kappa = max(
        float(eval_hamiltonian(spec, xs, np.broadcast_to(q, xs.shape)).max())
        for q in (reach, -reach)
    )
    min_l = -float(h_at_zero.max())
    max_l_rest = float(eval_lagrangian(spec, xs, zeros).max())
    c0 = max(abs(min_l + c), max_l_rest + c)
    alpha = float(a_kappa + c0)
    return StabilityBounds(
        kappa=kappa, A_kappa=a_kappa, C0=c0, alpha=alpha, v_search=2.0 * alpha, c=float(c)
    )


# ---------------------------------------------------------------------------
# velocity stencils


@dataclass(frozen=True)
class VelocityStencil:
    """Duration tau plus integer node offsets and the velocities they induce."""

    tau: float
    offsets: tuple[tuple[int, ...], ...]  # canonical lexicographic order
    velocities: np.ndarray                # (num_offsets, dim), k*h/tau
    alpha: float                          # speed bound this stencil was sized for

    @property
    def num_offsets(self) -> int:
        return len(self.offsets)

    @property
    def max_speed(self) -> float:
        return float(np.sqrt(np.sum(self.velocities**2, axis=1)).max())

    @property
    def zero_index(self) -> int:
        return self.offsets.index((0,) * self.velocities.shape[1])

    def speeds(self) -> np.ndarray:
        return np.sqrt(np.sum(self.velocities**2, axis=1))


def default_time_step(grid: TorusGrid, alpha: float) -> float:
    """tau = sqrt(h_min), clamped so the stencil stays within half the torus."""
    h_min = min(grid.spacing)
    tau = math.sqrt(h_min)
    if alpha > 0:
        cap = min((0.5 - 2.0 * h) / alpha for h in grid.spacing)
        if cap <= 0:
            raise StencilError(
                f"grid {grid.sizes} too coarse for velocity bound alpha={alpha:.4g}"
            )
        tau = min(tau, cap)
    return tau


def make_stencil(
    grid: TorusGrid,
    tau: float,
    alpha: float,
    k: int | tuple[int, ...] | None = None,
) -> VelocityStencil:
    """Build the velocity stencil with per-axis radius K_i = ceil(alpha tau / h_i).

    Offsets are ordered lexicographically; ties in downstream argmins resolve
    to the lowest index in this order.
    """
    if tau <= 0:
        raise StencilError("tau must be positive")
    if k is None:
        radii = tuple(max(1, math.ceil(alpha * tau / h - 1e-12)) for h in grid.spacing)
    elif np.isscalar(k):
        radii = (int(k),) * grid.dim
    else:
        radii = tuple(int(r) for r in k)
    for r, h, n in zip(radii, grid.spacing, grid.sizes):
        if r < 1:
            raise StencilError("stencil radius must be at least 1")
        if r * h >= 0.5:
            raise StencilError(
                f"stencil displacement {r}*{h:.4g} exceeds half the torus (ambiguous wrap); "
                "reduce tau or the radius"
            )
        if 2 * r + 1 > n:
            raise StencilError(f"stencil radius {r} too large for {n} nodes")
    offsets = tuple(
        sorted(
            tuple(o - r for o, r in zip(off, radii))
            for off in np.ndindex(*[2 * r + 1 for r in radii])
        )
    )
    vel = np.array(
        [[o * h / tau for o, h in zip(off, grid.spacing)] for off in offsets]
    )
    stencil = VelocityStencil(tau=float(tau), offsets=offsets, velocities=vel, alpha=float(alpha))
    if alpha > 0 and stencil.max_speed < alpha * (1 - 1e-12):
        raise StencilError(
            f"stencil max speed {stencil.max_speed:.4g} is below alpha={alpha:.4g}"
        )
    return stencil


# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class GridFunction:
    """Real values on grid nodes with a discrete Lipschitz quotient."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.num_nodes,):
            raise WeakKamError(
                f"expected {self.grid.num_nodes} node values, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)

    def lipschitz_quotient(self) -> float:
        """Max |u(x)-u(y)| / d(x,y) over nearest-neighbor node pairs."""
        tails, heads, dists = self.grid.neighbor_pairs()
        return float((np.abs(self.values[heads] - self.values[tails]) / dists).max())
