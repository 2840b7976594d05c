"""Sparse revised simplex for standard-form programs min c.x, Ax = b, x >= 0.

No subcommand calls it: the edge programs of `mather` close on the action
graph itself, and the tests solve them here as their oracle, self-contained
on purpose for full control over pivoting and tolerances.

The constraint matrix is held as compressed columns (`CompressedColumns`):
per column, the row indices and values of its nonzeros, padded with zero
values to the largest column count. The edge programs have at most four
nonzeros per column, so pricing is a gather-and-sum over them and a dense
`a` is converted once on entry. Phase-1 artificials are implicit identity
columns, and rows with b < 0 are flipped by scaling values.

`solve_standard_form` updates the basis inverse by one rank-one
(product-form) pivot per step, O(m^2), and refactorizes it by a dense
inverse of the basis matrix at the start, every `_REFACTOR_EVERY` pivots and
once more at optimality, so the returned x, duals and objective carry no
accumulated update error; if the fresh inverse still prices a column in,
pivoting resumes.

Entering variables are priced by Dantzig's rule (most negative reduced cost,
lowest index on ties). Leaving variables use the lexicographic ratio test,
which is immune to cycling and keeps the heavily degenerate circulation
bases here from stalling; plain Bland's rule was measured to grind tens of
thousands of zero-step pivots on the same programs. _MAX_PIVOTS caps each
phase. Both rules are order-fixed, so results do not depend on thread count
or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, UnboundedError, WeakKamError

__all__ = ["CompressedColumns", "SimplexResult", "solve_standard_form"]

_REFACTOR_EVERY = 64   # rank-one updates between fresh inverses of the basis
_FEAS_TOL = 1e-9       # reduced-cost and pivot-entry tolerance
_MAX_PIVOTS = 50_000   # pivot cap of each phase


@dataclass(frozen=True)
class CompressedColumns:
    """An m x n matrix as per-column nonzeros, padded to the largest count.

    `rows` and `vals` have shape (k, n): entry i of column j is
    vals[i, j] at row rows[i, j]. Padding entries carry value 0, and entries
    sharing a row add up.
    """

    rows: np.ndarray
    vals: np.ndarray
    num_rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.num_rows, self.rows.shape[1]

    @classmethod
    def from_dense(cls, a: np.ndarray) -> CompressedColumns:
        """Keep the nonzero entries of a dense matrix, column by column."""
        m, n = a.shape
        col_ids, row_ids = np.nonzero(a.T)  # column-major, rows ascending
        counts = np.bincount(col_ids, minlength=n)
        k = max(int(counts.max(initial=0)), 1)
        slot = np.arange(col_ids.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.zeros((k, n), dtype=np.int64)
        vals = np.zeros((k, n))
        rows[slot, col_ids] = row_ids
        vals[slot, col_ids] = a[row_ids, col_ids]
        return cls(rows=rows, vals=vals, num_rows=m)

    def price(self, y: np.ndarray) -> np.ndarray:
        """y @ A by a gather-and-sum over the stored entries."""
        return np.einsum("ij,ij->j", y[self.rows], self.vals)

    def dense(self, cols) -> np.ndarray:
        """The dense submatrix A[:, cols]."""
        cols = np.asarray(cols, dtype=np.int64)
        out = np.zeros((self.num_rows, cols.size))
        np.add.at(out, (self.rows[:, cols], np.arange(cols.size)), self.vals[:, cols])
        return out


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int


def _basis_matrix(a: CompressedColumns, basis: np.ndarray) -> np.ndarray:
    """Dense basis matrix; columns >= n are the artificial identity columns."""
    n = a.shape[1]
    real = basis < n
    b_mat = np.zeros((a.num_rows, basis.size))
    b_mat[:, real] = a.dense(basis[real])
    art = np.nonzero(~real)[0]
    b_mat[basis[art] - n, art] = 1.0
    return b_mat


def _invert(a, basis):
    try:
        return np.linalg.inv(_basis_matrix(a, basis))
    except np.linalg.LinAlgError as exc:
        raise WeakKamError(f"singular basis in simplex: {exc}") from exc


def _lexico_leave(x_b, d, b_inv, rows, feas_tol):
    """Lexicographic ratio test among candidate rows (d[rows] > 0)."""
    ratios = x_b[rows] / d[rows]
    best = ratios.min()
    tied = rows[ratios <= best + feas_tol * (1.0 + abs(best))]
    if tied.size == 1:
        return int(tied[0])
    # refine ties column by column of B^-1 / d, keeping the rows within
    # 1e-12 of the column's least value; a column whose tied values all lie
    # that close keeps every row, so the scan jumps to the next column that
    # splits the remaining rows
    scaled = b_inv[tied] / d[tied, None]
    col = 0
    while tied.size > 1:
        low = scaled[:, col:].min(axis=0)
        cut = low + 1e-12 * (1.0 + np.abs(low))
        splits = np.nonzero(scaled[:, col:].max(axis=0) > cut)[0]
        if splits.size == 0:
            break
        keep = scaled[:, col + splits[0]] <= cut[splits[0]]
        tied, scaled = tied[keep], scaled[keep]
        col += splits[0] + 1
    return int(tied[0])


def _run(a, c, b_vec, basis, allowed):
    """Phase-agnostic pivot loop; `basis` is updated in place.

    Columns past a.shape[1] are artificial: column n + i is the unit vector
    of row i. Returns x_B, the duals and the pivot count, all from a fresh
    inverse of the final basis.
    """
    n = a.shape[1]
    n_total = c.size
    open_ = allowed.copy()  # may enter: allowed and nonbasic
    open_[basis] = False
    pivots = 0
    b_inv = _invert(a, basis)
    fresh = True
    while True:
        x_b = b_inv @ b_vec
        y = c[basis] @ b_inv

        priced = a.price(y)
        if n_total > n:
            priced = np.concatenate([priced, y])
        reduced = c - priced
        candidates = np.nonzero((reduced < -_FEAS_TOL) & open_)[0]
        if candidates.size == 0:
            if fresh:
                return x_b, y, pivots
            b_inv = _invert(a, basis)
            fresh = True
            continue
        if pivots >= _MAX_PIVOTS:
            raise WeakKamError(f"simplex exceeded {_MAX_PIVOTS} pivots")

        j = int(candidates[np.argmin(reduced[candidates])])

        if j < n:
            d = b_inv[:, a.rows[:, j]] @ a.vals[:, j]
        else:
            d = b_inv[:, j - n].copy()
        rows = np.nonzero(d > _FEAS_TOL)[0]
        if rows.size == 0:
            raise UnboundedError("objective unbounded below on the feasible set")
        leave_row = _lexico_leave(np.maximum(x_b, 0.0), d, b_inv, rows, _FEAS_TOL)

        open_[basis[leave_row]] = allowed[basis[leave_row]]
        open_[j] = False
        basis[leave_row] = j
        pivots += 1
        if pivots % _REFACTOR_EVERY == 0:
            b_inv = _invert(a, basis)
            fresh = True
        else:
            # rows where d is zero are unchanged by the update
            pivot_row = b_inv[leave_row] / d[leave_row]
            touched = np.flatnonzero(d)
            b_inv[touched] -= np.outer(d[touched], pivot_row)
            b_inv[leave_row] = pivot_row
            fresh = False


def _package(c, basis, x_b, y, iterations, n_real):
    x = np.zeros(n_real)
    for pos, col in enumerate(basis):
        if col < n_real:
            x[col] = max(float(x_b[pos]), 0.0)
    return SimplexResult(
        x=x,
        objective=float(c[:n_real] @ x),
        duals=np.asarray(y, dtype=float).copy(),
        iterations=int(iterations),
    )


def solve_standard_form(
    a: np.ndarray | CompressedColumns,
    b: np.ndarray,
    c: np.ndarray,
) -> SimplexResult:
    """Solve min c.x subject to Ax = b, x >= 0.

    `a` is a dense array or `CompressedColumns`. Phase 1 starts from the
    artificial basis. Rows are sign-normalized so b >= 0; a redundant
    row surfaces as an artificial variable stuck at zero, which is accepted
    and barred from re-entering. A column enters when its reduced cost is
    below -_FEAS_TOL; more than _MAX_PIVOTS pivots in a phase raise
    WeakKamError.
    """
    if not isinstance(a, CompressedColumns):
        a = CompressedColumns.from_dense(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise WeakKamError("inconsistent LP dimensions")

    flip = b < 0
    if flip.any():
        a = CompressedColumns(
            rows=a.rows, vals=np.where(flip[a.rows], -a.vals, a.vals), num_rows=m
        )
        b[flip] *= -1.0

    # phase 1: implicit artificial identity block, columns n .. n+m-1
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    work_basis = np.arange(n, n + m, dtype=np.int64)
    allowed = np.ones(n + m, dtype=bool)
    x_b, y, its1 = _run(a, c1, b, work_basis, allowed)
    residue = float(x_b[work_basis >= n].sum()) if (work_basis >= n).any() else 0.0
    if residue > 1e-7:
        raise InfeasibleError(f"phase-1 optimum {residue:.3e} > 0: program infeasible")

    # drive leftover artificials out wherever a real column can replace them
    for row in np.nonzero(work_basis >= n)[0]:
        e_row = np.zeros(m)
        e_row[row] = 1.0
        weights = np.linalg.solve(_basis_matrix(a, work_basis).T, e_row)
        pivot_row = a.price(weights)  # row of B^-1 A over real columns
        for j in np.nonzero(np.abs(pivot_row) > 1e-7)[0]:
            if j not in work_basis:
                work_basis[row] = j
                break

    # phase 2: artificials keep zero cost but may not re-enter
    c2 = np.concatenate([c, np.zeros(m)])
    allowed[n:] = False
    x_b, y, its2 = _run(a, c2, b, work_basis, allowed)
    return _package(c2, work_basis, x_b, y, its1 + its2, n)
