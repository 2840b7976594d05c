"""Dense revised simplex for standard-form programs min c.x, Ax = b, x >= 0.

No subcommand calls it: the edge programs of `mather` close on the action
graph itself, and the tests solve them here as their oracle, self-contained
on purpose for full control over pivoting and tolerances.

Rows with b < 0 are negated so that b >= 0, and phase 1 starts from an
explicit artificial identity block. Every pivot inverts the basis afresh,
so no update error accumulates. The duals keep the caller's row signs.

Entering variables are priced by Dantzig's rule (most negative reduced cost,
lowest index on ties). Leaving variables use the lexicographic ratio test of
Dantzig, Orden & Wolfe (1955), which is immune to cycling and keeps the
heavily degenerate circulation bases here from stalling; plain Bland's rule
was measured to grind tens of thousands of zero-step pivots on the same
programs. _MAX_PIVOTS caps each phase. Both rules are order-fixed, so
results do not depend on thread count or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, UnboundedError, WeakKamError

__all__ = ["SimplexResult", "solve_standard_form"]

_FEAS_TOL = 1e-9       # reduced-cost and pivot-entry tolerance
_MAX_PIVOTS = 50_000   # pivot cap of each phase


@dataclass(eq=False)
class SimplexResult:
    x: np.ndarray
    objective: float
    duals: np.ndarray
    iterations: int


def _invert(a, basis):
    try:
        return np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError as exc:
        raise WeakKamError(f"singular basis in simplex: {exc}") from exc


def _lexico_leave(x_b, d, b_inv, rows):
    """Lexicographic ratio test among candidate rows (d[rows] > 0): the least
    ratio x_B / d, its ties split column by column of B^-1 / d."""
    ratios = x_b[rows] / d[rows]
    best = ratios.min()
    tied = rows[ratios <= best + _FEAS_TOL * (1.0 + abs(best))]
    for col in range(b_inv.shape[1]):
        if tied.size == 1:
            break
        vals = b_inv[tied, col] / d[tied]
        low = vals.min()
        tied = tied[vals <= low + 1e-12 * (1.0 + abs(low))]
    return int(tied[0])


def _run(a, c, b, basis, allowed):
    """Pivot until no allowed nonbasic column prices in; `basis` is updated
    in place. Returns x_B, the duals and the pivot count."""
    pivots = 0
    while True:
        b_inv = _invert(a, basis)
        x_b = b_inv @ b
        y = c[basis] @ b_inv
        reduced = c - y @ a
        open_ = allowed.copy()
        open_[basis] = False
        candidates = np.nonzero((reduced < -_FEAS_TOL) & open_)[0]
        if candidates.size == 0:
            return x_b, y, pivots
        if pivots >= _MAX_PIVOTS:
            raise WeakKamError(f"simplex exceeded {_MAX_PIVOTS} pivots")
        j = int(candidates[np.argmin(reduced[candidates])])
        d = b_inv @ a[:, j]
        rows = np.nonzero(d > _FEAS_TOL)[0]
        if rows.size == 0:
            raise UnboundedError("objective unbounded below on the feasible set")
        basis[_lexico_leave(np.maximum(x_b, 0.0), d, b_inv, rows)] = j
        pivots += 1


def solve_standard_form(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> SimplexResult:
    """Solve min c.x subject to Ax = b, x >= 0.

    Phase 1 starts from the artificial basis. A redundant row surfaces as an
    artificial variable stuck at zero, which is accepted and barred from
    re-entering. A column enters when its reduced cost is below -_FEAS_TOL;
    more than _MAX_PIVOTS pivots in a phase raise WeakKamError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],) or c.shape != (a.shape[1],):
        raise WeakKamError("inconsistent LP dimensions")
    m, n = a.shape
    sign = np.where(b < 0, -1.0, 1.0)
    work = np.hstack([a * sign[:, None], np.eye(m)])  # artificials are columns n .. n+m-1
    b = b * sign

    basis = np.arange(n, n + m)
    allowed = np.ones(n + m, dtype=bool)
    x_b, _, its1 = _run(work, np.concatenate([np.zeros(n), np.ones(m)]), b, basis, allowed)
    residue = float(x_b[basis >= n].sum())
    if residue > 1e-7:
        raise InfeasibleError(f"phase-1 optimum {residue:.3e} > 0: program infeasible")

    # drive leftover artificials out wherever a real column can replace them
    for row in np.nonzero(basis >= n)[0]:
        pivot_row = _invert(work, basis)[row] @ work[:, :n]  # row of B^-1 A
        for j in np.nonzero(np.abs(pivot_row) > 1e-7)[0]:
            if j not in basis:
                basis[row] = j
                break

    # phase 2: artificials keep zero cost but may not re-enter
    allowed[n:] = False
    x_b, y, its2 = _run(work, np.concatenate([c, np.zeros(m)]), b, basis, allowed)
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = np.maximum(x_b[real], 0.0)
    return SimplexResult(x=x, objective=float(c @ x), duals=y * sign, iterations=its1 + its2)
