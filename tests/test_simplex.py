import itertools

import numpy as np
import pytest

from weakkam.errors import InfeasibleError, UnboundedError
from weakkam.simplex import solve_standard_form


def enumerate_vertices(a, b):
    """All basic feasible solutions by brute force over column subsets."""
    m, n = a.shape
    out = []
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x_b = np.linalg.solve(sub, b)
        if (x_b >= -1e-9).all():
            x = np.zeros(n)
            x[list(cols)] = x_b
            out.append(x)
    return out


def test_textbook_program():
    # min -x1 - 2 x2 s.t. x1 + x2 + s1 = 4, x1 + 3 x2 + s2 = 6
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = solve_standard_form(a, b, c)
    assert res.objective == pytest.approx(-5.0)
    np.testing.assert_allclose(res.x[:2], [3.0, 1.0], atol=1e-9)


def test_degenerate_program():
    # classic degenerate vertex at the origin of the slack space
    a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]])
    b = np.array([2.0, 2.0])
    c = np.array([-1.0, 0.0, 0.0, 0.0])
    res = solve_standard_form(a, b, c)
    assert res.objective == pytest.approx(-2.0)


def test_infeasible_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(InfeasibleError):
        solve_standard_form(a, b, np.zeros(2))


def test_unbounded_raises():
    # min -x1 with x1 - x2 = 0: ray (t, t)
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(UnboundedError):
        solve_standard_form(a, b, np.array([-1.0, 0.0]))


def test_negative_rhs_normalized():
    # -x1 = -3 -> x1 = 3
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-3.0, 1.0])
    res = solve_standard_form(a, b, np.array([1.0, 1.0]))
    np.testing.assert_allclose(res.x, [3.0, 1.0], atol=1e-9)
    np.testing.assert_array_equal(b, [-3.0, 1.0])  # the caller's rhs is not flipped


def test_redundant_row_tolerated():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_standard_form(a, b, np.array([1.0, 3.0]))
    assert res.objective == pytest.approx(1.0)
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_random_programs_match_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m, n = 3, 7
    a = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    b = a @ x_feas  # feasible by construction
    c = rng.normal(size=n)
    vertices = enumerate_vertices(a, b)
    lows = [c @ v for v in vertices]
    try:
        res = solve_standard_form(a, b, c)
    except UnboundedError:
        # certify unboundedness: a ray d >= 0, Ad = 0, c.d < 0 must exist
        from scipy.optimize import linprog

        ray = linprog(
            c, A_eq=np.vstack([a, np.ones(n)]), b_eq=np.r_[np.zeros(m), 1.0],
            bounds=[(0, None)] * n, method="highs",
        )
        assert ray.status == 0 and ray.fun < -1e-9
        return
    assert res.objective == pytest.approx(min(lows), abs=1e-7)
    np.testing.assert_allclose(a @ res.x, b, atol=1e-7)
    assert (res.x >= -1e-9).all()


def test_duals_certify_optimality():
    a = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 1.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-3.0, -5.0, 0.0, 0.0])
    res = solve_standard_form(a, b, c)
    reduced = c - res.duals @ a
    assert reduced.min() >= -1e-9
    assert res.duals @ b == pytest.approx(res.objective)


def test_duals_keep_the_callers_row_signs():
    # the textbook program with its second row negated: the solver works on
    # the flipped row, and the duals it returns must price the caller's
    a = np.array([[1.0, 1.0, 1.0, 0.0], [-1.0, -3.0, 0.0, -1.0]])
    b = np.array([4.0, -6.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    res = solve_standard_form(a, b, c)
    assert res.objective == pytest.approx(-5.0)
    np.testing.assert_allclose(res.duals, [-0.5, 0.5], atol=1e-12)
    assert (c - res.duals @ a).min() >= -1e-9
    assert abs(res.duals @ b - res.objective) <= 1e-9
