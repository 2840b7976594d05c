"""The pendulum with a drift, H = p^2/2 + w p + cos(2 pi x), against closed forms.

For |w| > P0 = int_0^1 sqrt(2(1 - cos 2 pi x)) dx = 4/pi the Mather measure
is a rotating orbit with full support, so the characterization of u0 by
int u0 dmu = 0 is checked along a whole circle, not at one point. The closed
forms (Mather, Math. Z., 1991) are computed here only, by quadrature:

* c = alpha(w) - w^2/2, where alpha(P) = max V for |P| <= P0 and otherwise
  solves int_0^1 sqrt(2(alpha - V)) dx = |P|;
* for |w| > P0, u0' = -w + sgn(w) sqrt(2(alpha - V)), shifted so that
  int u0 dmu = 0 under the Mather density mu ~ 1/sqrt(2(alpha - V)).
"""

import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import weakkam as wk
from weakkam.harness import ExperimentConfig, run_pipeline

from conftest import make_problem, pendulum_potential

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "pendulum_drift.json")
DRIFT = 2.0  # the drift of configs/pendulum_drift.json


def _potential(x):
    return math.cos(2 * math.pi * x)


def _alpha(w):
    """Mather's alpha function of V = cos 2 pi x at the class w."""
    def action(a):
        return quad(lambda x: math.sqrt(2 * (a - _potential(x))), 0, 1)[0]

    if abs(w) <= action(1.0):
        return 1.0
    return brentq(lambda a: action(a) - abs(w), 1.0, 1.0 + w * w)


def _u0_exact(xs, w):
    alpha = _alpha(w)

    def slope(s):
        return -w + math.copysign(math.sqrt(2 * (alpha - _potential(s))), w)

    def density(s):
        return 1 / math.sqrt(2 * (alpha - _potential(s)))

    def primitive(x):
        return quad(slope, 0, x)[0]

    mean = quad(lambda x: primitive(x) * density(x), 0, 1)[0] / quad(density, 0, 1)[0]
    return np.array([primitive(x) for x in xs]) - mean


def _rotating(n):
    p = make_problem(n, pendulum_potential(), drift=[DRIFT])
    return p, wk.peierls_barrier(p.kernel)


@pytest.fixture(scope="module")
def drift100():
    return _rotating(100)


@pytest.fixture(scope="module")
def drift200():
    return _rotating(200)


@pytest.fixture(scope="module")
def drift400():
    return _rotating(400)


class TestClosedForms:
    def test_rotating_orbit(self, drift100, drift200, drift400):
        c_exact = _alpha(DRIFT) - DRIFT**2 / 2
        assert abs(c_exact - 0.0637954) <= 1e-7
        # measured: c - c_exact = -2.29e-2, -4.52e-3 and -1.18e-3, sup|u0 - u0_exact|
        # = 1.36e-3, 6.1e-4 and 2.8e-4 at n = 100, 200 and 400; the bounds sit 5% above
        errors = []
        for (p, h), c_err, u0_err in ((drift100, 2.29e-2, 1.36e-3),
                                      (drift200, 4.52e-3, 6.1e-4),
                                      (drift400, 1.18e-3, 2.8e-4)):
            u0 = wk.u0_critical_cycles(h)
            err = float(np.abs(u0.values - _u0_exact(p.grid.coordinates[:, 0], DRIFT)).max())
            assert -1.05 * c_err <= p.c_star - c_exact < 0
            assert err <= 1.05 * u0_err
            errors.append((c_exact - p.c_star, err))
        # observed orders per halving of h: c at 2.34 then 1.93, u0 at 1.16 then 1.13
        for coarse, fine in zip(errors, errors[1:]):
            c_order, u0_order = np.log2(np.divide(coarse, fine))
            assert 1.9 <= c_order <= 2.4 and 1.1 <= u0_order <= 1.2

    def test_fixed_point_below_p0(self):
        # w = 0.8 < 4/pi: the Mather measure stays the Dirac mass at max V
        w = 0.8
        p = make_problem(200, pendulum_potential(), drift=[w])
        aubry = wk.aubry_report(wk.peierls_barrier(p.kernel))
        assert _alpha(w) == 1.0
        assert abs(p.c_star - (1.0 - w * w / 2)) <= 1e-12
        assert [list(cls) for cls in aubry.classes] == [[0]]


class TestDiscountedConvergence:
    def test_sup_error_is_order_lambda(self, tmp_path):
        # the paper's theorem on a non-reversible H: u_lambda -> u0 with
        # sup|u_lambda - u0| / lambda = 0.006833 at lambda = 0.5, then 0.006919
        with open(CONFIG) as fh:
            raw = json.load(fh)
        raw["schedule"]["u0_targets"] = 2
        report = run_pipeline(ExperimentConfig.from_dict(raw), out_dir=tmp_path)
        ratios = [err / lam for lam, err, *_ in report.convergence]
        assert report.passed and len(ratios) == len(raw["schedule"]["lambdas"])
        assert all(0.0068 <= r <= 0.0070 for r in ratios), ratios
        # both u0 targets take the graph search
        assert report.counters["lp_fallbacks"] == 2


class TestCrossRouteGap:
    def test_gap_is_linear_in_eps_c(self, drift200):
        # the LP route relaxes the Mather budget by eps_c, so it sits below u0 by
        # s * eps_c with s = 3.8448 here; u0_methods_agree (1e-5) holds while
        # s * 1e-6 does
        p, h = drift200
        nodes = [0, 100]
        u0 = wk.u0_critical_cycles(h).values[nodes]
        gaps = [u0 - wk.compute_u0(h, p.kernel, p.kernel.c, eps, nodes).values
                for eps in (1e-6, 1e-7)]
        np.testing.assert_allclose(gaps[0], 3.8448e-6, rtol=1e-4)
        assert np.abs(gaps[0] / gaps[1] - 10).max() <= 1e-6

    def test_gap_at_n400_exceeds_the_cross_check(self, drift400):
        # s = 12.1424 at n = 400, two classes of 35 nodes: at the harness's eps_c = 1e-6
        # the gap is above u0_methods_agree's 1e-5, so that flag would fail there though
        # neither route is wrong. Both targets take the graph search, ten Howard runs
        # each, and _certifies then reads the gather on all 397 offsets
        p, h = drift400
        assert p.kernel.num_offsets == 397 and len(h.graph.classes) == 2
        nodes = [0, 200]
        u0 = wk.u0_critical_cycles(h).values[nodes]
        for eps in (1e-6, 1e-7):
            lp = wk.compute_u0(h, p.kernel, p.kernel.c, eps, nodes)
            np.testing.assert_allclose(u0 - lp.values, 12.1424 * eps, rtol=1e-5)
            assert lp.fallbacks == 2 and lp.howard_runs == 20
