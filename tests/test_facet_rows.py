"""Facet rows of every cone against the exchange linear programs.

``ConeSpec.facets`` gives each cone rows ``(C, D)`` with membership
``D b <= C a``.  A currency cone's rows are the extreme rays of its dual
cone, enumerated by double description.  The linear programs the rows
replaced, kept below verbatim as the reference, decide membership by the
smallest uniform delivery shortfall and the boundary scale by maximizing
``t`` over exchange matrices.  For generic exchange matrices the row
count is ``sum_s C(n, s) C(s + n - 2, s - 1)`` (Develin & Sturmfels,
"Tropical convexity", 2004); degenerate matrices (ties, no arbitrage)
have fewer rows.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vngale.cones
import vngale.solver
from vngale.cli import main
from vngale.cones import (
    MAX_CURRENCIES,
    ConeSpec,
    ConeTable,
    boundary_scale,
    contains,
    membership_residual,
    validate_assumptions,
)
from vngale.lp import LPUnboundedError, lp_solve
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import solve_tree_log_optimal

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# the exchange linear programs, as they stood in vngale.cones


def _exchange_rows(G):
    """Availability and delivery rows over a flattened exchange matrix.

    With ``d`` the row-major flattening of the exchange matrix,
    ``avail @ d`` is what each asset ships (``sum_i d[i, j]``) and
    ``deliver @ d`` what each asset receives (``sum_j G[i, j] d[i, j]``).
    """
    n = G.shape[0]
    avail = np.tile(np.eye(n), (1, n))
    deliver = (np.eye(n)[:, :, None] * G[None, :, :]).reshape(n, n * n)
    return avail, deliver


def _exchange_shortfall(cone: ConeSpec, a, b) -> float:
    """Smallest uniform shortfall s >= 0 such that some exchange matrix
    delivers ``b - s`` from ``a``.  Zero iff (a, b) is a member."""
    n = cone.n
    avail, deliver = _exchange_rows(cone.exchange)
    # variables: d (row-major) then s
    A_ub = np.block([[avail, np.zeros((n, 1))],
                     [-deliver, -np.ones((n, 1))]])
    c = np.zeros(n * n + 1)
    c[-1] = 1.0
    res = lp_solve(c, A_ub=A_ub, b_ub=np.concatenate([a, -b]))
    return max(res.objective, 0.0)


def _exchange_scale(cone: ConeSpec, a, d) -> float:
    """Boundary scale of one pair by the exchange linear program."""
    n = cone.n
    avail, deliver = _exchange_rows(cone.exchange)
    # variables: d-matrix (row-major) then t
    A_ub = np.block([[avail, np.zeros((n, 1))],
                     [-deliver, d[:, None]]])
    c = np.zeros(n * n + 1)
    c[-1] = 1.0
    try:
        res = lp_solve(c, A_ub=A_ub, b_ub=np.concatenate([a, np.zeros(n)]),
                       maximize=True)
    except LPUnboundedError:
        return np.inf
    return max(res.objective, 0.0)


# ---------------------------------------------------------------------------
# cones


def _generic(n, seed):
    mu = np.random.default_rng(seed).uniform(0.6, 1.4, (n, n))
    np.fill_diagonal(mu, 1.0)
    return mu


def _no_arbitrage(n):
    p = np.linspace(1.0, 2.5, n)
    return p[None, :] / p[:, None]


def _symmetric(n):
    mu = np.full((n, n), 0.9)
    np.fill_diagonal(mu, 1.0)
    return mu


# the mispriced USD/EUR/JPY triangle of demos/currency_triangle.py
TRIANGLE = np.array([[1.00, 0.95, 0.78],
                     [1.04, 1.00, 0.72],
                     [1.25, 1.32, 1.00]])

DEGENERATE = [_no_arbitrage(n) for n in range(1, 5)] \
    + [_symmetric(n) for n in range(1, 5)] \
    + [np.ones((n, n)) for n in range(1, 5)] + [TRIANGLE]


@st.composite
def currency_cones(draw):
    if draw(st.booleans()):
        return ConeSpec.currency(draw(st.sampled_from(DEGENERATE)))
    n = draw(st.integers(1, 4))
    mu = np.array(draw(st.lists(st.floats(0.3, 1.8), min_size=n * n,
                                max_size=n * n))).reshape(n, n)
    np.fill_diagonal(mu, 1.0)
    return ConeSpec.currency(mu)


def _vec(draw, n, hi):
    # zeros, or entries the dense simplex of the reference scales safely
    entry = st.one_of(st.just(0.0), st.floats(1e-3 * hi, hi))
    return np.array(draw(st.lists(entry, min_size=n, max_size=n)))


@SETTINGS
@given(currency_cones())
def test_rows_are_normalized_dual_rays(cone):
    C, D = cone.facets
    G, n = cone.exchange, cone.n
    assert C.shape == D.shape and D.shape[1] == n and len(D) >= 1
    assert (D >= 0).all()
    np.testing.assert_allclose(D.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    # c_j = max_i G[i, j] d_i, row by row
    assert C.tolist() == [[max(G[i, j] * d[i] for i in range(n))
                           for j in range(n)] for d in D]


@SETTINGS
@given(currency_cones(), st.data())
def test_membership_agrees_with_the_shortfall_program(cone, data):
    n = cone.n
    a = _vec(data.draw, n, 3.0)
    w = _vec(data.draw, n, 1.0)
    if w.sum() == 0.0:
        w[0] = 1.0
    # pairs on both sides of the boundary; outside when a = 0 and b > 0
    t = _exchange_scale(cone, a, w)
    b = data.draw(st.floats(0.0, 2.0)) * (t if t > 0.0 else 1.0) * w
    scale = 1.0 + a.sum() + b.sum()
    shortfall = _exchange_shortfall(cone, a, b) / scale
    resid = membership_residual(cone, a, b)
    assert max(resid, 0.0) == pytest.approx(shortfall, rel=0, abs=1e-10)
    if abs(shortfall - 1e-9) > 1e-10:
        assert contains(cone, a, b) == (shortfall <= 1e-9)


@SETTINGS
@given(currency_cones(), st.data())
def test_boundary_scale_agrees_with_the_scale_program(cone, data):
    n = cone.n
    a = _vec(data.draw, n, 3.0)
    d = _vec(data.draw, n, 1.0)
    if d.sum() == 0.0:
        d[-1] = 0.5
    expected = _exchange_scale(cone, a, d)
    got = boundary_scale(cone, a, d)
    if np.isinf(expected):
        assert got == np.inf
    else:
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("n", range(1, MAX_CURRENCIES + 1))
def test_generic_row_count(n):
    expected = sum(math.comb(n, s) * math.comb(s + n - 2, s - 1)
                   for s in range(1, n + 1))
    assert len(ConeSpec.currency(_generic(n, n)).facets[1]) == expected


def test_budget_rows_are_the_facets():
    for cone in (ConeSpec.frictionless([1.0, 1.7, 0.6]),
                 ConeSpec.proportional_tc([1.0, 0.5, 1.3], [0.02, 0.0, 0.1],
                                          [0.03, 0.2, 1.0])):
        C, D = cone.facets
        assert np.array_equal(C, cone.budget * cone.returns)
        assert np.array_equal(D, cone.budget)
        assert cone.facets is cone.facets  # enumerated once per cone


def test_tiny_loads_overflow_silently_to_inf():
    cone = ConeSpec.currency(_generic(3, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert boundary_scale(cone, np.ones(3), [1e-310, 0.0, 0.0]) == np.inf


def test_more_than_six_currencies_is_a_usage_error(tmp_path, capsys):
    mu = _generic(MAX_CURRENCIES + 1, 0)
    with pytest.raises(ValueError, match="at most 6 currencies"):
        ConeSpec.currency(mu)
    doc = {"markov": {"states": ["S"], "transition": [[1.0]]},
           "cones": {"*->*": {"family": "currency", "mu": mu.tolist()}}}
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--model", str(model)]) == 2
    assert "at most 6 currencies" in capsys.readouterr().err


def test_currency_validation_and_tree_solve_run_no_lp(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return lp_solve(*args, **kwargs)

    monkeypatch.setattr(vngale.cones, "lp_solve", counting)
    monkeypatch.setattr(vngale.solver, "lp_solve", counting)
    table = ConeTable({"*->U": ConeSpec.currency(_generic(3, 1)),
                       "*->D": ConeSpec.currency(TRIANGLE)})
    assert validate_assumptions(table).ok
    coin = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
    res = solve_tree_log_optimal(build_tree(coin, 3), table,
                                 [1.0, 0.8, 0.6])
    assert res.kkt_residual <= 1e-8
    assert calls == []
