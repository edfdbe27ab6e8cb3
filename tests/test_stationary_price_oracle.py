"""Stationary prices against the price linear program they replaced.

``solver.extract_equilibrium_prices`` finds one price per transition as
the fixed point of the least-price map on the chain.  The dense program
it replaced, kept below as the reference with prices keyed the same
way, minimizes one uniform slack over the support rows ``p(u, v) . x(u)
= 1`` and the dual-cone rows ``G_uv[i, j] q(v)_i / a(u, v) <= p(u,
v)_j``, ``q(v) = sum_w P(v, w) p(v, w)``, of every positive-probability
transition ``u -> v`` with growth factor ``a(u, v)``.  Its optimum is the
least violation any price system achieves, so the residual reported at
the fixed point can never fall below it; and where the program finds a
supporting price, the fixed point must find one too.  Together these pin
the certify/reject boundary.

The program runs on scipy's HiGHS, with its rows scaled by 1e4 so that
HiGHS's absolute feasibility tolerance (1e-10 at its tightest) lies
below the slacks measured here.
"""

from itertools import product

import numpy as np
import pytest
from scipy.optimize import linprog

from vngale import cones, solver
from vngale.cones import ConeSpec, ConeTable, boundary_scale, dual_cone_rows
from vngale.plans import BalancedStrategy
from vngale.scenario import MarkovSpec
from vngale.solver import (
    extract_equilibrium_prices,
    solve_stationary_equilibrium,
)

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
REGIME3 = MarkovSpec(["L", "M", "H"], [[0.8, 0.15, 0.05],
                                       [0.1, 0.8, 0.1],
                                       [0.05, 0.15, 0.8]])
SKEW3 = MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3)
CYCLE = MarkovSpec(["U", "D"], [[0.0, 1.0], [1.0, 0.0]])
REDUCIBLE = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.0, 1.0]])
# each state its own closed class
SPLIT = MarkovSpec(["A", "B"], [[1.0, 0.0], [0.0, 1.0]])
# two closed classes: {U} and {D, A}
TWO_CLASSES = MarkovSpec(["U", "D", "A"], [[1.0, 0.0, 0.0],
                                           [0.0, 0.5, 0.5],
                                           [0.0, 0.5, 0.5]])
# transient U and D feed the absorbing A
FEEDERS = MarkovSpec(["U", "D", "A"], [[0.0, 0.5, 0.5],
                                       [0.0, 0.0, 1.0],
                                       [0.0, 0.0, 1.0]])
ONE = MarkovSpec(["S"], [[1.0]])
RETURNS = {"U": [1.0, 2.0, 0.7, 1.3], "D": [1.0, 0.5, 1.4, 0.8],
           "A": [1.0, 1.1, 0.95], "B": [1.0, 0.6, 1.3],
           "C": [1.0, 1.5, 0.8], "L": [1.0, 0.7, 1.2],
           "M": [1.0, 1.1, 0.95], "H": [1.0, 1.6, 0.9]}
# the mispriced triangle of demos/currency_triangle.py
TRIANGLE = [[1.00, 0.95, 0.78], [1.04, 1.00, 0.72], [1.25, 1.32, 1.00]]


def frictionless(spec, n=2):
    return ConeTable({f"*->{s}": ConeSpec.frictionless(RETURNS[s][:n])
                      for s in spec.states})


def costly(spec, n=2):
    return ConeTable({f"*->{s}": ConeSpec.proportional_tc(RETURNS[s][:n],
                                                          0.01, 0.02)
                      for s in spec.states})


def currency():
    return ConeTable({"*->U": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]]),
                      "*->D": ConeSpec.currency([[1.0, 0.6], [1.1, 1.0]])})


def pair_chain(spec, table):
    """Chain on the (last state, state) pairs of ``spec``, each pair with
    the cone of its own transition."""
    pairs = [(a, b) for a in spec.states for b in spec.states
             if spec.P[spec.states.index(a), spec.states.index(b)] > 0.0]
    P = [[spec.P[spec.states.index(b), spec.states.index(c)]
          if b == b2 else 0.0 for b2, c in pairs] for _, b in pairs]
    cones = ConeTable({f"*->{a + b}": table.resolve(a, b) for a, b in pairs})
    return MarkovSpec([a + b for a, b in pairs], P), cones


def transitions(spec):
    """The positive-probability transitions ``(u, v)``, row-major."""
    return [(u, v) for u in range(spec.k) for v in range(spec.k)
            if spec.P[u, v] > 0.0]


def price_rows(strategy, spec, table):
    """The price program's rows ``A [p, s] <= b``: one price ``p(u, v)``
    per transition, in :func:`transitions` order, and the uniform slack
    ``s`` last.  A transition grows by its own factor, else by its
    destination's."""
    n = table.n
    xs = np.stack([strategy.x[s] for s in spec.states])
    pairs = transitions(spec)
    col = {t: i * n for i, t in enumerate(pairs)}
    factors = strategy.factors or {}
    slack = len(pairs) * n
    A_rows, b_rows = [], []
    for u, v in pairs:
        for sign in (1.0, -1.0):
            row = np.zeros(slack + 1)
            row[col[u, v]:col[u, v] + n] = sign * xs[u]
            row[slack] = -1.0
            A_rows.append(row)
            b_rows.append(sign)
    for u, v in pairs:
        su, sv = spec.states[u], spec.states[v]
        a = factors.get(f"{su}->{sv}", strategy.alpha[sv])
        dr = dual_cone_rows(table.resolve(su, sv))
        block = np.zeros((dr.n_rows, slack + 1))
        block[:, col[u, v]:col[u, v] + n] = dr.F_c
        # q(v) = sum_w P(v, w) p(v, w), the next price expected in v
        for w in np.flatnonzero(spec.P[v] > 0.0):
            block[:, col[v, w]:col[v, w] + n] += spec.P[v, w] / a * dr.F_d
        block[:, slack] = -1.0
        A_rows.extend(block)
        b_rows.extend([0.0] * dr.n_rows)
    return np.array(A_rows), np.array(b_rows)


def lp_optimum(A, b):
    """Least uniform violation over all nonnegative prices (HiGHS)."""
    c = np.zeros(A.shape[1])
    c[-1] = 1.0
    res = linprog(c, A_ub=1e4 * A, b_ub=1e4 * b, bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return max(float(res.fun), 0.0)


def timid():
    # the deliberately timid strategy of the acceptance suite
    x = [0.9, 0.1]
    return BalancedStrategy(x={"U": x, "D": x}, alpha={"U": 1.1, "D": 0.95})


def kelly():
    return BalancedStrategy(x={"U": [0.5, 0.5], "D": [0.5, 0.5]},
                            alpha={"U": 1.5, "D": 0.75})


def held_in_place(x, spec, table):
    """The strategy holding ``x[s]`` in state ``s`` at its largest growth
    factors."""
    alpha = {v: min(boundary_scale(table.resolve(u, v), x[u], x[v])
                    for i, u in enumerate(spec.states)
                    if spec.P[i, j] > 0.0)
             for j, v in enumerate(spec.states)}
    return BalancedStrategy(x=x, alpha=alpha)


def corner():
    """Hold asset 0 after a move into U, asset 1 after a move into D, on
    the pair chain of the coin's currency table: exactly supported."""
    spec, table = pair_chain(COIN, currency())
    x = {s: np.array([1.0, 0.0]) if s.endswith("U") else np.array([0.0, 1.0])
         for s in spec.states}
    return held_in_place(x, spec, table), spec, table


def held_currency():
    """Hold currency 1 in every state of the persistent regime chain:
    balanced (every growth factor is 1) and exactly supported.  The
    price map mixes slowly: 64 steps of the averaged map ``p <- (p +
    T(p) / max T(p)) / 2`` leave a residual of 5.6e-3, so this case needs
    policy rounds that solve each linear piece exactly."""
    table = ConeTable({
        "*->L": ConeSpec.currency([[1.0, 1.13], [0.84, 1.0]]),
        "*->M": ConeSpec.currency([[1.0, 0.67], [0.86, 1.0]]),
        "*->H": ConeSpec.currency([[1.0, 0.62], [0.87, 1.0]]),
    })
    x = {s: np.array([0.0, 1.0]) for s in REGIME3.states}
    return held_in_place(x, REGIME3, table), REGIME3, table


def two_currency(rates):
    """Currency cones of ``SPLIT``, ``rates[s]`` the off-diagonal rates
    into state ``s``."""
    return ConeTable({f"*->{s}": ConeSpec.currency([[1.0, a], [b, 1.0]])
                      for s, (a, b) in rates.items()})


def two_classes_held():
    """Hold (1/2, 1/2) in both states of ``SPLIT``: growth factors 1 and
    exactly supported, each state at its own price scale."""
    table = two_currency({"A": (1.135, 0.829), "B": (1.035, 0.909)})
    half = np.array([0.5, 0.5])
    return held_in_place({"A": half, "B": half}, SPLIT, table), SPLIT, table


def solved(spec, table, starts=4):
    return solve_stationary_equilibrium(spec, table, starts=starts).strategy


# (name, make); make() returns (strategy, chain, table), so a case
# solves its strategy only when its fixture first runs
CASES = [
    ("fl-coin", lambda: (solved(COIN, frictionless(COIN)), COIN,
                         frictionless(COIN))),
    ("fl4-coin", lambda: (solved(COIN, frictionless(COIN, 4)), COIN,
                          frictionless(COIN, 4))),
    ("tc-coin", lambda: (solved(COIN, costly(COIN)), COIN, costly(COIN))),
    ("cur-coin", lambda: (solved(COIN, currency()), COIN, currency())),
    ("fl-regime3", lambda: (solved(REGIME3, frictionless(REGIME3, 3)),
                            REGIME3, frictionless(REGIME3, 3))),
    ("tc-regime3", lambda: (solved(REGIME3, costly(REGIME3)), REGIME3,
                            costly(REGIME3))),
    ("fl-skew3", lambda: (solved(SKEW3, frictionless(SKEW3, 3)), SKEW3,
                          frictionless(SKEW3, 3))),
    ("tc-skew3", lambda: (solved(SKEW3, costly(SKEW3)), SKEW3,
                          costly(SKEW3))),
    ("cur-triangle", lambda: (
        solved(ONE, ConeTable({"*->*": ConeSpec.currency(TRIANGLE)})), ONE,
        ConeTable({"*->*": ConeSpec.currency(TRIANGLE)}))),
    ("fl-cycle", lambda: (solved(CYCLE, frictionless(CYCLE)), CYCLE,
                          frictionless(CYCLE))),
    ("tc-cycle", lambda: (solved(CYCLE, costly(CYCLE)), CYCLE,
                          costly(CYCLE))),
    ("fl-reducible", lambda: (solved(REDUCIBLE, frictionless(REDUCIBLE)),
                              REDUCIBLE, frictionless(REDUCIBLE))),
    ("tc-reducible", lambda: (solved(REDUCIBLE, costly(REDUCIBLE)),
                              REDUCIBLE, costly(REDUCIBLE))),
    ("timid", lambda: (timid(), COIN, frictionless(COIN))),
    ("kelly", lambda: (kelly(), COIN, frictionless(COIN))),
    ("pair-corner", corner),
    ("cur-regime3-held", held_currency),
    ("cur-two-classes", two_classes_held),
    ("fl-two-classes", lambda: (
        solved(TWO_CLASSES, frictionless(TWO_CLASSES)), TWO_CLASSES,
        frictionless(TWO_CLASSES))),
    ("tc-two-classes", lambda: (solved(TWO_CLASSES, costly(TWO_CLASSES)),
                                TWO_CLASSES, costly(TWO_CLASSES))),
    ("fl-feeders", lambda: (solved(FEEDERS, frictionless(FEEDERS)), FEEDERS,
                            frictionless(FEEDERS))),
]
EXACT = ("kelly", "pair-corner", "cur-regime3-held", "cur-two-classes",
         "fl-feeders")
REJECTED = ("timid",)


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def case(request):
    name, make = request.param
    strategy, spec, table = make()
    prices, residual = extract_equilibrium_prices(strategy, spec, table)
    A, b = price_rows(strategy, spec, table)
    return name, prices, residual, spec, A, b


def test_residual_is_the_largest_row_violation(case):
    _, prices, residual, spec, A, b = case
    p = np.concatenate([prices[f"{spec.states[u]}->{spec.states[v]}"]
                        for u, v in transitions(spec)])
    assert (p >= 0.0).all()
    violation = float((A[:, :-1] @ p - b).max())
    assert residual == pytest.approx(violation, rel=1e-9, abs=1e-14)
    # the prices are scaled so that the support products centre on 1
    support = A[b == 1.0, :-1] @ p  # the rows p(v) . x(u) <= 1 + s
    assert support.min() + support.max() == pytest.approx(2.0, abs=1e-12)


def test_residual_is_never_below_the_lp_optimum(case):
    _, _, residual, _, A, b = case
    assert residual >= lp_optimum(A, b) - 1e-9


def test_supported_where_the_lp_finds_support(case):
    # pattern-search strategies sit 1e-9 to 3e-8 off support (fl4-coin,
    # fl-skew3, cur-triangle), supported within that accuracy
    name, _, residual, _, A, b = case
    if lp_optimum(A, b) <= 1e-7:
        assert residual <= 1e-7
    if name in EXACT:
        assert residual <= 1e-9
    if name in REJECTED:
        assert residual > 1e-3


def test_no_linear_program_runs(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("lp_solve called")

    monkeypatch.setattr(solver, "lp_solve", forbidden)
    monkeypatch.setattr(cones, "lp_solve", forbidden)
    table = frictionless(REGIME3, 3)
    result = solve_stationary_equilibrium(REGIME3, table, starts=2)
    assert np.isfinite(result.certificate_residual)


def test_closed_classes_are_priced_apart():
    """On ``SPLIT`` each state is its own closed class with its own price
    scale.  Random currency rates (no arbitrage: the round trip loses
    2-20%), every corner or half-half holding per state: wherever the
    program finds support, so do the prices."""
    rng = np.random.default_rng(0)
    holdings = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([0.5, 0.5])]
    supported = 0
    for _ in range(60):
        rates = {}
        for s in SPLIT.states:
            a = rng.uniform(0.8, 1.25)
            rates[s] = (a, rng.uniform(0.8, 0.98) / a)
        table = two_currency(rates)
        for xa, xb in product(holdings, repeat=2):
            strategy = held_in_place({"A": xa, "B": xb}, SPLIT, table)
            if lp_optimum(*price_rows(strategy, SPLIT, table)) <= 1e-7:
                supported += 1
                _, residual = extract_equilibrium_prices(strategy, SPLIT,
                                                         table)
                assert residual <= 1e-7
    assert supported >= 500
