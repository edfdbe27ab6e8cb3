"""The tree solver's growth rate against the stationary solver's.

A log-optimal tree plan may depend on the whole history, a balanced
strategy only on the current chain state, so the tree's per-step growth
``(value_H2 - value_H1) / (H2 - H1)`` is at least the stationary
``log_growth``.  For a frictionless i.i.d. chain the log-optimal plan is
myopic and rebalances to the same proportions at every node, so the two
are equal.  Cones keyed by transition make the best plan depend on the
last move, which a state-keyed balanced strategy cannot see; on the
chain of (last state, state) pairs it can, and its growth matches the
tree's again.  Tree values carry the barrier's objective error, which
grows with the node count (about ``mu_final`` per barrier term), hence
the 1e-8 margins.
"""

import math

import numpy as np
import pytest

from vngale.cones import ConeSpec, ConeTable, boundary_scale
from vngale.plans import BalancedStrategy
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import (
    extract_equilibrium_prices,
    solve_stationary_equilibrium,
    solve_tree_log_optimal,
)

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
IID3 = MarkovSpec(["A", "B", "C"], [[0.2, 0.5, 0.3]] * 3)
REGIME = MarkovSpec(["L", "M", "H"], [[0.8, 0.15, 0.05],
                                      [0.1, 0.8, 0.1],
                                      [0.05, 0.15, 0.8]])
RETURNS = {"U": [1.0, 2.0, 0.7], "D": [1.0, 0.5, 1.4],
           "A": [1.0, 1.5], "B": [1.0, 0.8], "C": [1.0, 1.1],
           "L": [1.0, 0.7], "M": [1.0, 1.1], "H": [1.0, 1.6]}
# the n = 2 currency table of the rapid-certificate acceptance test
CURRENCY = ConeTable({"*->U": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]]),
                      "*->D": ConeSpec.currency([[1.0, 0.6], [1.1, 1.0]])})


def frictionless(spec, n=2):
    return ConeTable({f"*->{s}": ConeSpec.frictionless(RETURNS[s][:n])
                      for s in spec.states})


def costly(spec, n=2):
    return ConeTable({f"*->{s}": ConeSpec.proportional_tc(RETURNS[s][:n],
                                                          0.01, 0.02)
                      for s in spec.states})


def tree_growth(spec, table, h1, h2):
    value = {h: solve_tree_log_optimal(build_tree(spec, h), table,
                                       np.full(table.n, 1.0 / table.n),
                                       extract_dual=False).objective
             for h in (h1, h2)}
    return (value[h2] - value[h1]) / (h2 - h1)


# (name, spec, table, h1, h2, stationary starts)
IID = [
    ("frictionless-n2-coin", COIN, frictionless(COIN), 4, 8, 32),
    ("frictionless-n3-coin", COIN, frictionless(COIN, 3), 4, 8, 32),
    ("frictionless-n2-iid3", IID3, frictionless(IID3), 3, 6, 32),
]
FAMILIES = IID + [
    ("proportional_tc-coin", COIN, costly(COIN), 4, 8, 32),
    ("proportional_tc-regime", REGIME, costly(REGIME), 3, 6, 32),
    ("frictionless-regime", REGIME, frictionless(REGIME), 3, 6, 32),
    # the tree rate is far above anything a state-keyed strategy
    # reaches here
    ("currency-coin", COIN, CURRENCY, 4, 8, 8),
]


@pytest.mark.parametrize("name, spec, table, h1, h2, starts", IID,
                         ids=[c[0] for c in IID])
def test_frictionless_iid_tree_growth_equals_stationary(name, spec, table,
                                                        h1, h2, starts):
    eq = solve_stationary_equilibrium(spec, table, starts=starts)
    # the Newton ascent ends within about 2e-12 of the tree rate
    assert tree_growth(spec, table, h1, h2) == pytest.approx(
        eq.log_growth, rel=0.0, abs=1e-9)


def test_fair_coin_tree_growth_is_kelly():
    # bet half the wealth on a double-or-halve coin: 0.5 * ln(9/8)
    g = tree_growth(COIN, frictionless(COIN), 4, 8)
    assert g == pytest.approx(0.5 * math.log(9.0 / 8.0), rel=0.0, abs=1e-9)


@pytest.mark.parametrize("name, spec, table, h1, h2, starts", FAMILIES,
                         ids=[c[0] for c in FAMILIES])
def test_tree_growth_at_least_stationary(name, spec, table, h1, h2,
                                         starts):
    eq = solve_stationary_equilibrium(spec, table, starts=starts)
    assert tree_growth(spec, table, h1, h2) >= eq.log_growth - 1e-8


def pair_chain(spec, table):
    """Chain on the (last state, state) pairs of ``spec``, with the cone of
    each pair's own transition: a state-keyed strategy on it may depend
    on the last move."""
    pairs = [(a, b) for a in spec.states for b in spec.states
             if spec.P[spec.states.index(a), spec.states.index(b)] > 0.0]
    names = [a + b for a, b in pairs]
    P = [[spec.P[spec.states.index(b), spec.states.index(c)]
          if b == b2 else 0.0 for b2, c in pairs] for _, b in pairs]
    cones = ConeTable({f"*->{a + b}": table.resolve(a, b)
                       for a, b in pairs})
    return MarkovSpec(names, P), cones


def test_currency_tree_growth_equals_pair_chain_strategy():
    rate = (math.log(1.1) + math.log(1.2)) / 4.0
    pspec, ptable = pair_chain(COIN, CURRENCY)
    # hold asset 0 after any move into U, asset 1 after any move into D:
    # a move into D trades 0 for 1.1 units of 1, into U 1 for 1.2 of 0
    x = {s: np.array([1.0, 0.0]) if s.endswith("U") else np.array([0.0, 1.0])
         for s in pspec.states}
    alpha = {}
    for j, v in enumerate(pspec.states):
        alpha[v] = min(boundary_scale(ptable.resolve(u, v), x[u], x[v])
                       for i, u in enumerate(pspec.states)
                       if pspec.P[i, j] > 0.0)
    pi = pspec.stationary_distribution()
    growth = sum(p * math.log(alpha[s]) for p, s in zip(pi, pspec.states))
    assert growth == pytest.approx(rate, rel=1e-12)
    # stationary prices support the strategy: it is rapid on the pair chain
    _, residual = extract_equilibrium_prices(
        BalancedStrategy(x=x, alpha=alpha), pspec, ptable)
    assert residual <= 1e-9
    assert tree_growth(COIN, CURRENCY, 4, 8) == pytest.approx(
        rate, rel=0.0, abs=1e-8)


def test_pair_chain_stationary_solver_finds_the_corner_strategy():
    # the uniform start alone stalls at growth 0 (every single-asset move
    # trades one state's gain for a successor's loss); a few seeded
    # starts reach the corner strategy of the test above
    rate = (math.log(1.1) + math.log(1.2)) / 4.0
    pspec, ptable = pair_chain(COIN, CURRENCY)
    eq = solve_stationary_equilibrium(pspec, ptable, starts=4)
    assert eq.log_growth == pytest.approx(rate, rel=0.0, abs=1e-6)
    assert eq.certificate_residual <= 1e-6
