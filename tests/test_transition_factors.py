"""Balanced strategies with one growth factor per transition.

A balanced strategy holds ``x(s)`` in state s and grows by ``a(u, v)``,
the largest feasible scale from ``x(u)`` toward ``x(v)``, across each
transition u -> v; its growth rate is ``sum_u pi(u) sum_v P(u, v) log
a(u, v)``.  Every expected number below is derived here: tree rates from
the tree solver, Kelly rates from a one-dimensional search, the pair
chain's corner rate in closed form.  Where the stationary prices support
a strategy, expanding both onto a tree with a pinned root must pass
``check_rapid`` at its default tolerances.  Strategies and price files
without transition keys keep their old meaning: every transition into v
grows by ``alpha(v)`` and is priced by ``p(v)``.
"""

import json
import math

import numpy as np
import pytest

from vngale import solver
from vngale.certify import asymptotic_dominance, check_rapid
from vngale.cli import main
from vngale.cones import ConeSpec, ConeTable, boundary_scale
from vngale.plans import (
    BalancedStrategy,
    DualPlan,
    expand_balanced,
    expand_balanced_dual,
)
from vngale.scenario import MarkovSpec, build_tree, sample_paths
from vngale.solver import (
    EquilibriumResult,
    solve_stationary_equilibrium,
    solve_tree_log_optimal,
)

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
REGIME = MarkovSpec(["L", "M", "H"], [[0.8, 0.15, 0.05],
                                      [0.1, 0.8, 0.1],
                                      [0.05, 0.15, 0.8]])
RETURNS = {"U": [1.0, 2.0, 0.7], "D": [1.0, 0.5, 1.4],
           "L": [1.0, 0.7], "M": [1.0, 1.1], "H": [1.0, 1.6]}
# the n = 2 currency table of the rapid-certificate acceptance test
CURRENCY = ConeTable({"*->U": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]]),
                      "*->D": ConeSpec.currency([[1.0, 0.6], [1.1, 1.0]])})
CORNER_RATE = (math.log(1.1) + math.log(1.2)) / 4.0


def frictionless(spec, n=2):
    return ConeTable({f"*->{s}": ConeSpec.frictionless(RETURNS[s][:n])
                      for s in spec.states})


def costly(spec, n=2):
    return ConeTable({f"*->{s}": ConeSpec.proportional_tc(RETURNS[s][:n],
                                                          0.01, 0.02)
                      for s in spec.states})


def dagger():
    """Costly regime3 cones with three assets: state-keyed proportions
    cannot follow the last move there, so no price supports the best
    balanced strategy."""
    returns = [[1.0, 2.0, 0.7], [1.0, 0.5, 1.4], [1.0, 1.1, 0.95]]
    return ConeTable({f"*->{s}": ConeSpec.proportional_tc(r, 0.01, 0.02)
                      for s, r in zip(REGIME.states, returns)})


def pair_chain():
    """The coin chain on (last state, state) pairs, each pair with the
    currency cone of its own last move."""
    names = ["UU", "UD", "DU", "DD"]
    P = [[0.5 if a[1] == b[0] else 0.0 for b in names] for a in names]
    return MarkovSpec(names, P), ConeTable(
        {f"*->{s}": CURRENCY.resolve("*", s[1]) for s in names})


def tree_growth(spec, table, h1=4, h2=8):
    """Per-step growth of the log-optimal tree plan from the uniform law
    (the stationary law of the coin chains)."""
    value = {h: solve_tree_log_optimal(build_tree(spec, h), table,
                                       np.full(table.n, 1.0 / table.n),
                                       extract_dual=False).objective
             for h in (h1, h2)}
    return (value[h2] - value[h1]) / (h2 - h1)


def kelly_one_risky(probs, R):
    """max over f in [0, 1] of sum_w probs[w] log(R[w] . (1 - f, f)), by
    golden-section search (the function is concave)."""
    def g(f):
        return float(probs @ np.log(R @ np.array([1.0 - f, f])))

    lo, hi = 0.0, 1.0
    r = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        if g(a) < g(b):
            lo = a
        else:
            hi = b
    return max(g(0.0), g(1.0), g((lo + hi) / 2.0))


@pytest.mark.parametrize("spec, table", [
    (COIN, frictionless(COIN)),
    (COIN, frictionless(COIN, 3)),
    (COIN, costly(COIN)),
    (COIN, CURRENCY),
], ids=["frictionless-n2", "frictionless-n3", "proportional_tc",
        "currency"])
def test_coin_tree_growth_equals_stationary(spec, table):
    eq = solve_stationary_equilibrium(spec, table, starts=8)
    assert tree_growth(spec, table) == pytest.approx(eq.log_growth,
                                                     rel=0.0, abs=1e-8)
    assert eq.certificate_residual <= 1e-7


def test_frictionless_regime_is_the_averaged_state_kelly_rate():
    # frictionless factors do not depend on the destination's
    # proportions, so the objective separates into one Kelly problem per
    # state, weighted by the stationary law
    table = frictionless(REGIME)
    R = np.array([RETURNS[s] for s in REGIME.states])
    kelly = np.array([kelly_one_risky(REGIME.P[u], R)
                      for u in range(REGIME.k)])
    pi = REGIME.stationary_distribution()
    eq = solve_stationary_equilibrium(REGIME, table, starts=8)
    assert eq.log_growth == pytest.approx(float(pi @ kelly), rel=0.0,
                                          abs=1e-8)
    assert eq.certificate_residual <= 1e-7


def test_pair_chain_reaches_the_corner_from_one_start():
    spec, table = pair_chain()
    eq = solve_stationary_equilibrium(spec, table, starts=1)
    assert eq.log_growth == pytest.approx(CORNER_RATE, rel=0.0, abs=1e-8)
    assert eq.certificate_residual <= 1e-7


def test_log_growth_weighs_each_transition_factor():
    spec, table = REGIME, costly(REGIME)
    eq = solve_stationary_equilibrium(spec, table, starts=4)
    s, pi = eq.strategy, spec.stationary_distribution()
    growth = 0.0
    for u, su in enumerate(spec.states):
        for v, sv in enumerate(spec.states):
            a = boundary_scale(table.resolve(su, sv), s.x[su], s.x[sv])
            assert s.factors[f"{su}->{sv}"] == pytest.approx(a, rel=1e-12)
            growth += pi[u] * spec.P[u, v] * math.log(a)
        # a state's factor is the least over the transitions into it
        assert s.alpha[su] == min(s.factors[f"{w}->{su}"]
                                  for w in spec.states)
    assert eq.log_growth == pytest.approx(growth, rel=1e-12)


def _expanded_report(eq, spec, table, root, horizon=3):
    tree = build_tree(spec, horizon, root_state=root)
    plan = expand_balanced(eq.strategy, tree)
    dual = expand_balanced_dual(eq.strategy, eq.prices, tree)
    return check_rapid(plan, dual, table, competitors=20)


CERTIFIED = [
    ("frictionless-coin", COIN, frictionless(COIN, 3)),
    ("costly-coin", COIN, costly(COIN)),
    ("currency-coin", COIN, CURRENCY),
    ("frictionless-regime", REGIME, frictionless(REGIME)),
    ("costly-regime", REGIME, costly(REGIME)),
    ("pair-chain", *pair_chain()),
]


@pytest.mark.parametrize("name, spec, table", CERTIFIED,
                         ids=[c[0] for c in CERTIFIED])
def test_supported_strategies_certify_on_a_pinned_tree(name, spec, table):
    eq = solve_stationary_equilibrium(spec, table, starts=4)
    assert eq.certificate_residual <= 1e-7
    for root in spec.states:
        report = _expanded_report(eq, spec, table, root)
        assert report.passed, (root, report.support_residual,
                               report.dual_cone_residual,
                               report.supermartingale_defect)


def test_state_keyed_proportions_cannot_be_certified_on_dagger():
    table = dagger()
    eq = solve_stationary_equilibrium(REGIME, table, starts=8)
    assert eq.certificate_residual >= 1e-3
    assert not any(_expanded_report(eq, REGIME, table, root).passed
                   for root in REGIME.states)


def test_transient_state_takes_its_one_step_kelly_bet():
    # U is transient, D absorbing: U carries no stationary weight, so its
    # proportions are those of its best expected one-step growth, here a
    # Kelly bet on U's row, and the prices support the strategy
    spec = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.0, 1.0]])
    table = ConeTable({"*->U": ConeSpec.frictionless([1.0, 2.0]),
                       "*->D": ConeSpec.frictionless([1.0, 0.5])})
    R = np.array([[1.0, 2.0], [1.0, 0.5]])
    kelly = kelly_one_risky(spec.P[0], R)
    eq = solve_stationary_equilibrium(spec, table)
    x = eq.strategy.x["U"]
    assert float(spec.P[0] @ np.log(R @ x)) == pytest.approx(kelly, rel=0.0,
                                                             abs=1e-12)
    assert eq.log_growth == 0.0  # D holds cash
    assert eq.certificate_residual <= 1e-9


@pytest.mark.parametrize("spec, table", [
    (COIN, costly(COIN, 3)), (REGIME, costly(REGIME)), (COIN, CURRENCY),
    (REGIME, dagger())], ids=["costly-coin", "costly-regime", "currency",
                              "dagger"])
def test_polish_never_lowers_the_value(spec, table):
    prog = solver._StationaryProgram(spec, table)
    rng = np.random.default_rng(1)
    for _ in range(20):
        xs = rng.dirichlet(np.ones(table.n), size=spec.k)
        out = solver._polish(xs, prog)
        assert (out >= 0.0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0.0,
                                   atol=1e-12)
        assert prog.value(out) >= prog.value(xs) - 1e-15


# ---------------------------------------------------------------------------
# state-keyed files keep their meaning


STATE_KEYED = {
    "strategy": {"x": {"U": [0.5, 0.5], "D": [0.5, 0.5]},
                 "alpha": {"U": 1.5, "D": 0.75}},
    "prices": {"U": [2.0 / 3.0, 4.0 / 3.0], "D": [4.0 / 3.0, 2.0 / 3.0]},
    "log_growth": 0.5 * math.log(9.0 / 8.0),
    "certificate_residual": 0.0,
    "stationary": {"U": 0.5, "D": 0.5},
}


def _by_node_loops(strategy, p, tree):
    """Plan and dual of a strategy one node at a time: the factor and
    price of the transition into each node, the state's own at a free
    root's children."""
    states = tree.spec.states
    factors = strategy.factors or {}
    factor = np.ones(tree.n_nodes)
    prices = np.zeros((tree.n_nodes, strategy.n))
    for v in range(1, tree.n_nodes):
        u = tree.parent[v]
        sv = states[tree.state[v]]
        key = sv if tree.state[u] < 0 else f"{states[tree.state[u]]}->{sv}"
        factor[v] = factor[u] * factors.get(key, strategy.alpha[sv])
        prices[v] = np.asarray(p.get(key, p[sv])) / factor[u]
    leaves = tree.leaves()
    term = np.zeros((leaves.size, strategy.n))
    for i, v in enumerate(leaves):
        s = states[tree.state[v]]
        term[i] = sum(tree.spec.P[tree.state[v], w]
                      * np.asarray(p.get(f"{s}->{sw}", p[sw]))
                      for w, sw in enumerate(states)) / factor[v]
    return factor, prices, term


def test_state_keyed_equilibrium_file_loads():
    eq = EquilibriumResult.from_dict(json.loads(json.dumps(STATE_KEYED)))
    assert eq.strategy.factors is None
    assert sorted(eq.prices) == ["D", "U"]
    assert eq.to_dict() == STATE_KEYED


def test_state_keyed_expansion_equals_unit_keyed_factors():
    # a transition key holding the state factor changes nothing
    eq = EquilibriumResult.from_dict(STATE_KEYED)
    s = eq.strategy
    keyed = BalancedStrategy(s.x, s.alpha, factors={
        f"{u}->{v}": s.alpha[v] for u in s.x for v in s.x})
    prices = {**eq.prices, **{f"{u}->{v}": eq.prices[v]
                              for u in s.x for v in s.x}}
    for root in (None, "U"):
        tree = build_tree(COIN, 4, root_state=root)
        a = expand_balanced_dual(s, eq.prices, tree)
        b = expand_balanced_dual(keyed, prices, tree)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.terminal, b.terminal)
        if root is not None:
            assert np.array_equal(expand_balanced(s, tree).x,
                                  expand_balanced(keyed, tree).x)


@pytest.mark.parametrize("root", [None, "A", "C"])
def test_expansions_follow_the_transition_keys(root):
    spec = MarkovSpec(["A", "B", "C"], [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0],
                                        [0.2, 0.3, 0.5]])
    rng = np.random.default_rng(3)
    x = {s: rng.dirichlet(np.ones(3)) for s in spec.states}
    factors = {"A->A": 1.1, "A->B": 0.9, "B->C": 1.3, "C->A": 0.8,
               "C->C": 1.05}  # C -> B keeps its state factor
    alpha = {"A": 0.8, "B": 0.9, "C": 1.05}
    p = {s: rng.uniform(0.2, 2.0, 3) for s in spec.states}
    p.update({key: rng.uniform(0.2, 2.0, 3) for key in factors})
    strategy = BalancedStrategy(x, alpha, factors)
    tree = build_tree(spec, 4, root_state=root)
    factor, prices, term = _by_node_loops(strategy, p, tree)
    dual = expand_balanced_dual(strategy, p, tree)
    np.testing.assert_allclose(dual.prices, prices, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(dual.terminal, term, rtol=1e-14, atol=0.0)
    if root is not None:
        xs = np.stack([x[s] for s in spec.states])
        np.testing.assert_allclose(expand_balanced(strategy, tree).x,
                                   factor[:, None] * xs[tree.state],
                                   rtol=1e-14, atol=0.0)


def test_round_trip_keeps_factors_and_transition_prices():
    eq = solve_stationary_equilibrium(COIN, costly(COIN), starts=2)
    assert set(eq.strategy.factors) == {"U->U", "U->D", "D->U", "D->D"}
    assert {"U->D", "U", "D"} <= set(eq.prices)
    doc = json.loads(json.dumps(eq.to_dict()))
    again = EquilibriumResult.from_dict(doc)
    assert again.strategy.factors == eq.strategy.factors
    assert again.to_dict() == eq.to_dict()
    # a state key is the largest price of the transitions into the state
    for v in COIN.states:
        np.testing.assert_array_equal(
            eq.prices[v], np.maximum(eq.prices[f"U->{v}"],
                                     eq.prices[f"D->{v}"]))


def test_factors_must_be_transition_keyed_and_positive():
    x = {"A": [1.0], "B": [1.0]}
    alpha = {"A": 1.0, "B": 1.0}
    with pytest.raises(ValueError):
        BalancedStrategy(x, alpha, factors={"A->C": 1.0})
    with pytest.raises(ValueError):
        BalancedStrategy(x, alpha, factors={"A": 1.0})
    with pytest.raises(ValueError):
        BalancedStrategy(x, alpha, factors={"A->B": 0.0})


def test_state_keyed_strategy_paths_step_by_state_factors():
    # without transition factors every step grows by the factor of the
    # state it enters: the strategy's per-path growth is the cumulated
    # state factors, bit for bit
    eq = EquilibriumResult.from_dict(STATE_KEYED)
    table = frictionless(COIN)
    rep = asymptotic_dominance(eq, COIN, table, competitors=2, length=50,
                               paths=7, seed=5)
    log_alpha = np.log([eq.strategy.alpha[s] for s in COIN.states])
    S = sample_paths(COIN, 50, 7, 5)
    growth = np.cumsum(log_alpha[S], axis=1)[:, -1] / 50
    assert all(row["mean_growth_strategy"] == float(growth.mean())
               for row in rep.rows)


def test_simulate_reads_both_file_layouts(tmp_path):
    model = {"markov": {"states": ["U", "D"],
                        "transition": [[0.5, 0.5], [0.5, 0.5]]},
             "cones": {"*->U": {"family": "frictionless",
                                "returns": [1.0, 2.0]},
                       "*->D": {"family": "frictionless",
                                "returns": [1.0, 0.5]}}}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    old = tmp_path / "old.json"
    old.write_text(json.dumps(STATE_KEYED), encoding="utf-8")
    new = tmp_path / "new.json"
    assert main(["solve-stationary", "--model", str(model_path),
                 "--starts", "2", "--out", str(new)]) == 0
    assert "factors" in json.loads(new.read_text())["strategy"]
    for eq in (old, new):
        assert main(["simulate", "--model", str(model_path),
                     "--equilibrium", str(eq), "--paths", "4",
                     "--length", "20", "--competitors", "1",
                     "--out", str(tmp_path / "sim.csv")]) == 0


def test_dual_plan_of_a_free_root_uses_state_prices():
    # a free root's children have no predecessor state: their prices
    # are the state keys, the largest over the transitions into them
    eq = solve_stationary_equilibrium(COIN, costly(COIN), starts=2)
    tree = build_tree(COIN, 2)
    dual = expand_balanced_dual(eq.strategy, eq.prices, tree)
    assert isinstance(dual, DualPlan)
    for v in tree.nodes_at_depth(1):
        np.testing.assert_array_equal(dual.prices[v],
                                      eq.prices[tree.state_label(v)])
