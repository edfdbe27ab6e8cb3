"""Plans, dual plans, balanced expansion, self-financing checks."""

import numpy as np
import pytest

from vngale.cones import ConeSpec, ConeTable
from vngale.plans import (
    BalancedStrategy,
    ContingentPlan,
    DualPlan,
    expand_balanced,
    expand_balanced_dual,
    is_self_financing,
    ratio_process,
)
from vngale.scenario import MarkovSpec, build_tree


def single_state_tree(T=3, rho=1.5):
    spec = MarkovSpec(["S"], [[1.0]])
    tree = build_tree(spec, horizon=T, root_state="S")
    table = ConeTable({"*->*": ConeSpec.frictionless([rho])})
    return tree, table


def two_state_tree(T=2):
    spec = MarkovSpec(["A", "B"], [[0.5, 0.5], [0.5, 0.5]])
    return build_tree(spec, horizon=T, root_state="A")


# ---------------------------------------------------------------------------
# plan construction


def test_plan_requires_every_node():
    tree = two_state_tree()
    with pytest.raises(ValueError):
        ContingentPlan(tree, {0: [1.0, 0.0]})
    with pytest.raises(ValueError):
        ContingentPlan(tree, {v: [-1.0, 0.0] for v in range(tree.n_nodes)})
    with pytest.raises(ValueError):
        ContingentPlan(tree, {v: [np.nan, 0.0] for v in range(tree.n_nodes)})
    with pytest.raises(ValueError):
        ContingentPlan(tree, {v: [1.0, 0.0] for v in range(tree.n_nodes)},
                       units="imaginary")


def test_maps_reject_ids_outside_their_nodes():
    # negative ids and terminal ids below the first leaf used to wrap
    # around onto other rows; ids past the tree raised IndexError
    tree = two_state_tree()
    full = {v: [1.0, 0.0] for v in range(tree.n_nodes)}
    prices = {v: [1.0, 0.0] for v in range(1, tree.n_nodes)}
    terminal = {int(v): [1.0, 0.0] for v in tree.leaves()}
    for bad in (-1, tree.n_nodes):
        with pytest.raises(ValueError, match="outside"):
            ContingentPlan(tree, {**full, bad: [1.0, 0.0]})
        with pytest.raises(ValueError, match="outside"):
            DualPlan(tree, {**prices, bad: [1.0, 0.0]}, terminal)
    below = int(tree.leaves()[0]) - 1
    with pytest.raises(ValueError, match="outside"):
        DualPlan(tree, prices, {**terminal, below: [1.0, 0.0]})


def test_plan_round_trip():
    tree = two_state_tree()
    rng = np.random.default_rng(1)
    plan = ContingentPlan(tree, rng.uniform(0.0, 1.0,
                                            size=(tree.n_nodes, 2)))
    again = ContingentPlan.from_dict(tree, plan.to_dict())
    assert np.allclose(again.x, plan.x)
    assert again.units == plan.units
    assert plan.wealth(0) == pytest.approx(plan.x[0].sum())


def test_dual_plan_round_trip_and_expected_next():
    tree = two_state_tree(T=2)
    rng = np.random.default_rng(2)
    prices = rng.uniform(0.1, 1.0, size=(tree.n_nodes, 2))
    prices[0] = 0.0
    term = rng.uniform(0.1, 1.0, size=(len(tree.leaves()), 2))
    dual = DualPlan(tree, prices, term)
    again = DualPlan.from_dict(tree, dual.to_dict())
    assert np.allclose(again.prices[1:], dual.prices[1:])
    assert np.allclose(again.terminal, dual.terminal)
    # expected_next at an internal node is the conditional child mean
    v = int(tree.nodes_at_depth(1)[0])
    kids = tree.children(v)
    manual = sum(tree.cond_prob[c] * prices[c] for c in kids)
    assert dual.expected_next(v) == pytest.approx(manual)
    # at a leaf it is the stored terminal row
    leaf = int(tree.leaves()[0])
    assert dual.expected_next(leaf) == pytest.approx(term[0])
    with pytest.raises(ValueError):
        dual.vec(0)


# ---------------------------------------------------------------------------
# self-financing checks


def test_rho_model_boundary_plan():
    rho = 1.5
    tree, table = single_state_tree(T=3, rho=rho)
    x = np.array([[rho ** tree.depth[v]] for v in range(tree.n_nodes)])
    ok, bad = is_self_financing(ContingentPlan(tree, x), table, tol=1e-9)
    assert ok
    assert bad == []


def test_rho_model_single_violation_located():
    rho = 1.5
    tree, table = single_state_tree(T=3, rho=rho)
    x = np.array([[rho ** tree.depth[v]] for v in range(tree.n_nodes)])
    x[2, 0] *= 1.01
    ok, bad = is_self_financing(ContingentPlan(tree, x), table, tol=1e-9)
    assert not ok
    assert [v for v, _ in bad] == [2]
    assert bad[0][1] > 0


def test_tc_boundary_growth_plan():
    # growing at 27/19 with proportions (1/2, 1/2) sits on the cone
    # boundary of the R=(2,1), lp=0.1, lm=0.2 market
    cone = ConeSpec.proportional_tc([2.0, 1.0], [0.1, 0.1], [0.2, 0.2])
    spec = MarkovSpec(["S"], [[1.0]])
    tree = build_tree(spec, horizon=3, root_state="S")
    alpha = 27.0 / 19.0
    x = np.array([alpha ** tree.depth[v] * np.array([0.5, 0.5])
                  for v in range(tree.n_nodes)])
    table = ConeTable({"*->*": cone})
    ok, bad = is_self_financing(ContingentPlan(tree, x), table, tol=1e-9)
    assert ok
    x2 = x.copy()
    x2[tree.n_nodes - 1] *= 1.0 + 1e-6
    ok2, bad2 = is_self_financing(ContingentPlan(tree, x2), table, tol=1e-9)
    assert not ok2


def test_self_financing_requires_cone():
    tree = two_state_tree()
    table = ConeTable({"A->A": ConeSpec.frictionless([1.0, 1.0])})
    plan = ContingentPlan(tree, np.ones((tree.n_nodes, 2)))
    with pytest.raises(KeyError):
        is_self_financing(plan, table)


# ---------------------------------------------------------------------------
# balanced expansion


def test_expand_constant_growth():
    tree = two_state_tree(T=2)
    strat = BalancedStrategy(
        x={"A": [0.5, 0.5], "B": [0.5, 0.5]},
        alpha={"A": 1.5, "B": 1.5},
    )
    plan = expand_balanced(strat, tree)
    for v in tree.nodes_at_depth(2):
        assert plan.x[v] == pytest.approx([1.125, 1.125])
    assert plan.x[0] == pytest.approx([0.5, 0.5])


def test_expand_unit_growth_is_constant_per_state():
    tree = two_state_tree(T=3)
    xa, xb = [0.7, 0.3], [0.2, 0.8]
    strat = BalancedStrategy(x={"A": xa, "B": xb},
                             alpha={"A": 1.0, "B": 1.0})
    plan = expand_balanced(strat, tree)
    for v in range(tree.n_nodes):
        want = xa if tree.state_label(v) == "A" else xb
        assert plan.x[v] == pytest.approx(want)


def test_expand_factors_multiply_along_path():
    tree = two_state_tree(T=2)
    strat = BalancedStrategy(
        x={"A": [1.0, 0.0], "B": [1.0, 0.0]},
        alpha={"A": 2.0, "B": 0.5},
    )
    plan = expand_balanced(strat, tree)
    # find the node with path A, B: factor 2 * 0.5 = 1
    for v in tree.nodes_at_depth(2):
        path = tree.path_to(v)[1:]
        labels = [tree.state_label(u) for u in path]
        if labels == ["A", "B"]:
            assert plan.x[v] == pytest.approx([1.0, 0.0])


def test_expand_requires_root_state():
    spec = MarkovSpec(["A", "B"], [[0.5, 0.5], [0.5, 0.5]])
    tree = build_tree(spec, horizon=1)  # no root state
    strat = BalancedStrategy(x={"A": [1.0], "B": [1.0]},
                             alpha={"A": 1.0, "B": 1.0})
    with pytest.raises(ValueError):
        expand_balanced(strat, tree)
    with pytest.raises(KeyError):
        expand_balanced(BalancedStrategy(x={"A": [1.0]}, alpha={"A": 1.0}),
                        two_state_tree())


def test_balanced_feasibility_reduction():
    # expand + is_self_financing agrees with the finite transition check
    rng = np.random.default_rng(3)
    spec = MarkovSpec(["A", "B"], [[0.6, 0.4], [0.3, 0.7]])
    tree = build_tree(spec, horizon=3, root_state="A")
    cone = ConeSpec.proportional_tc([1.2, 0.9], [0.05, 0.05], [0.1, 0.1])
    table = ConeTable({"*->*": cone})
    from vngale.cones import contains

    for _ in range(10):
        xa = rng.dirichlet([2.0, 2.0])
        xb = rng.dirichlet([2.0, 2.0])
        aa = float(rng.uniform(0.5, 1.2))
        ab = float(rng.uniform(0.5, 1.2))
        strat = BalancedStrategy(x={"A": xa, "B": xb},
                                 alpha={"A": aa, "B": ab})
        plan = expand_balanced(strat, tree)
        ok, _ = is_self_financing(plan, table, tol=1e-9)
        finite = all(
            contains(cone, strat.x[u], strat.alpha[v] * np.asarray(
                strat.x[v]), 1e-9)
            for u in ("A", "B") for v in ("A", "B")
        )
        assert ok == finite


# ---------------------------------------------------------------------------
# balanced dual expansion


def test_dual_expansion_unit_growth():
    tree = two_state_tree(T=2)
    strat = BalancedStrategy(x={"A": [0.5, 0.5], "B": [0.5, 0.5]},
                             alpha={"A": 1.0, "B": 1.0})
    p = {"A": [1.0, 2.0], "B": [2.0, 1.0]}
    dual = expand_balanced_dual(strat, p, tree)
    for v in range(1, tree.n_nodes):
        assert dual.prices[v] == pytest.approx(p[tree.state_label(v)])


def test_dual_expansion_depth3_scaling():
    spec = MarkovSpec(["S"], [[1.0]])
    tree = build_tree(spec, horizon=3, root_state="S")
    strat = BalancedStrategy(x={"S": [0.5, 0.5]}, alpha={"S": 2.0})
    dual = expand_balanced_dual(strat, {"S": [1.0, 1.0]}, tree)
    v3 = int(tree.nodes_at_depth(3)[0])
    assert dual.prices[v3] == pytest.approx([0.25, 0.25])  # 1 / 2^2


def test_dual_expansion_rho_model():
    rho = 1.5
    spec = MarkovSpec(["S"], [[1.0]])
    tree = build_tree(spec, horizon=4, root_state="S")
    strat = BalancedStrategy(x={"S": [1.0]}, alpha={"S": rho})
    dual = expand_balanced_dual(strat, {"S": [1.0]}, tree)
    for t in range(1, 5):
        v = int(tree.nodes_at_depth(t)[0])
        assert dual.prices[v] == pytest.approx([rho ** (1 - t)], rel=1e-12)
    # terminal expectation continues the pattern one step further
    leaf = int(tree.leaves()[0])
    assert dual.expected_next(leaf) == pytest.approx([rho ** -4], rel=1e-12)


# ---------------------------------------------------------------------------
# ratio process


def test_ratio_identity_and_scaling():
    tree = two_state_tree(T=2)
    rng = np.random.default_rng(5)
    x = ContingentPlan(tree, rng.uniform(0.5, 1.0,
                                         size=(tree.n_nodes, 2)))
    r1 = ratio_process(x, x)
    assert all(v == pytest.approx(1.0) for v in r1.values())
    y = ContingentPlan(tree, 0.5 * x.x)
    r2 = ratio_process(x, y)
    assert all(v == pytest.approx(0.5) for v in r2.values())


def test_ratio_geometric_gap():
    spec = MarkovSpec(["S"], [[1.0]])
    tree = build_tree(spec, horizon=4, root_state="S")
    x = ContingentPlan(tree, np.array(
        [[1.5 ** tree.depth[v]] for v in range(tree.n_nodes)]))
    y = ContingentPlan(tree, np.ones((tree.n_nodes, 1)))
    r = ratio_process(x, y)
    for v in range(tree.n_nodes):
        assert r[v] == pytest.approx((1 / 1.5) ** tree.depth[v])


def test_ratio_rejects_zero_wealth():
    tree = two_state_tree(T=1)
    x = ContingentPlan(tree, np.zeros((tree.n_nodes, 2)))
    y = ContingentPlan(tree, np.ones((tree.n_nodes, 2)))
    with pytest.raises(ValueError):
        ratio_process(x, y)
    with pytest.raises(ValueError):
        spec2 = MarkovSpec(["S"], [[1.0]])
        other = build_tree(spec2, horizon=1)
        ratio_process(ContingentPlan(other, np.ones((other.n_nodes, 2))), y)


# ---------------------------------------------------------------------------
# strategy validation


@pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.0, np.nan],
                                 [np.inf, 1.0], [np.nan, np.nan]])
def test_balanced_proportions_must_be_finite(bad):
    # a NaN fails both ``< 0`` and ``|sum - 1| > tol``: it must still raise
    with pytest.raises(ValueError, match="simplex"):
        BalancedStrategy(x={"A": [0.5, 0.5], "B": bad},
                         alpha={"A": 1.0, "B": 1.0})


def test_balanced_strategy_validation():
    with pytest.raises(ValueError):
        BalancedStrategy(x={"A": [0.5, 0.6]}, alpha={"A": 1.0})
    with pytest.raises(ValueError):
        BalancedStrategy(x={"A": [0.5, 0.5]}, alpha={"A": 0.0})
    with pytest.raises(ValueError):
        BalancedStrategy(x={"A": [0.5, 0.5]}, alpha={"B": 1.0})
    with pytest.raises(ValueError):
        BalancedStrategy(x={}, alpha={})
    s = BalancedStrategy(x={"A": [0.5, 0.5], "B": [1.0, 0.0]},
                         alpha={"A": 2.0, "B": 1.0})
    assert s.n == 2
    assert s.log_growth_rate({"A": 0.5, "B": 0.5}) == pytest.approx(
        0.5 * np.log(2.0))
    again = BalancedStrategy.from_dict(s.to_dict())
    assert again.alpha == s.alpha
