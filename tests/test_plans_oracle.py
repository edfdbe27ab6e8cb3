"""Plan checks and balanced expansions against the per-node loops.

``is_self_financing`` takes one stacked facet-row residual per group of
edges sharing a cone; ``_path_factors`` multiplies one depth slice at a
time; ``expand_balanced_dual`` divides every node's state price by its
parent's factor at once and takes each state's one-step price
expectation once.  The loops they replaced are kept below as the
reference; results must be equal exactly, since every product and sum
is the same.
"""

import json

import numpy as np
import pytest

from vngale.cones import ConeSpec, ConeTable, membership_residual
from vngale.plans import (
    BalancedStrategy,
    ContingentPlan,
    DualPlan,
    _path_factors,
    expand_balanced,
    expand_balanced_dual,
    is_self_financing,
)
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import solve_tree_log_optimal

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
# zero-probability transitions: A has 2 children, B one, C three
PRUNED = MarkovSpec(["A", "B", "C"],
                    [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]],
                    pi0=[0.5, 0.0, 0.5])
MU = np.array([[1.0, 0.9], [1.05, 1.0]])


def ref_is_self_financing(plan, cone_table, tol=1e-9):
    tree = plan.tree
    violations = []
    for v in range(1, tree.n_nodes):
        u_lab, v_lab = tree.transition_label(v)
        cone = cone_table.resolve(u_lab, v_lab)
        res = membership_residual(cone, plan.x[tree.parent[v]], plan.x[v])
        if res > tol:
            violations.append((int(v), float(res)))
    return (len(violations) == 0), violations


def ref_path_factors(strategy, tree):
    factor = np.ones(tree.n_nodes)
    alpha_by_index = np.array([strategy.alpha[s] for s in tree.spec.states])
    for v in range(1, tree.n_nodes):
        factor[v] = factor[tree.parent[v]] * alpha_by_index[tree.state[v]]
    return factor


def ref_expand_balanced_dual(strategy, p, tree):
    factor = ref_path_factors(strategy, tree)
    p_by_index = np.stack([np.asarray(p[s], dtype=float)
                           for s in tree.spec.states])
    prices = np.zeros((tree.n_nodes, p_by_index.shape[1]))
    for v in range(1, tree.n_nodes):
        prices[v] = p_by_index[tree.state[v]] / factor[tree.parent[v]]
    leaves = tree.leaves()
    term = np.zeros((leaves.size, p_by_index.shape[1]))
    P = tree.spec.P
    for i, v in enumerate(leaves):
        s = tree.state[v]
        term[i] = (P[s] @ p_by_index) / factor[v]
    return DualPlan(tree, prices, term)


def tables():
    return {
        "frictionless": ConeTable({
            "*->U": ConeSpec.frictionless([1.0, 2.0, 0.7]),
            "*->D": ConeSpec.frictionless([1.0, 0.5, 1.4])}),
        "proportional_tc": ConeTable({
            "*->U": ConeSpec.proportional_tc([1.0, 2.0], 0.01, 0.02),
            "*->D": ConeSpec.proportional_tc([1.0, 0.5], 0.01,
                                             [0.005, 0.01])}),
        "currency": ConeTable({
            "*->U": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]]),
            "*->D": ConeSpec.currency([[1.0, 0.6], [1.1, 1.0]])}),
        "mixed": ConeTable({
            "*->U": ConeSpec.currency(MU),
            "*->D": ConeSpec.proportional_tc([1.0, 0.7], 0.01, 0.02)}),
        "exact-key": ConeTable({
            "*->U": ConeSpec.frictionless([1.0, 1.6]),
            "*->D": ConeSpec.frictionless([1.0, 0.7]),
            "U->D": ConeSpec.proportional_tc([1.0, 0.8], 0.02, 0.03)}),
    }


@pytest.mark.parametrize("name", list(tables()))
@pytest.mark.parametrize("root", [None, "D"])
def test_self_financing_matches_the_loop(name, root):
    table = tables()[name]
    tree = build_tree(COIN, 4, root_state=root)
    res = solve_tree_log_optimal(tree, table, np.linspace(1.0, 0.5, table.n),
                                 extract_dual=False)
    rng = np.random.default_rng(4)
    jitter = ContingentPlan(tree, res.plan.x
                            * rng.uniform(0.95, 1.05, res.plan.x.shape))
    for plan in (res.plan, jitter):
        for tol in (1e-9, -1.0):  # -1 lists every edge
            got = is_self_financing(plan, table, tol=tol)
            ref = ref_is_self_financing(plan, table, tol=tol)
            assert got[0] == ref[0]
            assert json.dumps(got[1]) == json.dumps(ref[1])


def test_missing_cone_raises_the_same_error():
    tree = build_tree(COIN, 2)
    table = ConeTable({"*->U": ConeSpec.frictionless([1.0, 1.5]),
                       "U->D": ConeSpec.frictionless([1.0, 0.5])})
    plan = ContingentPlan(tree, np.ones((tree.n_nodes, 2)))
    with pytest.raises(KeyError) as ref:
        ref_is_self_financing(plan, table)
    with pytest.raises(KeyError) as got:
        is_self_financing(plan, table)
    assert str(got.value) == str(ref.value)


def strategies():
    rng = np.random.default_rng(8)
    for spec in (COIN, PRUNED):
        x = {s: rng.dirichlet(np.ones(3)) for s in spec.states}
        alpha = {s: float(rng.uniform(0.7, 1.6)) for s in spec.states}
        p = {s: rng.uniform(0.2, 2.0, 3) for s in spec.states}
        yield spec, BalancedStrategy(x, alpha), p


def test_expansions_match_the_loops():
    for spec, strategy, p in strategies():
        for root in (None, spec.states[-1]):
            tree = build_tree(spec, 5, root_state=root)
            assert np.array_equal(_path_factors(strategy, tree),
                                  ref_path_factors(strategy, tree))
            got = expand_balanced_dual(strategy, p, tree)
            ref = ref_expand_balanced_dual(strategy, p, tree)
            assert np.array_equal(got.prices, ref.prices)
            assert np.array_equal(got.terminal, ref.terminal)
            if root is not None:
                plan = expand_balanced(strategy, tree)
                factor = ref_path_factors(strategy, tree)
                x = np.stack([strategy.x[s] for s in spec.states])
                assert np.array_equal(plan.x,
                                      factor[:, None] * x[tree.state])
