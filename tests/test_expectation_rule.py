"""The tree's one-step conditional expectation has one summation rule.

``conditional_expectation`` and ``DualPlan.expected_next`` both sum a
node's probability-weighted children as ``scenario._child_sums`` does,
so on any tree, pruned or dense, they agree bit for bit.
"""

import numpy as np
import pytest

from vngale import DualPlan, MarkovSpec, build_tree, conditional_expectation


def _pruned_chain(rng, k=4):
    # about a third of the transitions zeroed, every row keeping mass
    keep = rng.random((k, k)) >= 1.0 / 3.0
    keep[np.arange(k), rng.integers(k, size=k)] = True
    P = np.where(keep, rng.random((k, k)), 0.0)
    P /= P.sum(axis=1, keepdims=True)
    return MarkovSpec([f"s{i}" for i in range(k)], P)


def _agree(tree, rng, n=3):
    prices = rng.random((tree.n_nodes, n))
    prices[0] = 0.0
    terminal = rng.random((tree.leaves().size, n))
    dual = DualPlan(tree, prices, terminal)
    for t in range(tree.horizon):
        f = {v: prices[v] for v in tree.nodes_at_depth(t + 1).tolist()}
        out = conditional_expectation(tree, f, t)
        assert sorted(out) == tree.nodes_at_depth(t).tolist()
        for v, e in out.items():
            np.testing.assert_array_equal(e, dual.expected_next(v))


def test_pruned_chains_agree_with_dual_plan_bit_for_bit():
    rng = np.random.default_rng(28)
    for _ in range(40):
        tree = build_tree(_pruned_chain(rng), horizon=3)
        assert (tree.n_children[:tree.depth_start[3]] > 0).all()
        _agree(tree, rng)


def test_dense_chain_agrees_with_dual_plan_bit_for_bit():
    rng = np.random.default_rng(5)
    P = rng.dirichlet(np.ones(4), size=4)
    _agree(build_tree(MarkovSpec(list("abcd"), P), horizon=3), rng)


def test_scalar_values_stay_scalar():
    rng = np.random.default_rng(3)
    tree = build_tree(_pruned_chain(rng), horizon=2)
    kids = tree.nodes_at_depth(2).tolist()
    vals = rng.random(len(kids))
    out = conditional_expectation(tree, dict(zip(kids, vals)), 1)
    w = tree.cond_prob * np.concatenate([np.zeros(kids[0]), vals])
    for v, e in out.items():
        assert np.ndim(e) == 0
        assert e == pytest.approx(w[tree.children(v)].sum(), rel=1e-15)


def test_missing_child_names_the_first_one():
    tree = build_tree(_pruned_chain(np.random.default_rng(1)), horizon=2)
    kids = tree.nodes_at_depth(2).tolist()
    f = {v: 1.0 for v in kids if v not in (kids[2], kids[4])}
    with pytest.raises(KeyError, match=rf"missing child node {kids[2]}\b"):
        conditional_expectation(tree, f, 1)
