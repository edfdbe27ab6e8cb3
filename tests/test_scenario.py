"""Markov chains, scenario trees, conditional expectation, sampling."""

import numpy as np
import pytest

from vngale.scenario import (
    MarkovSpec,
    build_tree,
    conditional_expectation,
    sample_paths,
)


def uniform_chain(k=2):
    return MarkovSpec([chr(ord("A") + i) for i in range(k)],
                      np.full((k, k), 1.0 / k))


# ---------------------------------------------------------------------------
# MarkovSpec


def test_markov_validation():
    with pytest.raises(ValueError):
        MarkovSpec(["A", "B"], [[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovSpec(["A", "B"], [[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovSpec(["A", "A"], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        MarkovSpec(["A", "B"], [[0.5, 0.5], [0.5, 0.5]], pi0=[0.9, 0.2])
    with pytest.raises(ValueError):
        MarkovSpec([], [])


@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize("pi0", [[np.nan, 1.0], [1.0, np.nan],
                                 [np.inf, 1.0], [np.nan, np.nan]])
def test_initial_law_must_be_finite(pi0, stationary):
    # a NaN fails both ``< 0`` and ``|sum - 1| > tol``: it must still raise
    with pytest.raises(ValueError, match="probability vector"):
        MarkovSpec(["A", "B"], [[0.5, 0.5], [0.5, 0.5]], pi0=pi0,
                   stationary=stationary)


def test_stationary_flag_checks_invariance():
    P = [[0.9, 0.1], [0.5, 0.5]]
    # invariant law of P: pi = (5/6, 1/6)
    MarkovSpec(["A", "B"], P, pi0=[5 / 6, 1 / 6], stationary=True)
    with pytest.raises(ValueError):
        MarkovSpec(["A", "B"], P, pi0=[0.5, 0.5], stationary=True)


def test_stationary_distribution_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        P = rng.dirichlet(np.ones(k), size=k)
        spec = MarkovSpec([str(i) for i in range(k)], P)
        pi = spec.stationary_distribution()
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert (pi >= 0).all()
        assert np.abs(pi @ P - pi).max() <= 1e-10


def test_stationary_distribution_periodic_chain():
    # period-2 chain: power iteration alone oscillates, the answer is
    # still (1/2, 1/2)
    spec = MarkovSpec(["A", "B"], [[0.0, 1.0], [1.0, 0.0]])
    pi = spec.stationary_distribution()
    assert pi == pytest.approx([0.5, 0.5], abs=1e-10)


# six states draining into the absorbing state 5; state 2 leaves only
# with probability 6e-5 a step, so a plain power iteration crawls
ABSORBING6 = [[0.1, 0, 0, 0, 0, 0.9],
              [0, 0.43, 0.43, 0, 0, 0.14],
              [0, 0, 0.99994, 0, 0.00006, 0],
              [0, 0, 0, 0.1, 0.9, 0],
              [0, 0, 0, 0, 0.003, 0.997],
              [0, 0, 0, 0, 0, 1]]


def test_stationary_distribution_absorbing_chain():
    spec = MarkovSpec([str(i) for i in range(6)], ABSORBING6)
    assert np.abs(spec.stationary_distribution() - np.eye(6)[5]).max() \
        <= 1e-12


def test_stationary_distribution_reducible_chain_is_the_cesaro_limit():
    # state 0 is transient, states 1 and 2 are closed; from the uniform
    # start, a closed state keeps its own third plus the transient mass
    # absorbed into it, B = (I - Q)^-1 R
    P = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    Q, R = P[:1, :1], P[:1, 1:]
    B = np.linalg.solve(np.eye(1) - Q, R)
    expected = np.concatenate([[0.0], (1.0 + B[0]) / 3.0])
    assert expected == pytest.approx([0.0, 2 / 3, 1 / 3], abs=1e-15)
    pi = MarkovSpec(["T", "A", "B"], P).stationary_distribution()
    assert np.abs(pi - expected).max() <= 1e-12


def test_markov_round_trip():
    spec = MarkovSpec(["A", "B"], [[0.9, 0.1], [0.5, 0.5]], pi0=[1.0, 0.0])
    again = MarkovSpec.from_dict(spec.to_dict())
    assert again.states == spec.states
    assert np.allclose(again.P, spec.P)
    assert np.allclose(again.pi0, spec.pi0)
    assert spec.state_index("B") == 1
    with pytest.raises(KeyError):
        spec.state_index("C")


# ---------------------------------------------------------------------------
# tree construction


def test_tree_counts_binary():
    tree = build_tree(uniform_chain(2), horizon=2)
    assert tree.n_nodes == 7  # 1 + 2 + 4
    assert tree.nodes_at_depth(0).tolist() == [0]
    assert len(tree.nodes_at_depth(1)) == 2
    assert len(tree.nodes_at_depth(2)) == 4


def test_tree_counts_ternary_depth5():
    tree = build_tree(uniform_chain(3), horizon=5)
    assert tree.n_nodes == 364  # 1 + 3 + 9 + 27 + 81 + 243
    for t in range(1, 6):
        ids = tree.nodes_at_depth(t)
        assert tree.abs_prob[ids].sum() == pytest.approx(1.0, abs=1e-12)


def test_tree_prunes_zero_probability_branches():
    spec = MarkovSpec(["A", "B"], [[1.0, 0.0], [0.5, 0.5]], pi0=[1.0, 0.0])
    tree = build_tree(spec, horizon=2)
    # A is absorbing and B unreachable: single path A, A
    assert tree.n_nodes == 3
    assert all(tree.state_label(v) == "A" for v in tree.nodes_at_depth(1))
    assert all(tree.state_label(v) == "A" for v in tree.nodes_at_depth(2))


def test_tree_structure_invariants():
    spec = MarkovSpec(["A", "B", "C"],
                      [[0.2, 0.8, 0.0], [0.3, 0.3, 0.4], [1.0, 0.0, 0.0]],
                      pi0=[0.6, 0.4, 0.0])
    tree = build_tree(spec, horizon=4)
    # conditional probabilities of children sum to one
    for t in range(1, 4):
        for v in tree.nodes_at_depth(t):
            kids = tree.children(v)
            assert kids.size > 0
            assert tree.cond_prob[kids].sum() == pytest.approx(1.0,
                                                               abs=1e-12)
            assert (tree.parent[kids] == v).all()
    # absolute probability is the product along the root path
    for v in tree.leaves():
        path = tree.path_to(v)
        prod = np.prod([tree.cond_prob[u] for u in path[1:]])
        assert tree.abs_prob[v] == pytest.approx(prod, rel=1e-12)
    # depth-t nodes enumerate distinct histories
    leaf_histories = {tuple(tree.state[u] for u in tree.path_to(v)[1:])
                      for v in tree.leaves()}
    assert len(leaf_histories) == len(tree.leaves())


def test_transition_labels():
    spec = MarkovSpec(["A", "B"], [[0.5, 0.5], [0.5, 0.5]], pi0=[1.0, 0.0])
    tree = build_tree(spec, horizon=2)
    first = int(tree.nodes_at_depth(1)[0])
    assert tree.transition_label(first) == ("*", "A")
    deeper = tree.children(first)
    labels = {tree.transition_label(int(c)) for c in deeper}
    assert labels == {("A", "A"), ("A", "B")}
    with pytest.raises(ValueError):
        tree.transition_label(0)


def test_node_limit_enforced():
    with pytest.raises(ValueError):
        build_tree(uniform_chain(3), horizon=10, node_limit=1000)
    with pytest.raises(ValueError):
        build_tree(uniform_chain(2), horizon=0)


# ---------------------------------------------------------------------------
# conditional expectation


def test_conditional_expectation_of_constant():
    tree = build_tree(uniform_chain(2), horizon=2)
    v = np.array([3.0, -1.0])
    f = {int(c): v for c in tree.nodes_at_depth(2)}
    out = conditional_expectation(tree, f, 1)
    for node, val in out.items():
        assert val == pytest.approx(v)


def test_conditional_expectation_midpoint():
    tree = build_tree(uniform_chain(2), horizon=1)
    kids = tree.nodes_at_depth(1)
    f = {int(kids[0]): np.array([0.0]), int(kids[1]): np.array([2.0])}
    out = conditional_expectation(tree, f, 0)
    assert out[0] == pytest.approx([1.0])


def test_conditional_expectation_weighted():
    spec = MarkovSpec(["A", "B", "C"],
                      np.full((3, 3), 1 / 3),
                      pi0=[0.2, 0.3, 0.5])
    tree = build_tree(spec, horizon=1)
    kids = tree.nodes_at_depth(1)
    vals = {int(kids[0]): 10.0, int(kids[1]): 0.0, int(kids[2]): 2.0}
    out = conditional_expectation(tree, vals, 0)
    assert out[0] == pytest.approx(3.0)


def test_conditional_expectation_missing_child():
    tree = build_tree(uniform_chain(2), horizon=1)
    with pytest.raises(KeyError):
        conditional_expectation(tree, {int(tree.nodes_at_depth(1)[0]): 1.0},
                                0)


def test_tower_property():
    rng = np.random.default_rng(9)
    spec = MarkovSpec(["A", "B", "C"], rng.dirichlet(np.ones(3), size=3))
    tree = build_tree(spec, horizon=3)
    f = {int(v): rng.normal(size=2) for v in tree.nodes_at_depth(3)}
    one = conditional_expectation(tree, f, 2)
    two = conditional_expectation(tree, one, 1)
    # direct two-step expectation over grandchildren
    for v in tree.nodes_at_depth(1):
        acc = np.zeros(2)
        for c in tree.children(v):
            for g in tree.children(c):
                acc += (tree.cond_prob[c] * tree.cond_prob[g]
                        * f[int(g)])
        assert two[int(v)] == pytest.approx(acc, abs=1e-12)


# ---------------------------------------------------------------------------
# path sampling


def test_sampling_deterministic_chain():
    spec = MarkovSpec(["A", "B"], [[1.0, 0.0], [0.0, 1.0]], pi0=[1.0, 0.0])
    paths = sample_paths(spec, length=6, count=3, seed=42)
    assert (paths == 0).all()


def test_sampling_reproducible_and_prefix_stable():
    spec = uniform_chain(3)
    a = sample_paths(spec, length=10, count=5, seed=7)
    b = sample_paths(spec, length=10, count=5, seed=7)
    assert (a == b).all()
    c = sample_paths(spec, length=10, count=9, seed=7)
    assert (c[:5] == a).all()  # path i depends only on (seed, i)
    d = sample_paths(spec, length=10, count=5, seed=8)
    assert (d != a).any()


def test_sampling_initial_frequencies():
    spec = uniform_chain(2)
    paths = sample_paths(spec, length=1, count=10 ** 4, seed=1)
    freq = (paths[:, 0] == 0).mean()
    sigma = 0.5 / np.sqrt(10 ** 4)
    assert abs(freq - 0.5) < 3 * sigma


def test_sampling_transition_frequencies_chi2():
    P = np.array([[0.7, 0.3], [0.2, 0.8]])
    spec = MarkovSpec(["A", "B"], P)
    paths = sample_paths(spec, length=11, count=10 ** 4, seed=3)
    counts = np.zeros((2, 2))
    for t in range(10):
        src = paths[:, t]
        dst = paths[:, t + 1]
        for i in range(2):
            for j in range(2):
                counts[i, j] += ((src == i) & (dst == j)).sum()
    chi2 = 0.0
    for i in range(2):
        row_total = counts[i].sum()
        expect = row_total * P[i]
        chi2 += (((counts[i] - expect) ** 2) / expect).sum()
    # 2 degrees of freedom; 99.99% quantile is about 18.4
    assert chi2 < 18.4


def test_sampling_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_paths(uniform_chain(2), length=0, count=1, seed=0)
    with pytest.raises(ValueError):
        sample_paths(uniform_chain(2), length=1, count=0, seed=0)
