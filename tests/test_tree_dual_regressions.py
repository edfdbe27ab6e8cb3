"""Certified tree solves that the dense dual program could not deliver.

The least dual meets every dual-cone row exactly, so a competitor's
deflated wealth never drifts up, even at nodes of probability 1e-6; and
it costs one pass over the tree, so 1023-node trees certify at the
default tolerances.

The barrier weights each node's logs by the node's probability, so the
plan is as accurate at a node of probability 1e-15 as at the root:
skewed chains certify, and so does a currency tree with 2364 facet rows
per edge.  The long-step schedule that weighting allows, with its
depth-aware interior start and a central-path predictor at every cut of
the barrier weight, is held to a Newton-step budget.
"""

import time

import numpy as np
import pytest

from vngale import solver
from vngale.certify import check_rapid
from vngale.cones import ConeSpec, ConeTable
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import _TreeProgram, solve_tree_log_optimal

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])


def test_skewed_three_state_costs_certify():
    # the benchmark's tc2-skew3-H3 model without its seeded jitter
    spec = MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3)
    returns = {"A": [1.0, 1.1], "B": [1.0, 0.6], "C": [1.0, 1.5]}
    table = ConeTable({f"*->{s}": ConeSpec.proportional_tc(r, 0.01, 0.02)
                       for s, r in returns.items()})
    tree = build_tree(spec, 3)
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    assert res.kkt_residual <= 1e-6
    rep = check_rapid(res.plan, res.dual, table)
    assert rep.passed, rep.to_dict()
    assert rep.dual_cone_residual == 0.0


def test_skewed_frictionless_chain_certifies():
    # the benchmark's fl2-skew2-H5 model without its seeded jitter: the
    # rarest leaves have probability 1e-15
    spec = MarkovSpec(["U", "D"], [[0.999, 0.001], [0.999, 0.001]])
    table = ConeTable({"*->U": ConeSpec.frictionless([1.0, 2.0]),
                       "*->D": ConeSpec.frictionless([1.0, 0.5])})
    tree = build_tree(spec, 5)
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    assert res.kkt_residual <= 1e-8
    rep = check_rapid(res.plan, res.dual, table)
    assert rep.passed, rep.to_dict()


# a stop that read only the probability-weighted Newton decrement left
# a node of probability 5e-10 far off its central path on these models
# (kkt 6.8e-3 and 1.1e-2, the certificate failing there); on the rounded
# one, so did a stop that held every node in the stages above mu_final
# but not in the last
@pytest.mark.parametrize("up, down", [
    ([1.0, 1.9360158985036722, 1.9243763152922955],
     [1.0, 1.3949457879015692, 0.7830761430459751]),
    ([1.0, 1.94, 1.92], [1.0, 1.39, 0.78]),
], ids=["drawn", "rounded"])
def test_rare_nodes_are_centred_before_a_stage_ends(up, down):
    spec = MarkovSpec(["U", "D"], [[0.999, 0.001], [0.999, 0.001]])
    table = ConeTable({"*->U": ConeSpec.frictionless(up),
                       "*->D": ConeSpec.frictionless(down)})
    res = solve_tree_log_optimal(build_tree(spec, 5), table,
                                 np.full(3, 1 / 3))
    assert res.kkt_residual <= 1e-9
    rep = check_rapid(res.plan, res.dual, table)
    assert rep.passed, rep.to_dict()


def test_1093_node_skewed_costs_certify():
    spec = MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3)
    returns = {"A": [1.0, 1.1], "B": [1.0, 0.6], "C": [1.0, 1.5]}
    table = ConeTable({f"*->{s}": ConeSpec.proportional_tc(r, 0.01, 0.02)
                       for s, r in returns.items()})
    tree = build_tree(spec, 6)
    assert tree.n_nodes == 1093
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    assert res.kkt_residual <= 1e-8
    rep = check_rapid(res.plan, res.dual, table)
    assert rep.passed, rep.to_dict()


def test_six_currency_tree_is_accurate():
    # 2364 facet rows per edge; the barrier ends as close to optimal as
    # on the two-currency trees
    rng = np.random.default_rng(6)
    cones = {}
    for s in ("U", "D"):
        mu = rng.uniform(0.8, 1.2, (6, 6))
        np.fill_diagonal(mu, 1.0)
        cones[f"*->{s}"] = ConeSpec.currency(mu)
    table = ConeTable(cones)
    tree = build_tree(COIN, 6)
    assert tree.n_nodes == 127
    res = solve_tree_log_optimal(tree, table, np.full(6, 1 / 6))
    assert res.kkt_residual <= 1e-8


# the n = 3 frictionless, n = 2 cost and n = 2 currency tables of the
# rapid-certificate acceptance test
LARGE = [
    ("frictionless", ConeTable({
        "*->U": ConeSpec.frictionless([1.0, 2.0, 0.7]),
        "*->D": ConeSpec.frictionless([1.0, 0.5, 1.4])})),
    ("proportional_tc", ConeTable({
        "*->U": ConeSpec.proportional_tc([1.0, 2.0], 0.01, 0.02),
        "*->D": ConeSpec.proportional_tc([1.0, 0.5], 0.01, 0.02)})),
    ("currency", ConeTable({
        "*->U": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]]),
        "*->D": ConeSpec.currency([[1.0, 0.6], [1.1, 1.0]])})),
]


@pytest.mark.parametrize("family, table", LARGE, ids=[c[0] for c in LARGE])
def test_1023_node_tree_certifies(family, table):
    t0 = time.perf_counter()
    tree = build_tree(COIN, 9)
    assert tree.n_nodes == 1023
    res = solve_tree_log_optimal(tree, table, np.full(table.n, 1 / table.n))
    assert res.kkt_residual <= 1e-8
    rep = check_rapid(res.plan, res.dual, table, competitors=3)
    elapsed = time.perf_counter() - t0
    assert rep.passed, (rep.support_residual, rep.dual_cone_residual,
                        rep.supermartingale_defect)
    # 0.8 / 0.6 / 3.5 s on a 2-core x86_64 host, most of it in check_rapid
    assert elapsed < 30.0


# the other three tables of the rapid-certificate acceptance test
MORE = [
    ("frictionless-n2", ConeTable({
        "*->U": ConeSpec.frictionless([1.0, 2.0]),
        "*->D": ConeSpec.frictionless([1.0, 0.5])})),
    ("proportional_tc-n3", ConeTable({
        "*->U": ConeSpec.proportional_tc([1.0, 2.0, 0.7],
                                         [0.01, 0.02, 0.015],
                                         [0.005, 0.01, 0.02]),
        "*->D": ConeSpec.proportional_tc([1.0, 0.5, 1.4],
                                         [0.01, 0.02, 0.015],
                                         [0.005, 0.01, 0.02])})),
    ("currency-n3", ConeTable({
        "*->U": ConeSpec.currency([[1.0, 1.25, 0.8], [0.75, 1.0, 1.1],
                                   [1.15, 0.85, 1.0]]),
        "*->D": ConeSpec.currency([[1.0, 0.7, 1.05], [1.3, 1.0, 0.9],
                                   [0.9, 1.05, 1.0]])})),
]
# Newton steps on the 1023-node coin tree with mu cut by 0.01 per stage;
# cutting it by 0.1 takes 94-106 steps on every table
STEPS_H9 = {"frictionless": 42, "proportional_tc": 52, "currency": 64,
            "frictionless-n2": 40, "proportional_tc-n3": 59,
            "currency-n3": 77}


@pytest.mark.parametrize("name, table", LARGE + MORE,
                         ids=[c[0] for c in LARGE + MORE])
def test_newton_step_budget(name, table):
    tree = build_tree(COIN, 9)
    res = solve_tree_log_optimal(tree, table, np.full(table.n, 1 / table.n),
                                 extract_dual=False)
    assert res.iterations <= 1.3 * STEPS_H9[name]


# Newton steps on the 4095-node coin tree, predictor steps included; a
# half-scale start, no predictor and a spurious eighth stage took 42-75
STEPS_H11 = {"frictionless": 35, "proportional_tc": 42, "currency": 37,
             "frictionless-n2": 32, "proportional_tc-n3": 49,
             "currency-n3": 52}


@pytest.mark.parametrize("name, table", LARGE + MORE,
                         ids=[c[0] for c in LARGE + MORE])
def test_newton_step_budget_4095_nodes(name, table):
    tree = build_tree(COIN, 11)
    assert tree.n_nodes == 4095
    res = solve_tree_log_optimal(tree, table, np.full(table.n, 1 / table.n),
                                 extract_dual=False)
    assert res.iterations <= 1.15 * STEPS_H11[name]


def test_barrier_stages_end_exactly_at_mu_final(monkeypatch):
    # 0.01**6 rounds to just above 1e-12: that must not add a stage
    weights = []
    step = _TreeProgram.newton_step

    def record(self, Y, mu):
        if not weights or weights[-1] != mu:
            weights.append(mu)
        return step(self, Y, mu)

    monkeypatch.setattr(_TreeProgram, "newton_step", record)
    table = LARGE[0][1]
    solve_tree_log_optimal(build_tree(COIN, 3), table,
                           np.full(table.n, 1 / table.n), extract_dual=False)
    assert len(weights) == 6
    assert weights == pytest.approx([10.0 ** -e for e in range(2, 13, 2)],
                                    rel=1e-12)
    assert weights[-1] == 1e-12


# the path starts at the first cut, or at mu_final when that lies above it
@pytest.mark.parametrize("mu_final, expected", [(1e-3, [1e-2, 1e-3]),
                                                (0.05, [0.05]),
                                                (1.0, [1.0]),
                                                (3.0, [3.0])])
def test_last_stage_runs_at_mu_final_above_the_first_cut(mu_final, expected,
                                                         monkeypatch):
    weights = []
    step = _TreeProgram.newton_step

    def record(self, Y, mu):
        if not weights or weights[-1] != mu:
            weights.append(mu)
        return step(self, Y, mu)

    monkeypatch.setattr(_TreeProgram, "newton_step", record)
    table = LARGE[0][1]
    solve_tree_log_optimal(build_tree(COIN, 3), table,
                           np.full(table.n, 1 / table.n), extract_dual=False,
                           mu_final=mu_final)
    assert weights == pytest.approx(expected, rel=1e-12)
    assert weights[-1] == mu_final


def _kelly(probs, R):
    """max over the simplex of sum_w p_w log(R_w . f): Cover's
    multiplicative update finds the support, then Newton steps on the
    support with the budget constraint polish the optimum."""
    f = np.full(R.shape[1], 1.0 / R.shape[1])
    for _ in range(20000):
        nxt = f * ((probs / (R @ f)) @ R)
        nxt /= nxt.sum()
        done = np.abs(nxt - f).max() < 1e-14
        f = nxt
        if done:
            break
    S = f > 1e-9
    m = int(S.sum())
    for _ in range(30):
        W = R[:, S]
        val = W @ f[S]
        kkt = np.ones((m + 1, m + 1))
        kkt[:m, :m] = -(W.T * (probs / val ** 2)) @ W
        kkt[m, m] = 0.0
        step = np.linalg.solve(kkt, np.append(-(probs / val) @ W, 0.0))[:m]
        if (f[S] + step < 0).any():
            break
        f[S] += step
        if np.abs(step).max() < 1e-15:
            break
    return float(probs @ np.log(R @ f))


def test_intermediate_stages_stop_at_the_barrier_scaled_decrement(
        monkeypatch):
    # a stage above mu_final ends at its first step with dec/2 <=
    # _MID_STAGE_DECREMENT mu, in total and at every node per unit of its
    # probability; only the last stage is centred to 1e-13
    steps = []
    step = _TreeProgram.newton_step

    def record(self, Y, mu):
        Y, dec, worst = step(self, Y, mu)
        steps.append((mu, max(dec, worst) / 2.0))
        return Y, dec, worst

    monkeypatch.setattr(_TreeProgram, "newton_step", record)
    table = LARGE[0][1]
    x0 = np.full(table.n, 1 / table.n)
    horizon = 6
    res = solve_tree_log_optimal(build_tree(COIN, horizon), table, x0)
    stages = {}
    for mu, half in steps:
        stages.setdefault(mu, []).append(half)
    *middle, last = stages.items()
    assert len(middle) == 5
    cut = solver._MID_STAGE_DECREMENT
    for mu, halves in middle:
        assert halves[-1] <= cut * mu
        assert all(h > cut * mu for h in halves[:-1])
    assert last[0] == 1e-12
    assert last[1][-1] <= 1e-13
    # frictionless and i.i.d.: the optimum separates by node, the root
    # holding x0 and every later non-leaf node earning the Kelly growth
    R = np.array([[1.0, 2.0, 0.7], [1.0, 0.5, 1.4]])
    p = np.array([0.5, 0.5])
    ref = p @ np.log(R @ x0) + (horizon - 1) * _kelly(p, R)
    assert res.objective == pytest.approx(ref, abs=1e-9)
    assert res.kkt_residual <= 1e-9


# 0 and 1e-16 used to divide by zero and end in "line search failed";
# inf used to return a one-stage plan with kkt_residual 0.56
@pytest.mark.parametrize("mu_final", [0.0, -1.0, np.nan, np.inf, -np.inf,
                                      1e-16, 9e-16])
def test_unsolvable_mu_final_raises_before_any_work(mu_final, monkeypatch):
    def started(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(_TreeProgram, "__init__", started)
    monkeypatch.setattr(solver, "_require_assumptions", started)
    table = MORE[0][1]
    with pytest.raises(ValueError, match="mu_final must be finite and at "
                                         "least 1e-15"):
        solve_tree_log_optimal(build_tree(COIN, 2), table, [0.5, 0.5],
                               mu_final=mu_final)


@pytest.mark.parametrize("name, table", LARGE + MORE,
                         ids=[c[0] for c in LARGE + MORE])
def test_mu_final_at_the_floor_solves(name, table):
    res = solve_tree_log_optimal(build_tree(COIN, 6), table,
                                 np.full(table.n, 1 / table.n),
                                 mu_final=solver._MU_FINAL_FLOOR)
    ref = solve_tree_log_optimal(build_tree(COIN, 6), table,
                                 np.full(table.n, 1 / table.n))
    assert res.kkt_residual <= max(1e-10, ref.kkt_residual)
    assert res.objective == pytest.approx(ref.objective, abs=1e-10)
