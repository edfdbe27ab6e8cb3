"""End-to-end property of the tree contract.

Random small models go through ``solve_tree_log_optimal`` and
``check_rapid`` at the default tolerances (support and dual cone 1e-6,
defect 1e-8): every plan returned with its dual certifies.  The models
have 1-3 states and 2-3 assets, cones of every family, and dense,
sparse, skewed or sticky chains; horizons are 1-3 for terminal wealth
and 1-4 for liquidation value.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from vngale.certify import check_rapid
from vngale.cones import ConeSpec, ConeTable
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import solve_tree_log_optimal

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def _chain(kind, k, rng):
    if kind == "skewed":  # 0.01 on every destination but one
        P = np.full((k, k), 0.01)
        P[np.arange(k), rng.integers(0, k, k)] += 1.0 - 0.01 * k
        return P
    if kind == "sticky":
        return 0.9 * np.eye(k) + 0.1 * rng.dirichlet(np.ones(k), size=k)
    P = rng.dirichlet(np.ones(k), size=k)
    if kind == "sparse":  # drop entries, keeping each row's largest
        P = np.where((rng.random((k, k)) < 0.5)
                     & (P < P.max(axis=1, keepdims=True)), 0.0, P)
    return P / P.sum(axis=1, keepdims=True)


def _cone(family, n, rng):
    if family == "currency":
        mu = rng.uniform(0.6, 1.3, (n, n))
        np.fill_diagonal(mu, 1.0)
        return ConeSpec.currency(mu)
    returns = np.concatenate([[1.0], rng.uniform(0.5, 2.0, n - 1)])
    if family == "frictionless":
        return ConeSpec.frictionless(returns)
    return ConeSpec.proportional_tc(returns, rng.uniform(0.0, 0.05, n),
                                    rng.uniform(0.0, 0.05, n))


@st.composite
def models(draw, max_horizon=3):
    k, n = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    family = draw(st.sampled_from(["frictionless", "proportional_tc",
                                   "currency"]))
    kind = draw(st.sampled_from(["dense", "sparse", "skewed", "sticky"]))
    horizon = draw(st.integers(1, max_horizon))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = ["S0", "S1", "S2"][:k]
    spec = MarkovSpec(states, _chain(kind, k, rng))
    table = ConeTable({f"*->{s}": _cone(family, n, rng) for s in states})
    return spec, table, horizon


@SETTINGS
@given(models())
def test_every_solved_plan_certifies(model):
    spec, table, horizon = model
    tree = build_tree(spec, horizon)
    res = solve_tree_log_optimal(tree, table, np.full(table.n, 1.0 / table.n))
    report = check_rapid(res.plan, res.dual, table)
    assert report.passed, (report.verdict, report.node_support,
                           report.node_dual_cone, report.node_defect)


@SETTINGS
@given(models(max_horizon=4))
def test_every_solved_liquidation_plan_certifies(model):
    spec, table, horizon = model
    tree = build_tree(spec, horizon)
    res = solve_tree_log_optimal(tree, table, np.full(table.n, 1.0 / table.n),
                                 objective="liquidation")
    report = check_rapid(res.plan, res.dual, table)
    assert report.passed, (report.verdict, report.node_support,
                           report.node_dual_cone, report.node_defect)
