"""Certified tree solves that the dense dual program could not deliver.

The least dual meets every dual-cone row exactly, so a competitor's
deflated wealth never drifts up, even at nodes of probability 1e-6; and
it costs one pass over the tree, so 1023-node trees certify at the
default tolerances.
"""

import time

import numpy as np
import pytest

from vngale.certify import check_rapid
from vngale.cones import ConeSpec, ConeTable
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import solve_tree_log_optimal

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
