"""The tree dual recursion against the dense dual linear program.

``solver._extract_tree_dual`` prices every node leaf to root as the
least vector meeting the dual-cone rows of its step.  The dense program
it replaced, kept below as the reference, minimizes one uniform slack
over the support rows ``p_v . x_parent = 1`` and the dual-cone rows of
every node at once.  A second program pins the reference to the least
of those optimal price systems: a price the support rows leave free
(its asset is all but absent from the parent's portfolio) would
otherwise take any value the dual-cone rows allow.  Any exact dual lies
above the recursion's prices, so on a solved plan the two price systems
agree up to the plan's support error, and the recursion's support
residual bounds the LP's optimal slack from above.

Both programs run on scipy's HiGHS: the package's dense simplex fails
on them (an unbounded or cycling report on the second, a failed final
basis check on the first for some plans).
"""

import numpy as np
import pytest
from scipy.optimize import linprog

import vngale.solver
from vngale.certify import check_rapid
from vngale.cones import (
    ConeSpec,
    ConeTable,
    dual_cone_rows,
    dual_violation,
)
from vngale.lp import lp_solve
from vngale.plans import DualPlan
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import _TreeProgram, solve_tree_log_optimal

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
# zero-probability transitions: A has 2 children, B one, C three
PRUNED = MarkovSpec(["A", "B", "C"],
                    [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]],
                    pi0=[0.5, 0.0, 0.5])
MU = np.array([[1.0, 0.9], [1.05, 1.0]])


def frictionless(n=2):
    return ConeTable({"*->U": ConeSpec.frictionless([1.0, 2.0, 0.7][:n]),
                      "*->D": ConeSpec.frictionless([1.0, 0.5, 1.4][:n])})


def costly(n=2):
    return ConeTable({
        "*->U": ConeSpec.proportional_tc([1.0, 2.0, 0.7][:n],
                                         [0.01, 0.02, 0.015][:n], 0.02),
        "*->D": ConeSpec.proportional_tc([1.0, 0.5, 1.4][:n], 0.01,
                                         [0.005, 0.01, 0.02][:n]),
    })


def currency(n=2):
    if n == 2:
        return ConeTable({"*->U": ConeSpec.currency([[1.0, 1.2],
                                                     [0.7, 1.0]]),
                          "*->D": ConeSpec.currency([[1.0, 0.6],
                                                     [1.1, 1.0]])})
    return ConeTable({
        "*->U": ConeSpec.currency([[1.0, 1.25, 0.8], [0.75, 1.0, 1.1],
                                   [1.15, 0.85, 1.0]]),
        "*->D": ConeSpec.currency([[1.0, 0.7, 1.05], [1.3, 1.0, 0.9],
                                   [0.9, 1.05, 1.0]]),
    })


def mixed():
    # currency cones on U edges, transaction costs on D edges
    return ConeTable({"*->U": ConeSpec.currency(MU),
                      "*->D": ConeSpec.proportional_tc([1.0, 0.7], 0.01,
                                                       0.02)})


def pruned_table():
    return ConeTable({
        "*->A": ConeSpec.frictionless([1.0, 1.3, 0.9]),
        "*->B": ConeSpec.proportional_tc([1.0, 0.8, 1.2], 0.01, 0.02),
        "C->C": ConeSpec.frictionless([1.0, 1.1, 1.05]),
        "*->C": ConeSpec.proportional_tc([1.0, 0.95, 1.0], 0.02, 0.0),
    })


# (name, tree, table, objective); every tree has 15-63 nodes
CASES = [
    ("frictionless-n2", build_tree(COIN, 5), frictionless(), "wealth"),
    ("frictionless-n3", build_tree(COIN, 4), frictionless(3), "wealth"),
    ("proportional_tc-n2", build_tree(COIN, 5), costly(), "wealth"),
    ("proportional_tc-n3", build_tree(COIN, 4), costly(3), "wealth"),
    ("currency-n2", build_tree(COIN, 4), currency(), "wealth"),
    ("currency-n3", build_tree(COIN, 3), currency(3), "wealth"),
    ("mixed", build_tree(COIN, 4), mixed(), "wealth"),
    ("pinned-root", build_tree(COIN, 4, root_state="D"), costly(),
     "wealth"),
    ("pruned", build_tree(PRUNED, 4), pruned_table(), "wealth"),
    ("pruned-pinned", build_tree(PRUNED, 3, root_state="B"),
     pruned_table(), "wealth"),
    ("liquidation-n2", build_tree(COIN, 5), costly(), "liquidation"),
    ("liquidation-n3", build_tree(COIN, 4), costly(3), "liquidation"),
]
IDS = [c[0] for c in CASES]


def _lp_tree_dual(tree, cone_table, X, prog):
    """Least price system minimizing the largest certificate violation.

    Variables: one price vector per node of depth >= 1 and a single
    uniform slack bounding (i) deviations of price-times-predecessor-
    portfolio from 1 and (ii) dual-cone row violations.  The terminal
    layer is pinned to the terminal objective gradient w / (w . x_T),
    which is the exact price of wealth one step past the horizon.  The
    first program finds the optimal slack ``s``; the second minimizes
    the sum of prices with the slack capped at ``s (1 + 1e-6) + 1e-14``.
    Returns the second program's prices and ``s``.
    """
    n = prog.n
    N = tree.n_nodes
    leaves = tree.leaves()
    leaf0 = int(leaves[0])

    # terminal vectors
    term = np.zeros((leaves.size, n))
    for i in range(leaves.size):
        w = prog.leaf_w[i]
        term[i] = w / (w @ X[leaves[i]])

    slack = (N - 1) * n  # node v's prices start at (v - 1) * n
    nv = slack + 1

    A_rows, b_rows = [], []
    for v in range(1, N):
        block = np.zeros((2, nv))
        block[0, (v - 1) * n: v * n] = X[tree.parent[v]]
        block[1, (v - 1) * n: v * n] = -X[tree.parent[v]]
        block[:, slack] = -1.0
        A_rows.append(block)
        b_rows.append([1.0, -1.0])

    for v in range(1, N):
        dr = dual_cone_rows(cone_table.resolve(*tree.transition_label(v)))
        block = np.zeros((dr.n_rows, nv))
        block[:, (v - 1) * n: v * n] = dr.F_c
        block[:, slack] = -1.0
        if tree.depth[v] == tree.horizon:
            rhs = -(dr.F_d @ term[v - leaf0])
        else:
            rhs = np.zeros(dr.n_rows)
            for c in tree.children(v):
                block[:, (c - 1) * n: c * n] += tree.cond_prob[c] * dr.F_d
        A_rows.append(block)
        b_rows.append(rhs)

    A_ub, b_ub = np.vstack(A_rows), np.concatenate(b_rows)
    c = np.zeros(nv)
    c[slack] = 1.0
    # HiGHS accepts row violations up to an absolute tolerance, 1e-10 at
    # its tightest, and would report the 1e-11 optimal slacks here as 0;
    # rows scaled by 1e4 put its tolerance below them
    first = linprog(c, A_ub=1e4 * A_ub, b_ub=1e4 * b_ub, bounds=(0, None),
                    method="highs",
                    options={"primal_feasibility_tolerance": 1e-10,
                             "dual_feasibility_tolerance": 1e-10})
    assert first.status == 0, first.message
    s = max(float(first.fun), 0.0)
    least = linprog(1.0 - c, A_ub=A_ub, b_ub=b_ub,
                    bounds=[(0, None)] * slack + [(0, s * (1 + 1e-6) + 1e-14)],
                    method="highs")
    assert least.status == 0, least.message

    prices = np.zeros((N, n))
    prices[1:] = least.x[:slack].reshape(N - 1, n)
    dual = DualPlan(tree, prices, term)
    return dual, s


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def solved(request):
    """One case solved with its dual, the number of ``lp_solve`` calls
    the solve made from the solver module, and the LP dual on its plan
    with that program's optimal slack."""
    _, tree, table, objective = request.param
    x0 = np.linspace(1.0, 0.5, table.n)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lp_solve(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vngale.solver, "lp_solve", counted)
        res = solve_tree_log_optimal(tree, table, x0, objective=objective)
    prog = _TreeProgram(tree, table, x0, objective)
    return (tree, table, res, len(calls),
            *_lp_tree_dual(tree, table, res.plan.x, prog))


def test_prices_match_the_lp(solved):
    tree, table, res, _, lp_dual, _ = solved
    assert tree.n_nodes <= 63
    p, q = res.dual.prices[1:], lp_dual.prices[1:]
    assert np.abs(p - q).max() <= 1e-8
    # least prices: never above the LP's beyond its slack
    assert ((p - q) <= 1e-8 * np.abs(q)).all()
    np.testing.assert_allclose(res.dual.terminal, lp_dual.terminal,
                               rtol=1e-15, atol=0.0)
    assert res.dual.prices[0].tolist() == [0.0] * table.n


def test_kkt_residual_bounds_the_lp_slack(solved):
    _, table, res, _, _, slack = solved
    # one support rule: the certificate's residual of the same plan and dual
    rep = check_rapid(res.plan, res.dual, table, competitors=0)
    assert res.kkt_residual == rep.support_residual
    assert res.kkt_residual >= slack - 1e-12
    assert res.kkt_residual <= 1e-8


def test_dual_cone_rows_hold_exactly(solved):
    tree, table, res, _, _, _ = solved
    for v in range(1, tree.n_nodes):
        cone = table.resolve(*tree.transition_label(v))
        assert dual_violation(cone, res.dual.prices[v],
                              res.dual.expected_next(v),
                              method="closed") <= 0.0, v
    rep = check_rapid(res.plan, res.dual, table, competitors=10)
    assert rep.passed
    assert rep.dual_cone_residual == 0.0


def test_tree_solve_runs_no_lp(solved):
    _, _, res, lp_calls, _, _ = solved
    assert res.dual is not None
    assert lp_calls == 0
