"""The stacked certificate check against the per-node loops it replaced.

``certify.check_rapid`` rolls every competitor out one depth slice at a
time, one stacked boundary-scale call per (depth, edge group), takes
``E p_next`` from one sum over the breadth-first child ranges and folds
the competitors' deflated gains into a running maximum.  The per-node
implementation it replaced is kept below as the reference: one
``boundary_scale`` call per node and competitor, one ``expected_next``
and one ``dual_violation`` call per node.  Reports must agree exactly,
value for value and in the sign of every zero, on every cone family,
on pinned and pruned trees, on the benchmark's skewed chains, on a tree
that needs more than one competitor chunk, and in the error raised when
a competitor's wealth collapses.
"""

import json

import numpy as np
import pytest

from vngale import certify
from vngale.certify import check_rapid, supermartingale_defect
from vngale.cones import (
    ConeSpec,
    ConeTable,
    _by_depth,
    _group_edges,
    boundary_scale,
    dual_violation,
)
from vngale.plans import ContingentPlan, DualPlan
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import solve_tree_log_optimal

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
# zero-probability transitions: A has 2 children, B one, C three
PRUNED = MarkovSpec(["A", "B", "C"],
                    [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]],
                    pi0=[0.5, 0.0, 0.5])
# the skewed chains of the benchmark's certify-small workload
SKEW2 = MarkovSpec(["U", "D"], [[0.999, 0.001], [0.999, 0.001]])
SKEW3 = MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3)
MU = np.array([[1.0, 0.9], [1.05, 1.0]])

NEW_FIELDS = ("worst_support", "worst_dual_cone", "worst_defect")


# ---------------------------------------------------------------------------
# the per-node reference


def _ref_same_tree(t1, t2):
    return t1 is t2 or (t1.n_nodes == t2.n_nodes
                        and np.array_equal(t1.parent, t2.parent)
                        and np.array_equal(t1.state, t2.state))


def ref_supermartingale_defect(dual, y, tree=None):
    if tree is None:
        tree = y.tree
    if not (_ref_same_tree(tree, y.tree) and _ref_same_tree(tree, dual.tree)):
        raise ValueError("plan and dual live on different trees")
    if dual.n != y.n:
        raise ValueError("plan and dual disagree on dimension: "
                         f"{y.n} vs {dual.n}")
    out = {}
    for v in range(1, tree.n_nodes):
        ahead = float(dual.expected_next(v) @ y.x[v])
        now = float(dual.prices[v] @ y.x[tree.parent[v]])
        out[v] = ahead - now
    return out


def ref_competitor_plans(plan, cone_table, count, seed):
    tree = plan.tree
    n = plan.n
    cones = [None] + [cone_table.resolve(*tree.transition_label(v))
                      for v in range(1, tree.n_nodes)]

    def roll(direction_of):
        y = np.zeros((tree.n_nodes, n))
        y[0] = plan.x[0]
        for v in range(1, tree.n_nodes):
            d = direction_of(v)
            t = boundary_scale(cones[v], y[tree.parent[v]], d)
            if not np.isfinite(t) or t <= 0.0:
                raise ValueError(
                    f"competitor wealth collapsed at node {v}; "
                    "the cone table admits a zero-growth direction"
                )
            y[v] = t * d
        return ContingentPlan(tree, y, units=plan.units)

    out = []
    for i in range(n):
        e_i = np.zeros(n)
        e_i[i] = 1.0
        out.append((f"hold-{i}", roll(lambda v: e_i)))
    decay = 0.9 ** tree.depth.astype(float)
    out.append(("dispose-10",
                ContingentPlan(tree, plan.x * decay[:, None],
                               units=plan.units)))
    rng = np.random.default_rng(seed)
    for k in range(count):
        draws = rng.dirichlet(np.ones(n), size=tree.n_nodes)
        out.append((f"random-{k}", roll(lambda v: draws[v])))
    return out


def ref_check_rapid(plan, dual, cone_table, tol=1e-6, defect_tol=1e-8,
                    competitors=100, seed=0):
    """The parent's ``check_rapid(...).to_dict()``."""
    tree = plan.tree
    node_support = {}
    node_dual = {}
    for v in range(1, tree.n_nodes):
        node_support[v] = abs(float(dual.prices[v] @ plan.x[tree.parent[v]])
                              - 1.0)
        cone = cone_table.resolve(*tree.transition_label(v))
        node_dual[v] = dual_violation(cone, dual.prices[v],
                                      dual.expected_next(v))

    node_defect = {v: -np.inf for v in range(1, tree.n_nodes)}
    for _name, y in ref_competitor_plans(plan, cone_table, competitors,
                                         seed):
        for v, d in ref_supermartingale_defect(dual, y).items():
            if d > node_defect[v]:
                node_defect[v] = d

    support = max(node_support.values())
    dual_res = max(0.0, max(node_dual.values()))
    defect = max(node_defect.values())
    ok = support <= tol and dual_res <= tol and defect <= defect_tol
    return {
        "support_residual": support,
        "dual_cone_residual": dual_res,
        "supermartingale_defect": defect,
        "tol": tol,
        "defect_tol": defect_tol,
        "verdict": "pass" if ok else "fail",
        "competitors": plan.n + 1 + competitors,
        "seed": seed,
        "node_support": {str(v): r for v, r in node_support.items()},
        "node_dual_cone": {str(v): r for v, r in node_dual.items()},
        "node_defect": {str(v): r for v, r in node_defect.items()},
    }


# ---------------------------------------------------------------------------
# cases


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


def skew2():
    return ConeTable({"*->U": ConeSpec.frictionless([1.0, 2.0]),
                      "*->D": ConeSpec.frictionless([1.0, 0.5])})


def skew3():
    returns = {"A": [1.0, 1.1], "B": [1.0, 0.6], "C": [1.0, 1.5]}
    return ConeTable({f"*->{s}": ConeSpec.proportional_tc(r, 0.01, 0.02)
                      for s, r in returns.items()})


# (name, tree, table); 7-63 nodes
CASES = [
    ("frictionless-n2", build_tree(COIN, 4), frictionless(2)),
    ("frictionless-n3", build_tree(COIN, 3), frictionless(3)),
    ("proportional_tc-n2", build_tree(COIN, 4), costly(2)),
    ("proportional_tc-n3", build_tree(COIN, 3), costly(3)),
    ("currency-n2", build_tree(COIN, 3), currency(2)),
    ("currency-n3", build_tree(COIN, 2), currency(3)),
    ("mixed", build_tree(COIN, 3), mixed()),
    ("pinned-root", build_tree(COIN, 3, root_state="D"), costly(2)),
    ("pruned", build_tree(PRUNED, 3), pruned_table()),
    ("pruned-pinned", build_tree(PRUNED, 3, root_state="B"),
     pruned_table()),
    ("skew2", build_tree(SKEW2, 5), skew2()),
    ("skew3", build_tree(SKEW3, 3), skew3()),
]
IDS = [c[0] for c in CASES]

_SOLVED = {}


def solved(name, tree, table):
    if name not in _SOLVED:
        _SOLVED[name] = solve_tree_log_optimal(
            tree, table, np.linspace(1.0, 0.5, table.n))
    return _SOLVED[name]


def perturbed(dual, seed):
    """A dual off the least one, so residuals and defects are nonzero."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.8, 1.2, dual.prices.shape)
    return DualPlan(dual.tree, dual.prices * scale,
                    dual.terminal * rng.uniform(0.8, 1.2,
                                                dual.terminal.shape))


def exact_json(d):
    # float repr is exact and keeps the sign of zero
    return json.dumps(d, sort_keys=True)


def without_new_fields(rep):
    d = rep.to_dict()
    for key in NEW_FIELDS:
        d.pop(key)
    return d


def assert_same_report(plan, dual, table, **kw):
    got = check_rapid(plan, dual, table, **kw)
    ref = ref_check_rapid(plan, dual, table, **kw)
    assert exact_json(without_new_fields(got)) == exact_json(ref)
    return got


# ---------------------------------------------------------------------------
# reports


@pytest.mark.parametrize("name, tree, table", CASES, ids=IDS)
def test_report_matches_the_loop(name, tree, table):
    res = solved(name, tree, table)
    assert_same_report(res.plan, res.dual, table, competitors=20, seed=3)
    bad = perturbed(res.dual, 5)
    rep = assert_same_report(res.plan, bad, table, competitors=20, seed=0)
    assert rep.supermartingale_defect > 0.0
    assert rep.dual_cone_residual > 0.0


def test_zero_prices_match_the_loop():
    # exact zeros make ties between signed zeros: a dual-cone value of
    # -0.0 (a zero price) against +0.0 (a zero ray value)
    for name, tree, table in (CASES[1], CASES[5], CASES[8]):
        dual = solved(name, tree, table).dual
        zero = DualPlan(tree, np.zeros_like(dual.prices),
                        np.zeros_like(dual.terminal))
        rep = assert_same_report(solved(name, tree, table).plan, zero,
                                 table, competitors=4)
        assert exact_json(rep.dual_cone_residual) == "0.0"
        assert "-0.0" in exact_json(rep.to_dict()["node_dual_cone"])
        prices = dual.prices.copy()
        prices[:, 0] = 0.0
        assert_same_report(solved(name, tree, table).plan,
                           DualPlan(tree, prices, dual.terminal), table,
                           competitors=4)


@pytest.mark.parametrize("competitors, seed", [(0, 0), (1, 9), (-2, 4)])
def test_competitor_counts_match_the_loop(competitors, seed):
    name, tree, table = CASES[4]
    res = solved(name, tree, table)
    if competitors < 0:
        # the loop rolls no random plan for a negative count and reports
        # n + 1 + count competitors, fewer than it rolled; check_rapid
        # refuses the count
        with pytest.raises(ValueError, match="competitors must be >= 0, "
                                             f"got {competitors}"):
            check_rapid(res.plan, res.dual, table, competitors=competitors,
                        seed=seed)
        return
    assert_same_report(res.plan, res.dual, table, competitors=competitors,
                       seed=seed)


def test_benchmark_sized_report_matches_the_loop():
    # 100 competitors, the default, on one small tree of each budget
    # family and on the currency/tc mix
    for name, tree, table in (CASES[0], CASES[3], CASES[6]):
        res = solved(name, tree, table)
        assert_same_report(res.plan, res.dual, table)


def test_more_than_one_chunk_matches_the_loop():
    tree = build_tree(COIN, 7)
    table = costly(2)
    n, competitors = table.n, 130
    rows = max(c.facets[0].shape[0] for c in table.values())
    width = int(np.diff(tree.depth_start).max())
    per_plan = max(tree.n_nodes * n, width * rows)
    # the rolled plans (hold-i and random-k) fill more than one chunk
    assert (n + competitors) * per_plan > certify._CHUNK_ELEMENTS
    assert certify._CHUNK_ELEMENTS // per_plan < n + competitors
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    assert_same_report(res.plan, perturbed(res.dual, 2), table,
                       competitors=competitors, seed=11)


def test_supermartingale_defect_matches_the_loop():
    for name, tree, table in CASES:
        res = solved(name, tree, table)
        dual = perturbed(res.dual, 1)
        y = ContingentPlan(tree, res.plan.x * 0.9 ** tree.depth[:, None])
        for plan in (res.plan, y):
            got = supermartingale_defect(dual, plan)
            ref = ref_supermartingale_defect(dual, plan)
            assert list(got) == list(ref)
            assert exact_json(list(got.values())) == \
                exact_json(list(ref.values()))


def test_expected_next_rows_match_the_per_node_values():
    for name, tree, table in CASES:
        dual = perturbed(solved(name, tree, table).dual, 3)
        rows = dual.expected_next_rows()
        for v in range(tree.n_nodes):
            assert np.array_equal(rows[v], dual.expected_next(v))


# ---------------------------------------------------------------------------
# collapsed competitors


def collapsing_case(x0):
    # D steps cannot sell asset 0: from a root holding only asset 0 no
    # competitor reaches asset 1 at the first D node (node 2)
    table = ConeTable({"*->U": ConeSpec.frictionless([1.0, 1.5]),
                       "*->D": ConeSpec.proportional_tc([1.0, 1.0],
                                                        0.0, [1.0, 0.0])})
    tree = build_tree(COIN, 3)
    x = np.ones((tree.n_nodes, 2))
    x[0] = x0
    plan = ContingentPlan(tree, x)
    dual = DualPlan(tree, np.full((tree.n_nodes, 2), 0.5),
                    np.full((tree.leaves().size, 2), 0.4))
    return plan, dual, table


def test_collapse_raises_the_same_error():
    plan, dual, table = collapsing_case([1.0, 0.0])
    with pytest.raises(ValueError) as ref:
        ref_check_rapid(plan, dual, table, competitors=5)
    with pytest.raises(ValueError) as got:
        check_rapid(plan, dual, table, competitors=5)
    assert str(got.value) == str(ref.value)
    assert "collapsed at node 2;" in str(got.value)
    # holding both assets at the root, nobody collapses
    plan, dual, table = collapsing_case([1.0, 1.0])
    assert_same_report(plan, dual, table, competitors=5)


def test_collapse_names_the_first_competitor_not_the_first_node():
    # plan 0 collapses at node 6 (depth 2), plan 1 at node 2 (depth 1):
    # the error names plan 0's node, as rolling them in order would
    plan, _, table = collapsing_case([1.0, 0.0])
    tree = plan.tree
    by_depth = _by_depth(tree, _group_edges(tree, table))
    dirs = np.zeros((2, tree.n_nodes, 2))
    dirs[0, :, 0] = 1.0
    dirs[0, 6] = [0.0, 1.0]  # D after D, holding asset 0 only
    dirs[1, :, 1] = 1.0
    with pytest.raises(ValueError, match="collapsed at node 6;"):
        certify._roll(plan.x[0], dirs, by_depth)
    with pytest.raises(ValueError, match="collapsed at node 2;"):
        certify._roll(plan.x[0], dirs[1:], by_depth)


# ---------------------------------------------------------------------------
# the running maximum over competitors


def test_running_max_matches_the_loop():
    rng = np.random.default_rng(0)
    pool = np.array([-np.inf, np.nan, -0.0, 0.0, 1.0, -1.0, 2.0])
    for _ in range(200):
        k, m = rng.integers(0, 6), rng.integers(1, 5)
        best = rng.choice(pool, size=m)
        values = rng.choice(pool, size=(k, m))
        ref = best.copy()
        for row in values:
            for j, d in enumerate(row):
                if d > ref[j]:
                    ref[j] = d
        got = certify._running_max(best, values)
        assert exact_json(got.tolist()) == exact_json(ref.tolist())


# ---------------------------------------------------------------------------
# worst nodes


@pytest.mark.parametrize("name, tree, table", CASES, ids=IDS)
def test_worst_nodes_are_the_argmax(name, tree, table):
    res = solved(name, tree, table)
    rep = check_rapid(res.plan, perturbed(res.dual, 7), table,
                      competitors=10, seed=2)
    for key, nodes in (("worst_support", rep.node_support),
                       ("worst_dual_cone", rep.node_dual_cone),
                       ("worst_defect", rep.node_defect)):
        worst = getattr(rep, key)
        top = max(nodes.values())
        v = min(u for u, r in nodes.items() if r == top)
        assert worst["node"] == v
        assert worst["residual"] == nodes[v]
        path = [v]
        while tree.parent[path[0]] >= 0:
            path.insert(0, int(tree.parent[path[0]]))
        labels = [tree.spec.states[tree.state[u]] if tree.state[u] >= 0
                  else "*" for u in path]
        assert worst["path"] == labels
        assert rep.to_dict()[key] == worst
    assert rep.worst_support["residual"] == rep.support_residual
    assert rep.worst_defect["residual"] == rep.supermartingale_defect
    assert max(0.0, rep.worst_dual_cone["residual"]) == \
        rep.dual_cone_residual


def test_worst_path_starts_at_a_pinned_root():
    name, tree, table = CASES[7]
    res = solved(name, tree, table)
    rep = check_rapid(res.plan, res.dual, table, competitors=3)
    assert rep.worst_support["path"][0] == "D"
    assert len(rep.worst_support["path"]) == \
        tree.depth[rep.worst_support["node"]] + 1
