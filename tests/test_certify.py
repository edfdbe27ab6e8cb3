"""Certificate checks and dominance diagnostics."""

import numpy as np
import pytest

from vngale.certify import (
    asymptotic_dominance,
    check_rapid,
    supermartingale_defect,
)
from vngale.cones import ConeSpec, ConeTable
from vngale.plans import BalancedStrategy, ContingentPlan, DualPlan
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import (
    numeraire_dual_frictionless,
    solve_stationary_equilibrium,
    solve_tree_log_optimal,
)

KELLY_RATE = 0.05889151782819171


def coin_spec():
    return MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])


def coin_table(lam=None):
    if lam is None:
        return ConeTable({"*->U": ConeSpec.frictionless([1.0, 2.0]),
                          "*->D": ConeSpec.frictionless([1.0, 0.5])})
    return ConeTable({
        "*->U": ConeSpec.proportional_tc([1.0, 2.0], lam, lam),
        "*->D": ConeSpec.proportional_tc([1.0, 0.5], lam, lam),
    })


def rho_certificate(rho=1.5, T=3):
    """Boundary plan x_t = rho^t with its exact dual p_t = rho^(1-t)."""
    spec = MarkovSpec(["S"], [[1.0]])
    tree = build_tree(spec, horizon=T, root_state="S")
    table = ConeTable({"*->*": ConeSpec.frictionless([rho])})
    x = np.array([[rho ** tree.depth[v]] for v in range(tree.n_nodes)])
    prices = np.array([[rho ** (1.0 - tree.depth[v])]
                       for v in range(tree.n_nodes)])
    prices[0] = 0.0
    term = np.full((1, 1), rho ** -float(T))
    plan = ContingentPlan(tree, x)
    dual = DualPlan(tree, prices, term)
    return tree, table, plan, dual


# ---------------------------------------------------------------------------
# check_rapid


def test_boundary_certificate_passes_exactly():
    tree, table, plan, dual = rho_certificate()
    report = check_rapid(plan, dual, table, competitors=10)
    assert report.verdict == "pass"
    assert report.passed
    assert report.support_residual <= 1e-12
    assert report.dual_cone_residual <= 1e-12
    assert report.supermartingale_defect <= 1e-12
    assert set(report.node_support) == set(range(1, tree.n_nodes))


def test_solver_certificate_passes():
    tree = build_tree(coin_spec(), horizon=3)
    table = coin_table()
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    report = check_rapid(res.plan, res.dual, table)
    assert report.verdict == "pass"
    assert report.support_residual <= 1e-6
    assert report.dual_cone_residual <= 1e-6
    assert report.supermartingale_defect <= 1e-8


def test_numeraire_certificate_passes():
    tree = build_tree(coin_spec(), horizon=2)
    table = coin_table()
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5],
                                 extract_dual=False)
    dual = numeraire_dual_frictionless(res.plan, table)
    report = check_rapid(res.plan, dual, table, competitors=20)
    assert report.verdict == "pass"


def test_scaled_dual_fails_support_only():
    tree, table, plan, dual = rho_certificate()
    bumped = np.array(dual.prices)
    bumped[1] *= 1.01
    report = check_rapid(plan, DualPlan(tree, bumped, dual.terminal),
                         table, competitors=5)
    assert report.verdict == "fail"
    assert report.support_residual == pytest.approx(0.01, abs=1e-12)
    assert report.node_support[1] == pytest.approx(0.01, abs=1e-12)


def test_uniform_rescaling_asymmetry():
    # doubling every price and terminal keeps cone membership and defect
    # signs (conic homogeneity) but destroys the support normalization
    tree, table, plan, dual = rho_certificate()
    doubled = DualPlan(tree, 2.0 * np.array(dual.prices),
                       2.0 * np.array(dual.terminal))
    report = check_rapid(plan, doubled, table, competitors=10)
    assert report.dual_cone_residual <= 1e-12
    assert report.supermartingale_defect <= 1e-12
    assert report.support_residual == pytest.approx(1.0, abs=1e-12)
    assert report.verdict == "fail"


def test_certificates_for_costly_and_currency_markets():
    tree = build_tree(coin_spec(), horizon=2)
    tc = coin_table(0.05)
    res = solve_tree_log_optimal(tree, tc, [0.5, 0.5])
    assert check_rapid(res.plan, res.dual, tc, competitors=10).passed

    cur = ConeTable({"*->*": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]])})
    res2 = solve_tree_log_optimal(tree, cur, [1.0, 1.0])
    assert check_rapid(res2.plan, res2.dual, cur, competitors=10).passed


def test_check_rapid_input_errors():
    tree, table, plan, dual = rho_certificate()
    with pytest.raises(ValueError):
        check_rapid(plan, None, table)
    other_tree, _, _, other_dual = rho_certificate(T=2)
    with pytest.raises(ValueError):
        check_rapid(plan, other_dual, table)
    wide = ContingentPlan(tree, np.ones((tree.n_nodes, 2)))
    with pytest.raises(ValueError):
        check_rapid(wide, dual, table)


def test_report_is_deterministic_and_serializable():
    tree = build_tree(coin_spec(), horizon=2)
    table = coin_table()
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    a = check_rapid(res.plan, res.dual, table, competitors=30, seed=11)
    b = check_rapid(res.plan, res.dual, table, competitors=30, seed=11)
    assert a.to_dict() == b.to_dict()
    d = a.to_dict()
    assert d["verdict"] == "pass"
    assert d["competitors"] == 2 + 1 + 30
    assert set(d["node_support"]) == {str(v)
                                      for v in range(1, tree.n_nodes)}


def test_tight_tolerance_flips_verdict():
    tree = build_tree(coin_spec(), horizon=2)
    table = coin_table()
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    report = check_rapid(res.plan, res.dual, table, tol=1e-16,
                         competitors=5)
    assert report.verdict == "fail"


# ---------------------------------------------------------------------------
# supermartingale defects


def test_defect_zero_on_boundary_plan():
    tree, table, plan, dual = rho_certificate()
    defects = supermartingale_defect(dual, plan)
    assert set(defects) == set(range(1, tree.n_nodes))
    assert all(abs(d) <= 1e-14 for d in defects.values())


def test_disposal_gives_strictly_negative_defects():
    tree, table, plan, dual = rho_certificate()
    y = ContingentPlan(tree, plan.x * (0.9 ** tree.depth)[:, None])
    defects = supermartingale_defect(dual, y)
    assert all(d < -1e-3 for d in defects.values())


def test_zero_dual_gives_zero_defects():
    tree, table, plan, dual = rho_certificate()
    zero = DualPlan(tree, np.zeros_like(dual.prices),
                    np.zeros_like(dual.terminal))
    defects = supermartingale_defect(zero, plan)
    assert all(d == 0.0 for d in defects.values())
    # while the support condition catches the degeneracy
    report = check_rapid(plan, zero, table, competitors=3)
    assert report.support_residual == pytest.approx(1.0)
    assert report.verdict == "fail"


def test_defect_shape_errors():
    tree, table, plan, dual = rho_certificate()
    other_tree, _, other_plan, _ = rho_certificate(T=2)
    with pytest.raises(ValueError):
        supermartingale_defect(dual, other_plan)
    with pytest.raises(ValueError):
        supermartingale_defect(dual, plan, other_tree)


# ---------------------------------------------------------------------------
# dominance diagnostics


def test_identical_competitor_ties_everywhere():
    spec = coin_spec()
    table = coin_table()
    eq = solve_stationary_equilibrium(spec, table, starts=4)
    rep = asymptotic_dominance(eq, spec, table, competitors=0, length=50,
                               paths=20, include={"copy": eq.strategy})
    row = next(r for r in rep.rows if r["competitor"] == "copy")
    assert row["mean_gap"] == pytest.approx(0.0, abs=1e-15)
    assert row["se_gap"] == pytest.approx(0.0, abs=1e-15)
    assert row["mean_max_ratio"] == pytest.approx(1.0)
    assert row["worst_max_ratio"] == pytest.approx(1.0)
    assert row["stabilized_fraction"] == 1.0


def test_single_asset_disposal_gap_is_exact():
    spec = MarkovSpec(["S"], [[1.0]])
    table = ConeTable({"*->*": ConeSpec.frictionless([1.2])})
    eq = solve_stationary_equilibrium(spec, table, starts=2)
    rep = asymptotic_dominance(eq, spec, table, competitors=0, length=40,
                               paths=5)
    assert rep.strategy_growth == pytest.approx(np.log(1.2), abs=1e-9)
    row = next(r for r in rep.rows if r["competitor"] == "dispose-10")
    assert row["mean_gap"] == pytest.approx(np.log(1.2) - np.log(1.08),
                                            abs=1e-9)
    assert row["se_gap"] == pytest.approx(0.0, abs=1e-12)
    # the wealth ratio 0.9^t peaks at the very start and only decays
    assert row["worst_max_ratio"] == pytest.approx(1.0)
    assert row["stabilized_fraction"] == 1.0


def test_kelly_beats_all_in_risky():
    spec = coin_spec()
    table = coin_table()
    eq = solve_stationary_equilibrium(spec, table)
    rep = asymptotic_dominance(eq, spec, table, competitors=2, length=500,
                               paths=200, seed=3)
    row = next(r for r in rep.rows if r["competitor"] == "hold-1")
    # all-in the risky asset grows at ln2/2 + ln(1/2)/2 = 0 exactly
    assert abs(row["mean_gap"] - KELLY_RATE) <= 3 * row["se_gap"]
    for r in rep.rows:
        assert (r["mean_growth_strategy"]
                >= r["mean_growth_competitor"] - 1e-3)


def test_dominance_deterministic_and_csv_shape():
    spec = coin_spec()
    table = coin_table()
    eq = solve_stationary_equilibrium(spec, table, starts=4)
    a = asymptotic_dominance(eq, spec, table, competitors=3, length=30,
                             paths=10, seed=5)
    b = asymptotic_dominance(eq, spec, table, competitors=3, length=30,
                             paths=10, seed=5)
    assert a.to_dict() == b.to_dict()

    lines = a.to_csv().strip().split("\n")
    assert lines[0] == "competitor,statistic,value"
    # 2 holds + dispose + 3 randoms, 7 statistics each
    assert len(lines) == 1 + 6 * 7
    first = lines[1].split(",")
    assert first[0] == "hold-0"
    assert float(first[2]) == a.rows[0]["mean_growth_strategy"]


def test_dominance_rejects_bad_sizes():
    spec = coin_spec()
    table = coin_table()
    eq = solve_stationary_equilibrium(spec, table, starts=2)
    with pytest.raises(ValueError):
        asymptotic_dominance(eq, spec, table, length=0, paths=10)
    with pytest.raises(ValueError):
        asymptotic_dominance(eq, spec, table, length=10, paths=0)


def test_dominance_rejects_a_negative_competitor_count():
    # a negative count used to run no random competitor at all
    spec = coin_spec()
    table = coin_table()
    eq = solve_stationary_equilibrium(spec, table, starts=2)
    with pytest.raises(ValueError, match="competitors must be >= 0, got -3"):
        asymptotic_dominance(eq, spec, table, competitors=-3, length=10,
                             paths=10)


def test_dominance_accepts_bare_strategy():
    spec = coin_spec()
    table = coin_table()
    strat = BalancedStrategy(x={"U": [0.5, 0.5], "D": [0.5, 0.5]},
                             alpha={"U": 1.5, "D": 0.75})
    rep = asymptotic_dominance(strat, spec, table, competitors=0,
                               length=20, paths=5)
    assert rep.strategy_growth == pytest.approx(
        0.5 * np.log(1.5) + 0.5 * np.log(0.75))
