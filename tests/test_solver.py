"""Tree solver, dual extraction, and stationary equilibria."""

import numpy as np
import pytest

from vngale.cones import (
    ConeSpec,
    ConeTable,
    boundary_scale,
    dual_violation,
    wealth_weights,
)
from vngale.lp import lp_solve
from vngale.plans import BalancedStrategy, is_self_financing
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import (
    EquilibriumResult,
    SolverError,
    extract_equilibrium_prices,
    numeraire_dual_frictionless,
    solve_stationary_equilibrium,
    solve_tree_log_optimal,
)

# one fair coin, returns (1, 2) on U and (1, 1/2) on D; the optimal
# fixed fraction is 1/2 and the growth rate is 0.5 * ln(9/8)
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


def single_state_table(rho=1.2):
    spec = MarkovSpec(["S"], [[1.0]])
    table = ConeTable({"*->*": ConeSpec.frictionless([rho])})
    return spec, table


# ---------------------------------------------------------------------------
# tree solver against closed forms


def test_single_asset_compounds_exactly():
    rho = 1.2
    spec, table = single_state_table(rho)
    tree = build_tree(spec, horizon=3, root_state="S")
    res = solve_tree_log_optimal(tree, table, [1.0])
    assert res.objective == pytest.approx(3 * np.log(rho), abs=1e-10)
    for v in range(tree.n_nodes):
        assert res.plan.x[v, 0] == pytest.approx(rho ** tree.depth[v],
                                                 rel=1e-8)
    assert res.kkt_residual <= 1e-9


def test_coin_model_matches_grid_oracle():
    # one-period value as a function of the risky fraction f, maximized
    # on a grid fine enough to bracket the true optimum
    f = np.arange(0.0, 1.0, 1e-4)
    vals = 0.5 * np.log(1.0 + f) + 0.5 * np.log(1.0 - 0.5 * f)
    grid_best = float(vals.max())
    assert f[int(vals.argmax())] == pytest.approx(0.5, abs=1e-4)

    tree = build_tree(coin_spec(), horizon=2)
    res = solve_tree_log_optimal(tree, coin_table(), [0.5, 0.5])
    per_period = res.objective / 2
    assert per_period >= grid_best - 1e-9
    assert per_period == pytest.approx(KELLY_RATE, abs=1e-8)
    # every pre-terminal portfolio is rebalanced to equal proportions
    for v in range(tree.n_nodes):
        if tree.depth[v] < tree.horizon:
            w = res.plan.x[v].sum()
            assert res.plan.x[v] / w == pytest.approx([0.5, 0.5], abs=1e-5)
    assert res.kkt_residual <= 1e-9


def test_objective_is_expected_terminal_log():
    table = ConeTable({"*->*": ConeSpec.proportional_tc(
        [1.5, 0.8], [0.05, 0.02], [0.1, 0.2])})
    spec = MarkovSpec(["A", "B"], [[0.7, 0.3], [0.4, 0.6]])
    tree = build_tree(spec, horizon=2, root_state="A")
    res = solve_tree_log_optimal(tree, table, [1.0, 1.0],
                                 objective="liquidation")
    w = wealth_weights(table.resolve("A", "A"), "liquidation")
    manual = sum(
        tree.abs_prob[v] * np.log(w @ res.plan.x[v])
        for v in tree.leaves()
    )
    assert res.objective == pytest.approx(manual, rel=1e-12)


def test_returned_plan_is_self_financing():
    tree = build_tree(coin_spec(), horizon=3)
    for table in (coin_table(), coin_table(0.1)):
        res = solve_tree_log_optimal(tree, table, [1.0, 1.0],
                                     extract_dual=False)
        ok, bad = is_self_financing(res.plan, table, tol=1e-8)
        assert ok, bad


def test_friction_brackets_value():
    # heavy costs: the optimum sits between never trading and the
    # frictionless value, strictly below the latter
    tree = build_tree(coin_spec(), horizon=3)
    free = solve_tree_log_optimal(tree, coin_table(), [0.5, 0.5],
                                  extract_dual=False)
    costly = solve_tree_log_optimal(tree, coin_table(0.5), [0.5, 0.5],
                                    extract_dual=False)
    R = {"U": np.array([1.0, 2.0]), "D": np.array([1.0, 0.5])}
    hold = 0.0
    for v in tree.leaves():
        wealth = np.array([0.5, 0.5])
        u = v
        factors = np.ones(2)
        while tree.parent[u] >= 0:
            factors = factors * R[tree.state_label(u)]
            u = tree.parent[u]
        hold += tree.abs_prob[v] * np.log(wealth @ factors)
    assert costly.objective >= hold - 1e-7
    assert costly.objective <= free.objective - 1e-3


def test_objective_nonincreasing_in_costs():
    tree = build_tree(coin_spec(), horizon=3)
    objs = []
    for lam in (0.0, 0.01, 0.05, 0.2):
        res = solve_tree_log_optimal(tree, coin_table(lam), [0.5, 0.5],
                                     extract_dual=False)
        objs.append(res.objective)
    free = solve_tree_log_optimal(tree, coin_table(), [0.5, 0.5],
                                  extract_dual=False)
    assert objs[0] == pytest.approx(free.objective, abs=1e-9)
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-10


def test_value_is_log_homogeneous():
    tree = build_tree(coin_spec(), horizon=2)
    base = solve_tree_log_optimal(tree, coin_table(), [0.6, 0.2])
    scaled = solve_tree_log_optimal(tree, coin_table(),
                                    [3 * 0.6, 3 * 0.2])
    assert scaled.objective - base.objective == pytest.approx(np.log(3.0),
                                                              abs=1e-9)
    assert np.allclose(scaled.plan.x, 3.0 * base.plan.x, rtol=1e-7)


def test_start_dependence_vanishes_with_horizon():
    # from a lopsided start the per-period value lags the optimal rate
    # by exactly (rate - first-period value) / T: one rebalancing step
    # recovers the optimal proportions, frictionlessly
    x0 = np.array([0.9, 0.1])
    first = 0.5 * (np.log(np.array([1.0, 2.0]) @ x0)
                   + np.log(np.array([1.0, 0.5]) @ x0))
    gaps = []
    for T in (4, 8):
        tree = build_tree(coin_spec(), horizon=T)
        res = solve_tree_log_optimal(tree, coin_table(), x0,
                                     extract_dual=False)
        gap = KELLY_RATE - res.objective / T
        assert gap == pytest.approx((KELLY_RATE - first) / T, abs=1e-8)
        gaps.append(gap)
    assert gaps[1] < gaps[0]


def test_solve_is_deterministic():
    tree = build_tree(coin_spec(), horizon=3)
    a = solve_tree_log_optimal(tree, coin_table(), [1.0, 1.0])
    b = solve_tree_log_optimal(tree, coin_table(), [1.0, 1.0])
    assert np.array_equal(a.plan.x, b.plan.x)
    assert np.array_equal(a.dual.prices, b.dual.prices)
    assert a.objective == b.objective


# ---------------------------------------------------------------------------
# dual certificates from the solver


def test_dual_supports_the_plan():
    tree = build_tree(coin_spec(), horizon=3)
    res = solve_tree_log_optimal(tree, coin_table(), [0.5, 0.5])
    assert res.kkt_residual <= 1e-9
    for v in range(1, tree.n_nodes):
        prod = res.dual.vec(v) @ res.plan.x[tree.parent[v]]
        assert prod == pytest.approx(1.0, abs=1e-8)


def test_deflated_competitors_are_supermartingales():
    # any self-financing plan, deflated by the extracted prices, must
    # drift downward node by node
    tree = build_tree(coin_spec(), horizon=3)
    table = coin_table()
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = np.zeros((tree.n_nodes, 2))
        y[0] = rng.uniform(0.2, 1.5, size=2)
        for v in range(1, tree.n_nodes):
            cone = table.resolve(*tree.transition_label(v))
            direction = rng.dirichlet([1.0, 1.0])
            t = 0.9 * boundary_scale(cone, y[tree.parent[v]], direction)
            y[v] = t * direction
        for v in range(1, tree.n_nodes):
            ahead = res.dual.expected_next(v) @ y[v]
            now = res.dual.vec(v) @ y[tree.parent[v]]
            assert ahead <= now + 1e-7


def test_dual_skippable():
    tree = build_tree(coin_spec(), horizon=2)
    res = solve_tree_log_optimal(tree, coin_table(), [1.0, 1.0],
                                 extract_dual=False)
    assert res.dual is None
    assert np.isnan(res.kkt_residual)


def test_numeraire_dual_is_exact_at_the_optimum():
    tree = build_tree(coin_spec(), horizon=2)
    table = coin_table()
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5],
                                 extract_dual=False)
    dual = numeraire_dual_frictionless(res.plan, table)
    for v in range(1, tree.n_nodes):
        assert dual.vec(v) @ res.plan.x[tree.parent[v]] == pytest.approx(
            1.0, abs=1e-12)
        cone = table.resolve(*tree.transition_label(v))
        assert dual_violation(cone, dual.vec(v),
                              dual.expected_next(v)) <= 1e-9


def test_numeraire_dual_needs_frictionless_cones():
    tree = build_tree(coin_spec(), horizon=2)
    res = solve_tree_log_optimal(tree, coin_table(0.05), [0.5, 0.5],
                                 extract_dual=False)
    with pytest.raises(ValueError):
        numeraire_dual_frictionless(res.plan, coin_table(0.05))


# ---------------------------------------------------------------------------
# currency markets


def currency_table():
    return ConeTable({"*->*": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]])})


def test_currency_one_period_value():
    # best conversion sends each unit where its rate is highest; the
    # same value comes out of an explicit transport program
    mu = np.array([[1.0, 1.2], [0.7, 1.0]])
    a = np.array([1.0, 1.0])
    analytic = float(a @ mu.max(axis=0))

    # variables (b, vec D): maximize sum(b) over the feasible exchanges
    n = 2
    nv = n + n * n
    c = np.zeros(nv)
    c[:n] = 1.0
    A, rhs = [], []
    for i in range(n):
        row = np.zeros(nv)
        row[i] = 1.0
        row[n + i * n: n + (i + 1) * n] = -mu[i]
        A.append(row)
        rhs.append(0.0)
    for j in range(n):
        row = np.zeros(nv)
        row[n + np.arange(n) * n + j] = 1.0
        A.append(row)
        rhs.append(a[j])
    lp = lp_solve(c, A_ub=np.array(A), b_ub=np.array(rhs), maximize=True)
    assert lp.objective == pytest.approx(analytic, abs=1e-10)

    spec = coin_spec()
    tree = build_tree(spec, horizon=1)
    res = solve_tree_log_optimal(tree, currency_table(), a)
    assert res.plan.units == "physical"
    assert res.objective == pytest.approx(np.log(analytic), abs=1e-7)
    assert res.kkt_residual <= 1e-8


def test_currency_round_trips_never_pay():
    # both round-trip products are below one, so extra periods add
    # nothing beyond the single best conversion
    spec = coin_spec()
    one = solve_tree_log_optimal(build_tree(spec, horizon=1),
                                 currency_table(), [1.0, 1.0],
                                 extract_dual=False)
    three = solve_tree_log_optimal(build_tree(spec, horizon=3),
                                   currency_table(), [1.0, 1.0],
                                   extract_dual=False)
    assert three.objective == pytest.approx(one.objective, abs=1e-7)


# ---------------------------------------------------------------------------
# terminal objectives


def test_liquidation_shifts_value_by_uniform_haircut():
    # with a uniform selling cost the two objectives differ by a
    # constant and share the same plan
    table = ConeTable({"*->*": ConeSpec.proportional_tc(
        [2.0, 1.0], [0.1, 0.1], [0.2, 0.2])})
    spec = MarkovSpec(["S"], [[1.0]])
    tree = build_tree(spec, horizon=2, root_state="S")
    wealth = solve_tree_log_optimal(tree, table, [1.0, 1.0],
                                    extract_dual=False)
    liq = solve_tree_log_optimal(tree, table, [1.0, 1.0],
                                 objective="liquidation",
                                 extract_dual=False)
    assert liq.objective - wealth.objective == pytest.approx(np.log(0.8),
                                                             abs=1e-8)
    assert np.allclose(liq.plan.x, wealth.plan.x, rtol=1e-6, atol=1e-9)


def test_solver_rejects_bad_inputs():
    tree = build_tree(coin_spec(), horizon=1)
    table = coin_table()
    with pytest.raises(SolverError):
        solve_tree_log_optimal(tree, table, [0.0, 1.0])
    with pytest.raises(SolverError):
        solve_tree_log_optimal(tree, table, [np.nan, 1.0])
    with pytest.raises(ValueError):
        solve_tree_log_optimal(tree, table, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        solve_tree_log_optimal(tree, table, [1.0, 1.0], objective="median")
    dead = ConeTable({"*->*": ConeSpec.proportional_tc([1.0, 1.0],
                                                       0.0, 1.0)})
    with pytest.raises(SolverError):
        solve_tree_log_optimal(tree, dead, [1.0, 1.0])


# ---------------------------------------------------------------------------
# stationary equilibria


def test_stationary_coin_model():
    eq = solve_stationary_equilibrium(coin_spec(), coin_table())
    assert eq.log_growth == pytest.approx(KELLY_RATE, abs=1e-8)
    for s in ("U", "D"):
        assert np.asarray(eq.strategy.x[s]) == pytest.approx([0.5, 0.5],
                                                             abs=1e-5)
    assert eq.certificate_residual <= 1e-9
    assert eq.stationary == {"U": pytest.approx(0.5),
                             "D": pytest.approx(0.5)}


def test_stationary_needs_a_start():
    # starts=0 used to run the uniform start anyway
    for starts in (0, -1):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            solve_stationary_equilibrium(coin_spec(), coin_table(),
                                         starts=starts)


def test_stationary_single_asset():
    spec, table = single_state_table(1.2)
    eq = solve_stationary_equilibrium(spec, table, starts=4)
    assert eq.strategy.alpha["S"] == pytest.approx(1.2, abs=1e-10)
    assert eq.log_growth == pytest.approx(np.log(1.2), abs=1e-10)
    assert eq.certificate_residual <= 1e-9


def test_stationary_small_friction_stays_close():
    eq = solve_stationary_equilibrium(coin_spec(), coin_table(1e-4))
    assert abs(eq.log_growth - KELLY_RATE) <= 1e-3
    assert eq.log_growth < KELLY_RATE


def test_stationary_currency_cannot_grow():
    # no round trip gains, so the best balanced strategy only holds
    spec = MarkovSpec(["S"], [[1.0]])
    eq = solve_stationary_equilibrium(spec, currency_table(), starts=4)
    assert eq.log_growth == pytest.approx(0.0, abs=1e-9)
    assert eq.strategy.alpha["S"] == pytest.approx(1.0, abs=1e-9)
    assert eq.certificate_residual <= 1e-7


def test_stationary_is_deterministic():
    a = solve_stationary_equilibrium(coin_spec(), coin_table(), starts=8)
    b = solve_stationary_equilibrium(coin_spec(), coin_table(), starts=8)
    assert a.to_dict() == b.to_dict()


def test_equilibrium_round_trip():
    eq = solve_stationary_equilibrium(coin_spec(), coin_table(), starts=4)
    again = EquilibriumResult.from_dict(eq.to_dict())
    assert again.log_growth == eq.log_growth
    assert again.strategy.alpha == eq.strategy.alpha
    for s in ("U", "D"):
        assert np.allclose(again.prices[s], eq.prices[s])


def test_unbalanced_proportions_admit_no_price():
    # holding (0.9, 0.1) in every state is feasible but not supported:
    # the price feasibility program reports a clearly positive residual
    x = np.array([0.9, 0.1])
    alpha = {"U": float(np.array([1.0, 2.0]) @ x),
             "D": float(np.array([1.0, 0.5]) @ x)}
    strat = BalancedStrategy(x={"U": x, "D": x}, alpha=alpha)
    _, residual = extract_equilibrium_prices(strat, coin_spec(),
                                             coin_table())
    assert residual > 1e-3


def test_iid_three_state_chain_is_priced_at_the_default_starts():
    # the dense price LP failed its final-basis check here at 32 starts
    row = np.array([0.2, 0.5, 0.3])
    R = np.array([[1.0, 1.3, 0.9], [1.0, 0.8, 1.2], [1.0, 1.1, 1.05]])
    spec = MarkovSpec(["A", "B", "C"], [row] * 3)
    table = ConeTable({f"*->{s}": ConeSpec.frictionless(r)
                       for s, r in zip(spec.states, R)})
    # Kelly growth of the row by Cover's multiplicative update
    x = np.full(3, 1.0 / 3.0)
    for _ in range(2000):
        x = x * ((row / (R @ x)) @ R)
    kelly = float(row @ np.log(R @ x))
    eq = solve_stationary_equilibrium(spec, table)
    assert kelly == pytest.approx(0.0847, abs=1e-4)
    assert eq.log_growth == pytest.approx(kelly, abs=1e-6)
    assert eq.certificate_residual <= 1e-7


def test_stationary_solves_an_absorbing_chain():
    # every path ends in state 5, whose stationary weight is 1; its
    # growth factor is the least over its predecessors, so the best
    # strategy holds the asset with the largest return into 5 everywhere
    # (the transient states are not priced, so the residual is not checked)
    P = [[0.1, 0, 0, 0, 0, 0.9],
         [0, 0.43, 0.43, 0, 0, 0.14],
         [0, 0, 0.99994, 0, 0.00006, 0],
         [0, 0, 0, 0.1, 0.9, 0],
         [0, 0, 0, 0, 0.003, 0.997],
         [0, 0, 0, 0, 0, 1]]
    spec = MarkovSpec([str(i) for i in range(6)], P)
    R = np.array([[1.0, 1.3, 0.7], [1.0, 0.8, 1.2], [1.0, 1.1, 0.9],
                  [1.0, 1.4, 0.6], [1.0, 0.9, 1.5], [1.0, 1.25, 0.9]])
    table = ConeTable({f"*->{s}": ConeSpec.frictionless(r)
                       for s, r in zip(spec.states, R)})
    eq = solve_stationary_equilibrium(spec, table, starts=4)
    assert eq.stationary["5"] == pytest.approx(1.0, abs=1e-12)
    assert eq.log_growth == pytest.approx(np.log(R[5].max()), abs=1e-6)


def test_stationary_rejects_degenerate_cones():
    dead = ConeTable({"*->*": ConeSpec.proportional_tc([1.0, 1.0],
                                                       0.0, 1.0)})
    with pytest.raises(SolverError):
        solve_stationary_equilibrium(coin_spec(), dead)
