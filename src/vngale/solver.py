"""Log-optimal plans on scenario trees and stationary balanced strategies.

The tree solver maximizes expected terminal log value over self-financing
plans.  Every tree edge gets linear inequality rows from its cone: the
cone's budget rows when it has them (``w . b <= w . (R * a)``), otherwise
availability and delivery rows over an ``n * n`` exchange-matrix lift
built from the exchange matrix ``G``.  The feasible set is polyhedral and
the program is concave with a tree-structured Hessian.  It is solved by a
log-barrier interior-point method whose Newton systems are eliminated
leaf-to-root, one depth at a time in batches: each node's block couples
only its parent.  Every node carries the same number of variables, its
portfolio plus the widest lift in the tree; a lift-free node gets an
identity lift block and a zero gradient, so its lift step is exactly 0.
Steps are linear-time in the node count.  Barrier iterates are strictly
feasible, so the returned plan is exactly self-financing.

Dual prices are recovered afterwards by a feasibility linear program:
minimize the single largest violation of the support conditions
(price times predecessor portfolio equal to one) and of the dual-cone
rows ``G[i, j] d_i <= c_j`` across the tree.  The optimal slack is
reported as ``kkt_residual``; zero certifies the plan globally optimal,
since any exactly-supporting dual makes every competitor's deflated
wealth a supermartingale.

The stationary solver searches over per-state simplex proportions with a
seeded multistart pattern search, growth factors being recovered per
transition as the largest feasible scale toward the destination
proportions; supporting state prices come from the analogous stationary
feasibility program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import (
    CURRENCY,
    FRICTIONLESS,
    ConeSpec,
    _boundary_scale,
    _exchange_rows,
    boundary_scale,
    dual_cone_rows,
    validate_assumptions,
    wealth_weights,
)
from .lp import lp_solve, LPError
from .plans import BalancedStrategy, ContingentPlan, DualPlan
from .scenario import MarkovSpec, ScenarioTree

__all__ = [
    "SolverError",
    "TreeSolveResult",
    "EquilibriumResult",
    "solve_tree_log_optimal",
    "solve_stationary_equilibrium",
    "extract_equilibrium_prices",
    "numeraire_dual_frictionless",
]

_WEALTH_FLOOR = 1e-300


class SolverError(RuntimeError):
    """Raised when optimization cannot meet its contract."""


@dataclass(frozen=True)
class TreeSolveResult:
    """Solution of the finite-horizon program.

    objective     expected terminal log value, exact tree arithmetic
    kkt_residual  optimal uniform slack of the dual feasibility program
                  (0 certifies global optimality); NaN when dual
                  extraction was skipped
    """

    plan: ContingentPlan
    dual: DualPlan | None
    objective: float
    kkt_residual: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "kkt_residual": self.kkt_residual,
            "iterations": self.iterations,
            "plan": self.plan.to_dict(),
            "dual": None if self.dual is None else self.dual.to_dict(),
        }


@dataclass(frozen=True)
class EquilibriumResult:
    """Balanced strategy, supporting state prices, and growth data."""

    strategy: BalancedStrategy
    prices: dict
    log_growth: float
    certificate_residual: float
    stationary: dict

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.to_dict(),
            "prices": {s: list(map(float, p))
                       for s, p in sorted(self.prices.items())},
            "log_growth": self.log_growth,
            "certificate_residual": self.certificate_residual,
            "stationary": dict(sorted(self.stationary.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EquilibriumResult":
        return cls(
            strategy=BalancedStrategy.from_dict(d["strategy"]),
            prices={s: np.asarray(p, dtype=float)
                    for s, p in d["prices"].items()},
            log_growth=float(d["log_growth"]),
            certificate_residual=float(d["certificate_residual"]),
            stationary={s: float(w) for s, w in d["stationary"].items()},
        )


# ---------------------------------------------------------------------------
# Edge constraint compilation


def _edge_matrices(cone: ConeSpec):
    """Linear rows ``Fa.a + Fv.(b, lift) <= 0`` describing cone membership.

    ``Fv`` covers the node's portfolio ``b`` and, for cones without budget
    rows, the flattened exchange-matrix lift.  All rows are homogeneous.
    """
    if cone.budget is not None:
        return -cone.budget * cone.returns, cone.budget
    n = cone.n
    avail, deliver = _exchange_rows(cone.exchange)
    eye, zero = np.eye(n), np.zeros((n, n))
    return (np.vstack([-eye, zero]),
            np.block([[zero, avail], [eye, -deliver]]))


class _EdgeGroup:
    """Edges sharing one cone, vectorized together."""

    def __init__(self, cone, nodes, parents):
        self.cone = cone
        self.nodes = np.asarray(nodes, dtype=int)
        self.parents = np.asarray(parents, dtype=int)
        self.Fa, self.Fv = _edge_matrices(cone)
        self.n = cone.n
        self.k = self.Fv.shape[1]  # node variables the rows touch

    def residual_rows(self, Y):
        return (Y[self.parents, :self.n] @ self.Fa.T
                + Y[self.nodes, :self.k] @ self.Fv.T)


def _edge_groups(tree: ScenarioTree, cone_table):
    by_cone = {}
    for v in range(1, tree.n_nodes):
        cone = cone_table.resolve(*tree.transition_label(v))
        by_cone.setdefault(id(cone), (cone, [], []))
        by_cone[id(cone)][1].append(v)
        by_cone[id(cone)][2].append(tree.parent[v])
    return [_EdgeGroup(cone, nodes, parents)
            for cone, nodes, parents in by_cone.values()]


def _interior_start(tree, cone_table, x0, m):
    """Strictly feasible state ``(x, lift)`` per node: roll half the
    boundary scale toward the all-ones direction at every edge; exchange
    lifts spread positive mass over all entries, and lift-free nodes keep
    lift entries of 1."""
    n = x0.size
    Y = np.ones((tree.n_nodes, m))
    Y[0, :n] = x0
    ones = np.ones(n)
    for v in range(1, tree.n_nodes):
        cone = cone_table.resolve(*tree.transition_label(v))
        a = Y[tree.parent[v], :n]
        if cone.budget is None:
            d = np.tile(0.3 * a / max(n - 1, 1), (n, 1))
            np.fill_diagonal(d, 0.5 * a)
            t = 0.4 * (cone.exchange * d).sum(axis=1).min()
            Y[v, n:] = d.ravel()
        else:
            t = 0.5 * boundary_scale(cone, a, ones)
        if t <= 0:
            raise SolverError("cannot construct interior start "
                              f"(zero growth at node {v})")
        Y[v, :n] = t * ones
    return Y


# ---------------------------------------------------------------------------
# Barrier solve


class _TreeProgram:
    """Barrier program over the node states ``Y = (x, lift)``."""

    def __init__(self, tree, cone_table, x0, objective):
        self.tree = tree
        self.n = cone_table.n
        self.groups = _edge_groups(tree, cone_table)
        self.m = max(g.k for g in self.groups)
        self.lift_free = np.ones(tree.n_nodes, dtype=bool)
        for g in self.groups:
            self.lift_free[g.nodes] = g.k == self.n
        self.leaves = tree.leaves()
        self.leaf_prob = tree.abs_prob[self.leaves]
        W = np.zeros((self.leaves.size, self.n))
        for i, v in enumerate(self.leaves):
            cone = cone_table.resolve(*tree.transition_label(int(v)))
            W[i] = wealth_weights(cone, objective)
        self.leaf_w = W

    def objective_value(self, X):
        vals = (self.leaf_w * X[self.leaves]).sum(axis=1)
        if (vals <= _WEALTH_FLOOR).any():
            raise SolverError("terminal wealth collapsed to zero")
        return float(self.leaf_prob @ np.log(vals))

    def phi(self, Y, mu):
        """Barrier objective (to minimize); +inf outside the interior.
        Lift entries of lift-free nodes stay at 1 and add nothing."""
        vals = (self.leaf_w * Y[self.leaves, :self.n]).sum(axis=1)
        if (vals <= _WEALTH_FLOOR).any():
            return np.inf
        total = -float(self.leaf_prob @ np.log(vals))
        if (Y[1:] <= 0.0).any():
            return np.inf
        total -= mu * float(np.log(Y[1:]).sum())
        for g in self.groups:
            r = g.residual_rows(Y)
            if (r >= 0.0).any():
                return np.inf
            total -= mu * float(np.log(-r).sum())
        return total

    def newton_step(self, Y, mu):
        """One damped Newton step on the barrier; returns the updated
        state and the Newton decrement."""
        n, m = self.n, self.m
        N = Y.shape[0]
        G = np.zeros((N, m))
        H = np.zeros((N, m, m))
        CP = np.zeros((N, m, n))  # rows: own variables, cols: parent x

        # coordinate barriers; lift-free nodes get an identity lift block
        idx = np.arange(m)
        G[1:] -= mu / Y[1:]
        H[1:, idx, idx] += mu / Y[1:] ** 2
        G[self.lift_free, n:] = 0.0
        H[self.lift_free, n:, n:] = np.eye(m - n)

        # terminal objective
        vals = (self.leaf_w * Y[self.leaves, :n]).sum(axis=1)
        G[self.leaves, :n] += (-self.leaf_prob / vals)[:, None] * self.leaf_w
        H[self.leaves, :n, :n] += (self.leaf_prob / vals ** 2)[:, None, None] \
            * np.einsum("li,lj->lij", self.leaf_w, self.leaf_w)

        for g in self.groups:
            u = 1.0 / (-g.residual_rows(Y))  # positive
            w = mu * u ** 2
            Fa, Fv, k = g.Fa, g.Fv, g.k
            np.add.at(G[:, :n], g.parents, mu * (u @ Fa))
            np.add.at(H[:, :n, :n], g.parents,
                      np.einsum("gr,ri,rj->gij", w, Fa, Fa))
            G[g.nodes, :k] += mu * (u @ Fv)
            H[g.nodes, :k, :k] += np.einsum("gr,ri,rj->gij", w, Fv, Fv)
            CP[g.nodes, :k] = np.einsum("gr,ri,rj->gij", w, Fv, Fa)

        dY, decrement = self._solve_kkt_by_depth(G, H, CP)
        if decrement <= 0:
            return Y, 0.0

        # fraction to the boundary
        t_max = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            neg = dY[1:] < 0
            if neg.any():
                t_max = min(t_max, float((-Y[1:][neg] / dY[1:][neg]).min()))
            for g in self.groups:
                dr = g.residual_rows(dY)
                grow = dr > 0
                if grow.any():
                    r = g.residual_rows(Y)
                    t_max = min(t_max, float((-r[grow] / dr[grow]).min()))
        t = min(1.0, 0.99 * t_max)

        # Armijo backtracking on the barrier objective
        base = self.phi(Y, mu)
        slope = -decrement
        for _ in range(60):
            Yn = Y + t * dY
            if self.phi(Yn, mu) <= base + 0.25 * t * slope:
                return Yn, decrement
            t *= 0.5
        raise SolverError("line search failed to make progress")

    def _solve_kkt_by_depth(self, G, H, CP):
        """Tree-structured Newton solve, batched one depth at a time.

        Each node's Hessian block couples only to its parent's
        portfolio, so eliminating whole generations leaf-to-root factors
        the system in O(depth) batched dense solves.
        """
        tree, n = self.tree, self.n
        N, m = G.shape
        idx = np.arange(m)
        # relative ridge: value-flat directions (a leaf cares only
        # about total wealth) otherwise drive the block singular as
        # the barrier weight vanishes
        diag_max = np.maximum(H[1:, idx, idx].max(axis=1), 1.0)
        H[1:, idx, idx] += 1e-14 * diag_max[:, None]
        g0 = G.copy()

        GV = np.zeros((N, m))
        KK = np.zeros((N, m, n))
        parent = tree.parent
        for d in range(tree.horizon, 0, -1):
            vs = tree.nodes_at_depth(d)
            try:
                sol = np.linalg.solve(
                    H[vs], np.concatenate([G[vs][:, :, None], CP[vs]],
                                          axis=2))
            except np.linalg.LinAlgError:
                raise SolverError("singular Newton system at depth "
                                  f"{d}") from None
            GV[vs] = sol[:, :, 0]
            KK[vs] = sol[:, :, 1:]
            if d > 1:
                np.add.at(H[:, :n, :n], parent[vs],
                          -np.einsum("vrc,vrk->vck", CP[vs], KK[vs]))
                np.add.at(G[:, :n], parent[vs],
                          -np.einsum("vrc,vr->vc", CP[vs], GV[vs]))

        delta = np.zeros((N, m))
        for d in range(1, tree.horizon + 1):
            vs = tree.nodes_at_depth(d)
            delta[vs] = -(GV[vs] + np.einsum("vrc,vc->vr", KK[vs],
                                             delta[parent[vs], :n]))
        decrement = -float(np.einsum("vi,vi->", g0[1:], delta[1:]))
        return delta, decrement


def _require_assumptions(cone_table) -> None:
    """Raise :class:`SolverError` unless the standing assumptions hold."""
    report = validate_assumptions(cone_table)
    if not report.ok:
        raise SolverError("cone table fails the standing assumptions "
                          f"(gamma = {report.gamma:.3e}); run validate "
                          "for details")


def solve_tree_log_optimal(tree: ScenarioTree, cone_table, x0,
                           objective: str = "wealth",
                           extract_dual: bool = True,
                           mu_final: float = 1e-12) -> TreeSolveResult:
    """Maximize expected terminal log value over self-financing plans.

    ``x0`` is the strictly positive starting portfolio held at the root.
    ``objective`` selects the terminal functional: plain wealth or
    liquidation value (selling costs applied at the horizon).  With
    ``extract_dual`` the supporting price system is recovered by the
    feasibility program described in the module docstring; skip it on
    large trees where the dense LP would dominate runtime.

    Deterministic: no randomness anywhere in the solve.
    """
    if objective not in ("wealth", "liquidation"):
        raise ValueError(f"unknown objective: {objective!r}")
    n = cone_table.n
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}")
    if (x0 <= 0).any() or not np.isfinite(x0).all():
        raise SolverError("x0 must be strictly positive and finite")
    _require_assumptions(cone_table)

    prog = _TreeProgram(tree, cone_table, x0, objective)
    Y = _interior_start(tree, cone_table, x0, prog.m)

    iterations = 0
    mu = 1.0
    while True:
        stage_tol = max(1e-13, 1e-3 * mu)
        for _ in range(40):
            Y, dec = prog.newton_step(Y, mu)
            iterations += 1
            if dec / 2.0 <= stage_tol:
                break
        if mu <= mu_final:
            break
        mu = max(mu * 0.1, mu_final * (1.0 - 1e-12))

    X = Y[:, :n]
    plan = ContingentPlan(tree, X, units=(
        "physical" if any(g.cone.family == CURRENCY for g in prog.groups)
        else "market"))
    value = prog.objective_value(X)

    # feasibility audit: barrier iterates must be strictly inside
    worst = max(float(g.residual_rows(Y).max()) for g in prog.groups)
    if worst > 1e-8:
        raise SolverError(f"plan left the feasible set: residual {worst}")

    if not extract_dual:
        return TreeSolveResult(plan, None, value, float("nan"), iterations)

    dual, resid = _extract_tree_dual(tree, cone_table, X, prog)
    return TreeSolveResult(plan, dual, value, resid, iterations)


def _extract_tree_dual(tree, cone_table, X, prog):
    """Price system minimizing the largest certificate violation.

    Variables: one price vector per node of depth >= 1 and a single
    uniform slack bounding (i) deviations of price-times-predecessor-
    portfolio from 1 and (ii) dual-cone row violations.  The terminal
    layer is pinned to the terminal objective gradient w / (w . x_T),
    which is the exact price of wealth one step past the horizon.
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

    c = np.zeros(nv)
    c[slack] = 1.0
    try:
        res = lp_solve(c, A_ub=np.vstack(A_rows),
                       b_ub=np.concatenate(b_rows))
    except LPError as exc:
        raise SolverError(f"dual extraction failed: {exc}") from exc

    prices = np.zeros((N, n))
    prices[1:] = res.x[:slack].reshape(N - 1, n)
    dual = DualPlan(tree, prices, term)
    return dual, float(max(res.objective, 0.0))


# ---------------------------------------------------------------------------
# Stationary equilibria


def _transition_pairs(spec: MarkovSpec):
    return [(u, v) for u in range(spec.k) for v in range(spec.k)
            if spec.P[u, v] > 0.0]


class _StationaryProgram:
    """Stationary growth objective with transition cones resolved once."""

    def __init__(self, spec, cone_table):
        self.pi = spec.stationary_distribution()
        self.preds = [
            [(int(u), cone_table.resolve(spec.states[u], spec.states[v]))
             for u in np.flatnonzero(spec.P[:, v] > 0.0)]
            for v in range(spec.k)
        ]

    def growth_factors(self, xs):
        """alpha[v]: largest scale of x(v) reachable from every
        positive-probability predecessor's proportions (1 without any)."""
        alpha = np.ones(len(self.preds))
        for v, preds in enumerate(self.preds):
            best = min((_boundary_scale(cone, xs[u], xs[v])
                        for u, cone in preds), default=np.inf)
            if best < np.inf:
                alpha[v] = best
        return alpha

    def value(self, xs):
        alpha = self.growth_factors(xs)
        mask = self.pi > 0
        if (alpha[mask] <= 0.0).any():
            return -np.inf, alpha
        logs = np.zeros(len(alpha))
        logs[mask] = np.log(alpha[mask])
        return float(self.pi @ logs), alpha


def _pattern_search(xs0, prog, h0=0.25, h_min=1e-7):
    """Best-improvement search over per-state simplex moves.

    Moves shift mass h from coordinate j to i within one state, or
    within every state at once.  The coordinated moves matter: growth
    factors are minima over predecessor states, so single-state moves
    can stall on the ridge where two predecessors tie.
    """
    xs = xs0.copy()
    k, n = xs.shape
    f_cur, _ = prog.value(xs)
    scopes = [(s,) for s in range(k)]
    if k > 1:
        scopes.append(tuple(range(k)))
    h = h0
    while h >= h_min:
        best_gain = 1e-15
        best_move = None
        for scope in scopes:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    if any(xs[s, j] < h - 1e-15 for s in scope):
                        continue
                    trial = xs.copy()
                    for s in scope:
                        trial[s, i] += h
                        trial[s, j] = max(trial[s, j] - h, 0.0)
                    f_new, _ = prog.value(trial)
                    if f_new - f_cur > best_gain:
                        best_gain = f_new - f_cur
                        best_move = trial
        if best_move is None:
            h *= 0.5
        else:
            xs = best_move
            f_cur, _ = prog.value(xs)
    return xs, f_cur


def solve_stationary_equilibrium(spec: MarkovSpec, cone_table,
                                 starts: int = 32,
                                 seed: int = 0) -> EquilibriumResult:
    """Balanced strategy maximizing expected log growth, with prices.

    Searches per-state proportion vectors on the simplex by multistart
    pattern search (start 0 is the uniform portfolio; the rest are seeded
    Dirichlet draws, so results are reproducible).  Growth factors are
    the binding boundary scales over all positive-probability
    predecessors.  Supporting prices and the certificate residual come
    from :func:`extract_equilibrium_prices`.
    """
    _require_assumptions(cone_table)
    k, n = spec.k, cone_table.n
    prog = _StationaryProgram(spec, cone_table)
    pi = prog.pi
    rng = np.random.default_rng(seed)

    best = (-np.inf, None)
    for s_idx in range(max(starts, 1)):
        if s_idx == 0:
            xs0 = np.full((k, n), 1.0 / n)
        else:
            xs0 = rng.dirichlet(np.ones(n), size=k)
        xs, f = _pattern_search(xs0, prog)
        if f > best[0] + 1e-12:
            best = (f, xs)
    if best[1] is None or not np.isfinite(best[0]):
        raise SolverError("no start produced a positive growth factor")

    xs = best[1]
    alpha = prog.growth_factors(xs)
    strategy = BalancedStrategy(
        x={spec.states[s]: xs[s] for s in range(k)},
        alpha={spec.states[s]: float(alpha[s]) for s in range(k)},
    )
    prices, residual = extract_equilibrium_prices(strategy, spec,
                                                  cone_table)
    log_growth = float(pi @ np.log(alpha))
    return EquilibriumResult(
        strategy=strategy,
        prices=prices,
        log_growth=log_growth,
        certificate_residual=residual,
        stationary={spec.states[s]: float(pi[s]) for s in range(k)},
    )


def extract_equilibrium_prices(strategy: BalancedStrategy,
                               spec: MarkovSpec, cone_table):
    """Stationary supporting prices for a balanced strategy.

    Solves for per-state price vectors p(s) >= 0 minimizing the largest
    violation among, over every positive-probability transition u -> v:

    * support rows  p(v) . x(u) = 1,
    * dual-cone rows  (p(v), sum_w P(v,w) p(w) / alpha(v)) in the dual
      cone of the (u, v) transition.

    Returns ``(prices, residual)``; a residual at numerical zero
    certifies the strategy rapid in the stationary sense, while a
    clearly positive one is an infeasibility report: no stationary
    price supports the strategy.  Frictionless log-optimal strategies
    always admit prices; under transaction costs even the best balanced
    strategy may not (the truly optimal policy holds a no-trade band
    rather than fixed proportions), and the residual quantifies that.
    """
    k = spec.k
    xs = np.stack([strategy.x[s] for s in spec.states])
    alpha = np.array([strategy.alpha[s] for s in spec.states])
    n = xs.shape[1]

    pairs = _transition_pairs(spec)
    slack = k * n  # state s's prices start at s * n
    nv = slack + 1

    A_rows, b_rows = [], []
    for (u, v) in pairs:
        row = np.zeros(nv)
        row[v * n: (v + 1) * n] = xs[u]
        row[slack] = -1.0
        A_rows.append(row)
        b_rows.append(1.0)
        row = np.zeros(nv)
        row[v * n: (v + 1) * n] = -xs[u]
        row[slack] = -1.0
        A_rows.append(row)
        b_rows.append(-1.0)
    for (u, v) in pairs:
        dr = dual_cone_rows(cone_table.resolve(spec.states[u],
                                               spec.states[v]))
        block = np.zeros((dr.n_rows, nv))
        block[:, v * n: (v + 1) * n] = dr.F_c
        for w in np.flatnonzero(spec.P[v] > 0.0):
            block[:, w * n: (w + 1) * n] += spec.P[v, w] / alpha[v] * dr.F_d
        block[:, slack] = -1.0
        A_rows.extend(block)
        b_rows.extend([0.0] * dr.n_rows)

    c = np.zeros(nv)
    c[slack] = 1.0
    try:
        res = lp_solve(c, A_ub=np.array(A_rows), b_ub=np.array(b_rows))
    except LPError as exc:
        raise SolverError(f"price extraction failed: {exc}") from exc
    prices = {spec.states[s]: res.x[s * n: (s + 1) * n].copy()
              for s in range(k)}
    return prices, float(max(res.objective, 0.0))


# ---------------------------------------------------------------------------
# Closed-form dual for frictionless markets


def numeraire_dual_frictionless(plan: ContingentPlan,
                                cone_table) -> DualPlan:
    """Dual price candidate for a frictionless plan.

    The price at a node is the return vector of its incoming step
    deflated by the plan's post-return wealth at the parent:
    ``p(v) = R(v) / (R(v) . x(parent))``.  The support product
    ``p(v) . x(parent)`` is then exactly one, and for the log-optimal
    plan the dual-cone condition holds as well (the classical numeraire
    property, verifiable with the certificate checker).  The terminal
    layer extends the same construction one step past the horizon using
    the Markov transition probabilities.
    """
    tree = plan.tree
    spec = tree.spec
    n = plan.n
    X = plan.x
    prices = np.zeros((tree.n_nodes, n))
    for v in range(1, tree.n_nodes):
        cone = cone_table.resolve(*tree.transition_label(v))
        if cone.family != FRICTIONLESS:
            raise ValueError("numeraire construction requires frictionless "
                             f"cones; transition into node {v} is "
                             f"{cone.family}")
        denom = float(cone.returns @ X[tree.parent[v]])
        if denom <= _WEALTH_FLOOR:
            raise SolverError(f"zero post-return wealth above node {v}")
        prices[v] = cone.returns / denom
    leaves = tree.leaves()
    term = np.zeros((leaves.size, n))
    for i, v in enumerate(leaves):
        s = tree.state[v]
        acc = np.zeros(n)
        for w in np.flatnonzero(spec.P[s] > 0.0):
            cone = cone_table.resolve(spec.states[s], spec.states[w])
            if cone.family != FRICTIONLESS:
                raise ValueError("numeraire construction requires "
                                 "frictionless cones past the horizon")
            denom = float(cone.returns @ X[v])
            if denom <= _WEALTH_FLOOR:
                raise SolverError(f"zero post-return wealth at leaf {v}")
            acc += spec.P[s, w] * cone.returns / denom
        term[i] = acc
    return DualPlan(tree, prices, term)
