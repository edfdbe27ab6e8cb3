"""Log-optimal plans on scenario trees and stationary balanced strategies.

The tree solver maximizes expected terminal log value over self-financing
plans.  Every tree edge gets its cone's facet rows ``D b <= C a`` as
linear inequalities, the same rows for every family, so a node's
variables are its portfolio alone.  The feasible set is polyhedral and
the program is concave with a tree-structured Hessian.  It is solved by a
log-barrier interior-point method.  Every barrier log of a node (its
coordinates and the rows of its incoming edge) is weighted by the node's
probability, as its terminal log value is, so ``mu`` is the barrier
weight per unit of probability and a rare node ends as close to its
central path as the root.  That lets the path-following cut ``mu`` by a
factor of 100 per stage (``_MU_FACTOR``), a long-step schedule.  The
interior start gives each node the analytic-centre share of its wealth
budget, and every cut opens with one step along the central-path
tangent, so a solve takes 30-60 Newton steps on trees of up to 8191
nodes.  Each Newton system is assembled with one matrix product per
group of edges sharing a cone, and eliminated leaf-to-root over the
breadth-first node ids: a depth is one id slice, each node's block
couples only its parent, and what a node receives from its children is
one sum over their consecutive ids.
Steps are linear-time in the node count.  Barrier iterates are strictly
feasible, so the returned plan is exactly self-financing.

Dual prices come afterwards from one backward recursion, with no linear
program.  The terminal layer prices wealth one step past the horizon;
above it, each node's price is the least vector meeting the dual-cone
rows ``G[i, j] d_i <= c_j`` of its incoming step, with ``d`` the
conditional mean of the prices one step ahead: ``c_j = max_i G[i, j]
d_i``.  The dual-cone rows then hold exactly.  These prices lie below
those of any exactly-supporting dual, and the plan's own step gives
``c . x_parent >= 1``, so the support residual ``|c . x_parent - 1|``
measures how far the plan is from optimal.  Its largest value is
reported as ``kkt_residual``; zero certifies the plan globally optimal,
since an exactly-supporting dual makes every competitor's deflated
wealth a supermartingale.

The stationary solver searches over per-state simplex proportions with a
seeded multistart pattern search, growth factors being recovered per
transition as the largest feasible scale toward the destination
proportions.  All starts advance in lockstep, each with its own step
size, and each sweep is one stacked evaluation: the feasible moves of
every running start go through one boundary-scale call per
(predecessor, state) pair, in chunks of at most
``_SEARCH_CHUNK_ELEMENTS`` elements (tables x facet rows).  A table's
value does not depend on the stack it sits in, so every start ends
where it would alone, bit for bit.  Supporting state prices come from the
tree's least-price recursion, run on the chain to its fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .cones import (
    CURRENCY,
    FRICTIONLESS,
    ConeSpec,
    _boundary_scale,
    _group_edges,
    _least_price,
    boundary_scale,  # not called here; perfbench/tracing.py wraps it
    validate_assumptions,
    wealth_weights,
)
from .lp import lp_solve  # not called here; perfbench/tracing.py wraps it
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
# barrier weight cut per path-following stage (long step: the weighted
# barrier keeps every node near its central path)
_MU_FACTOR = 0.01
_PRICE_ITERATIONS = 64  # cap of the averaged stationary price iteration
_PRICE_ROUNDS = 16  # cap of the policy-iteration rounds that follow
# the stationary pattern search evaluates its trial tables in chunks of at
# most this many elements (tables x the largest facet-row count), so wide
# currency cones keep their per-table cost and memory at any start count
_SEARCH_CHUNK_ELEMENTS = 1 << 14


class SolverError(RuntimeError):
    """Raised when optimization cannot meet its contract."""


@dataclass(frozen=True)
class TreeSolveResult:
    """Solution of the finite-horizon program.

    objective     expected terminal log value, exact tree arithmetic
    kkt_residual  largest support residual ``|p_v . x_parent - 1|`` of
                  the least dual (0 certifies global optimality); NaN
                  when dual extraction was skipped
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
    """Linear rows ``Fa.a + Fv.b <= 0`` describing cone membership: the
    facet rows, ``(-C, D)``."""
    C, D = cone.facets
    return -C, D


class _EdgeGroup:
    """Edges sharing one cone (child ids ``nodes``, ascending),
    vectorized together.  Each row's flattened outer products are
    tabulated once, so Hessian blocks are one GEMM with the row weights.
    """

    def __init__(self, cone, nodes, parents):
        self.cone = cone
        self.nodes = np.asarray(nodes, dtype=int)
        self.parents = np.asarray(parents, dtype=int)
        self.Fa, self.Fv = _edge_matrices(cone)
        r = self.Fa.shape[0]
        self.FaFa = (self.Fa[:, :, None] * self.Fa[:, None, :]).reshape(r, -1)
        self.FvFv = (self.Fv[:, :, None] * self.Fv[:, None, :]).reshape(r, -1)
        self.FvFa = (self.Fv[:, :, None] * self.Fa[:, None, :]).reshape(r, -1)

    def residual_rows(self, Y):
        return Y[self.parents] @ self.Fa.T + Y[self.nodes] @ self.Fv.T


def _edge_groups(tree: ScenarioTree, cone_table):
    """:func:`vngale.cones._group_edges` with the GEMM tables built."""
    return [_EdgeGroup(*g) for g in _group_edges(tree, cone_table)]


def _interior_start(tree, groups, x0):
    """Strictly feasible plan, one depth at a time: roll the fraction
    ``k / (k + 1)`` of the boundary scale toward the all-ones direction
    at every edge, with ``k = (H - d + 1) (n + 1)`` at depth ``d``.

    That is the analytic-centre split of a node's wealth between one
    slack log and the ``k`` logs its subtree carries, so deep trees do
    not start their leaves at ``2**-H`` of their budget.
    """
    n = x0.size
    Y = np.empty((tree.n_nodes, n))
    Y[0] = x0
    for d in range(1, tree.horizon + 1):
        lo, hi = tree.depth_start[d], tree.depth_start[d + 1]
        k = (tree.horizon - d + 1) * (n + 1)
        keep = k / (k + 1)
        t = np.empty(hi - lo)
        for g in groups:
            i, j = np.searchsorted(g.nodes, (lo, hi))
            a = Y[g.parents[i:j]]
            t[g.nodes[i:j] - lo] = keep * _boundary_scale(g.cone, a,
                                                          np.ones_like(a))
        bad = np.flatnonzero(t <= 0)
        if bad.size:
            raise SolverError("cannot construct interior start "
                              f"(zero growth at node {lo + bad[0]})")
        Y[lo:hi] = t[:, None]
    return Y


# ---------------------------------------------------------------------------
# Barrier solve


class _TreeProgram:
    """Barrier program over the plan ``Y``, one portfolio per node."""

    def __init__(self, tree, cone_table, x0, objective):
        self.tree = tree
        self.n = cone_table.n
        self.groups = _edge_groups(tree, cone_table)
        # non-leaf nodes are the ids below the last depth
        self.n_inner = int(tree.depth_start[tree.horizon])
        self.leaves = tree.leaves()
        self.leaf_prob = tree.abs_prob[self.leaves]
        W = np.zeros((self.leaves.size, self.n))
        for g in self.groups:
            at_leaf = g.nodes[g.nodes >= self.n_inner]
            W[at_leaf - self.n_inner] = wealth_weights(g.cone, objective)
        self.leaf_w = W
        self.leaf_ww = W[:, :, None] * W[:, None, :]

    def objective_value(self, X):
        vals = (self.leaf_w * X[self.leaves]).sum(axis=1)
        if (vals <= _WEALTH_FLOOR).any():
            raise SolverError("terminal wealth collapsed to zero")
        return float(self.leaf_prob @ np.log(vals))

    def phi(self, Y, mu, vals=None, rows=None):
        """Barrier objective (to minimize); +inf outside the interior.
        ``vals`` (terminal values) and ``rows`` (every group's residual
        rows) are computed from ``Y`` unless the caller holds them."""
        if vals is None:
            vals = (self.leaf_w * Y[self.leaves]).sum(axis=1)
        if (vals <= _WEALTH_FLOOR).any():
            return np.inf
        total = -float(self.leaf_prob @ np.log(vals))
        if (Y[1:] <= 0.0).any():
            return np.inf
        prob = self.tree.abs_prob
        total -= mu * float(prob[1:] @ np.log(Y[1:]).sum(axis=1))
        if rows is None:
            rows = [g.residual_rows(Y) for g in self.groups]
        for g, r in zip(self.groups, rows):
            if (r >= 0.0).any():
                return np.inf
            total -= mu * float(prob[g.nodes] @ np.log(-r).sum(axis=1))
        return total

    def _assemble(self, Y, mu, objective=True):
        """Newton system of the barrier at ``(Y, mu)``: the gradient
        ``G``, the diagonal blocks ``H``, each node's coupling ``CP`` to
        its parent, and the terminal values and residual rows ``phi``
        takes.  ``objective=False`` leaves the terminal objective's
        gradient out of ``G`` (its Hessian stays)."""
        n = self.n
        N = Y.shape[0]
        G = np.zeros((N, n))
        H = np.zeros((N, n, n))
        CP = np.zeros((N, n, n))  # rows: own variables, cols: parent x
        # each edge's parent-side terms, stored at its child
        PG, PH = np.zeros((N, n)), np.zeros((N, n * n))

        # coordinate barriers, weighted by node probability
        prob = self.tree.abs_prob
        idx = np.arange(n)
        mw = mu * prob[1:, None]
        G[1:] -= mw / Y[1:]
        H[1:, idx, idx] += mw / Y[1:] ** 2

        # terminal objective
        vals = (self.leaf_w * Y[self.leaves]).sum(axis=1)
        if objective:
            G[self.leaves] += (-self.leaf_prob / vals)[:, None] * self.leaf_w
        H[self.leaves] += (self.leaf_prob / vals ** 2)[:, None, None] \
            * self.leaf_ww

        rows = [g.residual_rows(Y) for g in self.groups]
        for g, r in zip(self.groups, rows):
            u = 1.0 / (-r)  # positive
            mw = mu * prob[g.nodes, None]
            w = mw * u ** 2
            mu_u = mw * u
            PG[g.nodes] = mu_u @ g.Fa
            PH[g.nodes] = w @ g.FaFa
            G[g.nodes] += mu_u @ g.Fv
            H[g.nodes] += (w @ g.FvFv).reshape(-1, n, n)
            CP[g.nodes] = (w @ g.FvFa).reshape(-1, n, n)
        # each non-leaf node has >= 1 child: no reduceat range is empty
        starts = self.tree.first_child[:self.n_inner] - 1
        G[:self.n_inner] += np.add.reduceat(PG[1:], starts)
        H[:self.n_inner] += np.add.reduceat(PH[1:], starts).reshape(-1, n, n)
        return G, H, CP, vals, rows

    def _max_step(self, Y, dY, rows):
        """Largest ``t`` keeping ``Y + t dY`` strictly inside every
        coordinate and row barrier (inf when nothing blocks it)."""
        t_max = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            neg = dY[1:] < 0
            if neg.any():
                t_max = min(t_max, float((-Y[1:][neg] / dY[1:][neg]).min()))
            for g, r in zip(self.groups, rows):
                dr = g.residual_rows(dY)
                grow = dr > 0
                if grow.any():
                    t_max = min(t_max, float((-r[grow] / dr[grow]).min()))
        return t_max

    def newton_step(self, Y, mu):
        """One damped Newton step on the barrier; returns the updated
        state and the Newton decrement."""
        G, H, CP, vals, rows = self._assemble(Y, mu)
        dY, decrement = self._solve_kkt_by_depth(G, H, CP)
        if decrement <= 0:
            return Y, 0.0
        t = min(1.0, 0.99 * self._max_step(Y, dY, rows))

        # Armijo backtracking on the barrier objective
        base = self.phi(Y, mu, vals, rows)
        slope = -decrement
        for _ in range(60):
            Yn = Y + t * dY
            if self.phi(Yn, mu) <= base + 0.25 * t * slope:
                return Yn, decrement
            t *= 0.5
        raise SolverError("line search failed to make progress")

    def predictor_step(self, Y, mu, mu_next):
        """One step along the central-path tangent from ``mu`` to
        ``mu_next``: ``(1 - mu_next / mu) H^-1 (mu grad barrier)``, cut
        to 0.99 of the way to the boundary, with no line search.  On
        the path a coordinate ``y`` proportional to ``mu`` has tangent
        step exactly ``y (mu_next / mu - 1)``, so the damped steps that
        would open the next stage are taken in one."""
        G, H, CP, _, rows = self._assemble(Y, mu, objective=False)
        dY, _ = self._solve_kkt_by_depth(G, H, CP)
        # dY = -H^-1 (mu grad barrier)
        dY *= mu_next / mu - 1.0
        return Y + min(1.0, 0.99 * self._max_step(Y, dY, rows)) * dY

    def _solve_kkt_by_depth(self, G, H, CP):
        """Tree-structured Newton solve, batched one depth at a time.

        Each node's Hessian block couples only to its parent's
        portfolio, so eliminating whole generations leaf-to-root factors
        the system in O(depth) batched dense solves.  Depth ``d`` is the
        id slice ``depth_start[d]:depth_start[d+1]``; the Schur
        complement of each child goes to its parent in the depth
        ``d-1`` slice as one sum over consecutive child ranges.
        """
        tree = self.tree
        N, n = G.shape
        ds, first_child = tree.depth_start, tree.first_child
        idx = np.arange(n)
        # relative ridge: value-flat directions (a leaf cares only
        # about total wealth) otherwise drive the block singular as
        # the barrier weight vanishes; blocks carry their node's
        # probability, which floors the scale
        diag_max = np.maximum(H[1:, idx, idx].max(axis=1), tree.abs_prob[1:])
        H[1:, idx, idx] += 1e-14 * diag_max[:, None]
        g0 = G.copy()

        # per node: [H^-1 g | H^-1 CP], the step given the parent's
        sol = np.zeros((N, n, n + 1))
        for d in range(tree.horizon, 0, -1):
            vs = slice(ds[d], ds[d + 1])
            try:
                sol[vs] = np.linalg.solve(
                    H[vs], np.concatenate([G[vs, :, None], CP[vs]], axis=2))
            except np.linalg.LinAlgError:
                raise SolverError("singular Newton system at depth "
                                  f"{d}") from None
            if d > 1:
                ps = slice(ds[d - 1], ds[d])
                schur = np.add.reduceat(
                    CP[vs].transpose(0, 2, 1) @ sol[vs],
                    first_child[ps] - ds[d])
                G[ps] -= schur[:, :, 0]
                H[ps] -= schur[:, :, 1:]

        delta = np.zeros((N, n))
        for d in range(1, tree.horizon + 1):
            vs = slice(ds[d], ds[d + 1])
            delta[vs] = -(sol[vs, :, 0] + (
                sol[vs, :, 1:] @ delta[tree.parent[vs], :, None])[:, :, 0])
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
    backward recursion described in the module docstring, at a cost
    linear in the node count.

    The barrier weight ``mu`` multiplies every node's barrier logs per
    unit of that node's probability.  It starts at 1 and is cut by
    ``_MU_FACTOR`` (0.01) per stage; the last stage runs at exactly
    ``mu_final``.  The start keeps the fraction ``k / (k + 1)`` of each
    edge's boundary scale, ``k = (H - d + 1) (n + 1)`` at depth ``d``.
    Each stage takes damped Newton steps (Armijo backtracking from 0.99
    of the way to the boundary, or the full step when nothing blocks
    it) until half the squared Newton decrement is at most
    ``max(1e-13, 1e-3 * mu)``.  Each cut from ``mu`` to ``mu'`` first
    takes one predictor step along the central-path tangent, ``(1 -
    mu'/mu) H^-1 (mu grad barrier)``, cut to 0.99 of the way to the
    boundary; it counts in ``iterations``.

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
    X = _interior_start(tree, prog.groups, x0)

    iterations = 0
    mu = 1.0
    while True:
        stage_tol = max(1e-13, 1e-3 * mu)
        for _ in range(40):
            X, dec = prog.newton_step(X, mu)
            iterations += 1
            if dec / 2.0 <= stage_tol:
                break
        if mu <= mu_final:
            break
        # the last stage runs at mu_final itself, also when the powers
        # of _MU_FACTOR round to just above it (0.01**6 > 1e-12)
        mu_next = mu * _MU_FACTOR
        if mu_next < mu_final * (1.0 + 1e-9):
            mu_next = mu_final
        X = prog.predictor_step(X, mu, mu_next)
        iterations += 1
        mu = mu_next

    plan = ContingentPlan(tree, X, units=(
        "physical" if any(g.cone.family == CURRENCY for g in prog.groups)
        else "market"))
    value = prog.objective_value(X)

    # feasibility audit: barrier iterates must be strictly inside
    worst = max(float(g.residual_rows(X).max()) for g in prog.groups)
    if worst > 1e-8:
        raise SolverError(f"plan left the feasible set: residual {worst}")

    if not extract_dual:
        return TreeSolveResult(plan, None, value, float("nan"), iterations)

    dual, resid = _extract_tree_dual(tree, X, prog)
    return TreeSolveResult(plan, dual, value, resid, iterations)


def _extract_tree_dual(tree, X, prog):
    """Least price system meeting every dual-cone row, leaf to root.

    The terminal layer is the terminal objective gradient
    ``w / (w . x_T)``, the exact price of wealth one step past the
    horizon.  Going up one depth slice at a time, a node's price is
    ``p_j = max_i G[i, j] e_i``, with ``e`` the node's terminal vector
    at a leaf and otherwise the conditional mean of its children's
    prices (one sum over their consecutive ids).  Returns the dual and
    its largest support residual ``|p_v . x_parent - 1|``.
    """
    term = prog.leaf_w / (prog.leaf_w * X[prog.leaves]).sum(axis=1)[:, None]
    prices = np.zeros((tree.n_nodes, prog.n))
    ds = tree.depth_start
    e = term
    for d in range(tree.horizon, 0, -1):
        lo, hi = ds[d], ds[d + 1]
        if d < tree.horizon:
            kids = slice(hi, ds[d + 2])
            e = np.add.reduceat(tree.cond_prob[kids, None] * prices[kids],
                                tree.first_child[lo:hi] - hi)
        for g in prog.groups:
            i, j = np.searchsorted(g.nodes, (lo, hi))
            nodes = g.nodes[i:j]
            prices[nodes] = _least_price(g.cone.exchange, e[nodes - lo])
    support = (prices[1:] * X[tree.parent[1:]]).sum(axis=1)
    return DualPlan(tree, prices, term), float(np.abs(support - 1.0).max())


# ---------------------------------------------------------------------------
# Stationary equilibria


class _StationaryProgram:
    """Stationary growth objective with transition cones resolved once."""

    def __init__(self, spec, cone_table):
        self.pi = spec.stationary_distribution()
        self.preds = [
            [(int(u), cone_table.resolve(spec.states[u], spec.states[v]))
             for u in np.flatnonzero(spec.P[:, v] > 0.0)]
            for v in range(spec.k)
        ]
        # largest facet-row count of a transition: sets the search chunks
        self.rows = max((cone.facets[0].shape[0] for preds in self.preds
                         for _, cone in preds), default=1)

    def growth_factors(self, xs):
        """alpha[..., v]: largest scale of x(v) reachable from every
        positive-probability predecessor's proportions (1 without any).

        ``xs`` is one ``(k, n)`` table of proportions or a stack
        ``(M, k, n)`` of them; each (predecessor, state) pair is one
        boundary-scale call over the whole stack.
        """
        xs = np.asarray(xs, dtype=float)
        alpha = np.ones(xs.shape[:-1])
        for v, preds in enumerate(self.preds):
            if not preds:
                continue
            best = np.min([_boundary_scale(cone, xs[..., u, :], xs[..., v, :])
                           for u, cone in preds], axis=0)
            alpha[..., v] = np.where(best < np.inf, best, 1.0)
        return alpha

    def value(self, xs):
        """Expected log growth ``pi . log(alpha)`` and the growth factors,
        for one table (a float) or a stack of them (an ``(M,)`` array);
        ``-inf`` where a state of positive weight has no growth."""
        alpha = self.growth_factors(xs)
        mask = self.pi > 0
        dead = (alpha[..., mask] <= 0.0).any(axis=-1)
        logs = np.zeros(alpha.shape)
        logs[..., mask] = np.log(np.where(dead[..., None], 1.0,
                                          alpha[..., mask]))
        # one dot product per table, as for a single table
        f = np.where(dead, -np.inf, (self.pi @ logs[..., None])[..., 0])
        return (float(f) if f.ndim == 0 else f), alpha


def _pattern_search(xs0, prog, h0=0.25, h_min=1e-7):
    """Best-improvement search over per-state simplex moves.

    Moves shift mass h from coordinate j to i within one state, or
    within every state at once.  The coordinated moves matter: growth
    factors are minima over predecessor states, so single-state moves
    can stall on the ridge where two predecessors tie.  A move is
    feasible when every state it touches holds at least h of asset j.
    Each sweep takes the first of the best feasible moves (ordered by
    scope, then i, then j) if it gains more than 1e-15, and halves h
    otherwise; the search ends when h falls below ``h_min``.

    ``xs0`` is one ``(k, n)`` table, giving ``(table, float)``, or a
    stack ``(S, k, n)`` of starts, giving ``(tables, (S,) values)``.  The
    starts run in lockstep, each with its own h: a sweep builds the
    moves of every running start in one broadcast and evaluates the
    feasible ones as one stack, in chunks of at most
    ``_SEARCH_CHUNK_ELEMENTS`` elements.  A table's value does not depend
    on the stack it sits in, so each start's path is bit for bit the one
    it takes alone.
    """
    single = np.ndim(xs0) == 2
    xs = np.array(xs0, dtype=float, ndmin=3)
    S, k, n = xs.shape
    f_cur = _search_values(prog, xs)
    scopes = [[s] for s in range(k)] + ([list(range(k))] if k > 1 else [])
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    delta = np.zeros((len(scopes) * len(pairs), k, n))  # unit moves
    for m, (scope, (i, j)) in enumerate(product(scopes, pairs)):
        delta[m, scope, i] = 1.0
        delta[m, scope, j] = -1.0
    # source[c, m]: move m takes mass from cell c = (state, asset)
    source = (delta < 0.0).reshape(len(delta), k * n).T
    h = np.full(S, float(h0))
    live = np.flatnonzero(h >= h_min) if pairs else np.arange(0)
    while live.size:
        hl = h[live, None, None]
        short = (xs[live] < hl - 1e-15).reshape(live.size, k * n)
        feasible = ~(short @ source)
        trials = np.maximum(xs[live, None] + hl[:, None] * delta, 0.0)
        f_new = np.full(feasible.shape, -np.inf)
        gain = np.full(feasible.shape, -np.inf)
        if feasible.any():
            f_new[feasible] = _search_values(prog, trials[feasible])
            # a dead trial gains nothing, also from a dead start
            np.subtract(f_new, f_cur[live, None], out=gain,
                        where=f_new > -np.inf)
        best = gain.argmax(axis=1)
        row = np.arange(live.size)
        moved = gain[row, best] > 1e-15
        row, best = row[moved], best[moved]
        xs[live[row]] = trials[row, best]
        f_cur[live[row]] = f_new[row, best]
        h[live[~moved]] *= 0.5
        live = live[h[live] >= h_min]
    return (xs[0], float(f_cur[0])) if single else (xs, f_cur)


def _search_values(prog, xs):
    """``prog.value`` of a stack of tables, in chunks of at most
    ``_SEARCH_CHUNK_ELEMENTS`` (tables x facet rows)."""
    size = max(1, _SEARCH_CHUNK_ELEMENTS // prog.rows)
    return np.concatenate([prog.value(xs[i:i + size])[0]
                           for i in range(0, len(xs), size)])


def solve_stationary_equilibrium(spec: MarkovSpec, cone_table,
                                 starts: int = 32,
                                 seed: int = 0) -> EquilibriumResult:
    """Balanced strategy maximizing expected log growth, with prices.

    Searches per-state proportion vectors on the simplex by multistart
    pattern search (start 0 is the uniform portfolio; the rest are seeded
    Dirichlet draws, so results are reproducible).  All starts are drawn
    first and searched in lockstep (:func:`_pattern_search`); each ends
    where it would alone.  Taken in start order, a start replaces the
    best so far when its growth is higher by more than 1e-12.  Growth
    factors are the binding boundary scales over all positive-probability
    predecessors.  Supporting prices and the certificate residual come
    from the fixed-point iteration of :func:`extract_equilibrium_prices`.
    """
    _require_assumptions(cone_table)
    k, n = spec.k, cone_table.n
    prog = _StationaryProgram(spec, cone_table)
    pi = prog.pi
    rng = np.random.default_rng(seed)

    xs0 = [np.full((k, n), 1.0 / n)]
    xs0 += [rng.dirichlet(np.ones(n), size=k) for _ in range(starts - 1)]
    best = (-np.inf, None)
    for xs, f in zip(*_pattern_search(np.stack(xs0), prog)):
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

    Prices ``p(s) >= 0`` support the strategy when, over every
    positive-probability transition u -> v, ``p(v) . x(u) = 1`` (the
    support rows) and ``G_uv[i, j] d_i <= p(v)_j`` with ``d = sum_w
    P(v, w) p(w) / alpha(v)`` (the dual-cone rows).  The least such
    ``p(v)`` is ``T(p)(v) = max over u of max_i G_uv[i, :] d_i``, the
    tree dual's recursion on the chain.  ``T`` is monotone and
    homogeneous of degree one, and its eigenvector is the price (Gaubert
    & Gunawardena, Trans. AMS 356, 2004).  The averaged map ``p <- (p +
    T(p) / max T(p)) / 2``, which settles on periodic chains too, runs
    until no entry moves by more than 1e-15, at most
    ``_PRICE_ITERATIONS`` times.  Policy iteration then finishes slowly
    mixing chains: ``T`` is the max of linear maps, one per choice of
    ``(u, i)`` for each entry ``p(v)_j``, and a round solves the top
    choices' map for its eigenvector (one inverse-iteration step, shifted
    just above the spectral radius) until no other choice prices higher
    there.  Of the two prices, each scaled so that the support products
    centre on 1, the one violating the rows less is returned: on a
    reducible chain ``T`` has several eigenvectors, and the averaged map
    keeps one that is positive on every class.

    Returns ``(prices, residual)``, the largest row violation.  On an
    irreducible chain ``T(p) = lambda p`` forces ``lambda >= 1``, with
    equality and equal support products exactly when some price supports
    the strategy, so the residual is numerically zero exactly when the
    strategy is rapid in the stationary sense.  Under costly cones a
    state's growth factor, the least over its predecessors, can leave
    wealth unused, and no price supports that.
    """
    xs = np.stack([strategy.x[s] for s in spec.states])
    alpha = np.array([strategy.alpha[s] for s in spec.states])
    k, n = xs.shape
    src, dest = np.nonzero(spec.P > 0.0)
    G = np.zeros((k, k, n, n))  # G[u, v]; zero where P[u, v] == 0
    G[src, dest] = [cone_table.resolve(spec.states[u], spec.states[v])
                    .exchange for u, v in zip(src, dest)]
    Q = spec.P / alpha[:, None]  # d(v) = Q[v] @ p

    def offers(p):
        """``G_uv[i, j] d(v)_i`` at ``[v, j, u * n + i]``; ``T(p)`` is the
        max over the last axis (0 for states without predecessors)."""
        O = G * (Q @ p)[None, :, :, None]
        return O.transpose(1, 3, 0, 2).reshape(k, n, k * n)

    def scaled(p):
        """``p`` with support products centred on 1, and the largest
        violation of the support and dual-cone rows there."""
        support = (p[dest] * xs[src]).sum(axis=1)
        c = 2.0 / (support.min() + support.max())
        return c * p, max(float(np.abs(c * support - 1.0).max()),
                          float(c * (offers(p).max(axis=-1) - p).max()))

    p = np.ones((k, n))
    for _ in range(_PRICE_ITERATIONS):
        Tp = offers(p).max(axis=-1)
        p, last = 0.5 * (p + Tp / Tp.max()), p
        if np.abs(p - last).max() <= 1e-15:
            break

    # policy iteration from p; A is the linear piece of T at the choices
    v, j = np.indices((k, n))
    q = p
    choice = offers(q).argmax(axis=-1)
    for _ in range(_PRICE_ROUNDS):
        u, i = np.divmod(choice, n)
        A = np.zeros((k, n, k, n))
        A[v, j, :, i] = G[u, v, i, j][..., None] * Q[:, None, :]
        A = A.reshape(k * n, k * n)
        shift = (1.0 + 1e-13) * np.linalg.eigvals(A).real.max()
        q = np.linalg.solve(shift * np.eye(k * n) - A, q.ravel())
        q = np.maximum(q / q[np.abs(q).argmax()], 0.0).reshape(k, n)
        O = offers(q)
        own = np.take_along_axis(O, choice[..., None], axis=-1)[..., 0]
        beaten = O.max(axis=-1) > own + 1e-13 * own.max()
        if not beaten.any():
            break
        choice = np.where(beaten, O.argmax(axis=-1), choice)

    p, residual = min(scaled(p), scaled(q), key=lambda c: c[1])
    return {spec.states[s]: p[s] for s in range(k)}, residual


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
