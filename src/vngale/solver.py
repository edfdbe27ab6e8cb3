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
budget, and the path starts at the first cut, ``mu = 0.01``: the start
is about as near that stage's central path as centring at ``mu = 1``
and a predictor would bring it.  Every later cut opens with one step
along the central-path tangent.  Only the last stage's iterate is
returned, so the stages before it are centred loosely
(``_MID_STAGE_DECREMENT``).  A stage ends only when every node is
centred, not just the probability-weighted sum: each node's share of
the Newton decrement, over its probability, is held to the stage's
tolerance, else a node of probability 5e-10 can stay far off its
path while the weighted decrement is tiny.  Each Newton step is cut to
0.99 of the way to the boundary, with no line search, as in primal-dual
interior-point methods: a backtracking test on the weighted barrier sum
cannot see a node of probability 1e-10, whose terms lie below the sum's
rounding.  A solve takes 14-38 Newton steps on trees of up to 8191
nodes.  Each Newton system is assembled with one matrix product per
group of edges sharing a cone, and eliminated leaf-to-root over the
breadth-first node ids: a depth is one id slice, each node's block
couples only its parent, and what a node receives from its children is a
sum over their consecutive ids.  The edge groups and their per-depth
pieces live in ``cones``, one layout with the certificate
(``_group_edges``, ``_by_depth``); on a dense chain they are evenly
spaced ids, indexed as basic slices, and where every node of a depth has
c children a child sum adds the c slots of a reshape view in child order
(``np.add.reduceat`` otherwise).  A depth's n x n blocks are solved by
one LAPACK call each while the depth is narrow.  From
``_BATCH_LAST_WIDTH`` nodes on (8-256 by n, up to n = 12), the depth is
laid out batch-last, ``(n, 2n + 1, nodes)``, and reduced by Gauss-Jordan
elimination, each row operation one vector operation over all its nodes.
The blocks are SPD after a relative ridge, so no pivoting is needed, and
a pivot that is not finite and positive raises :class:`SolverError`.
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

The stationary solver maximizes ``sum_t w_t s_t``, the stationary mean
of a balanced strategy's log factors, with ``s_t <= log C_r x(u) - log
D_r x(v)`` for every facet row r of each transition u -> v, by damped
Newton steps on a log barrier with the tree's stages, from seeded starts
in one batch, each without the curvature of the convex ``-log D_r
x(v)`` (the convex-concave procedure; Lipp & Boyd, Optim. Eng. 17,
2016).  Transient states then take their best one-step growth.  Prices,
one per transition, come from the tree's least-price recursion, run to
its fixed point on each closed class, then on the transient states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import (
    CURRENCY,
    FRICTIONLESS,
    _boundary_scale,
    _by_depth,
    _group_edges,
    _least_price,
    boundary_scale,  # not called here; perfbench/tracing.py wraps it
    validate_assumptions,
    wealth_weights,
)
from .lp import lp_solve  # not called here; perfbench/tracing.py wraps it
from .plans import (
    BalancedStrategy,
    ContingentPlan,
    DualPlan,
    _node_dots,
    _step_factors,
    _transition_key,
)
from .scenario import MarkovSpec, ScenarioTree, _child_sums, _reach

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
# barrier keeps every node near its central path), and the weight of the
# first stage: the interior start is already near its central path
_MU_FACTOR = 0.01
# an intermediate stage (mu above mu_final) ends once half the squared
# Newton decrement is at most this multiple of mu (lambda^2 / mu <= 6),
# in total and at every node per unit of its probability: only the last
# stage's iterate is returned, so the earlier ones need only be near
# enough their central path for the next predictor step
_MID_STAGE_DECREMENT = 3.0
# smallest last barrier weight: the rows' slacks end near it, and below a
# few rounding units they round to zero (see solve_tree_log_optimal)
_MU_FINAL_FLOOR = 1e-15
_PRICE_ROUNDS = 16  # cap of the stationary price policy-iteration rounds
# W by block size n: a tree depth of at least W nodes is solved in one
# batch-last pass, a narrower one (and any depth for a larger n) by one
# LAPACK call per n x n block.  Set at the measured crossover of the two
# (2-core x86_64, numpy 2.4, one BLAS thread; see CHANGES.md)
_BATCH_LAST_WIDTH = {1: 8, 2: 24, 3: 40, 4: 64, 5: 64, 6: 80, 7: 96,
                     8: 192, 9: 192, 10: 256, 11: 256, 12: 256}


class SolverError(RuntimeError):
    """Raised when optimization cannot meet its contract."""


@dataclass(frozen=True)
class TreeSolveResult:
    """Solution of the finite-horizon program.

    objective     expected terminal log value, exact tree arithmetic
    kkt_residual  largest support residual ``|p_v . x_parent - 1|`` of
                  the least dual, bit for bit ``check_rapid``'s
                  ``support_residual`` (0 certifies global optimality);
                  NaN, null in JSON, when dual extraction was skipped
    """

    plan: ContingentPlan
    dual: DualPlan | None
    objective: float
    kkt_residual: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "kkt_residual": None if self.dual is None else self.kkt_residual,
            "iterations": self.iterations,
            "plan": self.plan.to_dict(),
            "dual": None if self.dual is None else self.dual.to_dict(),
        }


@dataclass(frozen=True)
class EquilibriumResult:
    """Balanced strategy, supporting prices, and growth data.

    ``prices`` maps each transition ``"u->v"`` to its price and each
    state to the elementwise max of the prices of the transitions into
    it (see :func:`extract_equilibrium_prices`); a file written before
    transition keys existed holds state keys only, which price every
    transition into their state.  ``log_growth`` is ``sum_u pi(u) sum_v
    P(u, v) log a(u, v)`` over the strategy's transition factors.
    """

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
# Barrier solve


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
    for d, parts in enumerate(_by_depth(tree, groups), 1):
        lo, hi = tree.depth_start[d], tree.depth_start[d + 1]
        k = (tree.horizon - d + 1) * (n + 1)
        keep = k / (k + 1)
        for g in parts:
            a = Y[g.at_parent]
            t = _boundary_scale(g.cone, a, np.ones_like(a))
            Y[g.at] = keep * t[:, None]
        bad = np.flatnonzero(Y[lo:hi, 0] <= 0)
        if bad.size:
            raise SolverError("cannot construct interior start "
                              f"(zero growth at node {lo + bad[0]})")
    return Y


class _TreeProgram:
    """Barrier program over the plan ``Y``, one portfolio per node."""

    def __init__(self, tree, cone_table, x0, objective):
        self.tree = tree
        self.n = cone_table.n
        self.groups = _group_edges(tree, cone_table)
        self.by_depth = _by_depth(tree, self.groups)
        # non-leaf nodes are the ids below the last depth
        self.n_inner = int(tree.depth_start[tree.horizon])
        self.leaves = slice(self.n_inner, tree.n_nodes)
        self.leaf_prob = tree.abs_prob[self.leaves]
        W = np.empty((tree.n_nodes, self.n))
        for g in self.by_depth[-1]:
            W[g.at] = wealth_weights(g.cone, objective)
        self.leaf_w = W = W[self.leaves]
        self.leaf_ww = W[:, :, None] * W[:, None, :]

    def objective_value(self, X):
        vals = (self.leaf_w * X[self.leaves]).sum(axis=1)
        if (vals <= _WEALTH_FLOOR).any():
            raise SolverError("terminal wealth collapsed to zero")
        return float(self.leaf_prob @ np.log(vals))

    def _assemble(self, Y, mu, objective=True):
        """Newton system of the barrier at ``(Y, mu)``: the gradient
        ``G``, the diagonal blocks ``H``, each node's coupling ``CP`` to
        its parent, the terminal values, and every group's residual rows
        (which bound the step).  ``objective=False`` leaves the terminal
        objective's gradient out of ``G`` (its Hessian stays)."""
        n = self.n
        N = Y.shape[0]
        G = np.zeros((N, n))
        H = np.zeros((N, n, n))
        CP = np.zeros((N, n, n))  # rows: own variables, cols: parent x
        # each edge's parent-side terms, stored at its child
        PG, PH = np.zeros((N, n)), np.zeros((N, n * n))

        # coordinate barriers, weighted by node probability
        prob = self.tree.abs_prob
        mw = mu * prob[1:, None]
        G[1:] -= mw / Y[1:]
        H.reshape(N, n * n)[1:, ::n + 1] += mw / Y[1:] ** 2  # diagonals

        # terminal objective
        vals = (self.leaf_w * Y[self.leaves]).sum(axis=1)
        if objective:
            G[self.leaves] += (-self.leaf_prob / vals)[:, None] * self.leaf_w
        H[self.leaves] += (self.leaf_prob / vals ** 2)[:, None, None] \
            * self.leaf_ww

        rows = [g.residual_rows(Y) for g in self.groups]
        for g, r in zip(self.groups, rows):
            u = 1.0 / (-r)  # positive
            mw = mu * prob[g.at, None]
            w = mw * u ** 2
            mu_u = mw * u
            PG[g.at] = mu_u @ g.Fa
            PH[g.at] = w @ g.FaFa
            G[g.at] += mu_u @ g.Fv
            H[g.at] += (w @ g.FvFv).reshape(-1, n, n)
            CP[g.at] = (w @ g.FvFa).reshape(-1, n, n)
        G[:self.n_inner] += _child_sums(self.tree, PG[1:], 0, self.n_inner)
        H[:self.n_inner] += _child_sums(self.tree, PH[1:], 0,
                                        self.n_inner).reshape(-1, n, n)
        return G, H, CP, vals, rows

    def _cut_step(self, Y, dY, rows):
        """``Y + min(1, 0.99 t_max) dY``, with ``t_max`` the largest ``t``
        keeping ``Y + t dY`` strictly inside every coordinate and row
        barrier (inf when nothing blocks it): the fraction-to-the-boundary
        rule of primal-dual interior-point methods, with no line search
        (Wright, *Primal-Dual Interior-Point Methods*, SIAM 1997)."""
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
        return Y + min(1.0, 0.99 * t_max) * dY

    def newton_step(self, Y, mu):
        """One Newton step on the barrier, cut by :meth:`_cut_step`;
        returns the updated state, the Newton decrement and the largest
        node's share of it per unit of that node's probability.  A
        decrement that is not finite raises :class:`SolverError`."""
        G, H, CP, _, rows = self._assemble(Y, mu)
        dY, decrement, worst = self._solve_kkt_by_depth(G, H, CP)
        if not np.isfinite(decrement):
            raise SolverError(f"Newton step is not finite at mu = {mu:g}")
        if decrement <= 0:
            return Y, 0.0, 0.0
        return self._cut_step(Y, dY, rows), decrement, worst

    def predictor_step(self, Y, mu, mu_next):
        """One step along the central-path tangent from ``mu`` to
        ``mu_next``: ``(1 - mu_next / mu) H^-1 (mu grad barrier)``, cut
        by :meth:`_cut_step`.  On the path a coordinate ``y`` proportional
        to ``mu`` has tangent step exactly ``y (mu_next / mu - 1)``, so the
        damped steps that would open the next stage are taken in one."""
        G, H, CP, _, rows = self._assemble(Y, mu, objective=False)
        dY = self._solve_kkt_by_depth(G, H, CP)[0]
        # dY = -H^-1 (mu grad barrier)
        dY *= mu_next / mu - 1.0
        return self._cut_step(Y, dY, rows)

    def _solve_kkt_by_depth(self, G, H, CP):
        """Tree-structured Newton solve, batched one depth at a time.

        Each node's Hessian block couples only to its parent's
        portfolio, so eliminating whole generations leaf-to-root factors
        the system in O(depth) batched dense solves.  Depth ``d`` is the
        id slice ``depth_start[d]:depth_start[d+1]``; the Schur
        complement of each child goes to its parent in the depth
        ``d-1`` slice as one sum over consecutive child ranges
        (:func:`vngale.scenario._child_sums`).  Back-substitution
        repeats each parent's step over its children instead of
        gathering it by parent id.

        A depth's block solves ``[H^-1 g | H^-1 CP]`` are the only
        branch.  A depth of at least W nodes (``_BATCH_LAST_WIDTH``, by
        block size n) is eliminated in one batch-last pass
        (:func:`_solve_batch_last`), each row operation one vector
        operation over all its nodes.  A narrower depth makes one LAPACK
        call per block, which costs less there than the pass's fixed
        numpy overhead.  The ridged blocks are SPD, so the pass needs no
        pivoting.  Both results go through the same node-major Schur
        complements and back-substitution.

        Returns the step, the Newton decrement ``g^T H^-1 g`` and the
        largest node's term of that sum (its eliminated block's) over
        the node's probability.
        """
        tree = self.tree
        N, n = G.shape
        ds = tree.depth_start
        idx = np.arange(n)
        # relative ridge: value-flat directions (a leaf cares only
        # about total wealth) otherwise drive the block singular as
        # the barrier weight vanishes; blocks carry their node's
        # probability, which floors the scale
        diag_max = np.maximum(H[1:, idx, idx].max(axis=1), tree.abs_prob[1:])
        H[1:, idx, idx] += 1e-14 * diag_max[:, None]

        # per node: [H^-1 g | H^-1 CP], the step given the parent's
        sol = np.zeros((N, n, n + 1))
        wide = _BATCH_LAST_WIDTH.get(n, np.inf)
        for d in range(tree.horizon, 0, -1):
            vs = slice(ds[d], ds[d + 1])
            if ds[d + 1] - ds[d] >= wide:
                sol[vs] = _solve_batch_last(H[vs], G[vs], CP[vs], d)
            else:
                try:
                    sol[vs] = np.linalg.solve(H[vs], np.concatenate(
                        [G[vs, :, None], CP[vs]], axis=2))
                except np.linalg.LinAlgError:
                    raise SolverError("singular Newton system at depth "
                                      f"{d}") from None
            if d > 1:
                ps = slice(ds[d - 1], ds[d])
                schur = _child_sums(tree, CP[vs].transpose(0, 2, 1)
                                    @ sol[vs], ds[d - 1], ds[d])
                G[ps] -= schur[:, :, 0]
                H[ps] -= schur[:, :, 1:]

        delta = np.zeros((N, n))
        for d in range(1, tree.horizon + 1):
            vs, ps = slice(ds[d], ds[d + 1]), slice(ds[d - 1], ds[d])
            up = np.repeat(delta[ps], tree.n_children[ps], axis=0)
            delta[vs] = -(sol[vs, :, 0] + (
                sol[vs, :, 1:] @ up[:, :, None])[:, :, 0])
        # g^T H^-1 g, summed over the blocks as they were eliminated; a
        # node's block carries its probability, so its term over that
        # probability is its own decrement, however rare the node
        per_node = np.einsum("vi,vi->v", G[1:], sol[1:, :, 0])
        worst = float((per_node / tree.abs_prob[1:]).max())
        return delta, float(per_node.sum()), worst


def _solve_batch_last(H, G, CP, depth):
    """``[H^-1 g | H^-1 CP]`` of ``k`` SPD blocks ``H`` ``(k, n, n)``, with
    ``G`` ``(k, n)`` and ``CP`` ``(k, n, n)``, as ``(k, n, n + 1)``.

    ``[H | g | CP]`` is laid out batch-last, ``(n, 2n + 1, k)``, and
    reduced by Gauss-Jordan elimination without pivoting: column ``c``
    scales row ``c`` and subtracts it from the other rows, each row one
    vector operation over all k blocks, so the scratch beside the array
    is one row.  The blocks are SPD, so every pivot (an entry of ``D``
    in ``H = L D L^T``) is positive; one that is not finite and
    positive raises :class:`SolverError` naming ``depth``.
    """
    k, n = G.shape
    A = np.empty((n, 2 * n + 1, k))
    A[:, :n] = H.transpose(1, 2, 0)
    A[:, n] = G.T
    A[:, n + 1:] = CP.transpose(1, 2, 0)
    for c in range(n):
        pivot = A[c, c]
        if not (pivot.min() > 0.0 and pivot.max() < np.inf):
            raise SolverError(f"singular Newton system at depth {depth}")
        row = A[c, c + 1:]
        row /= pivot
        for r in range(n):
            if r != c:
                A[r, c + 1:] -= A[r, c] * row
    return A[:, n:].transpose(2, 0, 1)


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
    unit of that node's probability.  It starts at the first cut,
    ``max(_MU_FACTOR, mu_final)`` (0.01 by default), and is cut by
    ``_MU_FACTOR`` (0.01) per stage; the last stage runs at exactly
    ``mu_final``, the only stage when ``mu_final >= 0.01``.  The start
    keeps the fraction ``k / (k + 1)`` of each edge's boundary scale,
    ``k = (H - d + 1) (n + 1)`` at depth ``d``.
    Each stage takes Newton steps, each cut to 0.99 of the way to the
    boundary (the full step when that lies beyond it) with no line
    search, at most 40, until half the squared Newton decrement is small:
    at most ``_MID_STAGE_DECREMENT * mu`` (3 mu, a barrier-scaled
    decrement ``lambda^2 / mu <= 6``) in a stage above ``mu_final``,
    and at most ``max(1e-13, 1e-3 * mu_final)`` in the last stage.  The
    bound holds for the whole decrement and for every node's term of it
    over the node's probability, so no stage ends short of its 40 steps
    while a rare node is off its path.  Only the last iterate is
    returned, and the next
    stage's predictor tolerates a loosely centred start.  Each cut from
    ``mu`` to ``mu'`` first takes one predictor step along the
    central-path tangent,
    ``(1 - mu'/mu) H^-1 (mu grad barrier)``, cut to 0.99 of the way to
    the boundary; it counts in ``iterations``.  A Newton decrement or a
    final plan that is not finite raises :class:`SolverError`.

    ``mu_final`` must be finite and at least ``_MU_FINAL_FLOOR`` (1e-15,
    about 4.5 units of double rounding), else :class:`ValueError` is
    raised before any work.  Near the end every barrier row's slack is
    about ``mu_final`` times its node's scale; below a few rounding units
    the residual rows round to zero and the barrier is undefined (on a
    2-asset coin tree 5e-16 still solves and 3e-16 divides by zero).

    Deterministic: no randomness anywhere in the solve.
    """
    if not _MU_FINAL_FLOOR <= mu_final < np.inf:
        raise ValueError(f"mu_final must be finite and at least "
                         f"{_MU_FINAL_FLOOR:g}, got {mu_final!r}")
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
    mu = max(_MU_FACTOR, mu_final)
    while True:
        stage_tol = (_MID_STAGE_DECREMENT * mu if mu > mu_final
                     else max(1e-13, 1e-3 * mu))
        for _ in range(40):
            X, dec, worst = prog.newton_step(X, mu)
            iterations += 1
            if max(dec, worst) / 2.0 <= stage_tol:
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

    # feasibility audit: barrier iterates must be strictly inside, and a
    # plan that is not finite (its rows read nan) fails it too
    worst = max(float(g.residual_rows(X).max()) for g in prog.groups)
    if not worst <= 1e-8:
        raise SolverError(f"plan left the feasible set: residual {worst}")
    plan = ContingentPlan(tree, X, units=(
        "physical" if any(g.cone.family == CURRENCY for g in prog.groups)
        else "market"))
    value = prog.objective_value(X)

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
    prices (one sum over their consecutive ids, added as
    :meth:`DualPlan.expected_next` adds them).  Returns the dual and
    its largest support residual ``|p_v . x_parent - 1|``, bit for bit
    the ``support_residual`` of :func:`vngale.certify.check_rapid`.
    """
    term = prog.leaf_w / (prog.leaf_w * X[prog.leaves]).sum(axis=1)[:, None]
    prices = np.zeros((tree.n_nodes, prog.n))
    ds = tree.depth_start
    e = np.empty_like(prices)
    e[prog.leaves] = term
    for d in range(tree.horizon, 0, -1):
        lo, hi = ds[d], ds[d + 1]
        if d < tree.horizon:
            kids = slice(hi, ds[d + 2])
            e[lo:hi] = _child_sums(tree, tree.cond_prob[kids, None]
                                   * prices[kids], lo, hi)
        for g in prog.by_depth[d - 1]:
            prices[g.at] = _least_price(g.cone.exchange, e[g.at])
    support = _node_dots(prices[1:], X[tree.parent[1:]])
    return DualPlan(tree, prices, term), float(np.abs(support - 1.0).max())


# ---------------------------------------------------------------------------
# Stationary equilibria


class _StationaryProgram:
    """Stationary growth objective with transition cones resolved once.

    ``src[t] -> dest[t]`` are the positive-probability transitions, in
    row-major order, and ``weight`` their stationary weights ``pi(u) P(u,
    v)`` where that is positive (the ``live`` transitions).  With
    ``states`` the weights are ``P(u, v)`` on the transitions out of
    those states and zero elsewhere: their expected one-step growth.
    ``groups`` holds each distinct cone once, in order of first use, with
    its transitions ``ts`` and their ``src[ts]`` and ``dest[ts]``.
    """

    def __init__(self, spec, cone_table, states=None):
        self.pi = spec.stationary_distribution()
        self.k = spec.k
        self.src, self.dest = np.nonzero(spec.P > 0.0)
        self.cones = [cone_table.resolve(spec.states[u], spec.states[v])
                      for u, v in zip(self.src, self.dest)]
        if states is None:
            weight = self.pi[self.src]
        else:
            weight = np.zeros(self.k)
            weight[states] = 1.0
            weight = weight[self.src]
        weight = weight * spec.P[self.src, self.dest]
        self.live = weight > 0.0
        self.weight = weight[self.live]
        # the states the ascent moves: those whose transitions carry weight
        self.movable = np.zeros(self.k, dtype=bool)
        self.movable[self.src[self.live]] = True
        n = cone_table.n
        # a movable coordinate's barrier weight is its state's weight out
        self.coords = np.flatnonzero(np.repeat(self.movable, n))
        self.coord_weight = np.bincount(self.src[self.live], self.weight,
                                        self.k).repeat(n)[self.coords]
        by_cone = {}
        for t, cone in enumerate(self.cones):
            by_cone.setdefault(id(cone), (cone, []))[1].append(t)
        self.groups = [(cone, np.array(ts), self.src[ts], self.dest[ts])
                       for cone, ts in by_cone.values()]
        # the live transitions' facet rows, padded with rows of no load,
        # and the flat positions of (x(u), x(v)) and of its Hessian block
        live = np.flatnonzero(self.live)
        R = max(self.cones[t].facets[0].shape[0] for t in live)
        self.C, self.D = np.zeros((2, live.size, R, n))
        for i, t in enumerate(live):
            C, D = self.cones[t].facets
            self.C[i, :len(C)], self.D[i, :len(D)] = C, D
        self.pos = (np.stack([self.src[live], self.dest[live]], axis=1)[
            ..., None] * n + np.arange(n)).reshape(live.size, 2 * n)
        self.cell = self.pos[:, :, None] * (self.k * n) + self.pos[:, None, :]
        self.F = np.concatenate([self.C, -self.D], axis=-1)
        # simplex directions: a last coordinate moves by minus the others
        self.simplex = np.kron(np.eye(self.k)[:, self.movable],
                               np.vstack([np.eye(n - 1), -np.ones(n - 1)]))

    def factors(self, xs):
        """a[..., t]: largest scale of x(dest[t]) reachable from
        x(src[t]) across transition t (1 where no row binds).

        ``xs`` is one ``(k, n)`` table of proportions or a stack
        ``(M, k, n)`` of them.  Each cone is one boundary-scale call, over
        all of its transitions and the whole stack; a pair's value does
        not depend on the stack it sits in, so it is the value of a call
        per transition and table.
        """
        xs = np.asarray(xs, dtype=float)
        a = np.empty(xs.shape[:-2] + (self.src.size,))
        for cone, ts, src, dest in self.groups:
            a[..., ts] = _boundary_scale(cone, xs[..., src, :],
                                         xs[..., dest, :])
        return np.where(a < np.inf, a, 1.0)

    def state_factors(self, a):
        """alpha[..., v]: the least factor ``a`` of a transition into v
        (1 without any)."""
        into = self.dest == np.arange(self.k)[:, None]
        least = np.where(into, a[..., None, :], np.inf).min(axis=-1)
        return np.where(into.any(axis=1), least, 1.0)

    def growth(self, a):
        """Expected log growth ``sum_u pi(u) sum_v P(u, v) log a(u, v)`` of
        the transition factors ``a[..., t]``: a stacked table's sum runs
        along its own row, as it would alone."""
        return (self.weight * np.log(a.compress(self.live, axis=-1))
                ).sum(axis=-1)

    def value(self, xs):
        """:meth:`growth` of one table (a float) or a stack of them (an
        ``(M,)`` array); ``-inf`` where a live transition has no
        growth, as ``log 0``."""
        with np.errstate(divide="ignore"):
            f = self.growth(self.factors(xs))
        return float(f) if f.ndim == 0 else f

    def _rows(self, x):
        """Caps ``C_r x(u)``, loads ``D_r x(v)``, logs ``log(cap / load)`` and
        rows with load, ``(M, T, R)``; a row without load logs ``+inf``."""
        flat = x.reshape(len(x), -1)
        n = x.shape[-1]
        cap = (self.C @ flat.take(self.pos[:, :n], axis=1)[..., None])[..., 0]
        load = (self.D @ flat.take(self.pos[:, n:], axis=1)[..., None])[..., 0]
        on = load > 0.0
        cap, load = np.where(on, cap, 1.0), np.where(on, load, 1.0)
        return cap, load, np.where(on, np.log(cap / load), np.inf), on

    def centre(self, rows, mu):
        """``s`` near the minimizer of :meth:`barrier`, ``sum_r 1 / (g_r -
        s) = 1 / mu``: two Newton steps on the log of the least slack from
        ``mu``, exact for one binding row or for equal rows."""
        g = rows[2]
        least = g.min(axis=-1)
        gap = g - least[..., None]
        y = mu = mu[:, None]
        for _ in range(2):
            inv = 1.0 / (gap + y[..., None])
            total = inv.sum(axis=-1)
            y = y * np.exp(np.log(total * mu) * total
                           / (y * (inv * inv).sum(axis=-1)))
        return least - y

    def barrier(self, x, s, mu, rows=None):
        """``-sum_t w_t s_t`` less ``mu`` times the weighted logs of every
        row's slack ``g_r - s_t`` and every movable coordinate, at tables
        ``x`` with their :meth:`_rows` ``rows``; ``+inf`` outside."""
        g, on = (self._rows(x) if rows is None else rows)[2:]
        slack = np.where(on, np.log(g - s[..., None]), 0.0)
        logs = (self.weight[:, None] * slack).reshape(len(x), -1).sum(-1) \
            + (self.coord_weight * np.log(x.reshape(len(x), -1).take(
                self.coords, axis=1))).sum(axis=-1)
        phi = -(self.weight * s).sum(axis=-1) - mu * logs
        return np.where(np.isnan(phi), np.inf, phi)

    def newton_step(self, x, s, mu, rows):
        """Newton step ``(dx[:, 0], ds)`` of :meth:`barrier` on the simplex,
        its decrement, and ``dx[:, 1]`` along the central path's tangent to
        ``mu * _MU_FACTOR``.  The Hessian drops the curvature of ``-log D_r
        x(v)``; ``s`` is eliminated; blocks add in transition order."""
        M, k, n = x.shape
        K = k * n
        cap, load, g, on = rows
        h = g - s[..., None]
        q = np.where(on, mu[:, None, None] * self.weight[:, None], 0.0) / h
        rho = q / h
        sigma = rho.sum(axis=-1)
        # per row, grad h = (C_r / cap, -D_r / load) on (x(u), x(v))
        E = self.F / np.repeat(np.stack([cap, load], axis=-1), n, axis=-1)
        Et = E.swapaxes(-1, -2)
        b, grad = np.moveaxis(Et @ np.stack([rho, q], axis=-1), -1, 0)
        B = (Et * rho[..., None, :]) @ E
        B[..., :n, :n] += (Et[..., :n, :] * q[..., None, :]) @ E[..., :n]
        B -= b[..., :, None] * (b / sigma[..., None])[..., None, :]
        # the gradient in s, with and without the objective's
        g_s = q.sum(axis=-1)[:, None] - [[1.0], [0.0]] * self.weight
        gx = b[:, None] * (g_s / sigma[:, None])[..., None] - grad[:, None]
        m = np.arange(M)[:, None, None, None]
        G = np.bincount(((2 * m + np.arange(2)[:, None, None]) * K
                         + self.pos).ravel(), gx.ravel(), 2 * M * K)
        H = np.bincount((m * K * K + self.cell).ravel(), B.ravel(), M * K * K)
        G, H = G.reshape(M, 2, K), H.reshape(M, K * K)
        xm = x.reshape(M, K).take(self.coords, axis=1)
        wc = mu[:, None] * self.coord_weight / xm
        G[:, :, self.coords] -= wc[:, None]
        H[:, self.coords * (K + 1)] += wc / xm
        Z = self.simplex
        Hr = Z.T @ H.reshape(M, K, K) @ Z
        diag = Hr.reshape(M, -1)[:, ::Hr.shape[-1] + 1]
        # relative ridge, as in the tree's Newton blocks
        diag += 1e-14 * diag.max(axis=-1)[:, None]
        dx = np.linalg.solve(Hr, -(G @ Z).swapaxes(-1, -2)).swapaxes(-1, -2) \
            @ Z.T
        ds = (b * dx[:, 0].take(self.pos, axis=1)).sum(axis=-1) - g_s[:, 0]
        dec = (g_s[:, 0] ** 2 / sigma).sum(axis=-1) \
            - (G[:, 0] * dx[:, 0]).sum(axis=-1)
        dx[:, 1] *= _MU_FACTOR - 1.0
        return dx.reshape(M, 2, k, n), ds / sigma, dec


def _ascend(xs0, prog):
    """The tables that damped Newton steps on the barrier reach from the
    starts ``xs0`` ``(S, k, n)``, each on its own schedule in one batch,
    ending bit for bit where it would alone.  A start first moves halfway
    to the uniform table (a Newton step at most doubles a coordinate),
    and ``s`` is centred before each step.  ``mu`` falls by
    ``_MU_FACTOR`` from ``_MU_FACTOR`` to 1e-14, in one tangent step each
    time half the decrement is at most ``mu / 10`` (a cut multiplies the
    centring error by 100) or a stage has taken 40 steps.  Steps go at
    most 0.99 of the way to a face and halve (Armijo), four lengths at a
    time; a start that halves 60 times stops."""
    S, k, n = xs0.shape
    x = np.array(xs0, dtype=float)
    if n == 1:
        return x
    x[:, prog.movable] = (x[:, prog.movable] + 1.0 / n) / 2.0
    mu = np.full(S, _MU_FACTOR)
    steps = np.zeros(S, dtype=int)
    live = np.ones(S, dtype=bool)
    ladder = 0.5 ** np.arange(4)
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.any():
            rows = prog._rows(x)
            s = prog.centre(rows, mu)
            dxs, ds, dec = prog.newton_step(x, s, mu, rows)
            base = prog.barrier(x, s, mu, rows)
            centred = (dec / 2.0 <= 0.1 * mu) | (steps >= 40)
            last = mu * _MU_FACTOR < _MU_FINAL_FLOOR
            cut = live & centred & ~last
            live &= ~(centred & last)
            dx = np.where(cut[:, None, None], dxs[:, 1], dxs[:, 0])
            room = np.where(dx < 0.0, -x / dx, np.inf)
            t = np.minimum(1.0, 0.99 * room.reshape(S, -1).min(axis=-1))
            x[cut] += t[cut, None, None] * dx[cut]
            mu[cut] *= _MU_FACTOR
            steps = np.where(cut, 0, steps + (live & ~centred))
            wait = np.flatnonzero(live & ~centred)
            for _ in range(60 // len(ladder)):
                if not wait.size:
                    break
                tw = t[wait, None] * ladder
                tx = x[wait, None] + tw[..., None, None] * dx[wait, None]
                ts = s[wait, None] + tw[..., None] * ds[wait, None]
                phi = prog.barrier(tx.reshape(-1, k, n),
                                   ts.reshape(-1, ts.shape[-1]),
                                   np.repeat(mu[wait], len(ladder)))
                ok = phi.reshape(tw.shape) \
                    <= base[wait, None] - 0.25 * tw * dec[wait, None]
                hit = ok.any(axis=1)
                x[wait[hit]] = tx[hit, ok[hit].argmax(axis=1)]
                t[wait] *= 0.5 ** len(ladder)
                wait = wait[~hit]
            live[wait] = False
    return x


def _polish(xs, prog):
    """``xs`` with its movable coordinates at most 1e-6 (the ascent leaves
    them near ``mu``) set to 0, unless that lowers the value."""
    out = np.where(prog.movable[:, None] & (xs <= 1e-6), 0.0, xs)
    out /= out.sum(axis=1, keepdims=True)
    return out if prog.value(out) >= prog.value(xs) else xs


def solve_stationary_equilibrium(spec: MarkovSpec, cone_table,
                                 starts: int = 32,
                                 seed: int = 0) -> EquilibriumResult:
    """Balanced strategy maximizing expected log growth, with prices.

    A balanced strategy holds proportions ``x(s)`` in state s and grows
    by ``a(u, v)``, the largest feasible scale from ``x(u)`` toward
    ``x(v)``, across each positive-probability transition u -> v.  Its
    rate ``sum_u pi(u) sum_v P(u, v) log a(u, v)`` is ascended from the
    uniform table, ``starts - 1`` seeded Dirichlet draws and the ``n``
    one-asset tables (:func:`_ascend`); after the one-asset tables as
    they are, in start order, an end replaces the best when higher by
    more than 1e-12, and the best is polished.  Each
    transient class, after the classes it reaches, takes its best
    one-step growth alike with the other states held.  Prices and the
    certificate residual come from :func:`extract_equilibrium_prices`.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    _require_assumptions(cone_table)
    k, n = spec.k, cone_table.n
    prog = _StationaryProgram(spec, cone_table)
    pi = prog.pi
    rng = np.random.default_rng(seed)

    xs0 = np.concatenate([np.full((1, k, n), 1.0 / n),
                          rng.dirichlet(np.ones(n), size=(starts - 1, k)),
                          np.repeat(np.eye(n)[:, None], k, axis=1)])
    # one-asset tables as they are first: an ascent must gain 1e-12 on them
    ends = np.concatenate([xs0[-n:], _ascend(xs0, prog)])
    best = (-np.inf, None)
    for xs, f in zip(ends, prog.value(ends)):
        if f > best[0] + 1e-12:
            best = (f, xs)
    if best[1] is None or not np.isfinite(best[0]):
        raise SolverError("no start produced a positive growth factor")

    xs = _polish(best[1], prog)
    # the transient classes by the number of states they reach: a class
    # comes after every class it reaches
    R, closed = _reach(spec.P)
    size = R.sum(axis=1)
    for m in sorted(set(size[~closed])):
        group = np.flatnonzero(~closed & (size == m))
        one_step = _StationaryProgram(spec, cone_table, group)
        xs = _polish(_ascend(xs[None], one_step)[0], one_step)
    a = prog.factors(xs)
    alpha = prog.state_factors(a)
    states = spec.states
    strategy = BalancedStrategy(
        x={states[s]: xs[s] for s in range(k)},
        alpha={states[s]: float(alpha[s]) for s in range(k)},
        factors={_transition_key(states[u], states[v]): float(a_t)
                 for u, v, a_t in zip(prog.src, prog.dest, a)},
    )
    prices, residual = extract_equilibrium_prices(strategy, spec,
                                                  cone_table)
    return EquilibriumResult(
        strategy=strategy,
        prices=prices,
        log_growth=float(prog.growth(a)),
        certificate_residual=residual,
        stationary={states[s]: float(pi[s]) for s in range(k)},
    )


def extract_equilibrium_prices(strategy: BalancedStrategy,
                               spec: MarkovSpec, cone_table):
    """Stationary supporting prices for a balanced strategy.

    Prices are keyed by transition.  ``p(u, v) >= 0`` support the
    strategy when, over every positive-probability transition u -> v
    with growth factor ``a(u, v)``, ``p(u, v) . x(u) = 1`` (the support
    rows) and ``G_uv[i, j] q(v)_i / a(u, v) <= p(u, v)_j`` (the dual-cone
    rows), with ``q(u) = sum_v P(u, v) p(u, v)`` the expected next price
    in state u.  Given ``q`` the least such ``p(u, v)`` is ``max_i
    G_uv[i, :] q(v)_i / a(u, v)``, the tree dual's recursion on the
    chain, and the iteration runs on ``q``: ``T(q)(u) = sum_v P(u, v)
    max_i G_uv[i, :] q(v)_i / a(u, v)``.  ``T`` is monotone and
    homogeneous of degree one, and its eigenvector is the price (Gaubert
    & Gunawardena, Trans. AMS 356, 2004).  Each closed class (its states
    reach back every state they reach) is priced alone and scaled so
    that the support products of its transitions centre on 1, then the
    transient states with the class prices fixed.  Policy iteration
    prices each: ``T`` is the max of affine maps ``q = A q + b``, one per
    choice of ``i`` for each entry ``p(u, v)_j``, and a round solves the
    top choices' map until no other choice prices higher there.  It
    takes the least solution where ``A`` has spectral radius below 1 on
    transient states, else one inverse-iteration step toward ``A``'s
    eigenvector.

    Returns ``(prices, residual)``.  ``prices`` maps each transition
    ``"u->v"`` to ``p(u, v)`` and each state v to the elementwise max of
    ``p(u, v)`` over the transitions into it (zero without any); a
    transition without a factor of its own grows by ``alpha(v)``.  The
    residual is the largest row violation, with all support products
    centred on 1.  On a closed class ``T(q) = lambda q`` forces ``lambda
    >= 1``, with equality and equal support products exactly when some
    price supports the strategy there, so without transient states the
    residual is numerically zero exactly when the strategy is rapid in
    the stationary sense.  A transient predecessor's support row can ask
    for a class price other than the class's own eigenvector, and
    proportions keyed by state cannot follow the last move where a
    transition's cone would reward that; no price found supports
    either.
    """
    states = spec.states
    xs = np.stack([strategy.x[s] for s in states])
    k, n = xs.shape
    src, dest = np.nonzero(spec.P > 0.0)
    G = np.stack([cone_table.resolve(states[u], states[v]).exchange
                  for u, v in zip(src, dest)])  # G[t] of transition t
    a = _step_factors(strategy, states)[src, dest]
    step = spec.P[src, dest]
    S = np.zeros((k, len(src)))  # q = S @ p
    S[src, np.arange(len(src))] = step

    def offers(q):
        """``G_t[i, j] q(v)_i / a_t`` at ``[t, j, i]`` for transition t = u
        -> v; ``p(u, v)`` is the max over the last axis."""
        return (G * (q[dest] / a[:, None])[:, :, None]).transpose(0, 2, 1)

    def scaled(q, rows):
        """``q`` with the support products of the transitions ``rows``
        centred on 1, and the largest violation of all rows there."""
        p = offers(q).max(axis=-1)
        support = (p * xs[src]).sum(axis=1)
        c = 2.0 / (support[rows].min() + support[rows].max())
        return c * q, max(float(np.abs(c * support - 1.0).max()),
                          float(c * (offers(S @ p).max(axis=-1) - p).max()))

    R, closed = _reach(spec.P)

    # policy iteration per block; A is the linear piece of T at the choices
    t, j = np.indices((len(src), n))
    q = np.ones((k, n))
    for c in sorted(set(np.where(closed, R.argmax(axis=1), k))):
        block = R[c] if c < k else ~closed  # c < k: a class's first state
        e, transient, rows = np.repeat(block, n), c == k, block[src]
        choice = offers(q).argmax(axis=-1)
        for _ in range(_PRICE_ROUNDS):
            A = np.zeros((k, n, k, n))
            A[src[t], j, dest[t], choice] = (step / a)[t] * G[t, choice, j]
            A = A.reshape(k * n, k * n)[e]
            B, b = A[:, e], A[:, ~e] @ q.ravel()[~e]
            I, rho = np.eye(len(B)), np.linalg.eigvals(B).real.max()
            if transient and rho < 1.0:  # least solution of y = B y + b
                y = np.linalg.solve(I - B, b)
            else:  # one inverse-iteration step toward B's eigenvector
                y = np.linalg.solve((1.0 + 1e-13) * rho * I - B, q.ravel()[e])
                y = y / y[np.abs(y).argmax()]
            q[block] = np.maximum(y, 0.0).reshape(-1, n)
            O = offers(q)
            own = np.take_along_axis(O, choice[..., None], axis=-1)[..., 0]
            beaten = rows[:, None] & (O.max(-1) > own + 1e-13 * own.max())
            if not beaten.any():
                break
            choice = np.where(beaten, O.argmax(axis=-1), choice)
        if not transient:
            q[block] = scaled(q, rows)[0][block]

    q, residual = scaled(q, slice(None))
    p = offers(q).max(axis=-1)
    prices = {states[v]: p[dest == v].max(axis=0, initial=0.0)
              for v in range(k)}
    prices.update({_transition_key(states[u], states[v]): p_t
                   for u, v, p_t in zip(src, dest, p)})
    return prices, residual


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
