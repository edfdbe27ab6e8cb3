"""Numerical certificates of optimality and dominance diagnostics.

A plan is certified through a price process supporting it: the support
products p . x must equal one along every node, each pair of a price and
its one-step conditional expectation must lie in the dual cone of that
step, and consequently the deflated value of every competing
self-financing plan drifts downward (a supermartingale).  The checks
here measure all three conditions with exact tree arithmetic.  The
supermartingale property is probed against deterministic competitors
(buy-and-hold per asset, which are the extreme rays of the feasible
slice, and a disposal variant of the certified plan) plus seeded random
rebalance plans.

Growth-rate dominance of a balanced strategy is a statement about
infinite horizons, so it is reported as finite-sample diagnostics:
strategies are expanded along simulated state paths and per-competitor
wealth-ratio and empirical growth-rate statistics are collected.  All
randomness is seeded; reports are bit-reproducible.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .cones import (
    _boundary_scale,
    _by_depth,
    _dual_violation,
    _group_edges,
    boundary_scale,  # not called here; perfbench/tracing.py wraps both
    dual_violation,
)
from .plans import ContingentPlan, DualPlan, _node_dots, _step_factors
from .scenario import MarkovSpec, ScenarioTree, sample_paths
from .solver import _StationaryProgram

__all__ = [
    "CertificateReport",
    "DominanceReport",
    "check_rapid",
    "supermartingale_defect",
    "asymptotic_dominance",
]

# Competitors are rolled out a chunk at a time.  A chunk of K plans is one
# (K, nodes, n) array, and its stacked boundary-scale calls hold
# (K, depth width, facet rows) ratios; K is the largest count that keeps
# every such array within this many elements (at least one plan).
_CHUNK_ELEMENTS = 1 << 16
# asymptotic_dominance forms its steps' transition ids for at most this
# many (path, step) pairs at a time
_SWEEP_CHUNK_ELEMENTS = 1 << 13


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of the support/dual-cone/supermartingale conditions.

    support_residual        max over nodes of |p . x_prev - 1|
    dual_cone_residual      max over nodes of the dual-cone violation
                            (0 when every pair is inside the cone)
    supermartingale_defect  max over competitors and nodes of the
                            expected deflated gain E(p_next . y) - p . y_prev
    verdict                 "pass" iff all three are within tolerance
    worst_support, worst_dual_cone, worst_defect
                            the node attaining each per-node maximum (the
                            smallest id on ties): ``{"node": id, "path":
                            state labels from the root down to it ('*' for
                            a free root), "residual": its per-node value}``
    """

    support_residual: float
    dual_cone_residual: float
    supermartingale_defect: float
    tol: float
    defect_tol: float
    verdict: str
    node_support: dict
    node_dual_cone: dict
    node_defect: dict
    competitors: int
    seed: int
    worst_support: dict | None = None
    worst_dual_cone: dict | None = None
    worst_defect: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "support_residual": self.support_residual,
            "dual_cone_residual": self.dual_cone_residual,
            "supermartingale_defect": self.supermartingale_defect,
            "tol": self.tol,
            "defect_tol": self.defect_tol,
            "verdict": self.verdict,
            "competitors": self.competitors,
            "seed": self.seed,
            "node_support": {str(v): r for v, r in self.node_support.items()},
            "node_dual_cone": {str(v): r
                               for v, r in self.node_dual_cone.items()},
            "node_defect": {str(v): r for v, r in self.node_defect.items()},
            "worst_support": self.worst_support,
            "worst_dual_cone": self.worst_dual_cone,
            "worst_defect": self.worst_defect,
        }


def _require_same_tree(tree: ScenarioTree, y, dual) -> None:
    """Raise unless the plan ``y`` and ``dual`` share ``tree`` and ``n``."""
    for t in (y.tree, dual.tree):
        if not (t is tree or (t.n_nodes == tree.n_nodes
                              and np.array_equal(t.parent, tree.parent)
                              and np.array_equal(t.state, tree.state))):
            raise ValueError("plan and dual live on different trees")
    if dual.n != y.n:
        raise ValueError("plan and dual disagree on dimension: "
                         f"{y.n} vs {dual.n}")


def _deflated_gain(ahead, prices, y, y_parent):
    """``E(p_next . y) - p . y_parent`` for stacks of node rows."""
    return _node_dots(ahead, y) - _node_dots(prices, y_parent)


def supermartingale_defect(dual: DualPlan, y: ContingentPlan,
                           tree: ScenarioTree | None = None) -> dict:
    """Expected deflated gain of the plan ``y`` at every node.

    Returns ``{node: E(p_next . y_node) - p_node . y_parent}`` for all
    nodes of depth >= 1.  Every entry is <= 0 (up to roundoff) when the
    dual satisfies the dual-cone condition and ``y`` is self-financing;
    a positive entry pinpoints where the certificate fails.
    """
    if tree is None:
        tree = y.tree
    _require_same_tree(tree, y, dual)
    gain = _deflated_gain(dual.expected_next_rows()[1:], dual.prices[1:],
                          y.x[1:], y.x[tree.parent[1:]])
    return dict(zip(range(1, tree.n_nodes), gain.tolist()))


def _roll(x0, dirs, by_depth):
    """Competitor plans ``(K, nodes, n)`` from their directions: at every
    edge each plan moves to the cone boundary along its direction, one
    stacked boundary-scale call per (depth, edge group)."""
    K, N, _ = dirs.shape
    Y = np.empty_like(dirs)
    Y[:, 0] = x0
    first_bad = np.full(K, N)
    for parts in by_depth:
        for g in parts:
            d = dirs[:, g.at]
            t = _boundary_scale(g.cone, Y[:, g.at_parent], d)
            bad = ~np.isfinite(t) | (t <= 0.0)
            if bad.any():
                first_bad = np.minimum(first_bad,
                                       np.where(bad, g.nodes, N).min(axis=1))
                t = np.where(bad, 0.0, t)  # a collapsed plan stays at 0
            Y[:, g.at] = t[..., None] * d
    collapsed = np.flatnonzero(first_bad < N)
    if collapsed.size:
        raise ValueError(
            f"competitor wealth collapsed at node {first_bad[collapsed[0]]}; "
            "the cone table admits a zero-growth direction"
        )
    return Y


def _competitor_plans(plan: ContingentPlan, groups, count: int, seed: int):
    """Deterministic and seeded random self-financing competitors.

    Buy-and-hold plans ride a single asset and scale to the cone
    boundary at every step (these are the extreme rays of the reachable
    slice); the disposal plan follows the certified plan while throwing
    away 10% of it per period; the rest rebalance to a random simplex
    direction scaled to the boundary.  All start from the plan's own
    initial portfolio.

    Yields the plans in the order hold-i, dispose-10, random-k as stacked
    ``(K, nodes, n)`` arrays of at most ``_CHUNK_ELEMENTS`` per stacked
    array, rolling the edge groups ``groups`` out in their per-depth
    pieces (``cones._group_edges``, ``cones._by_depth``).  The random
    directions are drawn in plan order, one Dirichlet call per chunk.
    """
    tree, n, N = plan.tree, plan.n, plan.tree.n_nodes
    by_depth = _by_depth(tree, groups)
    rows = max(g.Fa.shape[0] for g in groups)
    per_plan = max(N * n, int(np.diff(tree.depth_start).max()) * rows)
    size = max(1, _CHUNK_ELEMENTS // per_plan)

    eye, alpha = np.eye(n), np.ones(n)
    rng = np.random.default_rng(seed)
    rolled = n + count  # buy-and-hold plans, then the random ones
    for start in range(0, rolled, size):
        stop = min(start + size, rolled)
        held = min(stop, n) - min(start, n)
        dirs = np.empty((stop - start, N, n))
        dirs[:held] = eye[start:start + held, None]
        dirs[held:] = rng.dirichlet(alpha, size=(stop - start - held, N))
        Y = _roll(plan.x[0], dirs, by_depth)
        if start < n <= stop:
            yield Y[:n - start]
            decay = 0.9 ** tree.depth.astype(float)
            yield (plan.x * decay[:, None])[None]
            Y = Y[n - start:]
        yield Y


def _running_max(best, values):
    """``best`` after ``if d > best: best = d`` for each row ``d`` of
    ``values`` in order: NaN never wins and a tie keeps the earlier
    value, so a signed zero is the one seen first."""
    if values.shape[0] == 0:
        return best
    v = np.where(np.isnan(values), -np.inf, values)
    top = v[np.argmax(v, axis=0), np.arange(v.shape[1])]
    return np.where(top > best, top, best)


def _worst(tree: ScenarioTree, residual) -> dict:
    """The node of depth >= 1 with the largest residual (``residual[v-1]``
    belongs to node ``v``), named by its state path; the first on ties,
    as ``max`` over the node map takes it, the sign of a zero included."""
    v = int(np.argmax(residual)) + 1
    labels = ["*" if tree.state[u] < 0 else tree.spec.states[tree.state[u]]
              for u in tree.path_to(v)]
    return {"node": v, "path": labels, "residual": float(residual[v - 1])}


def check_rapid(plan: ContingentPlan, dual: DualPlan, cone_table,
                tol: float = 1e-6, defect_tol: float = 1e-8,
                competitors: int = 100, seed: int = 0) -> CertificateReport:
    """Verify that ``dual`` certifies ``plan`` as rapid.

    Checks, node by node with exact conditional expectations:

    * support: ``p . x_prev = 1`` within ``tol`` (for a tree solve's
      plan and least dual, the largest is its ``kkt_residual``);
    * dual cone: ``(p, E p_next)`` inside the dual cone of the step,
      violation within ``tol``;
    * supermartingale: the deflated value of ``competitors`` random
      self-financing plans (plus buy-and-hold and disposal plans) never
      gains more than ``defect_tol`` in expectation at any node.

    Every check runs over whole arrays: ``E p_next`` is one sum over the
    breadth-first child ranges, the dual-cone violation one closed form
    per edge group, and the competitors are rolled out in chunks, one
    stacked boundary-scale call per (depth, edge group) and one batched
    product for their deflated gains.

    The plan itself is assumed self-financing (see
    :func:`vngale.plans.is_self_financing`).
    """
    if competitors < 0:
        raise ValueError(f"competitors must be >= 0, got {competitors}")
    if dual is None:
        raise ValueError("no dual plan given; solve with extract_dual=True "
                         "or construct one explicitly")
    tree = plan.tree
    _require_same_tree(tree, plan, dual)

    N = tree.n_nodes
    prices, ahead = dual.prices, dual.expected_next_rows()
    par = tree.parent[1:]
    support = np.abs(_node_dots(prices[1:], plan.x[par]) - 1.0)
    groups = _group_edges(tree, cone_table)
    violation = np.empty(N)
    for g in groups:
        violation[g.at] = _dual_violation(g.cone, prices[g.at], ahead[g.at])
    violation = violation[1:]

    defect = np.full(N - 1, -np.inf)
    for Y in _competitor_plans(plan, groups, competitors, seed):
        defect = _running_max(defect, _deflated_gain(
            ahead[1:], prices[1:], Y[:, 1:], Y[:, par]))

    worst = [_worst(tree, r) for r in (support, violation, defect)]
    support_res, dual_res, defect_res = (w["residual"] for w in worst)
    dual_res = max(0.0, dual_res)
    ok = support_res <= tol and dual_res <= tol and defect_res <= defect_tol
    return CertificateReport(
        support_residual=support_res,
        dual_cone_residual=dual_res,
        supermartingale_defect=defect_res,
        tol=tol,
        defect_tol=defect_tol,
        verdict="pass" if ok else "fail",
        node_support=dict(zip(range(1, N), support.tolist())),
        node_dual_cone=dict(zip(range(1, N), violation.tolist())),
        node_defect=dict(zip(range(1, N), defect.tolist())),
        competitors=plan.n + 1 + competitors,
        seed=seed,
        worst_support=worst[0],
        worst_dual_cone=worst[1],
        worst_defect=worst[2],
    )


# ---------------------------------------------------------------------------
# Monte Carlo dominance diagnostics


@dataclass(frozen=True)
class DominanceReport:
    """Per-competitor growth and wealth-ratio statistics over paths.

    Each row holds, for one competitor y against the strategy x:

    mean_growth_strategy    mean over paths of (1/L) ln|x_L|
    mean_growth_competitor  mean over paths of (1/L) ln|y_L|
    mean_gap, se_gap        mean and standard error of the per-path
                            growth-rate difference x minus y
    mean_max_ratio          mean over paths of max_t |y_t| / |x_t|
    worst_max_ratio         largest such maximum over all paths
    stabilized_fraction     fraction of paths whose ratio running
                            maximum sets no new record in the last
                            half of the horizon

    Finite-horizon statistics only: the limiting quantities they
    estimate are not observable from any finite sample.
    """

    length: int
    paths: int
    seed: int
    strategy_growth: float
    rows: tuple

    def to_dict(self) -> dict:
        return {
            "length": self.length,
            "paths": self.paths,
            "seed": self.seed,
            "strategy_growth": self.strategy_growth,
            "competitors": [dict(r) for r in self.rows],
        }

    def to_csv(self) -> str:
        """Long-form table: one row per competitor per statistic."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["competitor", "statistic", "value"])
        writer.writerows([row["competitor"], key, repr(float(val))]
                         for row in self.rows for key, val in row.items()
                         if key != "competitor")
        return buf.getvalue()


def asymptotic_dominance(equilibrium, spec: MarkovSpec, cone_table,
                         competitors: int = 20, length: int = 500,
                         paths: int = 200, seed: int = 0,
                         include: dict | None = None) -> DominanceReport:
    """Simulated growth-rate comparison of a balanced strategy.

    Expands the equilibrium strategy and each competitor along ``paths``
    simulated state paths of ``length`` steps and reports per-competitor
    statistics (see :class:`DominanceReport`).  Competitors: buy-and-hold
    of each asset, the strategy disposing 10% per period, ``competitors``
    seeded random proportion vectors, and any extra named strategies in
    ``include`` (a map name -> BalancedStrategy).

    ``equilibrium`` may be an EquilibriumResult or a BalancedStrategy.
    Every balanced plan steps by the growth factor of each transition it
    takes (its state factor on the first step, which has no
    predecessor); a competitor's factors are those the stationary solver
    assigns its proportions.

    The competitors' random proportions are one Dirichlet draw in
    competitor order (the numbers of one draw per competitor), their
    growth factors one stacked evaluation, and their factors are checked
    and logged as one ``(C, k + 1, k)`` stack; a nonpositive factor names
    the first competitor in row order that has one.  The simulation is
    one sweep over time for all C competitors at once: each step adds
    the sampled log growth factors, looked up by transition id, to the
    strategy's and every competitor's log wealth and folds their log
    wealth ratios into a running maximum.  Besides the sampled paths
    (paths x length states) memory is O(paths x C + C x k x (k + n)),
    and the transition ids are formed for at most
    ``_SWEEP_CHUNK_ELEMENTS`` steps x paths at a time.  The sums are
    added in time order, so the report is the same, bit for bit, as
    cumulating each competitor's paths separately.
    """
    if length < 1 or paths < 1:
        raise ValueError("length and paths must be >= 1")
    if competitors < 0:
        raise ValueError(f"competitors must be >= 0, got {competitors}")
    strategy = getattr(equilibrium, "strategy", equilibrium)
    k, n, states = spec.k, cone_table.n, spec.states

    # (k + 1, k) step factors: [previous state, state], row k the first step
    step_x = _require_positive(_step_factors(strategy, states),
                               "the strategy")
    log_ax = np.log(step_x)
    prog = _StationaryProgram(spec, cone_table)

    # buy-and-hold and seeded random proportions, one stacked evaluation
    rng = np.random.default_rng(seed)
    props = np.concatenate([
        np.broadcast_to(np.eye(n)[:, None], (n, k, n)),
        rng.dirichlet(np.ones(n), size=(competitors, k))])
    a = prog.factors(props)
    steps = np.ones((len(props), k + 1, k))
    steps[:, prog.src, prog.dest] = a
    steps[:, k] = prog.state_factors(a)
    extra = sorted(include or {})
    names = ([f"hold-{i}" for i in range(n)] + ["dispose-10"]
             + [f"random-{j}" for j in range(competitors)] + extra)
    steps = np.concatenate(
        [steps[:n], [0.9 * np.exp(log_ax)], steps[n:]]
        + [[_step_factors(include[name], states)] for name in extra])
    bad = ((steps <= 0.0) | ~np.isfinite(steps)).any(axis=(1, 2))
    if bad.any():
        c = int(bad.argmax())
        _require_positive(steps[c], f"competitor {names[c]!r}")
    # one row per step prev -> s, at prev * k + s
    C = len(names)
    log_ay = np.ascontiguousarray(np.log(steps).reshape(C, -1).T)
    lx, ly, best, half = _sweep(spec, length, paths, seed, log_ax.ravel(),
                                log_ay)

    # per-competitor statistics along the rows of C-contiguous (C, paths)
    # arrays: each row is summed pairwise, as a lone (paths,) array is
    # (a sum down the columns of (paths, C) would add in another order)
    growth_x = lx / length
    growth_y = np.ascontiguousarray(ly.T) / length
    gap = growth_x - growth_y
    se = (gap.std(axis=1, ddof=1) / np.sqrt(paths) if paths > 1
          else np.zeros(C))
    max_ratio = np.exp(np.ascontiguousarray(best.T))
    stats = {
        "mean_growth_competitor": growth_y.mean(axis=1),
        "mean_gap": gap.mean(axis=1),
        "se_gap": se,
        "mean_max_ratio": max_ratio.mean(axis=1),
        "worst_max_ratio": max_ratio.max(axis=1),
        # the running maximum sets no record in the last half of the
        # horizon (strict increases only)
        "stabilized_fraction": (best <= half).mean(axis=0),
    }
    mean_x = float(growth_x.mean())
    rows = [{"competitor": name, "mean_growth_strategy": mean_x,
             **{key: float(col[c]) for key, col in stats.items()}}
            for c, name in enumerate(names)]

    return DominanceReport(
        length=length,
        paths=paths,
        seed=seed,
        strategy_growth=float(prog.growth(step_x[prog.src, prog.dest])),
        rows=tuple(rows),
    )


def _sweep(spec: MarkovSpec, length: int, paths: int, seed: int,
           log_ax: np.ndarray, log_ay: np.ndarray):
    """One sweep over time for every competitor, along ``paths`` sampled
    paths of ``length`` steps.

    ``log_ax[prev * k + s]`` and ``log_ay[prev * k + s, c]`` are the log
    growth factors of the step prev -> s of the strategy and of
    competitor c, prev = k on the first step.  Returns the log wealths lx
    (paths,) and ly (paths, C); best, the running maximum of ly - lx (0
    before t = 1); and half, best before step mid, the record the second
    half of the horizon has to beat (best itself when the horizon is one
    step and has no second half).  The steps' transition ids are formed
    for at most ``_SWEEP_CHUNK_ELEMENTS`` steps x paths at a time, and
    the paths and ids are freed on return.
    """
    k, C = spec.k, log_ay.shape[1]
    S = sample_paths(spec, length, paths, seed)
    mid = length - length // 2
    lx = np.zeros(paths)
    ly = np.zeros((paths, C))
    best = half = np.zeros((paths, C))
    rel = np.empty((paths, C))
    prev = np.full(paths, k)
    span = max(1, _SWEEP_CHUNK_ELEMENTS // paths)
    for t0 in range(0, length, span):
        chunk = S[:, t0:t0 + span].T
        ids = np.empty(chunk.shape, dtype=np.int64)
        ids[0] = prev
        ids[1:] = chunk[:-1]
        ids *= k
        ids += chunk
        prev = chunk[-1]
        for t, tid in enumerate(ids, t0):
            if t == mid:
                half = best.copy()
            lx += log_ax[tid]
            ly += log_ay[tid]
            np.subtract(ly, lx[:, None], out=rel)
            np.maximum(best, rel, out=best)
    return lx, ly, best, half


def _require_positive(alpha: np.ndarray, who: str) -> np.ndarray:
    if (alpha <= 0.0).any() or not np.isfinite(alpha).all():
        raise ValueError(f"{who} has a nonpositive growth factor; "
                         "wealth would hit zero along some path")
    return alpha
