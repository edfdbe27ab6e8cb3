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

from .cones import boundary_scale, dual_violation
from .plans import BalancedStrategy, ContingentPlan, DualPlan
from .scenario import MarkovSpec, ScenarioTree, sample_paths
from .solver import _StationaryProgram

__all__ = [
    "CertificateReport",
    "DominanceReport",
    "check_rapid",
    "supermartingale_defect",
    "asymptotic_dominance",
]


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of the support/dual-cone/supermartingale conditions.

    support_residual        max over nodes of |p . x_prev - 1|
    dual_cone_residual      max over nodes of the dual-cone violation
                            (0 when every pair is inside the cone)
    supermartingale_defect  max over competitors and nodes of the
                            expected deflated gain E(p_next . y) - p . y_prev
    verdict                 "pass" iff all three are within tolerance
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
        }


def _same_tree(t1: ScenarioTree, t2: ScenarioTree) -> bool:
    return t1 is t2 or (t1.n_nodes == t2.n_nodes
                        and np.array_equal(t1.parent, t2.parent)
                        and np.array_equal(t1.state, t2.state))


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
    if not (_same_tree(tree, y.tree) and _same_tree(tree, dual.tree)):
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


def _competitor_plans(plan: ContingentPlan, cone_table, count: int,
                      seed: int):
    """Deterministic and seeded random self-financing competitors.

    Buy-and-hold plans ride a single asset and scale to the cone
    boundary at every step (these are the extreme rays of the reachable
    slice); the disposal plan follows the certified plan while throwing
    away 10% of it per period; the rest rebalance to a random simplex
    direction scaled to the boundary.  All start from the plan's own
    initial portfolio.
    """
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


def check_rapid(plan: ContingentPlan, dual: DualPlan, cone_table,
                tol: float = 1e-6, defect_tol: float = 1e-8,
                competitors: int = 100, seed: int = 0) -> CertificateReport:
    """Verify that ``dual`` certifies ``plan`` as rapid.

    Checks, node by node with exact conditional expectations:

    * support: ``p . x_prev = 1`` within ``tol``;
    * dual cone: ``(p, E p_next)`` inside the dual cone of the step,
      violation within ``tol``;
    * supermartingale: the deflated value of ``competitors`` random
      self-financing plans (plus buy-and-hold and disposal plans) never
      gains more than ``defect_tol`` in expectation at any node.

    The plan itself is assumed self-financing (see
    :func:`vngale.plans.is_self_financing`).
    """
    if dual is None:
        raise ValueError("no dual plan given; solve with extract_dual=True "
                         "or construct one explicitly")
    tree = plan.tree
    if not _same_tree(tree, dual.tree):
        raise ValueError("plan and dual live on different trees")
    if dual.n != plan.n:
        raise ValueError("plan and dual disagree on dimension: "
                         f"{plan.n} vs {dual.n}")

    node_support = {}
    node_dual = {}
    for v in range(1, tree.n_nodes):
        node_support[v] = abs(float(dual.prices[v] @ plan.x[tree.parent[v]])
                              - 1.0)
        cone = cone_table.resolve(*tree.transition_label(v))
        node_dual[v] = dual_violation(cone, dual.prices[v],
                                      dual.expected_next(v))

    node_defect = {v: -np.inf for v in range(1, tree.n_nodes)}
    for _name, y in _competitor_plans(plan, cone_table, competitors, seed):
        for v, d in supermartingale_defect(dual, y).items():
            if d > node_defect[v]:
                node_defect[v] = d

    support = max(node_support.values())
    dual_res = max(0.0, max(node_dual.values()))
    defect = max(node_defect.values())
    ok = support <= tol and dual_res <= tol and defect <= defect_tol
    return CertificateReport(
        support_residual=support,
        dual_cone_residual=dual_res,
        supermartingale_defect=defect,
        tol=tol,
        defect_tol=defect_tol,
        verdict="pass" if ok else "fail",
        node_support=node_support,
        node_dual_cone=node_dual,
        node_defect=node_defect,
        competitors=plan.n + 1 + competitors,
        seed=seed,
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
        for row in self.rows:
            for key, val in row.items():
                if key == "competitor":
                    continue
                writer.writerow([row["competitor"], key, repr(float(val))])
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
    """
    if length < 1 or paths < 1:
        raise ValueError("length and paths must be >= 1")
    strategy = getattr(equilibrium, "strategy", equilibrium)
    k, n = spec.k, cone_table.n

    xs = np.stack([np.asarray(strategy.x[s], dtype=float)
                   for s in spec.states])
    log_ax = np.log(_require_positive(
        np.array([strategy.alpha[s] for s in spec.states]), "the strategy"))
    prog = _StationaryProgram(spec, cone_table)

    entries = []
    for i in range(n):
        e_i = np.zeros(n)
        e_i[i] = 1.0
        prop = np.tile(e_i, (k, 1))
        entries.append((f"hold-{i}", prop, prog.growth_factors(prop)))
    entries.append(("dispose-10", xs, 0.9 * np.exp(log_ax)))
    rng = np.random.default_rng(seed)
    for j in range(competitors):
        prop = rng.dirichlet(np.ones(n), size=k)
        entries.append((f"random-{j}", prop, prog.growth_factors(prop)))
    for name in sorted(include or {}):
        extra = include[name]
        prop = np.stack([np.asarray(extra.x[s], dtype=float)
                         for s in spec.states])
        alph = np.array([extra.alpha[s] for s in spec.states])
        entries.append((name, prop, alph))

    S = sample_paths(spec, length, paths, seed)
    lx = np.cumsum(log_ax[S], axis=1)
    growth_x = lx[:, -1] / length

    rows = []
    for name, _prop, alph in entries:
        log_ay = np.log(_require_positive(alph, f"competitor {name!r}"))
        ly = np.cumsum(log_ay[S], axis=1)
        rel = ly - lx  # log wealth ratio y over x, starts at 0 before t=1
        growth_y = ly[:, -1] / length
        gap = growth_x - growth_y
        se = (float(gap.std(ddof=1)) / np.sqrt(paths)) if paths > 1 else 0.0

        run = np.maximum.accumulate(np.hstack([np.zeros((paths, 1)), rel]),
                                    axis=1)
        max_ratio = np.exp(run[:, -1])
        # stabilized: the running maximum sets no record in the last
        # half of the horizon (strict increases only)
        tail = length // 2
        stable = run[:, -1] <= run[:, length - tail]
        rows.append({
            "competitor": name,
            "mean_growth_strategy": float(growth_x.mean()),
            "mean_growth_competitor": float(growth_y.mean()),
            "mean_gap": float(gap.mean()),
            "se_gap": float(se),
            "mean_max_ratio": float(max_ratio.mean()),
            "worst_max_ratio": float(max_ratio.max()),
            "stabilized_fraction": float(stable.mean()),
        })

    return DominanceReport(
        length=length,
        paths=paths,
        seed=seed,
        strategy_growth=float(prog.pi @ log_ax),
        rows=tuple(rows),
    )


def _require_positive(alpha: np.ndarray, who: str) -> np.ndarray:
    if (alpha <= 0.0).any() or not np.isfinite(alpha).all():
        raise ValueError(f"{who} has a nonpositive growth factor; "
                         "wealth would hit zero along some path")
    return alpha
