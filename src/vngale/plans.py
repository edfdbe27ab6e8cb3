"""Portfolio plans on scenario trees and their dual price processes.

A contingent plan assigns a nonnegative portfolio vector to every tree
node; it is self-financing when each parent-to-child pair of portfolios
lies in the solvency cone of that transition.  A dual plan assigns price
vectors to nodes of depth >= 1 plus a terminal expectation layer standing
in for the prices one step past the horizon.  Balanced strategies give
one proportion vector per Markov state and one growth factor per
transition, and expand into plans whose portfolios scale geometrically
along every path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import _group_edges, _membership_residual
from .scenario import ScenarioTree, _child_sums

__all__ = [
    "ContingentPlan",
    "DualPlan",
    "BalancedStrategy",
    "is_self_financing",
    "expand_balanced",
    "expand_balanced_dual",
    "ratio_process",
]


def _plan_array(tree: ScenarioTree, data, n: int | None = None,
                start_depth: int = 0):
    """Normalize a node->vector map (or array) to an (n_nodes, n) array.

    ``n`` defaults to the length of the vectors given.  The rows of every
    node of depth >= ``start_depth`` must be given, finite and
    nonnegative.  A map covers exactly those nodes: any other id
    (negative, past the last node, or of a shallower node) raises
    ``ValueError``, and the shallower rows are zero.  An array must have
    one row per node; its shallower rows are kept unchecked.
    """
    lo = int(tree.depth_start[start_depth])
    if isinstance(data, dict):
        if n is None:
            n = np.asarray(next(iter(data.values()))).size
        arr = np.full((tree.n_nodes, n), np.nan)
        arr[:lo] = 0.0
        for v, vec in data.items():
            if not lo <= int(v) < tree.n_nodes:
                raise ValueError(
                    f"node id {v} outside {lo}..{tree.n_nodes - 1}")
            arr[int(v)] = np.asarray(vec, dtype=float)
    else:
        arr = np.array(data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != tree.n_nodes \
                or n not in (None, arr.shape[1]):
            raise ValueError(
                f"expected array of shape ({tree.n_nodes}, {n or 'n'})"
            )
    if np.isnan(arr[lo:]).any():
        missing = int(np.flatnonzero(np.isnan(arr[lo:]).any(axis=1))[0] + lo)
        raise ValueError(f"no vector given for node {missing}")
    if not np.isfinite(arr[lo:]).all():
        raise ValueError("plan entries must be finite")
    if (arr[lo:] < 0).any():
        raise ValueError("plan entries must be nonnegative")
    return arr


@dataclass(frozen=True)
class ContingentPlan:
    """Nonnegative portfolio vector at every node of a scenario tree.

    ``units`` records the value convention: ``"market"`` when coordinates
    are position values (frictionless and transaction-cost families) or
    ``"physical"`` for unit holdings (currency family).
    """

    tree: ScenarioTree
    x: np.ndarray
    units: str = "market"

    def __init__(self, tree: ScenarioTree, portfolio, n: int | None = None,
                 units: str = "market"):
        if units not in ("market", "physical"):
            raise ValueError(f"unknown value convention: {units!r}")
        arr = _plan_array(tree, portfolio, n)
        arr.flags.writeable = False
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "x", arr)
        object.__setattr__(self, "units", units)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def vec(self, v: int) -> np.ndarray:
        return self.x[v]

    def wealth(self, v: int) -> float:
        return float(self.x[v].sum())

    def to_dict(self) -> dict:
        return {
            "units": self.units,
            "portfolio": dict(zip(map(str, range(self.tree.n_nodes)),
                                  self.x.tolist())),
        }

    @classmethod
    def from_dict(cls, tree: ScenarioTree, d: dict) -> "ContingentPlan":
        port = {int(k): v for k, v in d["portfolio"].items()}
        return cls(tree, port, units=d.get("units", "market"))


@dataclass(frozen=True)
class DualPlan:
    """Price vectors on nodes of depth >= 1 plus a terminal layer.

    ``prices[v]`` is the price vector at node ``v`` (row 0, the root, is
    all zero and unused).  ``terminal[i]`` holds the conditional
    expectation of the one-step-ahead price at the i-th leaf, standing in
    for the virtual layer past the horizon.
    """

    tree: ScenarioTree
    prices: np.ndarray
    terminal: np.ndarray

    def __init__(self, tree: ScenarioTree, prices, terminal):
        prices = _plan_array(tree, prices, start_depth=1)
        n = prices.shape[1]
        lo = int(tree.depth_start[tree.horizon])
        if isinstance(terminal, dict):
            terminal = _plan_array(tree, terminal, n, tree.horizon)[lo:]
        terminal = np.array(terminal, dtype=float)
        if terminal.shape != (tree.n_nodes - lo, n):
            raise ValueError("terminal layer must cover every leaf")
        if not np.isfinite(terminal).all() or (terminal < 0).any():
            raise ValueError("terminal prices must be finite and nonnegative")
        prices.flags.writeable = False
        terminal.flags.writeable = False
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "terminal", terminal)

    @property
    def n(self) -> int:
        return self.prices.shape[1]

    def vec(self, v: int) -> np.ndarray:
        if v == 0:
            raise ValueError("the root carries no price vector")
        return self.prices[v]

    def expected_next(self, v: int) -> np.ndarray:
        """E[p at the next step | node v].

        Exact child average below the horizon; at a leaf, the stored
        terminal expectation.
        """
        tree = self.tree
        if tree.depth[v] >= tree.horizon:
            return self.terminal[v - tree.depth_start[tree.horizon]]
        kids = tree.children(v)
        # summed as the tree solver's dual recursion sums v's depth, so
        # the dual-cone rows of its least prices hold exactly here
        return _child_sums(tree, tree.cond_prob[kids, None]
                           * self.prices[kids], v, v + 1)[0]

    def expected_next_rows(self) -> np.ndarray:
        """:meth:`expected_next` of every node, one row per node id.

        One sum over the consecutive child ranges of each depth's nodes
        (the same sums, so the rows equal the per-node values exactly),
        then the terminal layer at the leaves.
        """
        tree = self.tree
        ds = tree.depth_start
        S = tree.cond_prob[:, None] * self.prices
        out = np.empty_like(self.prices)
        for d in range(tree.horizon):
            out[ds[d]:ds[d + 1]] = _child_sums(tree, S[ds[d + 1]:ds[d + 2]],
                                               ds[d], ds[d + 1])
        out[ds[tree.horizon]:] = self.terminal
        return out

    def to_dict(self) -> dict:
        return {
            "prices": dict(zip(map(str, range(1, self.tree.n_nodes)),
                               self.prices[1:].tolist())),
            "terminal": dict(zip(map(str, self.tree.leaves().tolist()),
                                 self.terminal.tolist())),
        }

    @classmethod
    def from_dict(cls, tree: ScenarioTree, d: dict) -> "DualPlan":
        prices = {int(k): v for k, v in d["prices"].items()}
        term = {int(k): v for k, v in d["terminal"].items()}
        return cls(tree, prices, term)


def _transition_key(u: str, v: str) -> str:
    """The key ``"u->v"`` of a transition's growth factor or price."""
    return f"{u}->{v}"


@dataclass(frozen=True)
class BalancedStrategy:
    """Per-state proportions on the simplex and positive growth factors.

    Across a step u -> v, wealth held as ``x(u)`` grows to ``a * x(v)``,
    with ``a = factors["u->v"]``.  ``alpha(v)`` is a state's factor, the
    least over the transitions into v; it is the factor of a transition
    without a key (all of them when ``factors`` is None, a state-keyed
    strategy) and of a first step, which has no predecessor.
    """

    x: dict
    alpha: dict
    factors: dict | None = None

    def __init__(self, x: dict, alpha: dict, factors: dict | None = None):
        if set(x) != set(alpha):
            raise ValueError("x and alpha must cover the same states")
        if not x:
            raise ValueError("strategy must cover at least one state")
        xs = {}
        for s, vec in x.items():
            vec = np.asarray(vec, dtype=float)
            if (vec < 0).any() or abs(vec.sum() - 1.0) > 1e-12:
                raise ValueError(
                    f"proportions for state {s!r} must lie on the simplex"
                )
            vec = vec.copy()
            vec.flags.writeable = False
            xs[str(s)] = vec
        dims = {v.size for v in xs.values()}
        if len(dims) != 1:
            raise ValueError("proportion vectors disagree on dimension")
        keys = {_transition_key(u, v) for u in xs for v in xs}
        if factors is not None and not set(factors) <= keys:
            raise ValueError("factors must be keyed 'u->v' by states: "
                             f"{sorted(set(factors) - keys)}")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "alpha", _positive(alpha, "state"))
        object.__setattr__(self, "factors", None if factors is None
                           else _positive(factors, "transition"))

    @property
    def n(self) -> int:
        return next(iter(self.x.values())).size

    def log_growth_rate(self, pi: dict | np.ndarray, states=None) -> float:
        """State-keyed expected log growth sum_s pi(s) ln alpha(s).

        It is the growth of a strategy without transition factors; the
        stationary solver's ``log_growth`` weighs each transition's own
        factor instead.
        """
        if isinstance(pi, dict):
            return float(sum(w * np.log(self.alpha[s])
                             for s, w in pi.items()))
        states = list(states)
        return float(sum(pi[i] * np.log(self.alpha[s])
                         for i, s in enumerate(states)))

    def to_dict(self) -> dict:
        d = {
            "x": {s: v.tolist() for s, v in sorted(self.x.items())},
            "alpha": {s: a for s, a in sorted(self.alpha.items())},
        }
        if self.factors is not None:
            d["factors"] = dict(sorted(self.factors.items()))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BalancedStrategy":
        return cls(d["x"], d["alpha"], d.get("factors"))


def _positive(factors: dict, kind: str) -> dict:
    out = {}
    for s, a in factors.items():
        a = float(a)
        if not np.isfinite(a) or a <= 0:
            raise ValueError(f"growth factor for {kind} {s!r} must be > 0")
        out[str(s)] = a
    return out


def is_self_financing(plan: ContingentPlan, cone_table,
                      tol: float = 1e-9):
    """Check the cone constraint on every tree edge.

    Returns ``(ok, violations)`` where violations is a list of
    ``(node_id, residual)`` for the edges whose (parent, node) portfolio
    pair falls outside its solvency cone by more than ``tol`` (relative
    residual).  Raises ``KeyError`` when a transition has no cone.
    """
    X = plan.x
    res = np.empty(plan.tree.n_nodes)
    for cone, nodes, parents in _group_edges(plan.tree, cone_table):
        res[nodes] = _membership_residual(cone, X[parents], X[nodes])
    violations = [(int(v), float(res[v]))
                  for v in np.flatnonzero(res[1:] > tol) + 1]
    return (len(violations) == 0), violations


def _path_factors(strategy: BalancedStrategy, tree: ScenarioTree):
    """factor[v] = product of the growth factors of the transitions on
    the path to v; under a free root the first takes its state's alpha."""
    factor = np.ones(tree.n_nodes)
    # a free root has state -1, the row of the state factors
    step = _step_factors(strategy, tree.spec.states)
    ds = tree.depth_start
    for d in range(1, tree.horizon + 1):
        vs = slice(ds[d], ds[d + 1])
        par = tree.parent[vs]
        factor[vs] = factor[par] * step[tree.state[par], tree.state[vs]]
    return factor


def _step_factors(strategy, states) -> np.ndarray:
    """A strategy's growth factors as a ``(k + 1, k)`` array over
    ``states``: row u < k holds the transitions out of u, row k (index
    -1, a free root's state) the state factors that a first step takes.
    A strategy without transition factors steps by its state factors."""
    alpha = [strategy.alpha[v] for v in states]
    factors = getattr(strategy, "factors", None) or {}
    return np.array([[factors.get(_transition_key(u, v), a)
                      for v, a in zip(states, alpha)]
                     for u in states] + [alpha])


def _require_states(strategy: BalancedStrategy, tree: ScenarioTree):
    missing = [s for s in tree.spec.states if s not in strategy.x]
    if missing:
        raise KeyError(f"strategy missing states: {missing}")


def expand_balanced(strategy: BalancedStrategy,
                    tree: ScenarioTree) -> ContingentPlan:
    """Expand per-state proportions into a plan on the tree.

    The portfolio at a depth-t node with state path s_0 .. s_t is
    ``a(s_0, s_1) * ... * a(s_{t-1}, s_t) * x(s_t)``, with ``a`` the
    transition factors; the root holds ``x(s_0)``, so the tree must have
    been built with a root state.
    """
    _require_states(strategy, tree)
    if tree.state[0] < 0:
        raise ValueError(
            "tree has no root state; build it with root_state=... to "
            "expand a balanced strategy"
        )
    factor = _path_factors(strategy, tree)
    x_by_index = np.stack([strategy.x[s] for s in tree.spec.states])
    arr = factor[:, None] * x_by_index[tree.state]
    return ContingentPlan(tree, arr)


def expand_balanced_dual(strategy: BalancedStrategy, p: dict,
                         tree: ScenarioTree) -> DualPlan:
    """Expand stationary prices into a dual plan.

    ``p`` maps a transition ``"u->v"`` to its price ``p(u, v)``, and a
    state v to the price of a transition into v that has no key (all of
    them in a state-keyed file) or that starts at a free root.  The
    price at a node entered by u -> v is ``p(u, v)`` divided by the
    growth accumulated through the *parent*: one factor behind the
    portfolio expansion.  The terminal layer holds the exact conditional
    expectation of the virtual next-step prices, ``sum_w P(s_T, w)
    p(s_T, w) / factor(leaf)``.
    """
    _require_states(strategy, tree)
    states = tree.spec.states
    missing = [s for s in states if s not in p]
    if missing:
        raise KeyError(f"prices missing states: {missing}")
    factor = _path_factors(strategy, tree)
    # by_step[u, v] = p(u, v); row k (index -1, a free root) the state keys
    by_step = np.array([[p.get(_transition_key(u, v), p[v]) for v in states]
                        for u in states] + [[p[v] for v in states]],
                       dtype=float)
    par = tree.parent[1:]
    prices = np.zeros((tree.n_nodes, by_step.shape[2]))
    prices[1:] = by_step[tree.state[par], tree.state[1:]] / factor[par, None]
    leaves = tree.leaves()
    # E[p next | state s] once per state, then one division per leaf
    ahead = np.stack([P_s @ p_s for P_s, p_s in zip(tree.spec.P, by_step)])
    term = ahead[tree.state[leaves]] / factor[leaves, None]
    return DualPlan(tree, prices, term)


def ratio_process(x: ContingentPlan, y: ContingentPlan) -> dict:
    """Node-wise wealth ratio |y| / |x| (the process certified against a
    supermartingale bound in the rapidity check)."""
    if x.tree is not y.tree:
        raise ValueError("plans live on different trees")
    wx = x.x.sum(axis=1)
    if (wx <= 0).any():
        v = int(np.flatnonzero(wx <= 0)[0])
        raise ValueError(f"zero wealth at node {v} in the reference plan")
    wy = y.x.sum(axis=1)
    r = wy / wx
    return {int(v): float(r[v]) for v in range(x.tree.n_nodes)}
