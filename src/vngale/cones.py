"""Solvency cones for frictionless, transaction-cost and currency markets.

A solvency cone is the set of portfolio pairs ``(a, b)`` such that the
holdings ``a``, after returns are applied, can be rebalanced into ``b``
without injecting outside funds.  Self-financing trading strategies are
exactly the paths of the induced dynamical system: ``(x_{t-1}, x_t)`` must
lie in the cone attached to the step.

Every cone is one object, an exchange cone.  Its exchange matrix ``G``
(:attr:`ConeSpec.exchange`) holds in ``G[i, j]`` the units of asset ``i``
delivered per unit of asset ``j`` held before returns, and ``(a, b)`` is a
member when some nonnegative exchange matrix ``d`` ships at most ``a``
and delivers at least ``b``:

    sum_i d[i, j] <= a[j]      and      b[i] <= sum_j G[i, j] d[i, j].

The cone is generated by the rays ``(e_j, G[i, j] e_i)`` and the disposal
rays ``(e_j, 0)``, which gives the dual cone (``G[i, j] d_i <= c_j``) and
the dual violation in closed form.  The three constructors only differ in
``G``:

``frictionless(R)``
    Positions are market values and rebalancing preserves wealth:
    ``G[i, j] = R_j``.

``proportional_tc(R, lambda_plus, lambda_minus)``
    Buying one value unit of asset ``i`` costs ``1 + lambda_plus[i]``;
    selling one yields ``1 - lambda_minus[i]``:
    ``G[i, j] = R_j (1 - lm_j) / (1 + lp_i)`` and ``G[j, j] = R_j``.

``currency(mu)``
    Positions are physical units of ``n <= 6`` currencies and ``G = mu``
    (``mu[i, j] > 0`` units of ``i`` per unit of ``j``, ``mu[i, i] == 1``).

Every cone is also one finite set of facet rows (:attr:`ConeSpec.facets`):
``(a, b)`` with ``a >= 0`` is a member iff ``D b <= C a`` row-wise.
When ``G`` factors through cash (the first two families) the rows are
the budget rows (:attr:`ConeSpec.budget`): one row ``w`` per buy/sell
sign pattern, ``D = w`` and ``C = w * R``; a frictionless cone is its
single row of ones.  A currency cone's rows are the extreme rays of its
dual cone, enumerated once by double description.  Membership,
:func:`boundary_scale` and the standing-assumption checks are exact row
computations for every family; no linear program runs here except the
reference ``dual_violation(method="lp")``.

All cones are closed and convex, contain no short positions, and allow
free disposal.  Membership tests use a relative tolerance scaled by
``1 + |a| + |b|`` (L1 norms).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lp import lp_solve
from .scenario import _readonly

__all__ = [
    "FRICTIONLESS",
    "PROPORTIONAL_TC",
    "CURRENCY",
    "ConeSpec",
    "ConeTable",
    "ValidationReport",
    "DualConeRows",
    "contains",
    "membership_residual",
    "boundary_scale",
    "max_alpha",
    "dual_violation",
    "dual_contains",
    "dual_cone_rows",
    "liquidation_value",
    "wealth_weights",
    "sample_member",
    "validate_assumptions",
]

FRICTIONLESS = "frictionless"
PROPORTIONAL_TC = "proportional_tc"
CURRENCY = "currency"

# A generic n-currency cone has sum_s C(n, s) C(s + n - 2, s - 1) facet
# rows, about five times more per currency: 2364 at n = 6, 12642 at
# n = 7.  The tree barrier carries all of them on every edge.
MAX_CURRENCIES = 6


@dataclass(frozen=True)
class ConeSpec:
    """Specification of one solvency cone.

    Use the classmethod constructors; they validate parameter ranges.
    ``lambda_minus`` entries equal to 1 are accepted at construction (a
    fully illiquid sale) but are rejected by :func:`validate_assumptions`,
    which is the contract gate for well-posed models.
    """

    family: str
    n: int
    returns: np.ndarray | None = None
    lambda_plus: np.ndarray | None = None
    lambda_minus: np.ndarray | None = None
    mu: np.ndarray | None = None

    @classmethod
    def frictionless(cls, returns) -> "ConeSpec":
        r = _readonly(returns)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("returns must be a nonempty vector")
        if not np.isfinite(r).all() or (r <= 0).any():
            raise ValueError("returns must be finite and strictly positive")
        return cls(FRICTIONLESS, r.size, returns=r)

    @classmethod
    def proportional_tc(cls, returns, lambda_plus, lambda_minus) -> "ConeSpec":
        r = cls.frictionless(returns).returns
        lp_ = _readonly(np.broadcast_to(np.asarray(lambda_plus, dtype=float),
                                        r.shape))
        lm = _readonly(np.broadcast_to(np.asarray(lambda_minus, dtype=float),
                                       r.shape))
        if (lp_ < 0).any() or not np.isfinite(lp_).all():
            raise ValueError("lambda_plus must be finite and >= 0")
        if not ((lm >= 0) & (lm <= 1)).all():
            raise ValueError("lambda_minus must be finite and lie in [0, 1]")
        return cls(PROPORTIONAL_TC, r.size, returns=r, lambda_plus=lp_,
                   lambda_minus=lm)

    @classmethod
    def currency(cls, mu) -> "ConeSpec":
        m = _readonly(mu)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("mu must be a square matrix")
        if not np.isfinite(m).all() or (m <= 0).any():
            raise ValueError("exchange rates must be finite and positive")
        if not np.allclose(np.diag(m), 1.0, rtol=0, atol=1e-12):
            raise ValueError("diagonal exchange rates must equal 1")
        if m.shape[0] > MAX_CURRENCIES:
            raise ValueError(f"currency cones take at most {MAX_CURRENCIES} "
                             f"currencies, got {m.shape[0]}")
        return cls(CURRENCY, m.shape[0], mu=m)

    @cached_property
    def sell_rates(self) -> np.ndarray:
        """Cash per value unit sold: ``1 - lambda_minus``, else ones."""
        if self.lambda_minus is None:
            return _readonly(np.ones(self.n))
        return _readonly(1.0 - self.lambda_minus)

    @cached_property
    def _buy_rates(self) -> np.ndarray:
        if self.lambda_plus is None:
            return _readonly(np.ones(self.n))
        return _readonly(1.0 + self.lambda_plus)

    @cached_property
    def exchange(self) -> np.ndarray:
        """Exchange matrix G: units of asset i per unit of asset j held."""
        if self.mu is not None:
            return self.mu
        G = np.outer(1.0 / self._buy_rates, self.returns * self.sell_rates)
        np.fill_diagonal(G, self.returns)
        return _readonly(G)

    @cached_property
    def budget(self) -> np.ndarray | None:
        """Budget rows, or None when G does not factor through cash.

        Row ``w`` weighs each asset by its buy rate ``1 + lambda_plus``
        or its sell rate ``1 - lambda_minus``; there is one row per
        buy/sell pattern of the assets whose two rates differ, counted
        in binary (first asset most significant, buy = 1).  ``(a, b)``
        is a member iff ``w . (b - R * a) <= 0`` for every row.
        """
        if self.returns is None:
            return None
        buy, sell = self._buy_rates, self.sell_rates
        k = np.flatnonzero(buy != sell)
        bits = (np.arange(2 ** k.size)[:, None] >> np.arange(k.size)[::-1]) & 1
        rows = np.tile(sell, (bits.shape[0], 1))
        rows[:, k] = np.where(bits, buy[k], sell[k])
        return _readonly(rows)

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Facet rows ``(C, D)``: ``(a, b)`` with ``a >= 0`` is a member
        iff ``D b <= C a`` row-wise.

        Budget rows give ``C = budget * returns`` and ``D = budget``.  A
        currency cone's rows are the extreme rays ``(c, d)`` of its dual
        cone with ``d != 0``, scaled to ``sum d = 1``, and
        ``c_j = max_i G[i, j] d_i``.
        """
        if self.budget is not None:
            return _readonly(self.budget * self.returns), self.budget
        D = _dual_ray_rows(self.exchange)
        return _readonly(_least_price(self.exchange, D)), _readonly(D)

    def to_dict(self) -> dict:
        if self.family == FRICTIONLESS:
            return {"family": self.family, "returns": self.returns.tolist()}
        if self.family == PROPORTIONAL_TC:
            return {
                "family": self.family,
                "returns": self.returns.tolist(),
                "lambda_plus": self.lambda_plus.tolist(),
                "lambda_minus": self.lambda_minus.tolist(),
            }
        return {"family": self.family, "mu": self.mu.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ConeSpec":
        fam = d.get("family")
        if fam == FRICTIONLESS:
            return cls.frictionless(d["returns"])
        if fam == PROPORTIONAL_TC:
            return cls.proportional_tc(d["returns"], d["lambda_plus"],
                                       d["lambda_minus"])
        if fam == CURRENCY:
            return cls.currency(d["mu"])
        raise ValueError(f"unknown cone family: {fam!r}")


def _least_price(G, d):
    """Least ``c`` with ``(c, d)`` in the dual cone of ``G``: ``c_j = max_i
    G[i, j] d_i``, for ``d`` of shape ``(..., n)`` and ``G`` stacked alike."""
    return (G * d[..., :, None]).max(axis=-2)


def _dual_ray_rows(G) -> np.ndarray:
    """``d`` of each extreme ray ``(c, d)``, ``d != 0``, of the dual cone
    ``{(c, d) >= 0 : G[i, j] d_i <= c_j}``, scaled to ``sum d = 1``.

    Double description (Fukuda & Prodon, 1996): start from the unit rays
    of the orthant in R^2n and add the rows ``G[i, j] d_i - c_j <= 0``
    one at a time.  Rays on a row's feasible side stay; each adjacent
    pair of a violating and a feasible ray is joined by the ray on which
    the row is tight.  Two rays are adjacent when no third ray is tight
    on every constraint that both are tight on.
    """
    n = G.shape[0]
    rays = np.eye(2 * n)  # columns: c, then d
    # tight[r, k]: ray r has coordinate k at 0 (k < 2n) or meets row
    # k - 2n with equality
    tight = np.zeros((2 * n, 2 * n + n * n), dtype=bool)
    tight[:, :2 * n] = rays == 0
    tol = 1e-12 * max(1.0, float(G.max()))
    for t, (i, j) in enumerate(np.ndindex(n, n)):
        s = G[i, j] * rays[:, n + i] - rays[:, j]
        pos, neg = s > tol, s < -tol
        P, M = np.flatnonzero(pos), np.flatnonzero(neg)
        T = tight.astype(float)
        # adjacent rays of a 2n-dimensional cone share >= 2n - 2 tight
        # constraints; the exact test counts the rays covering the
        # shared set, which must be the pair alone
        ip, im = np.nonzero(T[P] @ T[M].T >= 2 * n - 2)
        common = tight[P[ip]] & tight[M[im]]
        adjacent = ((common @ (1.0 - T).T) == 0).sum(axis=1) == 2
        p, m = P[ip[adjacent]], M[im[adjacent]]
        new = s[p, None] * rays[m] - s[m, None] * rays[p]
        tight[~neg, 2 * n + t] = True
        joined = common[adjacent]
        joined[:, 2 * n + t] = True
        rays = np.vstack([rays[~pos], new / new.sum(axis=1, keepdims=True)])
        tight = np.vstack([tight[~pos], joined])
    D = rays[rays[:, n:].sum(axis=1) > tol, n:]
    D /= D.sum(axis=1, keepdims=True)
    first = np.unique(np.round(D, 12), axis=0, return_index=True)[1]
    return D[np.sort(first)]


def _check_pair(cone: ConeSpec, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (cone.n,) or b.shape != (cone.n,):
        raise ValueError(
            f"expected vectors of length {cone.n}, got {a.shape} and {b.shape}"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("portfolio vectors must be finite")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("portfolio vectors must be nonnegative")
    return a, b


def membership_residual(cone: ConeSpec, a, b) -> float:
    """Scaled membership residual of ``(a, b)``.

    The largest signed facet-row slack ``D b - C a`` divided by
    ``1 + |a| + |b|``, for every family.  Nonpositive (or below the
    working tolerance) means member.  On currency rows (``sum D = 1``)
    a positive value is the smallest uniform shortfall ``s`` that makes
    ``(a, b - s)`` a member, likewise scaled.
    """
    a, b = _check_pair(cone, a, b)
    return float(_membership_residual(cone, a, b))


def _membership_residual(cone: ConeSpec, a, b):
    """:func:`membership_residual` without input checks, for one pair
    ``(n,)`` or a stack ``(M, n)`` of pairs (an ``(M,)`` array)."""
    C, D = cone.facets
    # one matrix-vector product per pair, as for a single pair
    slack = (D @ b[..., None] - C @ a[..., None])[..., 0]
    return slack.max(axis=-1) / (1.0 + a.sum(axis=-1) + b.sum(axis=-1))


def contains(cone: ConeSpec, a, b, tol: float = 1e-9) -> bool:
    """True when ``(a, b)`` belongs to the cone.

    The test is ``membership_residual(cone, a, b) <= tol`` with the
    residual already scaled by ``1 + |a| + |b|``, i.e. boundary membership
    is decided at relative tolerance ``tol``.
    """
    return membership_residual(cone, a, b) <= tol


def boundary_scale(cone: ConeSpec, a, direction) -> float:
    """Largest ``t >= 0`` with ``(a, t * direction)`` in the cone.

    Free disposal makes the feasible set of ``t`` an interval ``[0, t*]``,
    and ``t*`` is exact: the smallest ratio ``C a / D direction`` over
    the facet rows with positive load.  Takes one pair of vectors; the
    unchecked :func:`_boundary_scale` also takes stacks of pairs.
    """
    a, d = _check_pair(cone, a, direction)
    if d.sum() <= 0.0:
        raise ValueError("direction must have positive mass")
    return _boundary_scale(cone, a, d)


def _boundary_scale(cone: ConeSpec, a, d):
    """:func:`boundary_scale` without input checks, for inner loops.

    ``a`` and ``d`` have the same shape, ``(n,)`` for one pair (the
    result is a float) or ``(M, n)`` for a stack of ``M`` pairs (the
    result is an ``(M,)`` array), handled in one row-ratio computation.
    Each pair's value does not depend on the stack it sits in.
    """
    C, D = cone.facets
    # one matrix-vector product per pair, as for a single pair, so a
    # pair's loads do not depend on the stack
    load = (D @ d[..., None])[..., 0]
    cap = (C @ a[..., None])[..., 0]
    # rows without load never bind: their NaN ratio is skipped; a tiny
    # load may overflow the ratio to inf, which is its value
    with np.errstate(over="ignore"):
        t = np.fmin.reduce(cap / np.where(load > 0.0, load, np.nan),
                           axis=-1, initial=np.inf)
    return float(t) if t.ndim == 0 else t


def max_alpha(cone: ConeSpec, x) -> float:
    """Largest ``alpha`` with ``(x, alpha * x)`` in the cone.

    ``x`` must lie on the unit simplex (nonnegative, summing to one).
    This is the growth factor of the proportion vector ``x`` across the
    step; solvency-cone feasibility in ``alpha`` is an interval, so the
    supremum is well defined.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.n,):
        raise ValueError(f"expected a vector of length {cone.n}")
    if (x < 0).any() or abs(x.sum() - 1.0) > 1e-9:
        raise ValueError("x must lie on the unit simplex")
    return boundary_scale(cone, x, x)


@dataclass(frozen=True)
class DualConeRows:
    """Linear description of dual-cone membership: ``(c, d)`` lies in
    the dual cone iff ``F_c @ c + F_d @ d <= 0`` row-wise."""

    F_c: np.ndarray
    F_d: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.F_c.shape[0]


def dual_cone_rows(cone: ConeSpec) -> DualConeRows:
    """Inequality rows characterizing the dual cone.

    The dual cone consists of the price pairs ``(c, d)`` with
    ``d.b <= c.a`` for every member ``(a, b)``.  Testing that on the
    generating rays ``(e_j, G[i, j] e_i)`` gives one row
    ``G[i, j] * d_i <= c_j`` per pair ``(i, j)``, row index ``i * n + j``.
    """
    n = cone.n
    F_c = -np.tile(np.eye(n), (n, 1))
    F_d = np.zeros((n * n, n))
    F_d[np.arange(n * n), np.repeat(np.arange(n), n)] = cone.exchange.ravel()
    return DualConeRows(F_c, F_d)


def dual_violation(cone: ConeSpec, c, d, method: str = "auto") -> float:
    """Worst violation of ``d.b <= c.a`` over the normalized cone slice.

    Computes ``sup { d.b - c.a : (a, b) in cone, |a| + |b| = 1 }``; the
    pair ``(c, d)`` belongs to the dual cone iff the value is <= 0.

    method
        ``"lp"``      maximize over the slice with the internal simplex,
        ``"closed"``  evaluate the maximum over the cone's extreme rays,
        ``"auto"``    the closed form.
    """
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    if c.shape != (cone.n,) or d.shape != (cone.n,):
        raise ValueError(f"expected price vectors of length {cone.n}")
    if (c < 0).any() or (d < 0).any():
        raise ValueError("price vectors must be nonnegative")
    if method not in ("auto", "lp", "closed"):
        raise ValueError(f"unknown method: {method!r}")
    if method != "lp":
        return float(_dual_violation(cone, c, d))

    # maximize d.b - c.a over the slice; variables a, b and the
    # row-major exchange matrix x: asset j ships sum_i x[i, j] <= a_j,
    # asset i receives b_i <= sum_j G[i, j] x[i, j]
    G = cone.exchange
    n = cone.n
    eye, zero = np.eye(n), np.zeros((n, n))
    avail = np.tile(eye, (1, n))
    deliver = (eye[:, :, None] * G[None, :, :]).reshape(n, n * n)
    A_ub = np.block([[-eye, zero, avail], [zero, eye, -deliver]])
    A_eq = np.concatenate([np.ones(2 * n), np.zeros(n * n)])[None, :]
    res = lp_solve(np.concatenate([-c, d, np.zeros(n * n)]), A_ub=A_ub,
                   b_ub=np.zeros(2 * n), A_eq=A_eq, b_eq=np.ones(1),
                   maximize=True)
    return float(res.objective)


def _dual_violation(cone: ConeSpec, c, d):
    """Closed-form :func:`dual_violation` without input checks.

    ``c`` and ``d`` have the same shape, ``(n,)`` for one pair or
    ``(M, n)`` for a stack of ``M`` pairs (an ``(M,)`` array).  The
    maximum runs over the extreme rays ``(e_j, G[i, j] e_i)`` and the
    disposal rays ``(e_j, 0)``; the disposal value wins ties.
    """
    G = cone.exchange
    vals = (G * d[..., :, None] - c[..., None, :]) / (1.0 + G)
    ray, disposal = vals.max(axis=(-2, -1)), (-c).max(axis=-1)
    return np.where(ray > disposal, ray, disposal)


def dual_contains(cone: ConeSpec, c, d, tol: float = 1e-9,
                  method: str = "auto") -> bool:
    """True when the price pair ``(c, d)`` lies in the dual cone."""
    return dual_violation(cone, c, d, method=method) <= tol


def liquidation_value(cone: ConeSpec, b) -> float:
    """Cash obtained by selling the portfolio ``b`` at the cone's rates.

    ``sum (1 - lambda_minus) * b`` under proportional transaction costs,
    plain total ``sum(b)`` otherwise.  Satisfies
    ``l * |b| <= value <= |b|`` with ``l = min(1 - lambda_minus)``.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (cone.n,):
        raise ValueError(f"expected a vector of length {cone.n}")
    if (b < 0).any():
        raise ValueError("portfolio must be nonnegative")
    return float(cone.sell_rates @ b)


def wealth_weights(cone: ConeSpec, objective: str = "wealth") -> np.ndarray:
    """Linear weights w with ``w.b`` the objective value of a portfolio."""
    if objective == "wealth":
        return np.ones(cone.n)
    if objective == "liquidation":
        return np.array(cone.sell_rates)
    raise ValueError(f"unknown objective: {objective!r}")


def sample_member(cone: ConeSpec, rng: np.random.Generator,
                  scale: float = 1.0):
    """Draw a random member ``(a, b)``: random positive holdings, a random
    target direction scaled to the boundary, then pulled inside."""
    a = rng.exponential(scale=scale, size=cone.n) + 1e-9
    w = rng.dirichlet(np.ones(cone.n))
    t = _boundary_scale(cone, a, w)
    return a, float(rng.uniform(0.0, 1.0)) * t * w


# ---------------------------------------------------------------------------
# Cone tables: transition-keyed collections with wildcard resolution.


class ConeTable:
    """Cones keyed by Markov transitions ``u -> v``.

    Keys are ``"u->v"`` strings (or ``(u, v)`` tuples); the wildcards
    ``"*->v"`` and ``"*->*"`` are allowed, and the most specific key wins
    at resolution time.  All cones must share the same dimension.
    """

    def __init__(self, mapping):
        entries = {}
        for key, cone in mapping.items():
            entries[self._normalize(key)] = cone
        if not entries:
            raise ValueError("cone table is empty")
        dims = {cone.n for cone in entries.values()}
        if len(dims) != 1:
            raise ValueError(f"cones disagree on dimension: {sorted(dims)}")
        self._entries = entries
        self.n = dims.pop()

    @staticmethod
    def _normalize(key):
        if isinstance(key, str):
            parts = key.split("->")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ValueError(f"bad cone key {key!r}; expected 'u->v'")
            key = (parts[0], parts[1])
        u, v = key
        return (str(u), str(v))

    def resolve(self, u: str, v: str) -> ConeSpec:
        """Cone for transition ``u -> v`` (exact, then ``*->v``, then
        ``*->*``)."""
        for key in ((u, v), ("*", v), ("*", "*")):
            if key in self._entries:
                return self._entries[key]
        raise KeyError(f"no cone for transition {u!r} -> {v!r}")

    def items(self):
        return self._entries.items()

    def values(self):
        return self._entries.values()

    def __len__(self):
        return len(self._entries)

    def to_dict(self) -> dict:
        return {f"{u}->{v}": cone.to_dict()
                for (u, v), cone in sorted(self._entries.items())}

    @classmethod
    def from_dict(cls, d: dict) -> "ConeTable":
        return cls({k: ConeSpec.from_dict(v) for k, v in d.items()})


def _as_slice(ids):
    """Ascending ids as a basic slice when evenly spaced, else the ids:
    indexing with it reads a view and writes in place, with no gather
    or scatter."""
    step = int(ids[1] - ids[0]) if ids.size > 1 else 1
    if step > 0 and (np.diff(ids) == step).all():
        return slice(int(ids[0]), int(ids[-1]) + 1, step)
    return ids


def _run(index, ids, i, j):
    """An index of ``ids[i:j]`` given ``index = _as_slice(ids)``: a run
    of a slice is a slice, found without a check."""
    if isinstance(index, slice):
        r = range(index.start, index.stop, index.step)[i:j]
        return slice(r.start, r.stop, r.step)
    return _as_slice(ids[i:j])


class _EdgeGroup:
    """Tree edges sharing one cone, the layout of the barrier rows, the
    certificate and the self-financing check: child ids ``nodes``
    (ascending) and ``parents``, indexed by ``at`` and ``at_parent``
    (slices where evenly spaced, as on a dense chain), and the facet
    rows ``Fa a + Fv b <= 0`` (``-C``, ``D``) with their flattened outer
    products, so Hessian blocks are one GEMM with the row weights."""

    def __init__(self, cone, nodes, parents):
        self.cone, self.nodes, self.parents = cone, nodes, parents
        self.at, self.at_parent = _as_slice(nodes), _as_slice(parents)
        C, D = cone.facets
        self.Fa, self.Fv = -C, D
        r = C.shape[0]
        self.FaFa = (self.Fa[:, :, None] * self.Fa[:, None, :]).reshape(r, -1)
        self.FvFv = (self.Fv[:, :, None] * self.Fv[:, None, :]).reshape(r, -1)
        self.FvFa = (self.Fv[:, :, None] * self.Fa[:, None, :]).reshape(r, -1)

    def _piece(self, i, j):
        """The group's edges ``i:j``, sharing its cone and tables."""
        piece = copy.copy(self)
        piece.nodes, piece.parents = self.nodes[i:j], self.parents[i:j]
        piece.at = _run(self.at, self.nodes, i, j)
        piece.at_parent = _run(self.at_parent, self.parents, i, j)
        return piece

    def residual_rows(self, Y):
        return Y[self.at_parent] @ self.Fa.T + Y[self.at] @ self.Fv.T


def _group_edges(tree, cone_table):
    """Tree edges grouped by cone: a list of :class:`_EdgeGroup`, in
    order of each cone's first edge.  The table is resolved once per
    distinct (parent state, state) pair, so a transition without a cone
    raises ``KeyError`` at its first edge."""
    k = tree.spec.k
    labels = ("*",) + tree.spec.states  # state -1 (a free root) is '*'
    code = (tree.state[tree.parent[1:]] + 1) * k + tree.state[1:]
    by_cone = {}
    for c in code[np.sort(np.unique(code, return_index=True)[1])]:
        cone = cone_table.resolve(labels[c // k], labels[c % k + 1])
        by_cone.setdefault(id(cone), (cone, []))[1].append(c)
    groups = []
    for cone, codes in by_cone.values():
        nodes = np.flatnonzero(np.isin(code, codes)) + 1
        groups.append(_EdgeGroup(cone, nodes, tree.parent[nodes]))
    return groups


def _by_depth(tree, groups):
    """The edge groups cut by depth: ``parts[d - 1]`` lists, in group
    order, the edges of each group into depth ``d`` (one run of its
    ids, :meth:`_EdgeGroup._piece`)."""
    parts = [[] for _ in range(tree.horizon)]
    for g in groups:
        cut = np.searchsorted(g.nodes, tree.depth_start[1:]).tolist()
        for d, (i, j) in enumerate(zip(cut, cut[1:])):
            if i < j:
                parts[d].append(g._piece(i, j))
    return parts


def _as_cone_items(cone_table):
    if isinstance(cone_table, ConeTable):
        return list(cone_table.items())
    if isinstance(cone_table, dict):
        return [(ConeTable._normalize(k), v) for k, v in cone_table.items()]
    raise TypeError("cone_table must be a ConeTable or a dict")


# ---------------------------------------------------------------------------
# Standing-assumption validation.


def _uniform_bound(cone: ConeSpec) -> float:
    """Closed-form uniform bound M with |b| <= M |a| on the cone."""
    if cone.family in (FRICTIONLESS, PROPORTIONAL_TC):
        return float(cone.returns.max())
    return float(cone.n * cone.mu.max())


@dataclass
class ValidationReport:
    """Outcome of the standing-assumption checks on a cone table.

    g1_ok   every unit portfolio admits a successor (the pair (e_i, 0) is
            a member, so transitions never dead-end)
    g2_ok   wealth is uniformly bounded step-to-step: |b| <= M |a|,
            decided exactly on the generating rays: ``G.max() <= M``
    g3_ok   some strictly positive bundle is reachable from every unit
            portfolio (implied by g5)
    g4_ok   free disposal: raising holdings or lowering targets preserves
            membership; decided exactly: facet rows need ``D >= 0``
    g5_ok   every unit portfolio can be rebalanced into a positive
            multiple of the all-ones bundle (gamma > 0)
    M_bound largest closed-form bound M over the table (largest return,
            or ``n * max(mu)`` for currency): valid, not the smallest
    gamma   worst-case all-ones growth factor across table entries
    """

    g1_ok: bool
    g2_ok: bool
    g3_ok: bool
    g4_ok: bool
    g5_ok: bool
    M_bound: float
    gamma: float
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.g1_ok and self.g2_ok and self.g3_ok and self.g4_ok
                and self.g5_ok)

    def to_dict(self) -> dict:
        return {
            "g1_ok": self.g1_ok,
            "g2_ok": self.g2_ok,
            "g3_ok": self.g3_ok,
            "g4_ok": self.g4_ok,
            "g5_ok": self.g5_ok,
            "M_bound": self.M_bound,
            "gamma": self.gamma,
            "ok": self.ok,
            "violations": self.violations,
        }


def validate_assumptions(cone_table, samples: int = 200, seed: int = 0,
                         tol: float = 1e-9) -> ValidationReport:
    """Check the standing assumptions on every cone in the table.

    Every condition is decided exactly on the facet rows ``(C, D)`` and
    the exchange matrix ``G``, without sampling and without a linear
    program: g1 by membership of ``(e_i, 0)`` (one stacked membership
    product per cone over the units i), g2 on the generating
    rays ``(e_j, G[i, j] e_i)`` (so ``G.max() <= M``), g4 by the sign of
    ``D``, g5 by the unit growth factors, one stacked boundary scale.
    ``samples`` and ``seed`` are unused.  Returns a report; callers
    decide whether a failed report is fatal.
    """
    items = _as_cone_items(cone_table)
    violations = []
    g1_ok = g2_ok = g4_ok = g5_ok = True
    M_bound = 0.0
    gamma = np.inf

    for key, cone in items:
        label = "->".join(key)
        n = cone.n
        # (e_i, 0) per unit i, as contains decides each pair
        units = _membership_residual(cone, np.eye(n), np.zeros((n, n)))
        for i in np.flatnonzero(~(units <= tol)).tolist():
            g1_ok = False
            violations.append({"condition": "g1", "cone": label,
                               "witness": {"unit": i}})
        M = _uniform_bound(cone)
        M_bound = max(M_bound, M)
        # largest gamma with (e_i, gamma * ones) in the cone, per unit i
        growths = _boundary_scale(cone, np.eye(n), np.ones((n, n)))
        g = float(growths.min())
        if g <= 1e-12:
            g5_ok = False
            violations.append({
                "condition": "g5", "cone": label,
                "witness": {"unit": int(np.argmin(growths)), "gamma": g},
            })
        gamma = min(gamma, g)
        G = cone.exchange
        i, j = np.unravel_index(np.argmax(G), G.shape)
        if G[i, j] > M * (1.0 + 1e-9) + tol:
            g2_ok = False
            violations.append({"condition": "g2", "cone": label, "witness": {
                "ray": [int(j), int(i)], "rate": float(G[i, j]), "M": M}})
        D = cone.facets[1]
        if (D < 0).any():
            g4_ok = False
            row = int(np.argmax((D < 0).any(axis=1)))
            violations.append({"condition": "g4", "cone": label,
                               "witness": {"row": row}})

    g3_ok = g5_ok  # a positive reachable bundle is exactly what g5 provides
    if not np.isfinite(gamma):
        gamma = 0.0
    return ValidationReport(g1_ok, g2_ok, g3_ok, g4_ok, g5_ok,
                            float(M_bound), float(gamma), violations)
