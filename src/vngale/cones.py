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
    Positions are physical units of ``n`` currencies and ``G = mu``
    (``mu[i, j] > 0`` units of ``i`` per unit of ``j``, ``mu[i, i] == 1``).

When ``G`` factors through cash (the first two families) the cone also
has budget rows (:attr:`ConeSpec.budget`): one row ``w`` per buy/sell sign
pattern, de-duplicated, with membership ``w . (b - R * a) <= 0`` for every
row.  A frictionless cone is its single row of ones.  Membership and
:func:`boundary_scale` are then exact row computations; cones without
budget rows use a linear program over ``d``.

All cones are closed and convex, contain no short positions, and allow
free disposal.  Membership tests use a relative tolerance scaled by
``1 + |a| + |b|`` (L1 norms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lp import lp_solve, LPInfeasibleError, LPUnboundedError

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


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


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
        r = _readonly(returns)
        lp_ = _readonly(np.broadcast_to(np.asarray(lambda_plus, dtype=float),
                                        r.shape))
        lm = _readonly(np.broadcast_to(np.asarray(lambda_minus, dtype=float),
                                       r.shape))
        if r.ndim != 1 or r.size == 0:
            raise ValueError("returns must be a nonempty vector")
        if not np.isfinite(r).all() or (r <= 0).any():
            raise ValueError("returns must be finite and strictly positive")
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

    Nonpositive (or below the working tolerance) means member.  With
    budget rows the value is the largest row slack ``w . (b - R * a)``
    divided by ``1 + |a| + |b|``; otherwise it is the smallest uniform
    delivery shortfall obtainable by any exchange matrix, likewise scaled,
    so it is zero (never negative) on members.
    """
    a, b = _check_pair(cone, a, b)
    scale = 1.0 + a.sum() + b.sum()
    if cone.budget is None:
        return _exchange_shortfall(cone, a, b) / scale
    return float((cone.budget @ (b - cone.returns * a)).max()) / scale


def _exchange_rows(G):
    """Availability and delivery rows over a flattened exchange matrix.

    With ``d`` the row-major flattening of the exchange matrix,
    ``avail @ d`` is what each asset ships (``sum_i d[i, j]``) and
    ``deliver @ d`` what each asset receives (``sum_j G[i, j] d[i, j]``).
    """
    n = G.shape[0]
    avail = np.tile(np.eye(n), (1, n))
    deliver = (np.eye(n)[:, :, None] * G[None, :, :]).reshape(n, n * n)
    return avail, deliver


def _exchange_shortfall(cone: ConeSpec, a, b) -> float:
    """Smallest uniform shortfall s >= 0 such that some exchange matrix
    delivers ``b - s`` from ``a``.  Zero iff (a, b) is a member."""
    n = cone.n
    avail, deliver = _exchange_rows(cone.exchange)
    # variables: d (row-major) then s
    A_ub = np.block([[avail, np.zeros((n, 1))],
                     [-deliver, -np.ones((n, 1))]])
    c = np.zeros(n * n + 1)
    c[-1] = 1.0
    res = lp_solve(c, A_ub=A_ub, b_ub=np.concatenate([a, -b]))
    return max(res.objective, 0.0)


def contains(cone: ConeSpec, a, b, tol: float = 1e-9) -> bool:
    """True when ``(a, b)`` belongs to the cone.

    The test is ``membership_residual(cone, a, b) <= tol`` with the
    residual already scaled by ``1 + |a| + |b|``, i.e. boundary membership
    is decided at relative tolerance ``tol``.
    """
    return membership_residual(cone, a, b) <= tol


def boundary_scale(cone: ConeSpec, a, direction) -> float:
    """Largest ``t >= 0`` with ``(a, t * direction)`` in the cone.

    Free disposal makes the feasible set of ``t`` an interval ``[0, t*]``.
    With budget rows ``t*`` is exact: the smallest ratio
    ``w . (R * a) / w . direction`` over the rows with positive load.
    Otherwise one linear program maximizes ``t`` directly.
    """
    a, d = _check_pair(cone, a, direction)
    if d.sum() <= 0.0:
        raise ValueError("direction must have positive mass")
    return _boundary_scale(cone, a, d)


def _boundary_scale(cone: ConeSpec, a, d) -> float:
    """:func:`boundary_scale` without input checks, for inner loops."""
    rows = cone.budget
    if rows is None:
        n = cone.n
        avail, deliver = _exchange_rows(cone.exchange)
        # variables: d-matrix (row-major) then t
        A_ub = np.block([[avail, np.zeros((n, 1))],
                         [-deliver, d[:, None]]])
        c = np.zeros(n * n + 1)
        c[-1] = 1.0
        try:
            res = lp_solve(c, A_ub=A_ub, b_ub=np.concatenate([a, np.zeros(n)]),
                           maximize=True)
        except LPUnboundedError:
            return np.inf
        return max(res.objective, 0.0)
    load = rows @ d
    cap = rows @ (cone.returns * a)
    live = load > 0.0  # rows without load never bind
    return float((cap[live] / load[live]).min(initial=np.inf))


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
    """Linear description of dual-cone membership.

    ``(c, d)`` lies in the dual cone iff there exist ``lift >= 0`` with

        F_c @ c + F_d @ d + F_lift @ lift <= 0   (row-wise).

    No family needs a lift: ``F_lift`` always has zero columns.
    """

    F_c: np.ndarray
    F_d: np.ndarray
    F_lift: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.F_c.shape[0]

    @property
    def n_lift(self) -> int:
        return self.F_lift.shape[1]


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
    return DualConeRows(F_c, F_d, np.zeros((n * n, 0)))


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
    G = cone.exchange
    if method != "lp":
        # extreme rays: (e_j, G[i, j] e_i) and the disposal rays (e_j, 0)
        vals = (G * d[:, None] - c[None, :]) / (1.0 + G)
        return max(float((-c).max()), float(vals.max()))

    # maximize d.b - c.a over the slice; variables a, b, exchange matrix
    n = cone.n
    avail, deliver = _exchange_rows(G)
    eye, zero = np.eye(n), np.zeros((n, n))
    A_ub = np.block([[-eye, zero, avail], [zero, eye, -deliver]])
    A_eq = np.concatenate([np.ones(2 * n), np.zeros(n * n)])[None, :]
    res = lp_solve(np.concatenate([-c, d, np.zeros(n * n)]), A_ub=A_ub,
                   b_ub=np.zeros(2 * n), A_eq=A_eq, b_eq=np.ones(1),
                   maximize=True)
    return float(res.objective)


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


def _unit_growth(cone: ConeSpec, i: int) -> float:
    """Largest gamma with (e_i, gamma * ones) in the cone."""
    e = np.zeros(cone.n)
    e[i] = 1.0
    return boundary_scale(cone, e, np.ones(cone.n))


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
            membership; decided exactly: budget rows must be nonnegative
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

    Every condition is decided exactly, without sampling: g1 by
    membership of ``(e_i, 0)``, g2 on the generating rays
    ``(e_j, G[i, j] e_i)`` (so ``G.max() <= M``), g4 on the budget rows
    (the exchange program disposes freely by construction), g5 by the
    unit growth factors.  A currency cone costs ``2 n`` linear programs.
    ``samples`` and ``seed`` are unused.  Returns a report; callers
    decide whether a failed report is fatal.
    """
    items = _as_cone_items(cone_table)
    violations = []
    g1_ok = g2_ok = g4_ok = g5_ok = True
    M_bound = 0.0
    gamma = np.inf

    for key, cone in items:
        label = "->".join(key) if isinstance(key, tuple) else str(key)
        zero = np.zeros(cone.n)
        for i in range(cone.n):
            e = np.zeros(cone.n)
            e[i] = 1.0
            if not contains(cone, e, zero, tol):
                g1_ok = False
                violations.append({"condition": "g1", "cone": label,
                                   "witness": {"unit": i}})
        M = _uniform_bound(cone)
        M_bound = max(M_bound, M)
        growths = [_unit_growth(cone, i) for i in range(cone.n)]
        g = min(growths)
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
        if cone.budget is not None and (cone.budget < 0).any():
            g4_ok = False
            row = int(np.argmax((cone.budget < 0).any(axis=1)))
            violations.append({"condition": "g4", "cone": label,
                               "witness": {"row": row}})

    g3_ok = g5_ok  # a positive reachable bundle is exactly what g5 provides
    if not np.isfinite(gamma):
        gamma = 0.0
    return ValidationReport(g1_ok, g2_ok, g3_ok, g4_ok, g5_ok,
                            float(M_bound), float(gamma), violations)
