"""Dense linear programming via a two-phase tableau simplex.

Small deterministic solver, called in the package only by the reference
``dual_violation(method="lp")``.  Pivoting is Dantzig's rule with the
numerically largest element among minimum-ratio rows; if the objective
stalls long enough to suggest cycling, the solver switches to Bland's
smallest-index rule, which terminates.  The tableau is refactorized from
the original data at fixed intervals so rounding errors cannot compound
across long pivot sequences, and the reported solution is recomputed
from the final basis and verified before it is returned.  Every choice
is deterministic, so runs are bit-reproducible.  Problems are expected
to be dense and modest in size (up to a few thousand rows); no sparsity
is exploited.

Problem form::

    minimize    c . x
    subject to  A_ub x <= b_ub
                A_eq x == b_eq
                x >= 0

Dual values follow the sensitivity convention: ``duals_ub[i]`` is the
derivative of the optimal value with respect to ``b_ub[i]`` (nonpositive
for a minimization), and similarly for ``duals_eq``.  For ``maximize=True``
the reported objective and duals refer to the maximization problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LPError",
    "LPInfeasibleError",
    "LPUnboundedError",
    "LPCyclingError",
    "LPResult",
    "lp_solve",
]

# Entries smaller than this are treated as zero when selecting pivots.
_PIVOT_TOL = 1e-11
# Rebuild the tableau from original data this often (error containment).
_REFACTOR_EVERY = 64


class LPError(RuntimeError):
    """Base class for linear-programming failures."""


class LPInfeasibleError(LPError):
    """The feasible set is empty (phase-1 optimum stayed positive)."""

    def __init__(self, residual: float):
        super().__init__(
            "infeasible linear program (phase-1 residual %.6e)" % residual
        )
        self.residual = float(residual)


class LPUnboundedError(LPError):
    """The objective is unbounded over the feasible set."""


class LPCyclingError(LPError):
    """Iteration guard exceeded or the final basis failed verification."""


@dataclass
class LPResult:
    """Primal/dual solution of a linear program.

    objective    optimal value (for the requested sense)
    x            optimal structural variables
    duals_ub     sensitivity of the optimum to b_ub
    duals_eq     sensitivity of the optimum to b_eq
    iterations   total simplex pivots across both phases
    """

    objective: float
    x: np.ndarray
    duals_ub: np.ndarray
    duals_eq: np.ndarray
    iterations: int


def _refactor(full, b, basis, D):
    """Recompute D = B^-1 [full | b] from the original column data."""
    B = full[:, basis]
    rhs = np.hstack([full, b[:, None]])
    try:
        D[:] = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        D[:] = np.linalg.lstsq(B, rhs, rcond=None)[0]


def _pivot_loop(full, b, D, basis, costs, enterable, start_iter, max_iter,
                bland=False):
    """Run simplex pivots on tableau ``D`` until optimal.

    D holds [B^-1 full | B^-1 b].  Reduced costs are recomputed from
    scratch each iteration; accuracy is preferred over speed at these
    sizes.  Entering column: most negative reduced cost, with ties to
    the smallest index; leaving row: numerically largest pivot among
    minimum-ratio rows.  When the objective stalls for long enough to
    suggest cycling the loop switches to Bland's rule (smallest entering
    index, smallest basic index among ties), which cannot cycle.  The
    tableau is refactorized from original data at fixed intervals.
    Returns the iteration count; raises on unboundedness or when the
    iteration guard trips.
    """
    m = D.shape[0]
    it = start_iter
    since_improve = 0
    last_obj = np.inf
    stall_limit = 2 * (m + D.shape[1]) + 200
    fresh = 0
    while True:
        if it > max_iter:
            raise LPCyclingError(
                "simplex iteration guard exceeded (%d pivots)" % it
            )
        r = costs - costs[basis] @ D[:, :-1]
        r[~enterable] = np.inf
        improving = np.flatnonzero(r < -_PIVOT_TOL)
        if improving.size == 0:
            return it
        if bland:
            j = int(improving[0])
        else:
            j = int(improving[np.argmin(r[improving])])
        col = D[:, j]
        pos = np.flatnonzero(col > _PIVOT_TOL)
        if pos.size == 0:
            raise LPUnboundedError("unbounded linear program")
        ratios = D[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + _PIVOT_TOL * (1.0 + abs(best))]
        if bland:
            # among minimum-ratio rows leave the smallest basic index
            i = int(ties[np.argmin(basis[ties])])
        else:
            i = int(ties[np.argmax(col[ties])])
        piv = D[i, j]
        D[i, :] /= piv
        other = np.arange(m) != i
        D[other, :] -= np.outer(D[other, j], D[i, :])
        D[i, j] = 1.0  # clean up roundoff on the pivot column
        D[other, j] = 0.0
        basis[i] = j
        it += 1
        fresh += 1
        if fresh >= _REFACTOR_EVERY:
            _refactor(full, b, basis, D)
            fresh = 0
        obj = float(costs[basis] @ D[:, -1])
        if obj < last_obj - 1e-12 * (1.0 + abs(last_obj)):
            last_obj = obj
            since_improve = 0
        else:
            since_improve += 1
            if not bland and since_improve > stall_limit:
                bland = True
                _refactor(full, b, basis, D)
                fresh = 0


def lp_solve(
    c,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    *,
    maximize: bool = False,
    tol: float = 1e-9,
    max_iter: int | None = None,
) -> LPResult:
    """Solve a dense linear program with nonnegative variables.

    Parameters
    ----------
    c : (n,) objective vector.
    A_ub, b_ub : inequality system ``A_ub x <= b_ub`` (optional).
    A_eq, b_eq : equality system ``A_eq x == b_eq`` (optional).
    maximize : solve ``max c.x`` instead of ``min c.x``.
    tol : absolute feasibility/optimality tolerance.
    max_iter : pivot guard; defaults to ``200 + 50 (m + n)``.

    Raises
    ------
    LPInfeasibleError, LPUnboundedError, LPCyclingError

    Fails on tree-dual programs that HiGHS solves: on
    ``tests/test_tree_dual_oracle.py``'s least-dual frictionless-n3 it
    hits the pivot guard (46,551 pivots), and on its min-slack currency-n3
    the final-basis check fails (feasibility 1.4e-1).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.size
    if A_ub is None:
        A_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    if A_eq is None:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
    b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    if A_ub.shape != (b_ub.size, n) or A_eq.shape != (b_eq.size, n):
        raise ValueError("constraint dimensions do not match the objective")
    if not (np.isfinite(A_ub).all() and np.isfinite(A_eq).all()
            and np.isfinite(b_ub).all() and np.isfinite(b_eq).all()
            and np.isfinite(c).all()):
        raise ValueError("nonfinite entries in linear program data")

    m_ub, m_eq = b_ub.size, b_eq.size
    m = m_ub + m_eq
    obj = -c if maximize else c.copy()

    # Standard form: append one slack per inequality row, then flip rows
    # with negative right-hand sides so b >= 0 throughout.
    A = np.vstack([A_ub, A_eq])
    b0 = np.concatenate([b_ub, b_eq])
    slack = np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])
    M = np.hstack([A, slack])
    flip = b0 < 0
    M[flip] *= -1.0
    b = np.where(flip, -b0, b0)

    # Rows whose slack no longer provides a +1 basic column need an
    # artificial variable: all equality rows and all flipped inequalities.
    needs_art = np.ones(m, dtype=bool)
    needs_art[:m_ub] = flip[:m_ub]
    art_rows = np.flatnonzero(needs_art)
    n_art = art_rows.size
    art_cols = np.zeros((m, n_art))
    art_cols[art_rows, np.arange(n_art)] = 1.0
    full = np.hstack([M, art_cols])
    ncols = n + m_ub + n_art

    if max_iter is None:
        max_iter = 200 + 50 * (m + ncols)

    costs2 = np.zeros(ncols)
    costs2[:n] = obj
    enterable2 = np.ones(ncols, dtype=bool)
    enterable2[n + m_ub:] = False  # artificials may never re-enter

    def run(bland):
        T = np.hstack([full, b[:, None]])
        basis = np.empty(m, dtype=int)
        slack_rows = np.flatnonzero(~needs_art)
        basis[slack_rows] = n + slack_rows
        basis[art_rows] = n + m_ub + np.arange(n_art)
        iterations = 0
        if n_art > 0:
            costs1 = np.zeros(ncols)
            costs1[n + m_ub:] = 1.0
            enterable = np.ones(ncols, dtype=bool)
            iterations = _pivot_loop(full, b, T, basis, costs1, enterable,
                                     0, max_iter, bland)
            phase1 = float(costs1[basis] @ T[:, -1])
            feas_tol = max(tol, 1e-9) * (1.0 + float(np.abs(b).sum()))
            if phase1 > feas_tol:
                raise LPInfeasibleError(phase1)
            # Drive zero-level artificials out of the basis: left in,
            # they can grow along phase-2 rays and fake unboundedness.
            # A row with no nonzero structural entry is redundant; its
            # artificial stays basic at zero and never moves (every
            # later pivot column is zero there).
            for i in np.flatnonzero(basis >= n + m_ub):
                row = T[i, : n + m_ub]
                cand = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
                if cand.size == 0:
                    continue
                j = int(cand[0])
                piv = T[i, j]
                T[i, :] /= piv
                other = np.arange(m) != i
                T[other, :] -= np.outer(T[other, j], T[i, :])
                T[i, j] = 1.0
                T[other, j] = 0.0
                basis[i] = j
        iterations = _pivot_loop(full, b, T, basis, costs2, enterable2,
                                 iterations, max_iter, bland)
        return basis, iterations

    def refine(basis):
        """Solution, duals and verification residuals from the basis."""
        B = full[:, basis]
        try:
            xb = np.linalg.solve(B, b)
            y = np.linalg.solve(B.T, costs2[basis])
        except np.linalg.LinAlgError:
            xb = np.linalg.lstsq(B, b, rcond=None)[0]
            y = np.linalg.lstsq(B.T, costs2[basis], rcond=None)[0]
        x_full = np.zeros(ncols)
        x_full[basis] = xb
        reduced = costs2 - y @ full
        neg = float(min(xb.min(initial=0.0), 0.0))
        ropt = float(min(reduced[enterable2].min(initial=0.0), 0.0))
        return x_full, y, -neg, -ropt

    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    cost_scale = 1.0 + float(np.abs(obj).max(initial=0.0))
    basis, iterations = run(bland=False)
    x_full, y, feas_err, opt_err = refine(basis)
    if feas_err > 1e-7 * scale or opt_err > 1e-7 * cost_scale:
        # numerical trouble on the fast path: redo with Bland's rule,
        # which combined with periodic refactorization is as robust as
        # this tableau method gets
        basis, iterations = run(bland=True)
        x_full, y, feas_err, opt_err = refine(basis)
        if feas_err > 1e-6 * scale or opt_err > 1e-6 * cost_scale:
            raise LPCyclingError(
                "final basis failed verification (feasibility %.3e, "
                "optimality %.3e)" % (feas_err, opt_err)
            )

    x = np.maximum(x_full[:n], 0.0)
    value = float(obj @ x)
    # duals were computed on the flipped rows; undo the flips
    y = np.where(flip, -y, y)

    if maximize:
        return LPResult(-value, x, -y[:m_ub], -y[m_ub:], iterations)
    return LPResult(value, x, y[:m_ub].copy(), y[m_ub:].copy(), iterations)
