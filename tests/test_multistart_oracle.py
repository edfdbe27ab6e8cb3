"""Batched stationary ascent against the one-start ascents run alone.

``solver._ascend`` runs every start of a stack in one batch, each start
with its own barrier schedule.  A table's arithmetic does not depend on
the batch it sits in, so the solve must equal, bit for bit, the best of
the one-start ascents run one after another, picked in start order after
the pure-asset tables as they are, and polished as the solver polishes.
The starts are rebuilt here: the uniform table, the seeded Dirichlet
draws, then the pure-asset tables.
"""

import numpy as np
import pytest

from vngale import solver
from vngale.cones import ConeSpec, ConeTable
from vngale.plans import BalancedStrategy
from vngale.scenario import MarkovSpec
from vngale.solver import (
    EquilibriumResult,
    SolverError,
    _ascend,
    _StationaryProgram,
    extract_equilibrium_prices,
    solve_stationary_equilibrium,
)

CHAINS = {
    "coin": MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]]),
    "regime3": MarkovSpec(["L", "M", "H"], [[0.8, 0.15, 0.05],
                                            [0.1, 0.8, 0.1],
                                            [0.05, 0.15, 0.8]]),
    "skew3": MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3),
    "one": MarkovSpec(["S"], [[1.0]]),
}
RETURNS = [[1.0, 2.0, 0.7], [1.0, 0.5, 1.4], [1.0, 1.1, 0.95]]
# valid exchange-rate matrices, one per state in chain order; the last
# is the mispriced triangle of demos/currency_triangle.py
EXCHANGE = [
    [[1.0, 1.25, 0.8], [0.75, 1.0, 1.1], [1.15, 0.85, 1.0]],
    [[1.0, 0.7, 1.05], [1.3, 1.0, 0.9], [0.9, 1.05, 1.0]],
    [[1.00, 0.95, 0.78], [1.04, 1.00, 0.72], [1.25, 1.32, 1.00]],
]


def _table(family, spec, n=3):
    out = {}
    for s, state in enumerate(spec.states):
        if family == "currency":
            out[f"*->{state}"] = ConeSpec.currency(EXCHANGE[-1 - s])
        elif family == "frictionless":
            out[f"*->{state}"] = ConeSpec.frictionless(RETURNS[s][:n])
        else:
            out[f"*->{state}"] = ConeSpec.proportional_tc(RETURNS[s][:n],
                                                          0.01, 0.02)
    return ConeTable(out)


def _pair_chain():
    """The currency pair chain of tests/test_tree_stationary_growth.py:
    the coin chain on (last state, state) pairs."""
    names = ["UU", "UD", "DU", "DD"]
    P = [[0.5 if a[1] == b[0] else 0.0 for b in names] for a in names]
    cones = {"U": ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]]),
             "D": ConeSpec.currency([[1.0, 0.6], [1.1, 1.0]])}
    return MarkovSpec(names, P), ConeTable({f"*->{s}": cones[s[1]]
                                            for s in names})


def _starts(k, n, starts, seed):
    rng = np.random.default_rng(seed)
    out = [np.full((k, n), 1.0 / n)]
    out += [rng.dirichlet(np.ones(n), size=k) for _ in range(starts - 1)]
    return out + [np.tile(e, (k, 1)) for e in np.eye(n)]


def _solve_loop(spec, table, starts, seed=0):
    """``solve_stationary_equilibrium`` ascending one start at a time."""
    prog = _StationaryProgram(spec, table)
    xs0 = _starts(spec.k, table.n, max(starts, 1), seed)
    # the one-asset tables as they are, then every start's ascent
    best = (-np.inf, None)
    for xs in xs0[-table.n:] + [_ascend(x[None], prog)[0] for x in xs0]:
        f = prog.value(xs)
        if f > best[0] + 1e-12:
            best = (f, xs)
    if best[1] is None or not np.isfinite(best[0]):
        raise SolverError("no start produced a positive growth factor")
    xs = solver._polish(best[1], prog)
    a = prog.factors(xs)
    alpha = prog.state_factors(a)
    strategy = BalancedStrategy(
        x={s: xs[i] for i, s in enumerate(spec.states)},
        alpha={s: float(alpha[i]) for i, s in enumerate(spec.states)},
        factors={f"{spec.states[u]}->{spec.states[v]}": float(a_t)
                 for u, v, a_t in zip(prog.src, prog.dest, a)})
    prices, residual = extract_equilibrium_prices(strategy, spec, table)
    return EquilibriumResult(
        strategy=strategy, prices=prices,
        log_growth=float(prog.growth(a)),
        certificate_residual=residual,
        stationary={s: float(w) for s, w in zip(spec.states, prog.pi)})


def _assert_same_result(spec, table, starts, seed=0):
    if starts < 1:
        # the loop runs the uniform start alone; the solver refuses
        with pytest.raises(ValueError, match=f"starts must be >= 1, got "
                                             f"{starts}"):
            solve_stationary_equilibrium(spec, table, starts=starts,
                                         seed=seed)
        return
    got = solve_stationary_equilibrium(spec, table, starts=starts, seed=seed)
    assert got.to_dict() == _solve_loop(spec, table, starts, seed).to_dict()


# (family, chain, n); costly cones on regime3 take two assets here and
# three in the seed-1 test below
CASES = [(family, chain, 2 if (family, chain) == ("proportional_tc",
                                                 "regime3") else 3)
         for family in ("frictionless", "proportional_tc", "currency")
         for chain in CHAINS]


@pytest.mark.parametrize("starts", [0, 1, 2, 8, 32])
@pytest.mark.parametrize("family,chain,n", CASES)
def test_solve_equals_per_start_loop(family, chain, n, starts):
    spec = CHAINS[chain]
    _assert_same_result(spec, _table(family, spec, n), starts)


def test_solve_equals_per_start_loop_three_costly_assets():
    spec = CHAINS["regime3"]
    _assert_same_result(spec, _table("proportional_tc", spec), 8, seed=1)


def test_pair_chain_equals_per_start_loop():
    spec, table = _pair_chain()
    _assert_same_result(spec, table, 4)


def _assert_rows_equal(xs0, prog):
    xs = _ascend(xs0, prog)
    assert xs.shape == xs0.shape
    for s in range(len(xs0)):
        np.testing.assert_array_equal(xs[s], _ascend(xs0[s:s + 1], prog)[0])


@pytest.mark.parametrize("family", ["frictionless", "proportional_tc",
                                    "currency"])
@pytest.mark.parametrize("chain", ["coin", "regime3", "one"])
def test_stacked_search_equals_per_start_rows(family, chain):
    spec = CHAINS[chain]
    prog = _StationaryProgram(spec, _table(family, spec))
    _assert_rows_equal(np.stack(_starts(spec.k, 3, 6, 3)), prog)


def test_stacked_search_single_asset_returns_its_starts():
    spec = CHAINS["regime3"]
    prog = _StationaryProgram(spec, ConeTable(
        {"*->*": ConeSpec.proportional_tc([1.1], 0.01, 0.02)}))
    xs0 = np.ones((4, 3, 1))
    np.testing.assert_array_equal(_ascend(xs0, prog), xs0)
    _assert_rows_equal(xs0, prog)


def test_stacked_search_with_a_dead_start():
    # asset 1 cannot be sold: a state holding only asset 1 cannot reach
    # a state holding only asset 0, so that start has value -inf; the
    # ascent starts inside the simplex and lifts it like any other
    spec = CHAINS["coin"]
    cone = ConeSpec.proportional_tc([1.0, 1.3], 0.01, [0.02, 1.0])
    prog = _StationaryProgram(spec, ConeTable({"*->*": cone}))
    dead = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert prog.value(dead) == -np.inf
    xs0 = np.stack([dead, np.full((2, 2), 0.5), dead[::-1]])
    _assert_rows_equal(xs0, prog)
    assert np.isfinite(prog.value(_ascend(xs0, prog))).all()


@pytest.mark.parametrize("family,chain", [
    ("proportional_tc", "coin"),
    ("currency", "regime3"),
    ("frictionless", "skew3"),
])
def test_chunk_boundaries_change_nothing(family, chain):
    # the stack ascended in chunks of three starts ends where it ends
    # as one batch
    spec = CHAINS[chain]
    prog = _StationaryProgram(spec, _table(family, spec))
    xs0 = np.stack(_starts(spec.k, 3, 8, 0))
    whole = _ascend(xs0, prog)
    chunks = np.concatenate([_ascend(xs0[i:i + 3], prog)
                             for i in range(0, len(xs0), 3)])
    np.testing.assert_array_equal(chunks, whole)


def test_lockstep_takes_one_stacked_evaluation_per_sweep(monkeypatch):
    # the batch solves one stacked Newton system per step, and runs as
    # many steps as its slowest start
    spec = CHAINS["coin"]
    prog = _StationaryProgram(spec, _table("proportional_tc", spec))
    xs0 = np.stack(_starts(spec.k, 3, 8, 0))
    calls = []
    step = _StationaryProgram.newton_step
    monkeypatch.setattr(_StationaryProgram, "newton_step",
                        lambda self, *a: calls.append(len(a[0]))
                        or step(self, *a))
    alone = []
    for start in xs0:
        calls.clear()
        _ascend(start[None], prog)
        alone.append(len(calls))
    calls.clear()
    _ascend(xs0, prog)
    assert calls == [len(xs0)] * max(alone)
    assert sum(alone) > 4 * max(alone)
