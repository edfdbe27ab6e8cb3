"""Balanced growth of the stationary ascent against references derived here.

A one-state currency market grows at its best geometric-mean exchange
cycle, found by enumerating the cycles.  On two-asset chains every
table is a point ``p`` per state, and a grid over those points bounds
the best growth from below; the growth of each grid table is summed
here from one boundary-scale call per transition.  Holding cash in
every state grows at exactly 0, so no solve may return less.
"""

import itertools
import math

import numpy as np
import pytest

from vngale.cones import ConeSpec, ConeTable, _boundary_scale
from vngale.scenario import MarkovSpec
from vngale.solver import solve_stationary_equilibrium

# the mispriced triangle of demos/currency_triangle.py
TRIANGLE = [[1.00, 0.95, 0.78], [1.04, 1.00, 0.72], [1.25, 1.32, 1.00]]
EXCHANGE = [
    TRIANGLE,
    # the triangle with its rates moved by up to 3%
    [[1.0, 0.9369, 0.7585], [1.0098, 1.0, 0.7378], [1.258, 1.3382, 1.0]],
    [[1.0, 0.9757, 0.7633], [1.068, 1.0, 0.7167], [1.2746, 1.3128, 1.0]],
    [[1.0, 0.9385, 0.7947], [1.0145, 1.0, 0.7299], [1.2266, 1.2848, 1.0]],
    [[1.0, 1.068, 0.93, 0.819], [1.238, 1.0, 1.156, 1.21],
     [1.11, 0.885, 1.0, 0.928], [1.083, 1.061, 1.07, 1.0]],
]


def best_cycle(mu):
    """Log of the largest geometric mean of ``mu`` around a cycle of
    distinct currencies (0 for holding one)."""
    mu = np.asarray(mu)
    n = len(mu)
    return max([0.0] + [
        sum(math.log(mu[c[(i + 1) % m], c[i]]) for i in range(m)) / m
        for m in range(2, n + 1)
        for c in itertools.permutations(range(n), m)])


@pytest.mark.parametrize("mu", EXCHANGE, ids=range(len(EXCHANGE)))
def test_one_state_currency_grows_at_its_best_cycle(mu):
    spec = MarkovSpec(["S"], [[1.0]])
    eq = solve_stationary_equilibrium(
        spec, ConeTable({"*->S": ConeSpec.currency(mu)}))
    assert eq.log_growth == pytest.approx(best_cycle(mu), rel=0.0,
                                          abs=1e-12)


def stall_chain():
    """A chain whose best strategy holds nearly the same proportions in
    every state: a cost cone's no-trade kink makes a ridge along moves
    of every state at once."""
    P = [[0.4647, 0.5304, 0.0049], [0.1859, 0.4213, 0.3928],
         [0.5206, 0.1577, 0.3217]]
    return MarkovSpec(["A", "B", "C"], P), ConeTable({
        "*->A": ConeSpec.currency([[1.0, 0.8151], [0.9567, 1.0]]),
        "*->B": ConeSpec.currency([[1.0, 0.85], [0.8151, 1.0]]),
        "*->C": ConeSpec.currency([[1.0, 1.0874], [0.9331, 1.0]])})


def test_stall_chain_reaches_the_ridge_top_from_one_start():
    spec, table = stall_chain()
    eq = solve_stationary_equilibrium(spec, table, starts=1)
    assert eq.log_growth >= 0.0017022515


def _random_chain(seed):
    """A seeded two-asset chain of 1-3 states with cost or currency
    cones, rates within 25% of par and costs up to 5%."""
    rng = np.random.default_rng([7, seed])
    k = 1 + seed % 3
    states = ["A", "B", "C"][:k]
    P = rng.dirichlet(np.ones(k), size=k)
    cones = {}
    for s in states:
        if seed % 2:
            mu = rng.uniform(0.8, 1.25, (2, 2))
            np.fill_diagonal(mu, 1.0)
            cones[f"*->{s}"] = ConeSpec.currency(mu)
        else:
            cones[f"*->{s}"] = ConeSpec.proportional_tc(
                [1.0, rng.uniform(0.8, 1.25)], rng.uniform(0.0, 0.05, 2),
                rng.uniform(0.0, 0.05, 2))
    return MarkovSpec(states, P), ConeTable(cones)


def grid_growth(spec, table, points=81):
    """The best growth over the tables holding ``(p, 1 - p)`` in each
    state, ``p`` on an even grid of [0, 1]."""
    k = spec.k
    vals, vecs = np.linalg.eig(spec.P.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    pi = pi / pi.sum()
    p = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, points)] * k,
                             indexing="ij"), axis=-1).reshape(-1, k)
    X = np.stack([p, 1.0 - p], axis=-1)
    growth = np.zeros(len(X))
    with np.errstate(divide="ignore"):
        for u, v in zip(*np.nonzero(spec.P > 0.0)):
            cone = table.resolve(spec.states[u], spec.states[v])
            growth += pi[u] * spec.P[u, v] * np.log(
                _boundary_scale(cone, X[:, u], X[:, v]))
    return growth.max()


@pytest.mark.parametrize("seed", range(12))
def test_no_two_asset_grid_table_beats_the_solve(seed):
    spec, table = _random_chain(seed)
    eq = solve_stationary_equilibrium(spec, table)
    xs = np.stack([eq.strategy.x[s] for s in spec.states])
    assert (xs >= 0.0).all()
    np.testing.assert_allclose(xs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert eq.log_growth >= grid_growth(spec, table) - 1e-9


def test_costly_chain_never_grows_below_cash():
    # a seeded costly chain whose best table found holds cash in every
    # state, which grows at exactly 0: a search that stops near that
    # face, short of it, ends below 0
    P = [[0.1834, 0.5062, 0.3104], [0.626, 0.0126, 0.3614],
         [0.0163, 0.4566, 0.5271]]
    cones = {
        "A": ([1.0, 1.001481], [0.019246, 0.049165], [0.048981, 0.003227]),
        "B": ([1.0, 1.048798], [0.020101, 0.015721], [0.032942, 0.005286]),
        "C": ([1.0, 0.918598], [0.020504, 0.002504], [0.045117, 0.040701]),
    }
    spec = MarkovSpec(list(cones), P)
    table = ConeTable({f"*->{s}": ConeSpec.proportional_tc(*c)
                       for s, c in cones.items()})
    cash = np.tile([1.0, 0.0], (3, 1))
    assert grid_growth(spec, table, points=2) >= 0.0
    assert all(_boundary_scale(table.resolve(u, v), cash[0], cash[0]) == 1.0
               for u in spec.states for v in spec.states)
    assert solve_stationary_equilibrium(spec, table).log_growth >= 0.0
