"""Stacked evaluation of the stationary growth.

``cones._boundary_scale`` takes a stack of pairs and
``solver._StationaryProgram`` a stack of proportion tables; each stacked
value must equal the value of its own pair or table.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vngale.certify import asymptotic_dominance
from vngale.cones import ConeSpec, ConeTable, _boundary_scale
from vngale.plans import BalancedStrategy
from vngale.scenario import MarkovSpec, sample_paths
from vngale.solver import _StationaryProgram, _ascend

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def _vec(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def cones(draw, n):
    kind = draw(st.sampled_from(["frictionless", "proportional_tc",
                                 "currency"]))
    if kind == "frictionless":
        return ConeSpec.frictionless(draw(_vec(n, 0.3, 2.5)))
    if kind == "proportional_tc":
        lm = draw(_vec(n, 0.0, 0.5))
        # some assets cannot be sold at all: rows with zero load
        lm[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 1.0
        return ConeSpec.proportional_tc(draw(_vec(n, 0.3, 2.5)),
                                        draw(_vec(n, 0.0, 0.5)), lm)
    mu = np.array([draw(_vec(n, 0.3, 1.8)) for _ in range(n)])
    np.fill_diagonal(mu, 1.0)
    return ConeSpec.currency(mu)


@st.composite
def directions(draw, n):
    """Simplex points, some with zero entries."""
    w = draw(_vec(n, 0.0, 1.0))
    w[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    w[draw(st.integers(0, n - 1))] += 1e-3
    return w / w.sum()


@SETTINGS
@given(st.data())
def test_stacked_boundary_scale_equals_pairwise_calls(data):
    n = data.draw(st.integers(1, 4))
    cone = data.draw(cones(n))
    M = data.draw(st.integers(1, 6))
    A = np.array([data.draw(_vec(n, 0.0, 2.0)) for _ in range(M)])
    D = np.array([data.draw(directions(n)) for _ in range(M)])
    stacked = _boundary_scale(cone, A, D)
    assert stacked.shape == (M,)
    for m in range(M):
        one = _boundary_scale(cone, A[m], D[m])
        assert isinstance(one, float)
        assert stacked[m] == one


@pytest.mark.parametrize("cone", [
    ConeSpec.frictionless([1.0, 1.3]),
    ConeSpec.proportional_tc([1.0, 1.3], 0.01, [0.02, 1.0]),
    ConeSpec.currency([[1.0, 1.2], [0.7, 1.0]]),
])
def test_empty_stack(cone):
    assert _boundary_scale(cone, np.zeros((0, 2)),
                           np.zeros((0, 2))).shape == (0,)


def _chain(k):
    if k == 1:
        return MarkovSpec(["S"], [[1.0]])
    if k == 2:
        return MarkovSpec(["U", "D"], [[0.5, 0.5], [0.3, 0.7]])
    # state C is never entered from A: a zero-probability transition
    return MarkovSpec(["A", "B", "C"], [[0.8, 0.2, 0.0],
                                        [0.1, 0.8, 0.1],
                                        [0.05, 0.15, 0.8]])


def _table(family, spec, n, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for s in spec.states:
        if family == "currency":
            mu = rng.uniform(0.7, 1.3, (n, n))
            np.fill_diagonal(mu, 1.0)
            out[f"*->{s}"] = ConeSpec.currency(mu)
            continue
        r = np.concatenate([[1.0], rng.uniform(0.5, 2.0, n - 1)])
        if family == "frictionless":
            out[f"*->{s}"] = ConeSpec.frictionless(r)
        else:
            out[f"*->{s}"] = ConeSpec.proportional_tc(
                r, rng.uniform(0.0, 0.03, n), rng.uniform(0.0, 0.03, n))
    return ConeTable(out)


@SETTINGS
@given(st.data())
def test_stacked_growth_factors_equal_per_table_calls(data):
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    spec = _chain(k)
    table = ConeTable({f"{u}->{v}": data.draw(cones(n))
                       for u in spec.states for v in spec.states})
    prog = _StationaryProgram(spec, table)
    M = data.draw(st.integers(1, 5))
    xs = np.array([[data.draw(directions(n)) for _ in range(k)]
                   for _ in range(M)])
    alpha = prog.state_factors(prog.factors(xs))
    f = prog.value(xs)
    assert alpha.shape == (M, k) and f.shape == (M,)
    for m in range(M):
        np.testing.assert_array_equal(
            prog.state_factors(prog.factors(xs[m])), alpha[m])
        f_m = prog.value(xs[m])
        assert isinstance(f_m, float)
        assert f[m] == f_m


@SETTINGS
@given(st.data())
def test_factors_equal_one_call_per_transition(data):
    """``factors`` makes one boundary-scale call per cone, over all of
    its transitions; each transition's factor must equal a call of its
    own, for one table and for a stack of them."""
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    spec = _chain(k)
    layout = data.draw(st.sampled_from(["*->*", "*->v", "u->v"]))
    entries = {"*->*": data.draw(cones(n))}
    for u in spec.states:
        for v in spec.states:
            if layout == "*->v" and u == spec.states[0]:
                entries[f"*->{v}"] = data.draw(cones(n))
            # exact keys beside a wildcard that the others share
            if layout == "u->v" and data.draw(st.booleans()):
                entries[f"{u}->{v}"] = data.draw(cones(n))
    table = ConeTable(entries)
    prog = _StationaryProgram(spec, table)
    used = {id(table.resolve(spec.states[u], spec.states[v]))
            for u, v in zip(prog.src, prog.dest)}
    assert len(prog.groups) == len(used)
    M = data.draw(st.integers(1, 5))
    xs = np.array([[data.draw(directions(n)) for _ in range(k)]
                   for _ in range(M)])
    for stack in (xs[0], xs):
        a = np.stack([
            _boundary_scale(table.resolve(spec.states[u], spec.states[v]),
                            stack[..., u, :], stack[..., v, :])
            for u, v in zip(prog.src, prog.dest)], axis=-1)
        np.testing.assert_array_equal(prog.factors(stack),
                                      np.where(a < np.inf, a, 1.0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_single_asset_ascent_returns_its_start(k):
    spec = _chain(k)
    table = ConeTable({"*->*": ConeSpec.proportional_tc([1.1], 0.01, 0.02)})
    prog = _StationaryProgram(spec, table)
    xs0 = np.ones((1, k, 1))
    np.testing.assert_array_equal(_ascend(xs0, prog), xs0)


def test_dominance_competitors_keep_their_draws():
    spec = _chain(2)
    table = _table("proportional_tc", spec, 3, 8)
    prog = _StationaryProgram(spec, table)
    strat = BalancedStrategy(
        x={s: np.full(3, 1.0 / 3) for s in spec.states},
        alpha={s: float(a) for s, a in zip(
            spec.states,
            prog.state_factors(prog.factors(np.full((2, 3), 1.0 / 3))))})
    rep = asymptotic_dominance(strat, spec, table, competitors=4,
                               length=40, paths=6, seed=9)
    rng = np.random.default_rng(9)
    props = [np.tile(e, (2, 1)) for e in np.eye(3)]
    props += [rng.dirichlet(np.ones(3), size=2) for _ in range(4)]
    names = ["hold-0", "hold-1", "hold-2"] + [f"random-{j}"
                                              for j in range(4)]
    S = sample_paths(spec, 40, 6, 9)
    rows = {row["competitor"]: row for row in rep.rows}
    assert list(rows) == names[:3] + ["dispose-10"] + names[3:]
    for name, prop in zip(names, props):
        # the first step by the state factor, then each transition's own
        a = prog.factors(prop)
        step = np.ones((3, 2))
        step[prog.src, prog.dest] = a
        step[2] = prog.state_factors(a)
        log_a = np.log(step)
        logs = np.hstack([log_a[2, S[:, :1]], log_a[S[:, :-1], S[:, 1:]]])
        expected = (np.cumsum(logs, axis=1)[:, -1] / 40).mean()
        assert rows[name]["mean_growth_competitor"] == expected
