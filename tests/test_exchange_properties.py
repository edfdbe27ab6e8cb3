"""Property tests of the single exchange-cone representation.

Each family is an exchange cone with matrix G (``ConeSpec.exchange``):

* a transaction-cost cone holds ``(a, b)`` exactly when the currency
  cone with ``mu[i, j] = (1 - lm_j) / (1 + lp_i)``, ``mu[i, i] = 1``
  holds ``(R * a, b)``;
* the closed-form dual violation (extreme rays of G) equals the exchange
  linear program for every family;
* the exact boundary scale from the budget rows is tight: a member at
  ``t``, a non-member just above, also when a sell rate is zero
  (``lambda_minus = 1``) and some rows carry no load;
* stationary growth factors are the smallest boundary scale over the
  positive-probability predecessors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vngale.cones import (
    ConeSpec,
    ConeTable,
    boundary_scale,
    contains,
    dual_violation,
    membership_residual,
)
from vngale.scenario import MarkovSpec
from vngale.solver import _StationaryProgram

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def _vec(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def tc_cones(draw, n=None, lm_max=0.9, full_sales=False):
    n = n or draw(st.integers(1, 4))
    lm = draw(_vec(n, 0.0, lm_max))
    if full_sales:
        # some assets cannot be sold at all
        lm[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 1.0
    return ConeSpec.proportional_tc(draw(_vec(n, 0.3, 2.5)),
                                    draw(_vec(n, 0.0, 0.5)), lm)


@st.composite
def any_cones(draw, n=None):
    n = n or draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["frictionless", "proportional_tc",
                                 "currency"]))
    if kind == "frictionless":
        return ConeSpec.frictionless(draw(_vec(n, 0.3, 2.5)))
    if kind == "proportional_tc":
        return draw(tc_cones(n=n))
    mu = np.array([draw(_vec(n, 0.3, 1.8)) for _ in range(n)])
    np.fill_diagonal(mu, 1.0)
    return ConeSpec.currency(mu)


@st.composite
def simplex(draw, n):
    w = draw(_vec(n, 0.0, 1.0)) + 1e-3
    return w / w.sum()


@SETTINGS
@given(st.data())
def test_tc_membership_is_currency_membership_after_returns(data):
    cone = data.draw(tc_cones())
    R, lp, lm = cone.returns, cone.lambda_plus, cone.lambda_minus
    mu = (1.0 - lm)[None, :] / (1.0 + lp)[:, None]
    np.fill_diagonal(mu, 1.0)
    fx = ConeSpec.currency(mu)
    np.testing.assert_allclose(cone.exchange, mu * R[None, :], rtol=1e-15)
    a = data.draw(_vec(cone.n, 0.0, 2.0)) + 1e-3
    w = data.draw(simplex(cone.n))
    t_tc = boundary_scale(cone, a, w)
    t_fx = boundary_scale(fx, R * a, w)
    assert t_tc == pytest.approx(t_fx, rel=1e-9, abs=1e-12)
    s = data.draw(st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 2.0)))
    b = s * t_tc * w
    assert contains(cone, a, b) == contains(fx, R * a, b)


@SETTINGS
@given(any_cones(), st.data())
def test_closed_form_dual_equals_exchange_lp(cone, data):
    c = data.draw(_vec(cone.n, 0.0, 2.0))
    d = data.draw(_vec(cone.n, 0.0, 2.0))
    closed = dual_violation(cone, c, d, method="closed")
    lp = dual_violation(cone, c, d, method="lp")
    assert closed == pytest.approx(lp, abs=1e-9)
    assert dual_violation(cone, c, d) == closed


@SETTINGS
@given(st.data())
def test_exact_boundary_scale_is_tight(data):
    cone = data.draw(st.one_of(
        tc_cones(lm_max=0.5, full_sales=True),
        _vec(data.draw(st.integers(1, 4)), 0.3, 2.5).map(
            ConeSpec.frictionless)))
    a = data.draw(_vec(cone.n, 0.0, 2.0))
    w = data.draw(simplex(cone.n))
    t = boundary_scale(cone, a, w)
    assert np.isfinite(t) and t >= 0.0
    assert membership_residual(cone, a, t * w) <= 1e-12
    assert membership_residual(cone, a, (t * (1 + 1e-6) + 1e-9) * w) > 0.0


@SETTINGS
@given(st.data())
def test_growth_factors_are_min_boundary_scale_over_predecessors(data):
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    P = np.array([data.draw(_vec(k, 0.0, 1.0)) for _ in range(k)])
    P[np.arange(k), np.arange(k)] += 0.1  # every row keeps some mass
    P /= P.sum(axis=1, keepdims=True)
    states = [f"s{i}" for i in range(k)]
    spec = MarkovSpec(states, P)
    table = ConeTable({
        f"{u}->{v}": data.draw(any_cones(n=n))
        for u in states for v in states})
    xs = np.array([data.draw(simplex(n)) for _ in range(k)])
    prog = _StationaryProgram(spec, table)
    alpha = prog.state_factors(prog.factors(xs))
    for v in range(k):
        scales = [boundary_scale(table.resolve(states[u], states[v]),
                                 xs[u], xs[v])
                  for u in range(k) if P[u, v] > 0.0]
        assert alpha[v] == pytest.approx(min(scales), rel=1e-12)
