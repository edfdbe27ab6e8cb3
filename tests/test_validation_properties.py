"""Property tests of the exact standing-assumption checks.

``validate_assumptions`` decides the uniform bound g2 on the generating
rays ``(e_j, G[i, j] e_i)`` instead of on sampled members.  These
properties keep the sampled coverage as an independent check:

* every random member ``(a, b)`` from :func:`sample_member` satisfies
  ``|b| <= M_bound |a|`` with ``M_bound`` read off the report;
* every generating ray is a member of its cone;
* every constructor-built cone with all ``lambda_minus < 1`` passes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from vngale.cones import ConeSpec, contains, sample_member, validate_assumptions

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def _vec(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def cones(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["frictionless", "proportional_tc",
                                 "currency"]))
    if kind == "frictionless":
        return ConeSpec.frictionless(draw(_vec(n, 0.3, 2.5)))
    if kind == "proportional_tc":
        return ConeSpec.proportional_tc(draw(_vec(n, 0.3, 2.5)),
                                        draw(_vec(n, 0.0, 0.5)),
                                        draw(_vec(n, 0.0, 0.95)))
    mu = np.array([draw(_vec(n, 0.3, 1.8)) for _ in range(n)])
    np.fill_diagonal(mu, 1.0)
    return ConeSpec.currency(mu)


@SETTINGS
@given(cones(), st.integers(0, 2**32 - 1))
def test_sampled_members_respect_the_reported_bound(cone, seed):
    M = validate_assumptions({"*->*": cone}).M_bound
    rng = np.random.default_rng(seed)
    for _ in range(20):
        a, b = sample_member(cone, rng)
        assert b.sum() <= M * a.sum() * (1.0 + 1e-9) + 1e-9


@SETTINGS
@given(cones())
def test_generating_rays_are_members(cone):
    G = cone.exchange
    for i in range(cone.n):
        for j in range(cone.n):
            a, b = np.zeros(cone.n), np.zeros(cone.n)
            a[j], b[i] = 1.0, G[i, j]
            assert contains(cone, a, b)


@SETTINGS
@given(cones())
def test_constructor_cones_pass(cone):
    rep = validate_assumptions({"*->*": cone})
    assert rep.ok, rep.violations
    assert rep.M_bound >= cone.exchange.max()
    assert rep.gamma > 0
