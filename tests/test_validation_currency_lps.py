"""Validation needs no linear program: g1 and the unit growth factors
(g5) are row computations on every cone's facet rows, currency cones
included.  The zero exchange matrix ships ``(e_i, 0)`` in every exchange
cone, so the unit portfolios are members."""

import numpy as np
import pytest

import vngale.cones
from vngale.cones import ConeSpec, ConeTable, contains, validate_assumptions


def _currency(n, seed):
    mu = np.random.default_rng(seed).uniform(0.6, 1.4, (n, n))
    np.fill_diagonal(mu, 1.0)
    return ConeSpec.currency(mu)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exactly_n_programs_per_currency_cone(monkeypatch, n):
    table = ConeTable({
        "*->U": _currency(n, n),
        "*->D": _currency(n, n + 10),
        "U->U": ConeSpec.proportional_tc(np.linspace(0.9, 1.2, n),
                                         0.01, 0.02),
    })
    calls = []
    original = vngale.cones.lp_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(vngale.cones, "lp_solve", counting)
    rep = validate_assumptions(table)
    assert rep.ok and rep.g1_ok
    assert calls == []


@pytest.mark.parametrize("seed", range(5))
def test_unit_portfolios_are_currency_members(seed):
    n = 2 + seed % 3
    cone = _currency(n, seed)
    for e in np.eye(n):
        assert contains(cone, e, np.zeros(n), tol=0.0)
