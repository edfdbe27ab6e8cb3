"""Standing-assumption validation is exact and runs once per command.

g1, g4 and g5 are decided on the facet rows and g2 on the exchange
matrix, so no cone family costs a linear program.  ``vng solve-tree``
validates through the solver's gate alone.
"""

import json

import numpy as np
import pytest

import vngale.cli
import vngale.cones
import vngale.solver
from vngale.cli import main
from vngale.cones import ConeSpec, ConeTable, validate_assumptions


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _currency_table(n=3):
    rng = np.random.default_rng(0)
    cones = {}
    for key in ("*->U", "*->D"):
        mu = rng.uniform(0.6, 1.1, (n, n))
        np.fill_diagonal(mu, 1.0)
        cones[key] = ConeSpec.currency(mu)
    return ConeTable(cones)


def test_currency_validation_lp_count(monkeypatch):
    table = _currency_table(n=3)
    calls = _counting(monkeypatch, vngale.cones, "lp_solve")
    rep = validate_assumptions(table)
    assert rep.ok
    assert calls == []


def test_no_programs_for_budget_families(monkeypatch):
    table = ConeTable({
        "*->U": ConeSpec.frictionless([1.0, 2.0, 0.7]),
        "*->D": ConeSpec.proportional_tc([1.0, 0.5, 1.3], 0.02, 0.03),
    })
    calls = _counting(monkeypatch, vngale.cones, "lp_solve")
    assert validate_assumptions(table).ok
    assert calls == []


def test_samples_and_seed_do_not_change_the_report():
    table = _currency_table(n=3)
    base = validate_assumptions(table).to_dict()
    for samples, seed in ((0, 0), (500, 1), (3, 99)):
        rep = validate_assumptions(table, samples=samples, seed=seed)
        assert rep.to_dict() == base


def test_solve_tree_validates_once(monkeypatch, tmp_path, capsys):
    doc = {
        "markov": {"states": ["U", "D"],
                   "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "cones": {
            "*->U": {"family": "frictionless", "returns": [1.0, 2.0]},
            "*->D": {"family": "frictionless", "returns": [1.0, 0.5]},
        },
    }
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    # one counter behind both names the package calls it by
    calls = _counting(monkeypatch, vngale.cli, "validate_assumptions")
    monkeypatch.setattr(vngale.solver, "validate_assumptions",
                        vngale.cli.validate_assumptions)
    rc = main(["solve-tree", "--model", str(model), "--horizon", "2",
               "--x0", "0.5,0.5", "--skip-dual"])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("bad_key", ["g2", "g4"])
def test_exact_g2_g4_witnesses(bad_key):
    # the constructors never break g2 or g4, so overwrite the cached
    # exchange matrix or budget rows; the witness names the offending
    # ray (e_j, G[i, j] e_i) as [j, i], or the budget row
    if bad_key == "g2":
        cone = ConeSpec.currency([[1.0, 0.5], [0.5, 1.0]])
        cone.__dict__["exchange"] = np.array([[1.0, 0.5], [5.0, 1.0]])
    else:
        cone = ConeSpec.proportional_tc([1.0, 1.0], 0.0, 0.5)
        cone.__dict__["budget"] = np.array([[1.0, -0.5]])
    rep = validate_assumptions({"*->*": cone})
    assert not rep.ok
    wit = [v for v in rep.violations if v["condition"] == bad_key]
    assert len(wit) == 1
    if bad_key == "g2":
        assert wit[0]["witness"]["ray"] == [0, 1]
        assert wit[0]["witness"]["rate"] == 5.0
    else:
        assert wit[0]["witness"]["row"] == 0


def test_exact_g1_witnesses_in_unit_order():
    # no constructor breaks g1 either: add a facet row whose slack at
    # (e_i, 0) is -C[r, i], positive for units 0 and 2 only
    cone = ConeSpec.proportional_tc([1.0, 1.2, 0.9], 0.01, 0.01)
    C, D = cone.facets
    cone.__dict__["facets"] = (np.vstack([C, [-1.0, 0.0, -0.5]]),
                               np.vstack([D, np.zeros(3)]))
    rep = validate_assumptions({"*->*": cone})
    assert not rep.g1_ok
    wit = [v for v in rep.violations if v["condition"] == "g1"]
    assert [v["witness"] for v in wit] == [{"unit": 0}, {"unit": 2}]
    assert {v["cone"] for v in wit} == {"*->*"}


def test_full_friction_fails_growth_only():
    # a zero sell rate leaves a zero in the budget rows; disposal and the
    # bound still hold, only the growth conditions fail
    cone = ConeSpec.proportional_tc([2.0, 1.0], [0.1, 0.1], [0.2, 1.0])
    rep = validate_assumptions({"*->*": cone})
    assert (cone.budget == 0).any()
    assert (rep.g1_ok, rep.g2_ok, rep.g4_ok) == (True, True, True)
    assert (rep.g3_ok, rep.g5_ok) == (False, False)
    assert [v["condition"] for v in rep.violations] == ["g5"]
