"""The tree solver's Newton step: cut at 0.99 of the way to the boundary,
with no line search.

A backtracking test on the probability-weighted barrier cannot see a
node of probability 1e-10: its barrier terms lie below the rounding of
the sum.  On the rare chain below such a test stalled the last stage at
its 40-step cap.  The fixed boundary fraction reads no barrier sum, so
every node's step is as long as the root's.  A step that is not finite
still fails the solve with :class:`SolverError`, and the CLI with exit
code 1.
"""

import json

import numpy as np
import pytest

from vngale.certify import check_rapid
from vngale.cli import main
from vngale.cones import ConeSpec, ConeTable
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import SolverError, _TreeProgram, solve_tree_log_optimal

# every step lands in A with probability 0.9998, so the 5-step tree has
# nodes of probability 1e-20
RARE = [0.9998, 0.0001, 0.0001]
RETURNS = {"A": [1.0, 1.0530658280474072], "B": [1.0, 1.620636342670437],
           "C": [1.0, 1.5381251189214868]}


def rare_chain():
    spec = MarkovSpec(["A", "B", "C"], [RARE] * 3)
    table = ConeTable({f"*->{s}": ConeSpec.frictionless(r)
                       for s, r in RETURNS.items()})
    return build_tree(spec, 5), table


def test_rare_chain_stages_end_before_their_cap(monkeypatch):
    steps = {}
    step = _TreeProgram.newton_step

    def record(self, Y, mu):
        steps[mu] = steps.get(mu, 0) + 1
        return step(self, Y, mu)

    monkeypatch.setattr(_TreeProgram, "newton_step", record)
    tree, table = rare_chain()
    assert tree.n_nodes == 364
    res = solve_tree_log_optimal(tree, table, [0.5, 0.5])
    assert min(steps) == 1e-12
    assert max(steps.values()) < 40, steps
    assert res.kkt_residual <= 1e-10
    rep = check_rapid(res.plan, res.dual, table)
    assert rep.passed, rep.to_dict()


# currency n = 5 on rare three-state chains, H = 6, liquidation: nodes of
# probability down to 1e-18 (p = 1e-3) and 1e-24 (p = 1e-4) cut every
# step from mu = 1e-6 on, and which models of this class certify flips
# with the boundary fraction.  Both certify with the Armijo search and
# with the 0.99 cut, and fail with a 0.95 cut (kkt 0.09 and 0.10).
LOST_AT_095 = {
    "p1e-3": (1e-3, {
        "A": [[1.0, 1.158, 1.722, 0.905, 1.248],
              [0.74, 1.0, 1.365, 0.749, 1.082],
              [0.518, 0.638, 1.0, 0.503, 0.672],
              [0.974, 1.206, 1.793, 1.0, 1.374],
              [0.668, 0.856, 1.228, 0.696, 1.0]],
        "B": [[1.0, 0.727, 1.638, 0.876, 0.833],
              [1.238, 1.0, 2.121, 1.126, 1.02],
              [0.575, 0.454, 1.0, 0.563, 0.484],
              [0.991, 0.786, 1.753, 1.0, 0.896],
              [1.169, 0.853, 1.845, 1.099, 1.0]],
        "C": [[1.0, 0.915, 0.553, 0.492, 0.5],
              [1.022, 1.0, 0.638, 0.546, 0.576],
              [1.553, 1.445, 1.0, 0.856, 0.852],
              [1.746, 1.605, 1.13, 1.0, 0.96],
              [1.802, 1.714, 1.093, 0.893, 1.0]]}),
    "p1e-4": (1e-4, {
        "A": [[1.0, 1.096, 0.904, 1.677, 0.99],
              [0.822, 1.0, 0.706, 1.295, 0.805],
              [0.99, 1.285, 1.0, 1.761, 1.142],
              [0.561, 0.691, 0.5, 1.0, 0.595],
              [0.936, 1.106, 0.855, 1.579, 1.0]],
        "B": [[1.0, 1.261, 0.949, 1.192, 1.907],
              [0.662, 1.0, 0.673, 0.809, 1.297],
              [0.922, 1.311, 1.0, 1.121, 1.845],
              [0.756, 1.106, 0.787, 1.0, 1.433],
              [0.491, 0.702, 0.479, 0.578, 1.0]],
        "C": [[1.0, 0.637, 0.693, 1.034, 0.808],
              [1.352, 1.0, 0.973, 1.4, 1.15],
              [1.282, 0.909, 1.0, 1.385, 1.125],
              [0.922, 0.603, 0.663, 1.0, 0.75],
              [1.198, 0.808, 0.858, 1.271, 1.0]]}),
}


@pytest.mark.parametrize("p, mus", LOST_AT_095.values(), ids=LOST_AT_095)
def test_rare_currency_chains_certify(p, mus):
    spec = MarkovSpec(["A", "B", "C"], [[1 - 2 * p, p, p]] * 3)
    table = ConeTable({f"*->{s}": ConeSpec.currency(m)
                       for s, m in mus.items()})
    res = solve_tree_log_optimal(build_tree(spec, 6), table,
                                 np.full(5, 0.2), "liquidation")
    assert res.kkt_residual <= 1e-6
    rep = check_rapid(res.plan, res.dual, table)
    assert rep.passed, rep.to_dict()


def _nan_step(broken, decrement):
    """A ``_solve_kkt_by_depth`` whose step is nan at the calls that
    ``broken`` (of the 1-based call count) picks, with the given
    decrement and node share there."""
    solve = _TreeProgram._solve_kkt_by_depth
    calls = []

    def kkt(self, G, H, CP):
        calls.append(None)
        if broken(len(calls)):
            return np.full_like(G, np.nan), decrement, decrement
        return solve(self, G, H, CP)

    return kkt


@pytest.mark.parametrize("call", [1, 2, 5])
@pytest.mark.parametrize("decrement", [np.nan, np.inf])
def test_a_decrement_that_is_not_finite_raises(call, decrement, monkeypatch):
    # from that call on; a predictor step (the 5th call here) passes its
    # nan step to the next Newton step
    monkeypatch.setattr(_TreeProgram, "_solve_kkt_by_depth",
                        _nan_step(lambda c: c >= call, decrement))
    tree, table = rare_chain()
    with pytest.raises(SolverError, match="Newton step is not finite"):
        solve_tree_log_optimal(tree, table, [0.5, 0.5])


def test_one_nan_step_with_a_finite_decrement_raises(monkeypatch):
    # the nan iterate makes the next Newton system singular
    monkeypatch.setattr(_TreeProgram, "_solve_kkt_by_depth",
                        _nan_step(lambda c: c == 5, 1e-3))
    tree, table = rare_chain()
    with pytest.raises(SolverError):
        solve_tree_log_optimal(tree, table, [0.5, 0.5])


def test_a_nan_plan_fails_the_feasibility_audit(monkeypatch):
    # nan steps whose decrement ends every stage at its first step: the
    # plan that comes out is nan, and the audit rejects it
    monkeypatch.setattr(_TreeProgram, "_solve_kkt_by_depth",
                        _nan_step(lambda c: True, 1e-20))
    tree, table = rare_chain()
    with pytest.raises(SolverError, match="plan left the feasible set: "
                                          "residual nan"):
        solve_tree_log_optimal(tree, table, [0.5, 0.5])


@pytest.mark.parametrize("broken, decrement",
                         [(lambda c: c == 5, np.nan),
                          (lambda c: True, 1e-20)], ids=["step", "audit"])
def test_cli_exits_1_on_a_nan_step(broken, decrement, tmp_path, monkeypatch,
                                   capsys):
    monkeypatch.setattr(_TreeProgram, "_solve_kkt_by_depth",
                        _nan_step(broken, decrement))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "markov": {"states": ["A", "B", "C"], "transition": [RARE] * 3},
        "cones": {f"*->{s}": {"family": "frictionless", "returns": r}
                  for s, r in RETURNS.items()},
    }), encoding="utf-8")
    out = tmp_path / "plan.json"
    rc = main(["solve-tree", "--model", str(model), "--horizon", "5",
               "--x0", "0.5,0.5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
