"""Regressions in cone construction and in the tree dual program.

* A NaN sell-cost rate used to pass construction (NaN fails both range
  comparisons), so a model file with a ``NaN`` token reached the
  assumption checks and produced bogus witnesses instead of a schema
  error.
* The dual program of a three-asset transaction-cost tree, written with
  the ``(n + 1)``-variable lift rows, made the simplex reject its own
  final basis.  The lift-free rows ``G[i, j] d_i <= c_j`` solve it.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import vngale
from vngale.cli import main
from vngale.cones import ConeSpec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(vngale.__file__)))


def _coin_doc(cones):
    return {"markov": {"states": ["U", "D"],
                       "transition": [[0.5, 0.5], [0.5, 0.5]]},
            "cones": cones}


def test_nan_lambda_minus_rejected_at_construction():
    with pytest.raises(ValueError, match="lambda_minus"):
        ConeSpec.proportional_tc([1.0, 2.0], [0.01, 0.01],
                                 [0.02, float("nan")])
    with pytest.raises(ValueError, match="lambda_minus"):
        ConeSpec.proportional_tc([1.0, 2.0], 0.01, float("inf"))
    with pytest.raises(ValueError):
        ConeSpec.from_dict({"family": "proportional_tc",
                            "returns": [1.0, 2.0],
                            "lambda_plus": [0.0, 0.0],
                            "lambda_minus": [float("nan"), 0.0]})


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["solve-tree", "--horizon", "2", "--x0", "0.5,0.5"],
])
def test_nan_lambda_minus_is_a_schema_error(tmp_path, capsys, argv):
    cone = {"family": "proportional_tc", "returns": [1.0, 2.0],
            "lambda_plus": [0.01, 0.01], "lambda_minus": [0.02, 0.02]}
    text = json.dumps(_coin_doc({"*->U": cone, "*->D": cone}))
    # json writes and reads the bare NaN token
    text = text.replace("0.02]", "NaN]", 1)
    assert "NaN" in text
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    assert main([argv[0], "--model", str(path), *argv[1:]]) == 2
    assert "lambda_minus" in capsys.readouterr().err


# Three assets (cash first) on the fair coin, one transaction-cost cone
# per destination state.
TC3_CONES = {
    "*->U": {"family": "proportional_tc",
             "returns": [1.0, 2.031597819263187, 0.7100916042296982],
             "lambda_plus": [0.009285499289350053, 0.009267498434130715,
                             0.009196536030601788],
             "lambda_minus": [0.02150791981562857, 0.018562258150760673,
                              0.021783218354446535]},
    "*->D": {"family": "proportional_tc",
             "returns": [1.0, 0.4912818021150641, 1.3812281481459463],
             "lambda_plus": [0.011633054736936984, 0.010165623472158245,
                             0.010445365734131932],
             "lambda_minus": [0.017735477727133964, 0.023155230619208465,
                              0.019614919817449634]},
}


def test_tc3_dual_program_solves(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_coin_doc(TC3_CONES)), encoding="utf-8")
    out = tmp_path / "result.json"
    x0 = ",".join([repr(1.0 / 3.0)] * 3)
    env = dict(os.environ, VNG_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "vngale.cli", "solve-tree",
         "--model", str(model), "--horizon", "3", "--x0", x0,
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert np.isfinite(doc["kkt_residual"])
    assert doc["kkt_residual"] <= 1e-8
