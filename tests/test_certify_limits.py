"""`vng certify` takes its tolerances from the model file's limits.

``limits.tol`` and ``limits.defect_tol`` are the defaults of ``--tol``
and ``--defect-tol``; explicit flags override them.  A tolerance of
1e-30 is below any residual a floating-point certificate reaches, so the
model-file limits must make the verdict fail.
"""

import json

import pytest

from vngale.cli import main

TINY = 1e-30


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _coin_doc(limits=None):
    doc = {
        "markov": {"states": ["U", "D"],
                   "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "cones": {
            "*->U": {"family": "frictionless", "returns": [1.0, 2.0]},
            "*->D": {"family": "frictionless", "returns": [1.0, 0.5]},
        },
    }
    if limits is not None:
        doc["limits"] = limits
    return doc


@pytest.fixture
def solved(tmp_path, capsys):
    """A solve-tree result of the coin model, and a strict-limits model."""
    plain = _write(tmp_path / "plain.json", _coin_doc())
    strict = _write(tmp_path / "strict.json",
                    _coin_doc({"tol": TINY, "defect_tol": TINY}))
    res = tmp_path / "res.json"
    assert main(["solve-tree", "--model", plain, "--horizon", "2",
                 "--x0", "0.5,0.5", "--out", str(res)]) == 0
    capsys.readouterr()
    return plain, strict, str(res)


def _certify(capsys, model, res, *flags):
    rc = main(["certify", "--model", model, "--plan", res, "--dual", res,
               "--competitors", "3", *flags])
    return rc, json.loads(capsys.readouterr().out)


def test_model_limits_are_the_certify_defaults(solved, capsys):
    _plain, strict, res = solved
    rc, rep = _certify(capsys, strict, res)
    assert rc == 1
    assert rep["verdict"] == "fail"
    assert rep["tol"] == TINY
    assert rep["defect_tol"] == TINY


def test_builtin_defaults_without_limits(solved, capsys):
    plain, _strict, res = solved
    rc, rep = _certify(capsys, plain, res)
    assert rc == 0
    assert (rep["tol"], rep["defect_tol"]) == (1e-6, 1e-8)


def test_flags_override_model_limits(solved, capsys):
    _plain, strict, res = solved
    rc, rep = _certify(capsys, strict, res, "--tol", "1e-6",
                       "--defect-tol", "1e-8")
    assert rc == 0
    assert (rep["tol"], rep["defect_tol"]) == (1e-6, 1e-8)


def test_one_flag_keeps_the_other_limit(solved, capsys):
    _plain, strict, res = solved
    rc, rep = _certify(capsys, strict, res, "--tol", "1e-6")
    assert (rep["tol"], rep["defect_tol"]) == (1e-6, TINY)
