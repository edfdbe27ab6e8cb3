"""The CLI's result files against ``json.dumps`` as the byte reference.

``cli._emit`` renders node maps in blocks of entries by ``%``-templates
and everything else by its own walk; the contract is that every byte
equals ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the
document handed to it, on stdout and in an ``--out`` file alike.  Each
CLI command's document is captured on its way into ``_emit`` and
compared with that reference, and so is a set of hand-made documents
with the values json treats specially.
"""

import json
import math
import shutil

import numpy as np
import pytest

from vngale import cli
from vngale.cli import main


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


COIN = {
    "markov": {"states": ["U", "D"],
               "transition": [[0.5, 0.5], [0.5, 0.5]]},
    "cones": {"*->U": {"family": "frictionless", "returns": [1.0, 2.0]},
              "*->D": {"family": "frictionless", "returns": [1.0, 0.5]}},
}

# B -> C only and a zero A -> C: depths differ in their child counts
PRUNED = {
    "markov": {"states": ["A", "B", "C"],
               "transition": [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0],
                              [0.2, 0.3, 0.5]]},
    "cones": {
        "*->A": {"family": "frictionless", "returns": [1.0, 1.3, 0.9]},
        "*->B": {"family": "proportional_tc", "returns": [1.0, 0.8, 1.2],
                 "lambda_plus": 0.01, "lambda_minus": 0.02},
        "C->C": {"family": "frictionless", "returns": [1.0, 1.1, 1.05]},
        "*->C": {"family": "proportional_tc", "returns": [1.0, 0.95, 1.0],
                 "lambda_plus": 0.02, "lambda_minus": 0.0},
    },
}


@pytest.fixture
def emitted(monkeypatch):
    """The documents handed to ``_emit``, in call order."""
    docs = []
    real = cli._emit

    def spy(doc, out):
        docs.append(doc)
        real(doc, out)

    monkeypatch.setattr(cli, "_emit", spy)
    return docs


def run_both_ways(argv, tmp_path, emitted, capsys, expect=0):
    """Run ``argv`` to stdout and to ``--out``; both must equal the
    reference rendering of the document the command emitted."""
    assert main(argv) == expect
    stdout = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == expect
    capsys.readouterr()
    doc = emitted[-1]
    assert stdout == reference(emitted[-2])
    assert out.read_bytes() == reference(doc).encode("ascii")
    return doc


class TestCommandDocuments:
    def test_validate(self, tmp_path, emitted, capsys):
        model = write_json(tmp_path / "m.json", PRUNED)
        doc = run_both_ways(["validate", "--model", model], tmp_path,
                            emitted, capsys)
        assert doc["ok"] is True

    @pytest.mark.parametrize("skip_dual", [False, True])
    def test_solve_tree(self, tmp_path, emitted, capsys, skip_dual):
        model = write_json(tmp_path / "m.json", PRUNED)
        argv = ["solve-tree", "--model", model, "--horizon", "4",
                "--x0", "0.4,0.3,0.3", "--root-state", "B"]
        doc = run_both_ways(argv + ["--skip-dual"] * skip_dual, tmp_path,
                            emitted, capsys)
        assert (doc["dual"] is None) == skip_dual
        assert len(doc["plan"]["portfolio"]) > 10

    def test_solve_stationary(self, tmp_path, emitted, capsys):
        model = write_json(tmp_path / "m.json", COIN)
        doc = run_both_ways(["solve-stationary", "--model", model,
                             "--starts", "2"], tmp_path, emitted, capsys)
        assert doc["log_growth"] > 0.0

    def test_certify_pruned_pinned_root(self, tmp_path, emitted, capsys):
        model = write_json(tmp_path / "m.json", PRUNED)
        plan = str(tmp_path / "plan.json")
        assert main(["solve-tree", "--model", model, "--horizon", "5",
                     "--x0", "0.4,0.3,0.3", "--root-state", "B",
                     "--out", plan]) == 0
        capsys.readouterr()
        doc = run_both_ways(["certify", "--model", model, "--plan", plan,
                             "--dual", plan], tmp_path, emitted, capsys)
        assert doc["verdict"] == "pass"
        assert len(doc["node_defect"]) > 10


class TestCertifyParsesOnce:
    def test_same_file_is_read_once(self, tmp_path, monkeypatch, capsys):
        model = write_json(tmp_path / "m.json", COIN)
        plan = str(tmp_path / "plan.json")
        assert main(["solve-tree", "--model", model, "--horizon", "3",
                     "--x0", "0.5,0.5", "--out", plan]) == 0
        copy = str(tmp_path / "dual.json")
        shutil.copyfile(plan, copy)
        reads = []
        real = cli._read_json

        def spy(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(cli, "_read_json", spy)
        certs = []
        for dual in (plan, copy):
            out = tmp_path / f"cert-{len(certs)}.json"
            reads.clear()
            assert main(["certify", "--model", model, "--plan", plan,
                         "--dual", dual, "--out", str(out)]) == 0
            certs.append(out.read_bytes())
            assert reads.count(plan) == 1
            assert reads.count(copy) == (dual == copy)
        capsys.readouterr()
        assert certs[0] == certs[1]

    def test_missing_dual_in_same_file_is_a_schema_error(self, tmp_path,
                                                          capsys):
        model = write_json(tmp_path / "m.json", COIN)
        plan = str(tmp_path / "plan.json")
        assert main(["solve-tree", "--model", model, "--horizon", "3",
                     "--x0", "0.5,0.5", "--skip-dual", "--out", plan]) == 0
        assert main(["certify", "--model", model, "--plan", plan,
                     "--dual", plan]) == 2
        assert "no dual price system" in capsys.readouterr().err


EDGE_DOCS = {
    "special floats": {"a": [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                             0.1, 1e16, 1e-7, 123456789.0]},
    "scalars": {"i": 7, "big": 2 ** 70, "neg": -3, "t": True, "f": False,
                "none": None, "s": "text"},
    "empty": {"d": {}, "l": [], "nested": {"e": {}, "f": [[], {}]}},
    "bare empties": {},
    "one-entry node map": {"portfolio": {"0": [0.25, 0.75]}},
    "node map": {"prices": {str(v): [v / 7.0, 1.0 / (v + 1)]
                            for v in range(1, 5000)}},
    "scalar node map": {"node_defect": {str(v): v * 1e-17 - 2e-17
                                        for v in range(3000)}},
    "ragged lists": {"m": {"0": [1.0, 2.0], "1": [3.0], "2": []}},
    "mixed lists": {"m": {"0": [1.0, 2], "1": [3.0, True],
                          "2": [None, "x"]}},
    "empty lists": {"m": {"0": [], "1": []}},
    "non-finite in a node map": {"m": {"0": [1.0, math.nan],
                                       "1": [math.inf, 2.0]}},
    "non-finite scalar map": {"m": {"0": 1.0, "1": -math.inf}},
    "overflowing sum": {"m": {"0": [1e308, 1e308], "1": [1e308, 1.0]}},
    "mixed scalar map": {"m": {"0": 1.0, "1": 1, "2": None, "3": "s"}},
    "escaped keys": {'q"uote': 1, "back\\slash": 2, "new\nline": 3,
                     "tab\t": 4, "\x00ctl": 5, "%s%%": [1.0]},
    "non-ascii": {"café": "üñï☃ \U0001f600",
                  "λ": {"μ": [0.5]}},
    "numpy floats": {"x": np.float64(0.1), "l": [np.float64(1e-300),
                                                 np.float64(-0.0)],
                     "m": {"0": [np.float64(1.5), np.float64(2.5)],
                           "1": [np.float64(3.5), np.float64(np.nan)]},
                     "s": {str(v): np.float64(v) / 3 for v in range(50)}},
    "non-string keys": {"d": {2: "a", 10: "b", 1.5: "c", -1: "d"},
                        "b": {True: 1, False: 0}},
    "tuples": {"t": (1.0, (2.0, 3.0)), "m": {"0": (1.0, 2.0)}},
    "deep": {"a": {"b": {"c": {str(v): [float(v), 2.0, 3.0]
                               for v in range(2100)}}}},
    "sorted as strings": {"m": {str(v): [float(v)] for v in range(25)}},
}


@pytest.mark.parametrize("name", list(EDGE_DOCS))
def test_edge_documents(name, tmp_path, capsys):
    doc = EDGE_DOCS[name]
    out = tmp_path / "doc.json"
    cli._emit(doc, str(out))
    cli._emit(doc, None)
    assert out.read_bytes() == reference(doc).encode("ascii")
    assert capsys.readouterr().out == reference(doc)


@pytest.mark.parametrize("top", ["text", "café", 3, 2.5, math.nan,
                                 None, True, [1.0, [2.0]], []])
def test_top_level_values(top, capsys):
    cli._emit(top, None)
    assert capsys.readouterr().out == reference(top)


@pytest.mark.parametrize("doc", [
    {"a": object()},
    {"a": [1.0, np.int64(3)]},
    {"m": {"0": [1.0], "1": [{1, 2}]}},
    {1: "int key", "a": "str key"},
    {(1, 2): "tuple key"},
])
def test_unrenderable_document_leaves_no_file(doc, tmp_path):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2, sort_keys=True)
    out = tmp_path / "doc.json"
    with pytest.raises(TypeError) as got:
        cli._emit(doc, str(out))
    assert str(got.value) == str(want.value)
    assert not out.exists()


def test_circular_document_leaves_no_file(tmp_path):
    doc = {"a": []}
    doc["a"].append(doc)
    out = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="Circular reference"):
        cli._emit(doc, str(out))
    assert not out.exists()
