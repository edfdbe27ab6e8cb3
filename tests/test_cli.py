"""End-to-end tests of the command line front end.

Each test drives ``vngale.cli.main`` with an argv list and checks the
exit code contract: 0 success, 1 domain failure, 2 usage or schema
errors.  Files live in pytest temp directories.
"""

import json
import math
import subprocess
import sys

import pytest

from vngale import ContingentPlan, DualPlan, build_tree, check_rapid
from vngale.cli import ModelError, load_model, main

KELLY_RATE = 0.5 * math.log(9.0 / 8.0)


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def coin_model_doc(lam=None):
    """Fair coin, safe asset plus one risky asset doubling or halving."""
    if lam is None:
        cones = {
            "*->U": {"family": "frictionless", "returns": [1.0, 2.0]},
            "*->D": {"family": "frictionless", "returns": [1.0, 0.5]},
        }
    else:
        cones = {
            "*->U": {"family": "proportional_tc", "returns": [1.0, 2.0],
                     "lambda_plus": [lam, lam], "lambda_minus": [lam, lam]},
            "*->D": {"family": "proportional_tc", "returns": [1.0, 0.5],
                     "lambda_plus": [lam, lam], "lambda_minus": [lam, lam]},
        }
    return {
        "markov": {"states": ["U", "D"],
                   "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "cones": cones,
    }


@pytest.fixture
def coin_model(tmp_path):
    return write_json(tmp_path / "model.json", coin_model_doc())


def pruned_model_doc():
    """Three states with zero transitions (B -> C only, no A -> C), so
    tree depths differ in their child counts; the CI's pruned chain."""
    return {
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


def exact_key_model_doc():
    """The coin chain with one cone per transition and no ``*->v`` key:
    a tree with a free root has no cone for its first step."""
    up = {"family": "frictionless", "returns": [1.0, 1.3]}
    down = {"family": "frictionless", "returns": [1.0, 0.8]}
    return {
        "markov": {"states": ["U", "D"],
                   "transition": [[0.5, 0.5], [0.5, 0.5]]},
        "cones": {"U->U": up, "D->U": up, "U->D": down, "D->D": down},
    }


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, coin_model):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--model", coin_model, "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", "--model", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_out_in_a_missing_directory(self, coin_model, tmp_path, capsys):
        out = tmp_path / "absent" / "report.json"
        assert main(["validate", "--model", coin_model,
                     "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.parent.exists()


class TestModelSchema:
    def test_malformed_json(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text("{ not json", encoding="utf-8")
        assert main(["validate", "--model", str(f)]) == 2

    def test_top_level_not_object(self, tmp_path):
        f = write_json(tmp_path / "m.json", [1, 2, 3])
        assert main(["validate", "--model", f]) == 2

    def test_missing_cones(self, tmp_path):
        doc = coin_model_doc()
        del doc["cones"]
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        doc = coin_model_doc()
        doc["frictions"] = {}
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 2

    def test_unknown_cone_family(self, tmp_path):
        doc = coin_model_doc()
        doc["cones"]["*->U"]["family"] = "quadratic"
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 2

    def test_cone_key_unknown_state(self, tmp_path):
        doc = coin_model_doc()
        doc["cones"]["X->U"] = doc["cones"]["*->U"]
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 2

    def test_uncovered_transition(self, tmp_path):
        doc = coin_model_doc()
        del doc["cones"]["*->D"]
        f = write_json(tmp_path / "m.json", doc)
        rc = main(["validate", "--model", f])
        assert rc == 2

    def test_bad_objective(self, tmp_path):
        doc = coin_model_doc()
        doc["conventions"] = {"objective": "utility"}
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 2

    def test_bad_units(self, tmp_path, capsys):
        doc = coin_model_doc()
        doc["conventions"] = {"units": "dollars"}
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 2
        assert "units must be" in capsys.readouterr().err

    def test_sections_that_are_not_objects(self, tmp_path, capsys):
        for key in ("conventions", "limits"):
            doc = coin_model_doc()
            doc[key] = ["wealth"]
            f = write_json(tmp_path / "m.json", doc)
            out = tmp_path / "report.json"
            capsys.readouterr()
            assert main(["validate", "--model", f, "--out", str(out)]) == 2
            assert f"{key} must be an object" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_limit(self, tmp_path):
        doc = coin_model_doc()
        doc["limits"] = {"max_depth": 5}
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 2

    def test_load_model_defaults(self, coin_model):
        cfg = load_model(coin_model)
        assert list(cfg.markov.states) == ["U", "D"]
        assert cfg.cones.n == 2
        assert cfg.objective == "wealth"
        assert cfg.limits["node_limit"] == 200_000
        assert cfg.limits["seed"] == 0

    def test_load_model_override_limits(self, tmp_path):
        doc = coin_model_doc()
        doc["limits"] = {"seed": 5, "tol": 1e-8}
        cfg = load_model(write_json(tmp_path / "m.json", doc))
        assert cfg.limits["seed"] == 5
        assert cfg.limits["tol"] == 1e-8
        with pytest.raises(ModelError):
            load_model(str(tmp_path / "nope.json"))


class TestValidate:
    def test_ok_report(self, coin_model, capsys):
        assert main(["validate", "--model", coin_model]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ok"] is True
        assert rep["g5_ok"] is True
        assert rep["violations"] == []

    def test_full_liquidation_fails(self, tmp_path, capsys):
        doc = coin_model_doc(lam=0.01)
        doc["cones"]["*->U"]["lambda_minus"] = [1.0, 1.0]
        f = write_json(tmp_path / "m.json", doc)
        assert main(["validate", "--model", f]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["g5_ok"] is False
        assert any(v["condition"] == "g5" for v in rep["violations"])

    def test_out_file(self, coin_model, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--model", coin_model,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True


class TestSolveTree:
    def test_result_file(self, coin_model, tmp_path, capsys):
        out = tmp_path / "res.json"
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "2",
                   "--x0", "0.5,0.5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["horizon"] == 2
        assert doc["objective_kind"] == "wealth"
        assert abs(doc["objective"] - 2 * KELLY_RATE) < 1e-6
        assert doc["kkt_residual"] < 1e-8
        assert set(doc["plan"]) == {"units", "portfolio"}
        assert doc["dual"] is not None
        text = capsys.readouterr().out
        assert text.startswith("objective ")

    def test_stdout_document(self, coin_model, capsys):
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "1",
                   "--x0", "1,1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["plan"]["portfolio"]["0"] == [1.0, 1.0]

    def test_nonpositive_x0_is_domain_error(self, coin_model, capsys):
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "1",
                   "--x0", "1,0"])
        assert rc == 1
        assert "positive" in capsys.readouterr().err

    def test_skip_dual(self, coin_model, tmp_path):
        out = tmp_path / "res.json"
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "2",
                   "--x0", "0.5,0.5", "--skip-dual", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dual"] is None
        assert doc["kkt_residual"] is None

    def test_bad_x0_length(self, coin_model):
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "1",
                   "--x0", "0.5"])
        assert rc == 2

    def test_bad_x0_tokens(self, coin_model):
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "1",
                   "--x0", "a,b"])
        assert rc == 2

    def test_nonfinite_x0(self, tmp_path, capsys):
        """A non-finite entry is a usage error that writes no file; a
        finite one of 0 or below stays the solver's domain error."""
        model = write_json(tmp_path / "model.json", pruned_model_doc())
        out = tmp_path / "res.json"
        for bad in ("nan,0.3,0.3", "inf,0.3,0.3", "0.3,-inf,0.3"):
            capsys.readouterr()
            rc = main(["solve-tree", "--model", model, "--horizon", "2",
                       "--x0", bad, "--out", str(out)])
            assert rc == 2
            assert "--x0 entries must be finite" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_root_state(self, coin_model):
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "1",
                   "--x0", "0.5,0.5", "--root-state", "X"])
        assert rc == 2

    def test_pinned_root_state(self, coin_model, capsys):
        rc = main(["solve-tree", "--model", coin_model, "--horizon", "1",
                   "--x0", "0.5,0.5", "--root-state", "U"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root_state"] == "U"

    def test_node_limit_enforced(self, tmp_path):
        doc = coin_model_doc()
        doc["limits"] = {"node_limit": 3}
        f = write_json(tmp_path / "m.json", doc)
        rc = main(["solve-tree", "--model", f, "--horizon", "4",
                   "--x0", "0.5,0.5"])
        assert rc == 2

    def test_free_root_without_a_star_cone(self, tmp_path, capsys):
        """Exact keys cover every chain transition but not the free
        root's first step: a usage error naming it without quotes, and
        no file; a pinned root solves."""
        model = write_json(tmp_path / "m.json", exact_key_model_doc())
        out = tmp_path / "res.json"
        assert main(["validate", "--model", model]) == 0
        capsys.readouterr()
        assert main(["solve-tree", "--model", model, "--horizon", "3",
                     "--x0", "0.5,0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: no cone for a tree transition: no cone for "
                       "transition '*' -> 'U'\n")
        assert not out.exists()
        assert main(["solve-tree", "--model", model, "--horizon", "3",
                     "--x0", "0.5,0.5", "--root-state", "U",
                     "--out", str(out)]) == 0

    def test_invalid_model_blocks_solve(self, tmp_path, capsys):
        doc = coin_model_doc(lam=0.01)
        doc["cones"]["*->U"]["lambda_minus"] = [1.0, 1.0]
        f = write_json(tmp_path / "m.json", doc)
        rc = main(["solve-tree", "--model", f, "--horizon", "1",
                   "--x0", "0.5,0.5"])
        assert rc == 1
        assert "assumptions" in capsys.readouterr().err


class TestCertify:
    def solve(self, model, tmp_path, extra=()):
        out = tmp_path / "res.json"
        rc = main(["solve-tree", "--model", model, "--horizon", "3",
                   "--x0", "0.5,0.5", "--out", str(out), *extra])
        assert rc == 0
        return out

    def test_round_trip_matches_memory(self, coin_model, tmp_path, capsys):
        res = self.solve(coin_model, tmp_path)
        capsys.readouterr()
        rc = main(["certify", "--model", coin_model, "--plan", str(res),
                   "--dual", str(res), "--competitors", "25",
                   "--seed", "7"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "pass"

        # byte-identical residuals when certified in memory: the files
        # round-trip floats exactly
        cfg = load_model(coin_model)
        doc = json.loads(res.read_text())
        tree = build_tree(cfg.markov, doc["horizon"])
        plan = ContingentPlan.from_dict(tree, doc["plan"])
        dual = DualPlan.from_dict(tree, doc["dual"])
        mem = check_rapid(plan, dual, cfg.cones, competitors=25, seed=7)
        assert rep["support_residual"] == mem.support_residual
        assert rep["dual_cone_residual"] == mem.dual_cone_residual
        assert rep["supermartingale_defect"] == mem.supermartingale_defect

    def test_bare_plan_dual_files(self, coin_model, tmp_path, capsys):
        res = self.solve(coin_model, tmp_path)
        doc = json.loads(res.read_text())
        plan_f = write_json(tmp_path / "plan.json", doc["plan"])
        dual_f = write_json(tmp_path / "dual.json", doc["dual"])
        capsys.readouterr()
        rc = main(["certify", "--model", coin_model, "--plan", plan_f,
                   "--dual", dual_f, "--competitors", "5"])
        assert rc == 0

    def test_scaled_dual_fails(self, coin_model, tmp_path, capsys):
        res = self.solve(coin_model, tmp_path)
        doc = json.loads(res.read_text())
        doc["dual"]["prices"] = {k: [1.5 * x for x in p]
                                 for k, p in doc["dual"]["prices"].items()}
        bad = write_json(tmp_path / "bad.json", doc)
        capsys.readouterr()
        rc = main(["certify", "--model", coin_model, "--plan", str(res),
                   "--dual", bad, "--competitors", "5"])
        assert rc == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "fail"
        assert abs(rep["support_residual"] - 0.5) < 1e-9

    def test_node_ids_outside_the_tree(self, coin_model, tmp_path, capsys):
        # a horizon edited from 3 to 2 leaves ids past the 7-node tree,
        # and a stray id 999 lies past the 15-node one: both are schema
        # errors (exit 2), not an IndexError
        res = self.solve(coin_model, tmp_path)
        doc = json.loads(res.read_text())
        short = write_json(tmp_path / "short.json", {**doc, "horizon": 2})
        stray = json.loads(res.read_text())
        stray["plan"]["portfolio"]["999"] = [0.5, 0.5]
        stray = write_json(tmp_path / "stray.json", stray)
        for bad in (short, stray):
            capsys.readouterr()
            rc = main(["certify", "--model", coin_model, "--plan", bad,
                       "--dual", bad, "--competitors", "5"])
            assert rc == 2
            assert "outside" in capsys.readouterr().err

    def test_missing_dual_file(self, coin_model, tmp_path, capsys):
        res = self.solve(coin_model, tmp_path)
        absent, out = tmp_path / "absent.json", tmp_path / "cert.json"
        capsys.readouterr()
        assert main(["certify", "--model", coin_model, "--plan", str(res),
                     "--dual", str(absent), "--out", str(out)]) == 2
        assert f"cannot read {absent}" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_file_without_a_portfolio(self, coin_model, tmp_path,
                                           capsys):
        res = self.solve(coin_model, tmp_path)
        out = tmp_path / "cert.json"
        for doc, message in (([1, 2], "expected a JSON object"),
                             ({"plan": {}}, "no portfolio found")):
            bad = write_json(tmp_path / "bad.json", doc)
            capsys.readouterr()
            assert main(["certify", "--model", coin_model, "--plan", bad,
                         "--dual", str(res), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_model_without_the_plans_cone(self, coin_model, tmp_path,
                                          capsys):
        # a free-root plan certified against exact keys: the missing
        # cone's message, without the quotes of str(KeyError)
        res = self.solve(coin_model, tmp_path)
        model = write_json(tmp_path / "exact.json", exact_key_model_doc())
        out = tmp_path / "cert.json"
        capsys.readouterr()
        assert main(["certify", "--model", model, "--plan", str(res),
                     "--dual", str(res), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: inconsistent plan/dual/model files: no cone for "
            "transition '*' -> 'U'\n")
        assert not out.exists()

    def test_missing_dual(self, coin_model, tmp_path, capsys):
        res = self.solve(coin_model, tmp_path, extra=("--skip-dual",))
        capsys.readouterr()
        rc = main(["certify", "--model", coin_model, "--plan", str(res),
                   "--dual", str(res)])
        assert rc == 2
        assert "skip-dual" in capsys.readouterr().err


class TestPrunedCertify:
    """Solve and certify on the pruned chain from the pinned root B."""

    def solve(self, tmp_path, horizon, x0):
        model = write_json(tmp_path / "pruned.json", pruned_model_doc())
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", model, "--horizon",
                     str(horizon), "--root-state", "B", "--x0", x0,
                     "--out", str(plan)]) == 0
        return model, plan

    def certify(self, model, plan, out):
        return main(["certify", "--model", model, "--plan", str(plan),
                     "--dual", str(plan), "--out", str(out)])

    def test_kkt_residual_is_the_support_residual(self, tmp_path):
        # one support rule for the solve and the certificate: the two
        # files carry the same number, bit for bit
        third = repr(1.0 / 3.0)
        model, plan = self.solve(tmp_path, 3, ",".join([third] * 3))
        cert = tmp_path / "cert.json"
        assert self.certify(model, plan, cert) == 0
        kkt = json.loads(plan.read_text())["kkt_residual"]
        assert 0.0 < kkt <= 1e-8
        assert kkt == json.loads(cert.read_text())["support_residual"]

    def test_horizon_from_the_node_count(self, tmp_path, capsys):
        model, plan = self.solve(tmp_path, 4, "0.4,0.3,0.3")
        doc = json.loads(plan.read_text())
        assert len(doc["plan"]["portfolio"]) == 23
        bare = write_json(tmp_path / "bare.json",
                          {k: v for k, v in doc.items() if k != "horizon"})
        cert, bare_cert = tmp_path / "cert.json", tmp_path / "bare-cert.json"
        assert self.certify(model, plan, cert) == 0
        assert self.certify(model, bare, bare_cert) == 0
        assert cert.read_bytes() == bare_cert.read_bytes()

        # 22 nodes: no horizon of the pinned tree has that many
        del doc["horizon"], doc["plan"]["portfolio"]["22"]
        short = write_json(tmp_path / "short.json", doc)
        out = tmp_path / "short-cert.json"
        capsys.readouterr()
        assert self.certify(model, short, out) == 2
        assert ("cannot infer a horizon matching 22 nodes"
                in capsys.readouterr().err)
        assert not out.exists()


class TestNonFiniteInputs:
    """``json`` reads ``NaN``: a NaN initial law or strategy proportion
    is a schema error (exit 2) that writes no file."""

    def test_initial_law(self, tmp_path, capsys):
        doc = coin_model_doc()
        doc["markov"]["initial"] = [math.nan, 1.0]
        model = write_json(tmp_path / "model.json", doc)
        out = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(out)]) == 2
        assert "bad markov section" in capsys.readouterr().err
        assert not out.exists()

    def test_strategy_proportions(self, coin_model, tmp_path, capsys):
        eq = tmp_path / "eq.json"
        assert main(["solve-stationary", "--model", coin_model,
                     "--starts", "1", "--out", str(eq)]) == 0
        doc = json.loads(eq.read_text())
        doc["strategy"]["x"]["U"] = [math.nan, 1.0]
        bad = write_json(tmp_path / "bad-eq.json", doc)
        out = tmp_path / "sim.csv"
        capsys.readouterr()
        assert main(["simulate", "--model", coin_model, "--equilibrium",
                     bad, "--paths", "4", "--length", "10",
                     "--out", str(out)]) == 2
        assert "not an equilibrium file" in capsys.readouterr().err
        assert not out.exists()


class TestSolveStationary:
    def test_kelly_growth(self, coin_model, tmp_path, capsys):
        out = tmp_path / "eq.json"
        rc = main(["solve-stationary", "--model", coin_model,
                   "--starts", "8", "--seed", "0", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["log_growth"] - KELLY_RATE) < 1e-6
        assert doc["certificate_residual"] <= 1e-8
        assert abs(doc["strategy"]["x"]["U"][0] - 0.5) < 1e-4
        assert doc["starts"] == 8
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("log_growth ")


class TestSimulate:
    @pytest.fixture
    def equilibrium(self, coin_model, tmp_path):
        out = tmp_path / "eq.json"
        rc = main(["solve-stationary", "--model", coin_model,
                   "--starts", "4", "--out", str(out)])
        assert rc == 0
        return str(out)

    def test_csv_columns_and_determinism(self, coin_model, equilibrium,
                                         tmp_path, capsys):
        argv = ["simulate", "--model", coin_model,
                "--equilibrium", equilibrium, "--paths", "16",
                "--length", "60", "--competitors", "2", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        text = a.read_text()
        assert text == b.read_text()
        lines = text.splitlines()
        assert lines[0] == "competitor,statistic,value"
        names = {ln.split(",")[0] for ln in lines[1:]}
        assert names == {"hold-0", "hold-1", "dispose-10",
                         "random-0", "random-1"}
        stats = {ln.split(",")[1] for ln in lines[1:]}
        assert "mean_gap" in stats and "worst_max_ratio" in stats
        out = capsys.readouterr().out
        assert out.startswith("strategy_growth ")

    def test_seed_changes_sample(self, coin_model, equilibrium, tmp_path):
        base = ["simulate", "--model", coin_model,
                "--equilibrium", equilibrium, "--paths", "8",
                "--length", "40", "--competitors", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_stdout_csv(self, coin_model, equilibrium, capsys):
        rc = main(["simulate", "--model", coin_model,
                   "--equilibrium", equilibrium, "--paths", "4",
                   "--length", "20", "--competitors", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("competitor,statistic,value")

    def test_not_an_equilibrium_file(self, coin_model, tmp_path):
        bogus = write_json(tmp_path / "eq.json", {"strategy": {}})
        rc = main(["simulate", "--model", coin_model,
                   "--equilibrium", bogus])
        assert rc == 2


class TestBadCounts:
    """A competitor count below 0 or a start count below 1, from a flag
    or from the model's limits, is a usage error (exit 2) that writes
    no file."""

    def check(self, argv, out, capsys, message):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_flags(self, coin_model, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", coin_model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        eq = tmp_path / "eq.json"
        assert main(["solve-stationary", "--model", coin_model,
                     "--starts", "1", "--out", str(eq)]) == 0
        for bad in ("-1", "-5"):
            self.check(["certify", "--model", coin_model, "--plan",
                        str(plan), "--dual", str(plan), "--competitors",
                        bad], tmp_path / "cert.json", capsys,
                       f"competitors must be >= 0, got {bad}")
            self.check(["simulate", "--model", coin_model, "--equilibrium",
                        str(eq), "--paths", "4", "--length", "10",
                        "--competitors", bad], tmp_path / "sim.csv", capsys,
                       f"competitors must be >= 0, got {bad}")
        for bad in ("0", "-2"):
            self.check(["solve-stationary", "--model", coin_model,
                        "--starts", bad], tmp_path / "eq0.json", capsys,
                       f"starts must be >= 1, got {bad}")

    def test_model_limits(self, tmp_path, capsys):
        model = write_json(tmp_path / "model.json", {
            **coin_model_doc(), "limits": {"starts": 0, "competitors": -2}})
        self.check(["solve-stationary", "--model", model],
                   tmp_path / "eq.json", capsys, "starts must be >= 1, got 0")
        # a valid flag overrides the model's bad limit
        assert main(["solve-stationary", "--model", model, "--starts", "1",
                     "--out", str(tmp_path / "eq.json")]) == 0
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        self.check(["certify", "--model", model, "--plan", str(plan),
                    "--dual", str(plan)], tmp_path / "cert.json", capsys,
                   "competitors must be >= 0, got -2")

    def test_whole_model_limits(self, coin_model, tmp_path, capsys):
        """A limit must be a finite number, and a count or seed a whole
        one, else every command rejects the model at load."""
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", coin_model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        for key, bad, kind in (("node_limit", math.inf, "whole"),
                               ("seed", math.nan, "whole"),
                               ("competitors", 2.5, "whole"),
                               ("starts", True, "whole"),
                               ("tol", math.nan, "finite"),
                               ("defect_tol", -math.inf, "finite")):
            model = write_json(tmp_path / "model.json", {
                **coin_model_doc(), "limits": {key: bad}})
            message = f"limit {key!r} must be a {kind} number"
            self.check(["validate", "--model", model],
                       tmp_path / "report.json", capsys, message)
            self.check(["certify", "--model", model, "--plan", str(plan),
                        "--dual", str(plan)], tmp_path / "cert.json",
                       capsys, message)

    def test_whole_float_limits_count(self, coin_model, tmp_path):
        """``8.0`` is the count 8: the certificate matches the int's."""
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", coin_model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        texts = []
        for count in (8, 8.0):
            model = write_json(tmp_path / "model.json", {
                **coin_model_doc(),
                "limits": {"competitors": count, "seed": count / 4}})
            out = tmp_path / f"cert-{count!r}.json"
            assert main(["certify", "--model", model, "--plan", str(plan),
                         "--dual", str(plan), "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        # 8 random competitors and 3 fixed ones (n + 1 at n = 2)
        assert json.loads(texts[0])["competitors"] == 11

    def test_nonfinite_tolerance_flags(self, coin_model, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", coin_model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        for flag, key in (("--tol", "tol"), ("--defect-tol", "defect_tol")):
            for bad in ("nan", "inf", "-inf"):
                self.check(["certify", "--model", coin_model, "--plan",
                            str(plan), "--dual", str(plan), f"{flag}={bad}"],
                           tmp_path / "cert.json", capsys,
                           f"{key} must be a finite number")

    def test_negative_tolerances(self, tmp_path, capsys):
        """A tolerance below 0, from a flag or from the model's limits,
        is a usage error; 0 is a valid one."""
        doc = coin_model_doc(lam=0.01)
        model = write_json(tmp_path / "model.json", doc)
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        certify = ["certify", "--plan", str(plan), "--dual", str(plan)]
        for flag, key, bad in (("--tol", "tol", -1.0),
                               ("--defect-tol", "defect_tol", -1e-9)):
            message = f"{key} must be >= 0, got {bad}"
            self.check(certify + ["--model", model, f"{flag}={bad}"],
                       tmp_path / "cert.json", capsys, message)
            limited = write_json(tmp_path / "limited.json",
                                 {**doc, "limits": {key: bad}})
            self.check(certify + ["--model", limited],
                       tmp_path / "cert.json", capsys, message)
        # the support residual of a solve is small but not 0: a domain
        # failure, not a usage error
        out = tmp_path / "cert.json"
        assert main(certify + ["--model", model, "--tol=0", "--defect-tol=0",
                               "--out", str(out)]) == 1
        cert = json.loads(out.read_text())
        assert (cert["tol"], cert["defect_tol"]) == (0.0, 0.0)
        assert cert["support_residual"] > 0.0

    def test_plan_horizon(self, coin_model, tmp_path, capsys):
        """A plan file's horizon is a whole number, not a value coerced
        by ``int``."""
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", coin_model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        doc = json.loads(plan.read_text())
        for bad in ("x", None, 2.7, True, math.nan):
            edited = write_json(tmp_path / "edited.json",
                                {**doc, "horizon": bad})
            self.check(["certify", "--model", coin_model, "--plan", edited,
                        "--dual", edited], tmp_path / "cert.json", capsys,
                       "horizon must be a whole number")
        whole = write_json(tmp_path / "whole.json", {**doc, "horizon": 2.0})
        assert main(["certify", "--model", coin_model, "--plan", whole,
                     "--dual", whole]) == 0

    def test_seed_and_simulation_sizes(self, coin_model, tmp_path, capsys):
        """A seed below 0, from a flag or from the model's limits, and a
        path count or length below 1 are usage errors too."""
        plan = tmp_path / "plan.json"
        assert main(["solve-tree", "--model", coin_model, "--horizon", "2",
                     "--x0", "0.5,0.5", "--out", str(plan)]) == 0
        eq = tmp_path / "eq.json"
        assert main(["solve-stationary", "--model", coin_model,
                     "--starts", "1", "--out", str(eq)]) == 0
        certify = ["certify", "--model", coin_model, "--plan", str(plan),
                   "--dual", str(plan)]
        simulate = ["simulate", "--model", coin_model, "--equilibrium",
                    str(eq), "--paths", "4", "--length", "10"]
        for bad in ("-1", "-7"):
            message = f"seed must be >= 0, got {bad}"
            self.check(["solve-stationary", "--model", coin_model,
                        "--starts", "1", "--seed", bad],
                       tmp_path / "eq-bad.json", capsys, message)
            self.check(certify + ["--seed", bad], tmp_path / "cert.json",
                       capsys, message)
            self.check(simulate + ["--seed", bad], tmp_path / "sim.csv",
                       capsys, message)
        for key in ("paths", "length"):
            for bad in ("0", "-3"):
                self.check(simulate + [f"--{key}", bad],
                           tmp_path / "sim.csv", capsys,
                           f"{key} must be >= 1, got {bad}")

        model = write_json(tmp_path / "model.json", {
            **coin_model_doc(), "limits": {"seed": -2}})
        message = "seed must be >= 0, got -2"
        self.check(["solve-stationary", "--model", model, "--starts", "1"],
                   tmp_path / "eq-bad.json", capsys, message)
        self.check(["certify", "--model", model, "--plan", str(plan),
                    "--dual", str(plan)], tmp_path / "cert.json", capsys,
                   message)
        self.check(["simulate", "--model", model, "--equilibrium", str(eq),
                    "--paths", "4", "--length", "10"], tmp_path / "sim.csv",
                   capsys, message)
        # a valid flag overrides the model's bad seed
        assert main(["simulate", "--model", model, "--equilibrium", str(eq),
                     "--paths", "4", "--length", "10", "--seed", "0",
                     "--out", str(tmp_path / "sim.csv")]) == 0


def test_module_entry_point(tmp_path):
    f = write_json(tmp_path / "m.json", coin_model_doc())
    proc = subprocess.run(
        [sys.executable, "-m", "vngale.cli", "validate", "--model", f],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
