"""Guard of the public surface: names, model schema, CLI flags, exit codes.

Refactors may change anything behind these; a change to one of them is
an interface change and has to show up here.
"""

import argparse
import json

import vngale
from vngale.cli import _build_parser, main
from vngale.cones import ConeSpec

PUBLIC_NAMES = [
    "ConeSpec", "ConeTable", "ValidationReport", "contains", "max_alpha",
    "boundary_scale", "dual_contains", "dual_violation", "liquidation_value",
    "membership_residual", "validate_assumptions",
    "LPError", "LPInfeasibleError", "LPUnboundedError", "LPCyclingError",
    "LPResult", "lp_solve",
    "MarkovSpec", "ScenarioTree", "build_tree", "conditional_expectation",
    "sample_paths",
    "BalancedStrategy", "ContingentPlan", "DualPlan", "expand_balanced",
    "expand_balanced_dual", "is_self_financing", "ratio_process",
    "EquilibriumResult", "SolverError", "TreeSolveResult",
    "extract_equilibrium_prices", "numeraire_dual_frictionless",
    "solve_stationary_equilibrium", "solve_tree_log_optimal",
    "CertificateReport", "DominanceReport", "asymptotic_dominance",
    "check_rapid", "supermartingale_defect",
    "__version__",
]

COMMAND_FLAGS = {
    "validate": {"--model", "--out"},
    "solve-tree": {"--model", "--horizon", "--x0", "--objective",
                   "--root-state", "--skip-dual", "--out"},
    "solve-stationary": {"--model", "--starts", "--seed", "--out"},
    "certify": {"--model", "--plan", "--dual", "--tol", "--defect-tol",
                "--competitors", "--seed", "--out"},
    "simulate": {"--model", "--equilibrium", "--paths", "--length",
                 "--competitors", "--seed", "--out"},
}

SOLVE_TREE_KEYS = {"horizon", "root_state", "x0", "objective_kind",
                   "objective", "kkt_residual", "iterations", "plan", "dual"}


def _model(path, lambda_minus=0.02):
    cone = {"family": "proportional_tc", "returns": [1.0, 2.0],
            "lambda_plus": [0.01, 0.01],
            "lambda_minus": [lambda_minus, lambda_minus]}
    doc = {"markov": {"states": ["U", "D"],
                      "transition": [[0.5, 0.5], [0.5, 0.5]]},
           "cones": {"*->U": cone,
                     "*->D": dict(cone, returns=[1.0, 0.5])}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_package_names():
    assert vngale.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(vngale, name)


def test_cone_spec_dict_keys_per_family():
    docs = {
        "frictionless": ConeSpec.frictionless([1.0, 2.0]),
        "proportional_tc": ConeSpec.proportional_tc([1.0, 2.0], 0.01, 0.02),
        "currency": ConeSpec.currency([[1.0, 0.9], [1.1, 1.0]]),
    }
    keys = {fam: set(cone.to_dict()) for fam, cone in docs.items()}
    assert keys == {
        "frictionless": {"family", "returns"},
        "proportional_tc": {"family", "returns", "lambda_plus",
                            "lambda_minus"},
        "currency": {"family", "mu"},
    }
    for fam, cone in docs.items():
        assert cone.to_dict()["family"] == fam
        assert ConeSpec.from_dict(cone.to_dict()).to_dict() == cone.to_dict()


def test_cli_commands_and_flags():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for a in sp._actions for o in a.option_strings}
           - {"-h", "--help"}
           for name, sp in sub.choices.items()}
    assert got == COMMAND_FLAGS


def test_exit_codes_and_result_schema(tmp_path, capsys):
    good = _model(tmp_path / "good.json")
    assert main(["validate", "--model", good]) == 0
    out = tmp_path / "res.json"
    assert main(["solve-tree", "--model", good, "--horizon", "2",
                 "--x0", "0.5,0.5", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text(encoding="utf-8"))) \
        == SOLVE_TREE_KEYS
    # selling yields nothing: the growth assumption fails (domain error)
    assert main(["validate", "--model",
                 _model(tmp_path / "bad.json", lambda_minus=1.0)]) == 1
    # unreadable model file (schema/I-O error)
    assert main(["validate", "--model", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
