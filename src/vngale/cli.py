"""Batch front end: validate, solve, certify, and simulate from files.

Model files are JSON documents with a Markov chain, a transition-keyed
cone table, and optional conventions and limits::

    {
      "markov": {"states": ["U", "D"],
                 "transition": [[0.5, 0.5], [0.5, 0.5]]},
      "cones": {"*->U": {"family": "frictionless", "returns": [1, 2]},
                "*->D": {"family": "frictionless", "returns": [1, 0.5]}},
      "conventions": {"objective": "wealth"},
      "limits": {"node_limit": 200000, "seed": 0}
    }

Structured results are JSON (written to ``--out`` or stdout); simulation
statistics are CSV.  Exit codes: 0 success, 1 domain failure (validation,
solve, or certification failed), 2 usage, I/O, or schema errors.  The
environment variable VNG_THREADS caps the linear-algebra thread pools.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .certify import asymptotic_dominance, check_rapid
from .cones import ConeTable, validate_assumptions
from .plans import ContingentPlan, DualPlan
from .scenario import MarkovSpec, build_tree
from .solver import (
    EquilibriumResult,
    SolverError,
    solve_stationary_equilibrium,
    solve_tree_log_optimal,
)

__all__ = ["ModelConfig", "ModelError", "load_model", "main"]


class ModelError(ValueError):
    """Schema or I/O problem with an input file (exit code 2)."""


_DEFAULT_LIMITS = {
    "node_limit": 200_000,
    "tol": 1e-6,
    "defect_tol": 1e-8,
    "competitors": 100,
    "seed": 0,
    "starts": 32,
}
# the least valid count, seed or tolerance, from a flag or from the
# model's limits
_LEAST_COUNTS = {"competitors": 0, "starts": 1, "seed": 0, "paths": 1,
                 "length": 1, "tol": 0, "defect_tol": 0}

_OBJECTIVES = ("wealth", "liquidation")


@dataclass(frozen=True)
class ModelConfig:
    """Parsed model file: chain, cones, conventions, numeric limits."""

    markov: MarkovSpec
    cones: ConeTable
    objective: str
    limits: dict


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path: str, chunks) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc}") from exc


def load_model(path: str) -> ModelConfig:
    """Parse and cross-check a model file.

    Raises :class:`ModelError` on unreadable files, malformed JSON,
    schema violations, cone keys referencing unknown states, or
    positive-probability transitions that resolve to no cone.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: top level must be a JSON object")
    for key in ("markov", "cones"):
        if key not in doc:
            raise ModelError(f"{path}: missing required key {key!r}")
    unknown = sorted(set(doc) - {"markov", "cones", "conventions", "limits"})
    if unknown:
        raise ModelError(f"{path}: unknown top-level keys {unknown}")

    try:
        markov = MarkovSpec.from_dict(doc["markov"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: bad markov section: {exc}") from exc
    try:
        cones = ConeTable.from_dict(doc["cones"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: bad cone table: {exc}") from exc

    for (u, v), _cone in cones.items():
        for side in (u, v):
            if side != "*" and side not in markov.states:
                raise ModelError(
                    f"{path}: cone key {u}->{v} references unknown "
                    f"state {side!r}"
                )
    for u, v in zip(*np.nonzero(markov.P > 0.0)):
        try:
            cones.resolve(markov.states[u], markov.states[v])
        except KeyError:
            raise ModelError(
                f"{path}: transition {markov.states[u]}->"
                f"{markov.states[v]} has positive probability but no cone"
            ) from None

    conv = doc.get("conventions", {})
    if not isinstance(conv, dict):
        raise ModelError(f"{path}: conventions must be an object")
    objective = conv.get("objective", "wealth")
    if objective not in _OBJECTIVES:
        raise ModelError(f"{path}: objective must be one of {_OBJECTIVES}")
    if conv.get("units", "market") not in ("market", "physical"):
        raise ModelError(f"{path}: units must be 'market' or 'physical'")

    limits = dict(_DEFAULT_LIMITS)
    given = doc.get("limits", {})
    if not isinstance(given, dict):
        raise ModelError(f"{path}: limits must be an object")
    bad = sorted(set(given) - set(_DEFAULT_LIMITS))
    if bad:
        raise ModelError(f"{path}: unknown limits {bad}")
    for key, val in given.items():
        whole = isinstance(_DEFAULT_LIMITS[key], int)  # a count or the seed
        # type(), not isinstance(): a bool is not a number here
        if (type(val) not in (int, float) or not -math.inf < val < math.inf
                or whole and val % 1):
            raise ModelError(f"{path}: limit {key!r} must be a "
                             f"{'whole' if whole else 'finite'} number")
        limits[key] = int(val) if whole else val

    return ModelConfig(markov=markov, cones=cones, objective=objective,
                       limits=limits)


def _parse_x0(text: str, n: int) -> np.ndarray:
    try:
        vals = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise ModelError(f"--x0 must be comma-separated numbers: {exc}") \
            from exc
    if len(vals) != n:
        raise ModelError(f"--x0 must have {n} entries, got {len(vals)}")
    if not all(-math.inf < v < math.inf for v in vals):
        raise ModelError(f"--x0 entries must be finite, got {text}")
    return np.asarray(vals, dtype=float)


def _build_model_tree(cfg: ModelConfig, horizon: int, root_state):
    if root_state is not None and root_state not in cfg.markov.states:
        raise ModelError(f"unknown root state {root_state!r}")
    try:
        return build_tree(cfg.markov, horizon,
                          node_limit=cfg.limits["node_limit"],
                          root_state=root_state)
    except ValueError as exc:
        raise ModelError(str(exc)) from exc


def _limit(args, cfg: ModelConfig, key: str):
    """The flag's value of ``key``, else the model's; a bad one raises."""
    val = getattr(args, key)
    val = cfg.limits[key] if val is None else val
    if not -math.inf < val < math.inf:
        raise ModelError(f"{key} must be a finite number, got {val}")
    if val < _LEAST_COUNTS.get(key, -math.inf):
        raise ModelError(f"{key} must be >= {_LEAST_COUNTS[key]}, got {val}")
    return val


# A dict is rendered this many entries at a time (see _render).
_BLOCK_ENTRIES = 2048
_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _emit(doc: dict, out: str | None) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte
    for byte, to ``out`` or stdout.

    Node maps, the dicts whose values are floats or equal-length float
    lists (``portfolio``, ``prices``, ``terminal`` and a certificate's
    per-node residuals), are rendered in blocks of entries, each block
    by one ``float.__repr__`` pass that fills one ``%``-template of the
    indented layout; everything else is rendered by ``json`` itself.
    The whole document is rendered before the file is opened, so a
    document that cannot be rendered leaves no file.
    """
    chunks = []
    _render(doc, 0, chunks, set())
    chunks.append("\n")
    if out:
        _write_text(out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _render(o, level: int, out: list, seen: set) -> None:
    """Append ``o`` as ``json`` renders it at indent level ``level``.

    A nonempty dict with string keys is walked here, a block of sorted
    entries at a time; anything else goes to ``json``, its lines
    indented to ``level``.
    """
    if not (isinstance(o, dict) and o and set(map(type, o)) == {str}):
        text = _JSON.encode(o)
        out.append(text.replace("\n", "\n" + "  " * level) if level
                   else text)
        return
    if id(o) in seen:
        raise ValueError("Circular reference detected")
    seen.add(id(o))
    keys = sorted(o)
    out.append("{")
    for lo in range(0, len(keys), _BLOCK_ENTRIES):
        if lo:
            out.append(",")
        _render_block(o, keys[lo:lo + _BLOCK_ENTRIES], level, out, seen)
    out.append("\n" + "  " * level + "}")
    seen.discard(id(o))


def _render_block(d: dict, keys: list, level: int, out: list,
                  seen: set) -> None:
    """Append the entries ``key: d[key]`` of a dict at ``level``.

    When every value is a float, or every value is a float list of one
    nonzero length, and all of them are finite, the values take one
    ``float.__repr__`` pass and fill one ``%``-template; otherwise each
    entry is rendered on its own.
    """
    values = list(map(d.__getitem__, keys))
    width = 0  # floats per value; 0 for a bare float
    flat = values
    if set(map(type, values)) == {list}:
        lengths = set(map(len, values))
        width = lengths.pop() if len(lengths) == 1 else 0
        flat = list(chain.from_iterable(values)) if width else []
    # a NaN or an inf among the floats leaves their sum non-finite
    if (flat and all(issubclass(t, float) for t in set(map(type, flat)))
            and math.isfinite(sum(flat))):
        stride = width + 1 if width else 2
        args = [None] * (len(keys) * stride)
        args[::stride] = map(_json_str, keys)
        reprs = list(map(float.__repr__, flat))
        for j in range(stride - 1):
            args[j + 1::stride] = reprs[j::stride - 1]
        out.append(_block_template(len(keys), width, level) % tuple(args))
        return
    pad = "\n" + "  " * (level + 1)
    for i, (key, value) in enumerate(zip(keys, values)):
        out.append(("," + pad if i else pad) + _json_str(key) + ": ")
        _render(value, level + 1, out, seen)


def _block_template(entries: int, width: int, level: int) -> str:
    """The layout of ``entries`` dict entries at ``level`` whose values
    are bare floats (``width`` 0) or lists of ``width`` floats."""
    pad = "\n" + "  " * (level + 1)
    value = "[" + ",".join([pad + "  %s"] * width) + pad + "]" if width \
        else "%s"
    return ",".join([pad + "%s: " + value] * entries)


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    cfg = load_model(args.model)
    report = validate_assumptions(cfg.cones)
    _emit(report.to_dict(), args.out)
    return 0 if report.ok else 1


def cmd_solve_tree(args) -> int:
    cfg = load_model(args.model)
    x0 = _parse_x0(args.x0, cfg.cones.n)
    objective = args.objective or cfg.objective
    tree = _build_model_tree(cfg, args.horizon, args.root_state)
    try:
        res = solve_tree_log_optimal(tree, cfg.cones, x0,
                                     objective=objective,
                                     extract_dual=not args.skip_dual)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        raise ModelError(
            f"no cone for a tree transition: {exc.args[0]}") from exc
    doc = {
        "horizon": args.horizon,
        "root_state": args.root_state,
        "x0": x0.tolist(),
        "objective_kind": objective,
        **res.to_dict(),
    }
    _emit(doc, args.out)
    if args.out:
        kkt = ("skipped" if res.dual is None
               else f"{res.kkt_residual:.3e}")
        print(f"objective {res.objective:.12f}")
        print(f"kkt_residual {kkt}")
    return 0


def cmd_solve_stationary(args) -> int:
    cfg = load_model(args.model)
    starts, seed = _limit(args, cfg, "starts"), _limit(args, cfg, "seed")
    eq = solve_stationary_equilibrium(cfg.markov, cfg.cones,
                                      starts=starts, seed=seed)
    doc = {"starts": starts, "seed": seed, **eq.to_dict()}
    _emit(doc, args.out)
    if args.out:
        print(f"log_growth {eq.log_growth:.12f}")
        print(f"certificate_residual {eq.certificate_residual:.3e}")
    return 0


def _load_plan_doc(path: str):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: expected a JSON object")
    inner = doc.get("plan", doc)
    if "portfolio" not in inner:
        raise ModelError(f"{path}: no portfolio found")
    return doc, inner


def _same_file(a: str, b: str) -> bool:
    try:
        return a == b or os.path.samefile(a, b)
    except OSError:
        return False


def _plan_tree(cfg: ModelConfig, doc: dict, n_nodes: int):
    """A plan file's tree, at its ``horizon`` or else its node count."""
    root_state = doc.get("root_state")
    if "horizon" in doc:
        h = doc["horizon"]
        if type(h) not in (int, float) or h % 1:  # nan or inf: h % 1 is nan
            raise ModelError(f"horizon must be a whole number, got {h!r}")
        return _build_model_tree(cfg, int(h), root_state)
    for t in range(1, 64):
        tree = _build_model_tree(cfg, t, root_state)
        if tree.n_nodes == n_nodes:
            return tree
        if tree.n_nodes > n_nodes:
            break
    raise ModelError(f"cannot infer a horizon matching {n_nodes} nodes")


def cmd_certify(args) -> int:
    cfg = load_model(args.model)
    plan_doc, plan_dict = _load_plan_doc(args.plan)
    dual_doc = plan_doc if _same_file(args.plan, args.dual) \
        else _read_json(args.dual)
    dual_dict = dual_doc.get("dual", dual_doc) \
        if isinstance(dual_doc, dict) else None
    if not isinstance(dual_dict, dict) or "prices" not in dual_dict:
        raise ModelError(f"{args.dual}: no dual price system found "
                         "(was the solve run with --skip-dual?)")

    tree = _plan_tree(cfg, plan_doc, len(plan_dict["portfolio"]))
    limits = {key: _limit(args, cfg, key)
              for key in ("tol", "defect_tol", "competitors", "seed")}
    try:
        plan = ContingentPlan.from_dict(tree, plan_dict)
        dual = DualPlan.from_dict(tree, dual_dict)
        report = check_rapid(plan, dual, cfg.cones, **limits)
    except (KeyError, ValueError) as exc:
        raise ModelError(
            f"inconsistent plan/dual/model files: {exc.args[0]}") from exc
    _emit(report.to_dict(), args.out)
    if args.out:
        print(f"verdict {report.verdict}")
        for name in ("support", "dual_cone", "defect"):
            worst = getattr(report, f"worst_{name}")
            print(f"worst_{name} {worst['residual']:.3e} at node "
                  f"{worst['node']} ({'->'.join(worst['path'])})")
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    cfg = load_model(args.model)
    eq_doc = _read_json(args.equilibrium)
    try:
        eq = EquilibriumResult.from_dict(eq_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(
            f"{args.equilibrium}: not an equilibrium file: {exc}"
        ) from exc
    limits = {key: _limit(args, cfg, key)
              for key in ("competitors", "seed", "paths", "length")}
    try:
        rep = asymptotic_dominance(eq, cfg.markov, cfg.cones, **limits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = rep.to_csv()
    if args.out:
        _write_text(args.out, [text])
        print(f"strategy_growth {rep.strategy_growth:.12f}")
        print(f"competitors {len(rep.rows)}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# built once per process: parsing leaves the parser unchanged, and
# in-process callers run main many times
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vng",
        description="Growth-optimal investment under proportional "
                    "frictions: validate models, solve for optimal "
                    "plans and stationary strategies, certify "
                    "optimality, simulate dominance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="check the standing cone assumptions")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve-tree",
                       help="log-optimal plan on a scenario tree")
    p.add_argument("--model", required=True)
    p.add_argument("--horizon", required=True, type=int)
    p.add_argument("--x0", required=True,
                   help="comma-separated starting portfolio")
    p.add_argument("--objective", choices=_OBJECTIVES,
                   help="terminal value convention "
                        "(default from the model file)")
    p.add_argument("--root-state", dest="root_state",
                   help="pin the chain state at time 0")
    p.add_argument("--skip-dual", action="store_true",
                   help="skip dual price extraction (faster on big trees; "
                        "the result cannot be certified)")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(func=cmd_solve_tree)

    p = sub.add_parser("solve-stationary",
                       help="balanced strategy maximizing expected "
                            "log growth")
    p.add_argument("--model", required=True)
    p.add_argument("--starts", type=int,
                   help="multistart count (default from limits)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(func=cmd_solve_stationary)

    p = sub.add_parser("certify",
                       help="verify a plan/dual pair as rapid")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", required=True,
                   help="plan JSON (a solve-tree output file works)")
    p.add_argument("--dual", required=True,
                   help="dual JSON (may be the same solve-tree file)")
    p.add_argument("--tol", type=float)
    p.add_argument("--defect-tol", dest="defect_tol", type=float)
    p.add_argument("--competitors", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate",
                       help="Monte Carlo growth-rate dominance statistics")
    p.add_argument("--model", required=True)
    p.add_argument("--equilibrium", required=True,
                   help="solve-stationary output file")
    p.add_argument("--paths", type=int, default=200)
    p.add_argument("--length", type=int, default=500)
    p.add_argument("--competitors", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
