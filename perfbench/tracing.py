"""Span tracing around the calls one vngale module makes into another.

The package binds names with ``from .x import y``, so a wrapper replaces
the name in the *caller's* module namespace; that is what splits one
function's numbers by caller (``by_<caller>``).  Wrappers exist only
while a traced pass runs: ``Tracer.install`` patches the namespaces and
returns a function that puts the originals back, so untraced passes run
the unmodified package.

Each call records a span (name, start, end, parent span, case id) in
flat arrays kept in memory; ``write`` stores them when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter

# (caller module, attribute, metric prefix).  Attributes on a class are
# written "Class.method" and patched on the class.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "validate_assumptions", "cones.validate_assumptions"),
    ("solver", "validate_assumptions", "cones.validate_assumptions"),
    ("cli", "build_tree", "scenario.build_tree"),
    ("cli", "solve_tree_log_optimal", "solver.solve_tree_log_optimal"),
    ("cli", "solve_stationary_equilibrium",
     "solver.solve_stationary_equilibrium"),
    ("solver", "extract_equilibrium_prices",
     "solver.extract_equilibrium_prices"),
    ("cli", "check_rapid", "certify.check_rapid"),
    ("cli", "asymptotic_dominance", "certify.asymptotic_dominance"),
    ("certify", "sample_paths", "scenario.sample_paths"),
    ("certify", "dual_violation", "cones.dual_violation"),
    ("certify", "boundary_scale", "cones.boundary_scale.by_certify"),
    ("solver", "boundary_scale", "cones.boundary_scale.by_solver"),
    ("cones", "boundary_scale", "cones.boundary_scale.by_cones"),
    ("solver", "lp_solve", "lp.lp_solve.by_solver"),
    ("cones", "lp_solve", "lp.lp_solve.by_cones"),
    ("plans", "DualPlan.expected_next", "plans.DualPlan.expected_next"),
]

# Counts read off a wrapped function's result: prefix -> (metric, count).
RESULT_COUNTS = {
    "solver.solve_tree_log_optimal":
        ("solver.newton_iterations", lambda res: res.iterations),
    "certify.check_rapid":
        ("certify.competitors", lambda rep: rep.competitors),
    "certify.asymptotic_dominance":
        ("certify.competitors", lambda rep: len(rep.rows)),
    "scenario.build_tree": ("scenario.nodes", lambda tree: tree.n_nodes),
    "lp.lp_solve.by_solver":
        ("lp.lp_solve.by_solver.pivots", lambda res: res.iterations),
    "lp.lp_solve.by_cones":
        ("lp.lp_solve.by_cones.pivots", lambda res: res.iterations),
}

# Every count besides the per-function ones; with the deterministic
# package all of them repeat exactly between traced passes.
COUNTS = ("solver.newton_iterations", "certify.competitors",
          "scenario.nodes", "cli.bytes_written", "trace.spans")


def _lp_tableau_bytes(args, kwargs) -> int:
    """Bytes of the dense simplex tableau lp_solve builds, computed from
    its arguments: rows x (variables + slacks + artificials + rhs) x 8."""
    names = ("c", "A_ub", "b_ub", "A_eq", "b_eq")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    n = len(bound["c"])
    b_ub = bound.get("b_ub")
    b_eq = bound.get("b_eq")
    m_ub = 0 if b_ub is None else len(b_ub)
    m_eq = 0 if b_eq is None else len(b_eq)
    flipped = 0 if b_ub is None else int((b_ub < 0).sum())
    rows = m_ub + m_eq
    cols = n + m_ub + m_eq + flipped + 1
    return 8 * rows * cols


class Tracer:
    """Spans and per-metric values for one benchmark run."""

    def __init__(self):
        self.case = -1
        self.names = []
        self._ids = {}
        self._stack = []
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_case = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.values = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, prefix: str):
        name_id = self._name_id(prefix)
        stack, values = self._stack, self.values
        sp_name, sp_parent, sp_case = self.sp_name, self.sp_parent, \
            self.sp_case
        sp_start, sp_end = self.sp_start, self.sp_end
        calls_key, self_key = prefix + ".calls", prefix + ".self_s"
        fail_key = prefix + ".failures"
        is_lp = prefix.startswith("lp.lp_solve")
        bytes_key = prefix + ".tableau_bytes_max"
        count_key, count = RESULT_COUNTS.get(prefix, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            if is_lp:
                values[bytes_key] = max(values.get(bytes_key, 0),
                                        _lp_tableau_bytes(args, kwargs))
            frame = [len(sp_name), 0.0]
            sp_name.append(name_id)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_case.append(tracer.case)
            sp_end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            sp_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                values[fail_key] = values.get(fail_key, 0) + 1
                raise
            finally:
                end = perf_counter()
                sp_end[frame[0]] = end
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                values[calls_key] = values.get(calls_key, 0) + 1
                values[self_key] = values.get(self_key, 0.0) + dur - frame[1]
            if count_key:
                values[count_key] = values.get(count_key, 0) + count(result)
            return result

        return traced

    def install(self, vng_modules: dict):
        """Patch every target; returns the function that undoes it."""
        undo = []
        for mod_name, attr, prefix in TARGETS:
            owner = vng_modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr) if not isinstance(owner, type) \
                else owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, prefix))
            undo.append((owner, attr, original))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return restore

    def write(self, path: str) -> None:
        """Store the spans as gzip-compressed JSON lines: a header with
        the span names, then [name, parent, case, start, end] per span
        (parent and name index into the header and the span list)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.sp_name)):
                fh.write("[%d,%d,%d,%.9f,%.9f]\n" % (
                    self.sp_name[i], self.sp_parent[i], self.sp_case[i],
                    self.sp_start[i], self.sp_end[i]))
