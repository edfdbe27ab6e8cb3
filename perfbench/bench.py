"""Passes, checks and metrics of one benchmark run (see run.py).

Times are normalized to a nominal machine speed.  On a shared 2-core
x86_64 host the time of one and the same command drifted by 10-40%
within seconds, in CPU time as much as in wall time.  A fixed reference
kernel runs between CLI commands, and each command's wall time is
scaled by ``REF_SECONDS`` over the mean kernel time of the ``WINDOW``
kernels run on either side of it.  The kernel is benchmark code, so a
change to the package does not move it: it runs after a full garbage
collection with the collector off, so the objects the package keeps
alive do not slow it, and it starts no threads.  On a machine that runs
the kernel in ``REF_SECONDS`` the scaled time is the plain wall time.
Raw times are printed next to the scaled ones, and a traced run reports
the median kernel time (``bench.kernel_s``) so that drift shows.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import checks
import tracing
from cases import (COMMANDS, SIM_LENGTH, SIM_PATHS, STARTS, WARMUP,
                   WORKLOADS, known_defect, write_models)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
COLDSTART = os.path.join(HERE, "coldstart.py")
MIN_PASSES = 3          # a traced run makes one more: two of each kind
MAX_SECONDS = 150.0     # past this, stop once every kind of pass ran
SETUP_REPEATS = 5       # cold set-ups, each in a fresh interpreter
SETUP_TIMEOUT = 120.0
COMPETITORS = 100       # the CLI default, from the model limits
REF_SECONDS = 0.010     # reference kernel time at nominal speed
WINDOW = 3              # kernels on each side that set a command's speed
PACKAGE_MODULES = ("cli", "cones", "lp", "plans", "scenario", "solver",
                   "certify")
COMMAND_METRIC = {"validate": "cli.cmd_validate.wall_s",
                  "solve-tree": "cli.cmd_solve_tree.wall_s",
                  "certify": "cli.cmd_certify.wall_s",
                  "solve-stationary": "cli.cmd_solve_stationary.wall_s",
                  "simulate": "cli.cmd_simulate.wall_s"}
FAMILY_METRIC = {"frictionless": "frictionless_s",
                 "proportional_tc": "proportional_tc_s",
                 "currency": "currency_s"}
PASS_METRICS = ("wall_s", "validate_s", "solve_s", *FAMILY_METRIC.values())


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy
    operations, the kind the package's per-node loops do."""
    a = np.arange(64.0)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0.0
        for i in range(3000):
            acc += float((a * 1.0001 + i).sum())
            _ = {j: j * 2 for j in range(8)}
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Reference kernel samples taken between timed intervals."""

    def __init__(self):
        self.kernel_times = [reference_kernel()]

    def tick(self) -> int:
        """Sample the kernel; returns the index of the previous sample,
        which together with this one brackets the interval just ended."""
        self.kernel_times.append(reference_kernel())
        return len(self.kernel_times) - 2

    def factor(self, before: int) -> float:
        """Scale for the interval between samples ``before`` and
        ``before + 1``."""
        window = self.kernel_times[max(0, before + 1 - WINDOW):
                                   before + 1 + WINDOW]
        return REF_SECONDS / statistics.mean(window)


def package_modules() -> dict:
    return {m: sys.modules["vngale." + m] for m in PACKAGE_MODULES}


def machine_info(clock: Clock) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "VNG_THREADS": os.environ.get("VNG_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "reference_kernel_s": statistics.median(clock.kernel_times),
    }


class Pipeline:
    """Runs the cases of one workload through the CLI."""

    def __init__(self, workload: str, workdir: str, clock: Clock | None,
                 tracer=None):
        self.workload = workload
        self.commands = COMMANDS[workload]
        self.workdir = workdir
        self.clock = clock
        self.tracer = tracer

    def call(self, argv):
        """One CLI command: (exit code, seconds, kernel index before the
        command or None without a clock, output text)."""
        cli = sys.modules["vngale.cli"]
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
        finally:
            raw = perf_counter() - start
            before = self.clock.tick() if self.clock else None
        return rc, raw, before, out.getvalue() + err.getvalue()

    def files(self, case) -> dict:
        base = os.path.join(self.workdir, case.name)
        return {"validate": base + ".validate.json",
                "solve-tree": base + ".solve.json",
                "certify": base + ".certify.json",
                "solve-stationary": base + ".equilibrium.json",
                "simulate": base + ".simulate.csv"}

    def argv(self, case, model: str, files: dict) -> dict:
        x0 = ",".join([repr(1.0 / case.n)] * case.n)
        tree = ["solve-tree", "--model", model, "--horizon",
                str(case.horizon), "--x0", x0]
        if self.workload == "primal-large":
            tree.append("--skip-dual")
        return {
            "validate": ["validate", "--model", model],
            "solve-tree": tree,
            "certify": ["certify", "--model", model,
                        "--plan", files["solve-tree"],
                        "--dual", files["solve-tree"]],
            "solve-stationary": ["solve-stationary", "--model", model,
                                 "--starts", str(STARTS)],
            "simulate": ["simulate", "--model", model, "--equilibrium",
                         files["solve-stationary"], "--paths",
                         str(SIM_PATHS), "--length", str(SIM_LENGTH)],
        }

    def run_case(self, index: int, case, model: str) -> dict:
        """Run the case's commands in order, stopping at the first
        nonzero exit: seconds (scaled and raw), exit codes and output."""
        files = self.files(case)
        argv = self.argv(case, model, files)
        res = {"raw": {}, "kernel": {}, "rc": {}, "stdout": {},
               "error": None}
        if self.tracer is not None:
            self.tracer.case = index
        try:
            for cmd in self.commands:
                rc, raw, before, text = self.call(
                    argv[cmd] + ["--out", files[cmd]])
                res["raw"][cmd], res["kernel"][cmd] = raw, before
                res["rc"][cmd], res["stdout"][cmd] = rc, text
                if rc != 0:
                    break
        except Exception as exc:  # a raising command fails its case
            res["error"] = f"{cmd} raised {type(exc).__name__}: {exc}"
        finally:
            if self.tracer is not None:
                self.tracer.case = -1
        res["bytes"] = sum(os.path.getsize(files[c]) for c in res["rc"]
                           if os.path.exists(files[c]))
        return res

    def check_case(self, vng, case, model: str, doc: dict, res: dict) -> list:
        """Correctness of one case's outputs (empty list: pass)."""
        if res["error"]:
            return [res["error"]]
        # certify exits 1 on a failed certificate; its report says why
        errors = [f"{cmd} exit {rc}: {res['stdout'][cmd].strip()[-200:]}"
                  for cmd, rc in res["rc"].items()
                  if rc != 0 and not (cmd == "certify" and rc == 1)]
        if errors:
            return errors
        try:
            return self._check_outputs(vng, case, model, doc, res)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _check_outputs(self, vng, case, model, doc, res) -> list:
        files = self.files(case)

        def load(cmd):
            with open(files[cmd], encoding="utf-8") as fh:
                return json.load(fh)

        errors = checks.check_validate(load("validate"))
        if self.workload == "stationary-sim":
            eq = load("solve-stationary")
            errors += checks.check_stationary(case, doc, eq)
            with open(files["simulate"], encoding="utf-8") as fh:
                csv_text = fh.read()
            errors += checks.check_simulation(
                case, csv_text, res["stdout"]["simulate"], eq, COMPETITORS)
            return errors
        x0 = [1.0 / case.n] * case.n
        sol = load("solve-tree")
        errors += checks.check_tree_objective(case, doc, sol, x0)
        if self.workload == "certify-small":
            errors += checks.check_kkt(sol)
            errors += checks.check_certificate(res["rc"]["certify"],
                                               load("certify"))
        else:
            errors += checks.check_self_financing(vng, case, model, sol)
        return errors


def run_pass(pipe: Pipeline, vng, models) -> dict:
    """One pass over every case, then the checks (outside tracing)."""
    tracer = pipe.tracer
    restore = tracer.install(package_modules()) if tracer else None
    span_mark = len(tracer.sp_name) if tracer else 0
    try:
        results = [pipe.run_case(i, case, path)
                   for i, (case, path, _doc) in enumerate(models)]
    finally:
        if restore:
            restore()
    errors = [pipe.check_case(vng, case, path, doc, res)
              for (case, path, doc), res in zip(models, results)]
    layer = {}
    if tracer:
        layer = dict(tracer.values)
        tracer.values.clear()
        layer["trace.spans"] = len(tracer.sp_name) - span_mark
        layer["cli.bytes_written"] = sum(r["bytes"] for r in results)
    return {"families": [case.family for case, _p, _d in models],
            "results": results, "errors": errors, "layer": layer,
            "traced": tracer is not None}


def metric_keys(family: str, cmd: str) -> list:
    """The per-pass totals a command's seconds count towards."""
    keys = ["wall_s", FAMILY_METRIC[family], COMMAND_METRIC[cmd]]
    if cmd == "validate":
        keys.append("validate_s")
    elif cmd.startswith("solve-"):
        keys.append("solve_s")
    return keys


def add_totals(p: dict, clock: Clock) -> None:
    """Scaled and raw seconds per command and the per-pass sums; self
    times are put on the same scale as the commands of their pass."""
    scaled = dict.fromkeys((*PASS_METRICS, *COMMAND_METRIC.values()), 0.0)
    raw = dict(scaled)
    for family, res in zip(p["families"], p["results"]):
        res["seconds"] = {cmd: sec * clock.factor(res["kernel"][cmd])
                          for cmd, sec in res["raw"].items()}
        for totals, secs in ((scaled, res["seconds"]), (raw, res["raw"])):
            for cmd, sec in secs.items():
                for key in metric_keys(family, cmd):
                    totals[key] += sec
    factor = scaled["wall_s"] / raw["wall_s"]
    p["layer"] = {k: v * factor if k.endswith(".self_s") else v
                  for k, v in p["layer"].items()}
    p["totals"], p["raw_totals"] = scaled, raw


def case_rows(workload, seed, cases, passes) -> list:
    """One line per case: shape, median seconds per command, verdict."""
    rows = []
    for i, case in enumerate(cases):
        cmds = {}
        for p in passes:
            for cmd, sec in p["results"][i]["seconds"].items():
                cmds.setdefault(cmd, []).append(sec)
        errs = [e for p in passes for e in p["errors"][i]]
        times = " ".join(f"{cmd}={statistics.median(v):.4f}s"
                         for cmd, v in cmds.items())
        verdict = "PASS" if not errs else "FAIL: " + errs[0]
        why = known_defect(workload, seed, case, errs)
        if errs and why:
            verdict += f" [known defect: {why}]"
        rows.append(f"case {case.name:<20} {case.family:<15} n={case.n} "
                    f"chain={case.chain:<7} H={case.horizon:<2} "
                    f"nodes={case.nodes:<5} {times} {verdict}")
    return rows


def end_to_end(passes, setups, clock: Clock, scaled: bool = True) -> dict:
    """End-to-end metrics: scaled, or the raw seconds behind them."""
    untraced = [p for p in passes if not p["traced"]]
    setup_times = [sec * (clock.factor(before) if scaled else 1.0)
                   for sec, before in setups]
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    totals = "totals" if scaled else "raw_totals"
    for key in PASS_METRICS:
        metrics[key] = (statistics.median(p[totals][key]
                                          for p in untraced), "s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (rss, "MB")
    return metrics


def per_layer(passes, fail_frac: float, clock: Clock):
    """Per-layer metrics, and the counts that differ between the traced
    passes (an empty list when they repeat exactly)."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    keys = set(tracing.COUNTS)
    for _mod, _attr, prefix in tracing.TARGETS:
        keys.update({prefix + ".calls", prefix + ".self_s"})
        if prefix.startswith("lp.lp_solve"):
            keys.update(prefix + s for s in (".pivots", ".failures",
                                             ".tableau_bytes_max"))
    metrics, mismatched = {}, []
    for key in sorted(keys):
        vals = [p["layer"].get(key, 0) for p in traced]
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(vals), "s")
            continue
        if any(v != vals[0] for v in vals):
            mismatched.append(f"{key}: {vals}")
        unit = "bytes_computed" if key.endswith("bytes_max") else (
            "bytes" if key.endswith("bytes_written") else "count")
        metrics[key] = (vals[0], unit)
    for key in COMMAND_METRIC.values():
        metrics[key] = (statistics.median(p["totals"][key]
                                          for p in untraced), "s")
    plain = statistics.median(p["totals"]["wall_s"] for p in untraced)
    with_trace = statistics.median(p["totals"]["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (with_trace - plain, "s")
    metrics["trace.overhead_frac"] = ((with_trace - plain) / plain, "ratio")
    metrics["fail_frac"] = (fail_frac, "ratio")
    metrics["bench.kernel_s"] = (statistics.median(clock.kernel_times), "s")
    return metrics, mismatched


def is_traced_pass(index: int, trace: int) -> bool:
    """Traced runs repeat untraced, traced, traced, untraced."""
    return bool(trace) and index % 4 in (1, 2)


def prepare(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's seeded model files and run the warm-up case
    (a horizon-2 tree through validate -> solve-tree -> certify).
    Returns ``(case, path, doc)`` per case."""
    models = write_models(WORKLOADS[workload], seed, workdir)
    (case, path, _doc), = write_models([WARMUP], seed, workdir)
    res = Pipeline("certify-small", workdir, None).run_case(0, case, path)
    if res["error"] or any(rc != 0 for rc in res["rc"].values()):
        raise RuntimeError("warm-up case failed: "
                           f"{res['error'] or res['stdout']}")
    return models


def cold_setups(workload: str, seed: int, workdir: str,
                clock: Clock) -> list:
    """Time ``SETUP_REPEATS`` cold set-ups, each ``prepare`` in a fresh
    interpreter (``coldstart.py``), so that interpreter start-up, every
    import and first-call work count.  Returns ``(raw seconds, index of
    the kernel sample before it)`` per set-up."""
    argv = [sys.executable, COLDSTART, workload, str(seed), workdir]
    out = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT, check=False)
        seconds = perf_counter() - start
        before = clock.tick()
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        out.append((seconds, before))
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Set up, run passes until ``seconds`` have elapsed, print the
    per-case rows, machine details and the result line."""
    cases = WORKLOADS[workload]
    workdir = os.path.join(OUT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clock = Clock()
    try:
        setups = cold_setups(workload, seed, workdir, clock)
        models = prepare(workload, seed, workdir)
        vng = sys.modules["vngale"]

        tracer = tracing.Tracer() if trace else None
        pipes = {False: Pipeline(workload, workdir, clock),
                 True: Pipeline(workload, workdir, clock, tracer)}
        passes, durations = [], {False: [], True: []}
        begin = perf_counter()
        while True:
            traced = is_traced_pass(len(passes), trace)
            start = perf_counter()
            passes.append(run_pass(pipes[traced], vng, models))
            durations[traced].append(perf_counter() - start)
            elapsed = perf_counter() - begin
            nxt = is_traced_pass(len(passes), trace)
            est = statistics.median(durations[nxt] or durations[traced])
            # the first 1 + 2 * trace passes hold one untraced pass and,
            # when tracing, the two traced passes the counts are checked on
            if len(passes) >= 1 + 2 * trace and elapsed + est > MAX_SECONDS:
                break
            if len(passes) >= MIN_PASSES + trace and elapsed + est > seconds:
                break
        clock.tick()
        for p in passes:
            add_totals(p, clock)

        attempted = sum(len(p["errors"]) for p in passes)
        failed = sum(1 for p in passes for e in p["errors"] if e)
        unexpected = sorted({c.name for p in passes
                             for c, e in zip(cases, p["errors"])
                             if e and not known_defect(workload, seed,
                                                       c, e)})
        correct = not unexpected
        if trace:
            metrics, mismatched = per_layer(passes, failed / attempted,
                                            clock)
            if mismatched:
                correct = False
                print("exact counts differ between traced passes: "
                      + "; ".join(mismatched))
            tracer.write(os.path.join(
                OUT, f"trace-{workload}-seed{seed}.jsonl.gz"))
        else:
            metrics = end_to_end(passes, setups, clock)
            raw = end_to_end(passes, setups, clock, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine " + json.dumps(machine_info(clock), sort_keys=True))
    for row in case_rows(workload, seed, cases,
                         [p for p in passes if not p["traced"]]):
        print(row)
    if unexpected:
        print("unexpected failures: " + ", ".join(unexpected))
    print(f"passes {len(passes)} ({sum(p['traced'] for p in passes)} "
          f"traced), setup repeats {len(setups)}, fail_frac "
          f"{failed}/{attempted} = {failed / attempted:.4f}")
    print("pass wall_s scaled/raw " + " ".join(
        f"{p['totals']['wall_s']:.3f}/{p['raw_totals']['wall_s']:.3f}"
        f"{'T' if p['traced'] else ''}" for p in passes))
    print("setup_s scaled/raw " + " ".join(
        f"{sec * clock.factor(before):.4f}/{sec:.4f}"
        for sec, before in setups))
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    if not trace:
        for key, (value, unit) in raw.items():
            print(f"raw {key} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0
