"""Benchmark of the vng pipeline, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify-small --seed 0 \
        --seconds 30 --trace 0

Workloads (cases in ``perfbench/cases.py``):

certify-small   validate -> solve-tree (with dual) -> certify with 100
                competitors, on 7-63 node trees of every cone family
                plus two skewed chains that fail their certificate today
primal-large    validate -> solve-tree --skip-dual on 127-4095 nodes
stationary-sim  validate -> solve-stationary -> simulate

The run imports the package from ``src/`` with ``VNG_THREADS=1``, writes
the seeded model files, and drives the real CLI in-process through
``vngale.cli.main(argv)``, repeating passes over the cases until
``--seconds`` have elapsed (at least three passes).  Every case output
is checked (``perfbench/checks.py``); a case fails when a command
raises, exits nonzero or fails its check.  Failures are counted, never
dropped; ``correct`` is false when a case fails other than by a
documented known defect (``perfbench/cases.py``), or when a traced
run's exact counts differ between its traced passes.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
five cold set-ups, each a fresh interpreter that imports the package,
writes the model files and runs a warm-up case), the medians over
passes of the pass time, the time in ``vng validate``, in the solve
command and per cone family, and peak RSS.  Times are scaled to a
nominal machine speed (``perfbench/bench.py`` says how); the raw
medians are printed as ``raw`` lines.  ``--trace 1`` runs untraced
and traced passes in turn and reports per-layer self times and exact
counts from the traced passes (``perfbench/tracing.py``), per-command
times from the untraced ones, the tracing overhead between the two, the
failed fraction and the median reference kernel time.  Spans
are written to ``.perfbench_out/trace-<workload>-seed<seed>.jsonl.gz``.

Every run also prints the machine details, one row per case and the
raw pass times.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("certify-small", "primal-large", "stationary-sim")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vngale", "__init__.py")):
        print(f"error: no vngale package under {SRC}", file=sys.stderr)
        return 2
    # The package caps the BLAS pools from VNG_THREADS when it is
    # imported, which has to happen before anything imports numpy.
    os.environ["VNG_THREADS"] = "1"
    sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]
    import vngale.cli  # noqa: F401
    import bench
    return bench.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
