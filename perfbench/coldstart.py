"""One cold set-up in a fresh interpreter; ``bench.py`` times it from
outside, so the time includes interpreter start-up and every import::

    python3 perfbench/coldstart.py <workload> <seed> <workdir>

It imports the package from ``src/`` with ``VNG_THREADS=1``, writes the
workload's seeded model files into ``workdir`` and runs the warm-up case
through the CLI (``bench.prepare``).  A failed warm-up raises, which
exits nonzero.
"""

from __future__ import annotations

import os
import sys


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    os.environ["VNG_THREADS"] = "1"
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    # The package caps the BLAS pools when imported, before numpy is.
    import vngale.cli  # noqa: F401
    import bench
    bench.prepare(workload, seed, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
