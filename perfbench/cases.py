"""Workload case tables and seeded model generation.

Every workload is a fixed list of cases.  A case fixes the cone family,
the asset count ``n``, the Markov chain and the horizon ``H``; the
workload seed only perturbs cone parameters, inside these ranges:

* gross returns of the risky assets: times U(1 - RETURN_JITTER,
  1 + RETURN_JITTER) (asset 0 is cash and keeps return 1);
* proportional cost rates: times U(1 - COST_JITTER, 1 + COST_JITTER);
* off-diagonal exchange rates: times U(1 - RATE_JITTER, 1 + RATE_JITTER).

The ranges keep every generated model valid for ``vng validate`` and
keep the work per case (tree size, Newton and pivot counts) nearly the
same between seeds, so run-to-run spread measures the program rather
than the inputs.  The program only sees the model files written here.

Sizes are chosen so that one pass over a workload takes about ten
seconds on a 2-core x86_64 machine: each run needs at least three passes
for its medians, and the whole benchmark (4 + 22 runs per workload) has
to finish within an hour.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

RETURN_JITTER = 0.02
COST_JITTER = 0.2
RATE_JITTER = 0.01

# Markov chains by name: (state labels, transition matrix).
CHAINS = {
    "coin": (("U", "D"), [[0.5, 0.5], [0.5, 0.5]]),
    "skew2": (("U", "D"), [[0.999, 0.001], [0.999, 0.001]]),
    "skew3": (("A", "B", "C"), [[0.98, 0.01, 0.01]] * 3),
    "regime3": (("L", "M", "H"), [[0.8, 0.15, 0.05],
                                  [0.1, 0.8, 0.1],
                                  [0.05, 0.15, 0.8]]),
    "one": (("S",), [[1.0]]),
}

# Gross returns per destination state; asset 0 is cash.
RETURNS = {
    "U": [1.0, 2.0, 0.7, 1.3, 0.9, 1.6],
    "D": [1.0, 0.5, 1.4, 0.8, 1.2, 0.6],
    "A": [1.0, 1.1, 0.95],
    "B": [1.0, 0.6, 1.3],
    "C": [1.0, 1.5, 0.8],
    "L": [1.0, 0.7, 1.2],
    "M": [1.0, 1.1, 0.95],
    "H": [1.0, 1.6, 0.9],
}
LAMBDA_PLUS = 0.01
LAMBDA_MINUS = 0.02

# Exchange-rate matrices per destination state (mu[i, j]: units of i per
# unit of j).  "S" is the mispriced triangle of demos/currency_triangle.py.
EXCHANGE = {
    ("U", 2): [[1.0, 1.2], [0.7, 1.0]],
    ("D", 2): [[1.0, 0.6], [1.1, 1.0]],
    ("U", 3): [[1.0, 1.25, 0.8], [0.75, 1.0, 1.1], [1.15, 0.85, 1.0]],
    ("D", 3): [[1.0, 0.7, 1.05], [1.3, 1.0, 0.9], [0.9, 1.05, 1.0]],
    ("S", 3): [[1.00, 0.95, 0.78], [1.04, 1.00, 0.72], [1.25, 1.32, 1.00]],
}

COMMANDS = {
    "certify-small": ("validate", "solve-tree", "certify"),
    "primal-large": ("validate", "solve-tree"),
    "stationary-sim": ("validate", "solve-stationary", "simulate"),
}

# Arguments of the stationary pipeline.
STARTS = 8
SIM_PATHS = 100
SIM_LENGTH = 500

# Known defects at the time the benchmark was defined.  Their failures
# are counted like any other, but do not make a run incorrect.  A case
# marked with SKEWED fails only through its certificate: the kkt_residual
# of solve-tree or the verdict of certify.
SKEWED = ("ROADMAP item 4: barrier accuracy scales with 1/node "
          "probability, so the certificate fails on rare nodes")
SKEWED_SYMPTOMS = ("kkt_residual ", "certify exit 1, verdict fail")
# lp_solve rejects its own final basis on the dual LP of a few single
# (workload, case, seed) points; only these points are excused.  Each was
# seen and reproduces: the package is deterministic.
LP_BASIS = ("lp_solve rejects its own final basis on this dual LP "
            "(the dual extraction fails)")
LP_BASIS_SYMPTOM = "final basis failed verification"
LP_BASIS_POINTS = {
    ("certify-small", "tc3-coin-H3", 0),
}


def known_defect(workload: str, seed: int, case, errors) -> str | None:
    """Why the failure ``errors`` of ``case`` is a known defect, or None."""
    if not errors:
        return None
    if case.known_defect and all(e.startswith(SKEWED_SYMPTOMS)
                                 for e in errors):
        return case.known_defect
    if (workload, case.name, seed) in LP_BASIS_POINTS and all(
            LP_BASIS_SYMPTOM in e for e in errors):
        return LP_BASIS
    return None


@dataclass(frozen=True)
class Case:
    name: str
    family: str
    n: int
    chain: str
    horizon: int = 0          # 0: stationary case, no tree
    known_defect: str | None = None

    @property
    def nodes(self) -> int:
        """Positive-probability histories of length <= horizon, counted
        from the chain (the root draws its first state from the uniform
        initial law, so every state is reachable at depth 1)."""
        if self.horizon == 0:
            return 0
        P = np.asarray(CHAINS[self.chain][1]) > 0.0
        count = np.ones(P.shape[0], dtype=np.int64)
        total = 1 + int(count.sum())
        for _ in range(1, self.horizon):
            count = count @ P.astype(np.int64)
            total += int(count.sum())
        return total


WORKLOADS = {
    "certify-small": [
        Case("fl2-coin-H4", "frictionless", 2, "coin", 4),
        Case("fl3-coin-H4", "frictionless", 3, "coin", 4),
        Case("tc2-coin-H3", "proportional_tc", 2, "coin", 3),
        Case("tc3-coin-H3", "proportional_tc", 3, "coin", 3),
        Case("cur2-coin-H3", "currency", 2, "coin", 3),
        Case("cur3-coin-H2", "currency", 3, "coin", 2),
        Case("fl2-skew2-H5", "frictionless", 2, "skew2", 5, SKEWED),
        Case("tc2-skew3-H3", "proportional_tc", 2, "skew3", 3, SKEWED),
    ],
    "primal-large": [
        Case("fl4-coin-H11", "frictionless", 4, "coin", 11),
        Case("tc4-coin-H8", "proportional_tc", 4, "coin", 8),
        Case("tc6-coin-H7", "proportional_tc", 6, "coin", 7),
        Case("cur3-coin-H6", "currency", 3, "coin", 6),
        Case("tc2-skew3-H5", "proportional_tc", 2, "skew3", 5),
    ],
    "stationary-sim": [
        Case("tc2-coin", "proportional_tc", 2, "coin"),
        Case("tc4-coin", "proportional_tc", 4, "coin"),
        Case("fl4-coin", "frictionless", 4, "coin"),
        Case("cur3-triangle", "currency", 3, "one"),
        Case("tc2-regime3", "proportional_tc", 2, "regime3"),
    ],
}

# Untimed warm-up run during set-up: a horizon-2 tree through the full
# validate -> solve-tree -> certify pipeline.
WARMUP = Case("warmup-fl2-coin-H2", "frictionless", 2, "coin", 2)


def cone_params(case: Case, rng: np.random.Generator) -> dict:
    """Perturbed cone parameters per destination state, as plain lists."""
    states, _ = CHAINS[case.chain]
    n = case.n
    out = {}
    for s in states:
        if case.family == "currency":
            mu = np.array(EXCHANGE[(s, n)], dtype=float)
            jitter = rng.uniform(1 - RATE_JITTER, 1 + RATE_JITTER, (n, n))
            np.fill_diagonal(jitter, 1.0)
            out[s] = {"family": "currency", "mu": (mu * jitter).tolist()}
            continue
        r = np.array(RETURNS[s][:n], dtype=float)
        r[1:] *= rng.uniform(1 - RETURN_JITTER, 1 + RETURN_JITTER, n - 1)
        cone = {"family": case.family, "returns": r.tolist()}
        if case.family == "proportional_tc":
            for key, base in (("lambda_plus", LAMBDA_PLUS),
                              ("lambda_minus", LAMBDA_MINUS)):
                cone[key] = (base * rng.uniform(1 - COST_JITTER,
                                                1 + COST_JITTER, n)).tolist()
        out[s] = cone
    return out


def model_doc(case: Case, seed: int, index: int) -> dict:
    """Model file contents for ``case``, the ``index``-th of its workload."""
    rng = np.random.default_rng([seed, index])
    states, P = CHAINS[case.chain]
    cones = cone_params(case, rng)
    return {
        "markov": {"states": list(states), "transition": P},
        "cones": {f"*->{s}": cones[s] for s in states},
    }


def write_models(cases, seed: int, directory: str) -> list:
    """Write one model file per case; returns ``(case, path, doc)``."""
    out = []
    for i, case in enumerate(cases):
        doc = model_doc(case, seed, i)
        path = os.path.join(directory, f"{case.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out.append((case, path, doc))
    return out
