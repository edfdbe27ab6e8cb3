"""Per-case correctness checks with independent reference values.

Reference numbers are computed here with plain numpy, never by the code
under test:

* frictionless tree objective: the log-optimal problem separates by node,
  so the optimum is E log(R . x0) at the root plus the expected one-step
  Kelly growth of every later non-leaf node;
* stationary frictionless growth: the Kelly rate of the stationary law,
  and for any chain the per-state Kelly rate averaged over the stationary
  law bounds every balanced strategy from above;
* proportional costs can only lower these values (friction monotonicity);
* the balanced growth of a one-state currency market is the largest
  geometric-mean exchange cycle.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np

KKT_TOL = 1e-6          # solve-tree kkt_residual (check_rapid's support tol)
OBJECTIVE_TOL = 1e-6    # tree objective against the Kelly reference
GROWTH_TOL = 1e-4       # stationary growth against its reference
BOUND_SLACK = 1e-9      # slack on one-sided friction bounds


def kelly(probs, R) -> float:
    """max over the simplex of sum_w p_w log(R_w . f).

    Cover's multiplicative update finds the support, then Newton steps on
    the support with the budget constraint polish the optimum.
    """
    p = np.asarray(probs, dtype=float)
    R = np.asarray(R, dtype=float)
    n = R.shape[1]
    f = np.full(n, 1.0 / n)
    for _ in range(20000):
        g = (p / (R @ f)) @ R
        nxt = f * g
        nxt /= nxt.sum()
        done = np.abs(nxt - f).max() < 1e-14
        f = nxt
        if done:
            break
    S = f > 1e-9
    for _ in range(30):
        W = R[:, S]
        val = W @ f[S]
        grad = (p / val) @ W
        hess = -(W.T * (p / val ** 2)) @ W
        m = int(S.sum())
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = hess
        kkt[:m, m] = kkt[m, :m] = 1.0
        step = np.linalg.solve(kkt, np.append(-grad, 0.0))[:m]
        trial = f.copy()
        trial[S] += step
        if (trial < 0).any():
            break
        f = trial
        if np.abs(step).max() < 1e-15:
            break
    return float(p @ np.log(R @ f))


def _chain(model: dict):
    states = model["markov"]["states"]
    P = np.asarray(model["markov"]["transition"], dtype=float)
    return states, P


def _returns_matrix(model: dict, states, row) -> tuple:
    """Probabilities and destination returns of one transition row."""
    live = np.flatnonzero(row > 0.0)
    R = np.array([model["cones"][f"*->{states[w]}"]["returns"] for w in live])
    return row[live], R


def _state_kelly(model: dict) -> np.ndarray:
    states, P = _chain(model)
    return np.array([kelly(*_returns_matrix(model, states, P[s]))
                     for s in range(len(states))])


def tree_reference(model: dict, horizon: int, x0) -> float:
    """Optimal expected terminal log wealth of the frictionless tree with
    the cones' returns (uniform initial law, as the model files have)."""
    states, P = _chain(model)
    k = len(states)
    q = np.full(k, 1.0 / k)
    R = np.array([model["cones"][f"*->{s}"]["returns"] for s in states])
    value = float(q @ np.log(R @ np.asarray(x0, dtype=float)))
    g = _state_kelly(model)
    for _ in range(1, horizon):
        value += float(q @ g)
        q = q @ P
    return value


def stationary_law(P) -> np.ndarray:
    vals, vecs = np.linalg.eig(np.asarray(P, dtype=float).T)
    v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return v / v.sum()


def stationary_reference(model: dict) -> float:
    """Per-state Kelly growth averaged over the stationary law: the
    largest growth rate of any frictionless strategy."""
    _, P = _chain(model)
    return float(stationary_law(P) @ _state_kelly(model))


def best_cycle_log_growth(mu) -> float:
    """Log of the largest geometric-mean exchange cycle (self-loops
    included): the balanced growth of a one-state currency market."""
    mu = np.asarray(mu, dtype=float)
    n = mu.shape[0]
    best = 0.0
    for length in range(2, n + 1):
        for cyc in itertools.permutations(range(n), length):
            logs = sum(np.log(mu[cyc[(i + 1) % length], cyc[i]])
                       for i in range(length))
            best = max(best, float(logs) / length)
    return best


def _frictionless_twin(model: dict) -> dict:
    cones = {key: {"family": "frictionless", "returns": cone["returns"]}
             for key, cone in model["cones"].items()}
    return {**model, "cones": cones}


# ---------------------------------------------------------------------------
# checks


def check_validate(report: dict) -> list:
    return [] if report.get("ok") else ["validate: assumptions not ok"]


def check_tree_objective(case, model: dict, sol: dict, x0) -> list:
    """Kelly reference for frictionless plans, friction monotonicity for
    transaction-cost plans; currency plans have no reference here."""
    obj = float(sol["objective"])
    if case.family == "frictionless":
        ref = tree_reference(model, case.horizon, x0)
        if abs(obj - ref) > OBJECTIVE_TOL:
            return [f"objective {obj:.10f} != Kelly reference {ref:.10f}"]
    elif case.family == "proportional_tc":
        ref = tree_reference(_frictionless_twin(model), case.horizon, x0)
        if obj > ref + BOUND_SLACK:
            return [f"objective {obj:.10f} above frictionless {ref:.10f}"]
    return []


def check_kkt(sol: dict) -> list:
    kkt = sol.get("kkt_residual")
    if kkt is None or not kkt <= KKT_TOL:
        return [f"kkt_residual {kkt} > {KKT_TOL}"]
    return []


def check_certificate(rc: int, report: dict) -> list:
    if rc == 0 and report.get("verdict") == "pass":
        return []
    nan = float("nan")
    return [f"certify exit {rc}, verdict {report.get('verdict')} "
            f"(support {report.get('support_residual', nan):.1e}, "
            f"dual {report.get('dual_cone_residual', nan):.1e}, "
            f"defect {report.get('supermartingale_defect', nan):.1e})"]


def check_self_financing(vng, case, model_path: str, sol: dict) -> list:
    """Rebuild the plan with the library and test every tree edge."""
    cfg = vng.cli.load_model(model_path)
    tree = vng.build_tree(cfg.markov, case.horizon)
    if tree.n_nodes != case.nodes:
        return [f"tree has {tree.n_nodes} nodes, expected {case.nodes}"]
    plan = vng.ContingentPlan.from_dict(tree, sol["plan"])
    ok, bad = vng.is_self_financing(plan, cfg.cones)
    return [] if ok else [f"{len(bad)} edges not self-financing"]


def check_stationary(case, model: dict, eq: dict) -> list:
    growth = float(eq["log_growth"])
    errors = []
    if case.family == "currency":
        mu = model["cones"]["*->S"]["mu"]
        ref = best_cycle_log_growth(mu)
        if abs(growth - ref) > GROWTH_TOL or growth > ref + BOUND_SLACK:
            errors.append(f"growth {growth:.8f} != best cycle {ref:.8f}")
    else:
        twin = _frictionless_twin(model)
        ref = stationary_reference(twin)
        if growth > ref + BOUND_SLACK:
            errors.append(f"growth {growth:.8f} above Kelly bound {ref:.8f}")
        if case.family == "frictionless" and case.chain == "coin" \
                and abs(growth - ref) > GROWTH_TOL:
            errors.append(f"growth {growth:.8f} != Kelly {ref:.8f}")
    if case.family != "proportional_tc" \
            and not eq["certificate_residual"] <= KKT_TOL:
        errors.append(f"certificate_residual {eq['certificate_residual']}")
    return errors


def check_simulation(case, csv_text: str, stdout: str, eq: dict,
                     competitors: int) -> list:
    """Every competitor's simulated growth falls short of the strategy's
    up to sampling error, and the CSV covers every competitor."""
    rows = {}
    for rec in csv.DictReader(io.StringIO(csv_text)):
        rows.setdefault(rec["competitor"], {})[rec["statistic"]] = \
            float(rec["value"])
    errors = []
    want = case.n + 1 + competitors
    if len(rows) != want:
        errors.append(f"{len(rows)} competitors in CSV, expected {want}")
    for name, stats in rows.items():
        if stats["mean_gap"] < -(5.0 * stats["se_gap"] + 1e-6):
            errors.append(f"competitor {name} outgrows the strategy "
                          f"(gap {stats['mean_gap']:.3e})")
    line = [ln for ln in stdout.splitlines()
            if ln.startswith("strategy_growth ")]
    if not line or abs(float(line[0].split()[1]) - eq["log_growth"]) > 1e-9:
        errors.append("simulate strategy_growth differs from log_growth")
    return errors
