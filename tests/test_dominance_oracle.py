"""``asymptotic_dominance`` sweeps time once for every competitor; the
per-competitor loop it replaced is kept here as the reference.

The sweep adds the log growth factors one step at a time in the order
the loop's ``cumsum`` adds them and takes the same maxima, so reports
must agree exactly: every statistic of every row, the row order, and
the competitor named when a growth factor is not positive.  Cases cover
every cone family on a fair coin, a three-state regime chain, a
one-state chain and a skewed chain, horizons from one step (no second
half) to several time slabs, one to a hundred paths, up to a hundred
random competitors and an ``include`` extra.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest

from vngale.certify import DominanceReport, asymptotic_dominance
from vngale.cones import ConeSpec, ConeTable
from vngale.plans import BalancedStrategy
from vngale.scenario import MarkovSpec, sample_paths
from vngale.solver import _StationaryProgram


def _require_positive(alpha, who):
    if (alpha <= 0.0).any() or not np.isfinite(alpha).all():
        raise ValueError(f"{who} has a nonpositive growth factor; "
                         "wealth would hit zero along some path")
    return alpha


def _dominance_loop(equilibrium, spec, cone_table, competitors=20,
                    length=500, paths=200, seed=0, include=None):
    """One ``(paths, length)`` cumsum, ``hstack`` and running maximum per
    competitor."""
    if length < 1 or paths < 1:
        raise ValueError("length and paths must be >= 1")
    strategy = getattr(equilibrium, "strategy", equilibrium)
    k, n = spec.k, cone_table.n

    log_ax = np.log(_require_positive(
        np.array([strategy.alpha[s] for s in spec.states]), "the strategy"))
    prog = _StationaryProgram(spec, cone_table)

    names = [f"hold-{i}" for i in range(n)]
    props = [np.tile(e_i, (k, 1)) for e_i in np.eye(n)]
    rng = np.random.default_rng(seed)
    for j in range(competitors):
        names.append(f"random-{j}")
        props.append(rng.dirichlet(np.ones(n), size=k))
    # (k + 1, k) step factors [previous state, state], row k the first
    # step: a competitor steps by its transition factors, a state-keyed
    # strategy by the factor of the state it steps into
    a = prog.factors(np.stack(props))
    steps = np.ones((len(props), k + 1, k))
    steps[:, prog.src, prog.dest] = a
    steps[:, k] = prog.state_factors(a)
    entries = list(zip(names, steps))
    entries.insert(n, ("dispose-10", np.tile(0.9 * np.exp(log_ax),
                                             (k + 1, 1))))
    for name in sorted(include or {}):
        extra = include[name]
        entries.append((name, np.tile([extra.alpha[s] for s in spec.states],
                                      (k + 1, 1))))

    S = sample_paths(spec, length, paths, seed)
    lx = np.cumsum(log_ax[S], axis=1)
    growth_x = lx[:, -1] / length

    rows = []
    for name, step in entries:
        log_ay = np.log(_require_positive(step, f"competitor {name!r}"))
        ly = np.cumsum(np.hstack([log_ay[k, S[:, :1]],
                                  log_ay[S[:, :-1], S[:, 1:]]]), axis=1)
        rel = ly - lx
        growth_y = ly[:, -1] / length
        gap = growth_x - growth_y
        se = (float(gap.std(ddof=1)) / np.sqrt(paths)) if paths > 1 else 0.0

        run = np.maximum.accumulate(np.hstack([np.zeros((paths, 1)), rel]),
                                    axis=1)
        max_ratio = np.exp(run[:, -1])
        tail = length // 2
        stable = run[:, -1] <= run[:, length - tail]
        rows.append({
            "competitor": name,
            "mean_growth_strategy": float(growth_x.mean()),
            "mean_growth_competitor": float(growth_y.mean()),
            "mean_gap": float(gap.mean()),
            "se_gap": float(se),
            "mean_max_ratio": float(max_ratio.mean()),
            "worst_max_ratio": float(max_ratio.max()),
            "stabilized_fraction": float(stable.mean()),
        })

    # the stationary solver's log_growth: each transition's factor
    alpha = np.array([strategy.alpha[s] for s in spec.states])
    return DominanceReport(length=length, paths=paths, seed=seed,
                           strategy_growth=float(prog.growth(
                               alpha[prog.dest])),
                           rows=tuple(rows))


CHAINS = {
    "coin": MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]]),
    "regime3": MarkovSpec(["L", "M", "H"], [[0.8, 0.15, 0.05],
                                            [0.1, 0.8, 0.1],
                                            [0.05, 0.15, 0.8]]),
    "one-state": MarkovSpec(["S"], [[1.0]]),
    "skew": MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3),
}
# gross returns of assets 1 and 2 in the i-th state (asset 0 is cash)
RETURNS = [[2.0, 0.7], [0.5, 1.4], [1.6, 0.9]]


def _cone(family, i):
    r = [1.0, *RETURNS[i]]
    if family == "frictionless":
        return ConeSpec.frictionless(r)
    if family == "proportional_tc":
        return ConeSpec.proportional_tc(r, [0.01, 0.012, 0.008],
                                        [0.02, 0.018, 0.022])
    mu = np.array([[1.0, 1.1, 0.95], [0.95, 1.0, 1.1], [1.1, 0.95, 1.0]])
    mu[~np.eye(3, dtype=bool)] *= 1.0 + 0.03 * i
    return ConeSpec.currency(mu)


def _model(chain, family):
    spec = CHAINS[chain]
    table = ConeTable({f"*->{s}": _cone(family, i)
                       for i, s in enumerate(spec.states)})
    return spec, table


def _strategy(spec, table, x):
    """The balanced strategy holding ``x`` in every state, with the
    growth factors the program assigns it."""
    prog = _StationaryProgram(spec, table)
    alpha = prog.state_factors(prog.factors(np.tile(x, (spec.k, 1))))
    return BalancedStrategy(x={s: x for s in spec.states},
                            alpha={s: float(a)
                                   for s, a in zip(spec.states, alpha)})


def _assert_same(strat, spec, table, **kw):
    got = asymptotic_dominance(strat, spec, table, **kw)
    want = _dominance_loop(strat, spec, table, **kw)
    assert got.to_dict() == want.to_dict()
    assert got.to_csv() == want.to_csv()


@pytest.mark.parametrize("family",
                         ["frictionless", "proportional_tc", "currency"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_sweep_equals_loop(chain, family):
    spec, table = _model(chain, family)
    strat = _strategy(spec, table, np.array([0.5, 0.3, 0.2]))
    extra = {"tilted": _strategy(spec, table, np.array([0.2, 0.2, 0.6]))}
    for length in (1, 2, 3, 7, 500):
        for paths in (1, 2, 100):
            _assert_same(strat, spec, table, competitors=3, length=length,
                         paths=paths, seed=length + paths)
    for competitors in (0, 100):
        _assert_same(strat, spec, table, competitors=competitors,
                     length=500, paths=100, seed=7, include=extra)
        _assert_same(strat, spec, table, competitors=competitors,
                     length=7, paths=2, seed=8, include=extra)


def test_long_narrow_sweep_equals_loop():
    # one path, no random competitor: a few wide time slabs, and a
    # midpoint that falls inside the first slab's range
    spec, table = _model("regime3", "proportional_tc")
    strat = _strategy(spec, table, np.array([0.4, 0.4, 0.2]))
    for length in (20001, 50000):
        _assert_same(strat, spec, table, competitors=0, length=length,
                     paths=1, seed=3)


def test_identical_competitor_ties_exactly():
    spec, table = _model("coin", "frictionless")
    strat = _strategy(spec, table, np.array([0.5, 0.3, 0.2]))
    _assert_same(strat, spec, table, competitors=3, length=41, paths=9,
                 seed=2, include={"copy": strat})


def test_nonpositive_growth_factor_names_the_same_competitor():
    spec, table = _model("regime3", "frictionless")
    strat = _strategy(spec, table, np.array([0.5, 0.3, 0.2]))
    # BalancedStrategy rejects such factors, so stand-ins carry them
    dead = SimpleNamespace(alpha={**strat.alpha, "M": 0.0})
    nan = SimpleNamespace(alpha={**strat.alpha, "L": np.nan})
    cases = [
        # the first offender in row order is named
        ({"b-dead": dead, "a-nan": nan}, "competitor 'a-nan'"),
        ({"dead": dead}, "competitor 'dead'"),
    ]
    for include, who in cases:
        for fn in (asymptotic_dominance, _dominance_loop):
            with pytest.raises(ValueError, match=who):
                fn(strat, spec, table, competitors=2, length=10, paths=3,
                   include=include)
    for fn in (asymptotic_dominance, _dominance_loop):
        with pytest.raises(ValueError, match="the strategy"):
            fn(dead, spec, table, competitors=2, length=10, paths=3)


def _csv_per_row(report):
    """One ``writerow`` per competitor and statistic."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["competitor", "statistic", "value"])
    for row in report.rows:
        for key, val in row.items():
            if key != "competitor":
                writer.writerow([row["competitor"], key, repr(float(val))])
    return buf.getvalue()


def test_csv_equals_per_row_writer():
    spec, table = _model("coin", "proportional_tc")
    strat = _strategy(spec, table, np.array([0.5, 0.3, 0.2]))
    # a name with a comma, a quote and a line break must be quoted
    name = 'tilted, "b"\nnext'
    rep = asymptotic_dominance(
        strat, spec, table, competitors=2, length=20, paths=4, seed=1,
        include={name: _strategy(spec, table, np.array([0.2, 0.2, 0.6]))})
    assert rep.rows[-1]["competitor"] == name
    text = rep.to_csv()
    assert text == _csv_per_row(rep)
    assert '"tilted, ""b""\nnext"' in text
