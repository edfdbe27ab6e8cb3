"""The index-free tree Newton step against its gather/scatter reference.

``solver._TreeProgram`` indexes each edge group's children and parents
by basic slices where they are evenly spaced, and adds a node's child
terms from a ``(parents, c, ...)`` reshape view where every node of the
depth has ``c`` children (``scenario._child_sums``), falling back to
``np.add.reduceat``.  The gather/scatter assembly and the ``reduceat``
elimination it replaced are kept below verbatim as the reference.  On
fanout-2 trees the two must agree bit for bit: adding two children is
the same operation either way.  With three or more children ``reduceat``
adds in another order, so there they agree to rounding.
"""

import numpy as np
import pytest

from vngale import solver
from vngale.cones import ConeSpec, ConeTable, _least_price
from vngale.scenario import MarkovSpec, _child_sums, build_tree
from vngale.solver import (
    _BATCH_LAST_WIDTH,
    SolverError,
    _interior_start,
    _solve_batch_last,
    _TreeProgram,
    solve_tree_log_optimal,
)

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
SKEW3 = MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3)
# zero-probability transitions: A has 2 children, B one, C three
PRUNED = MarkovSpec(["A", "B", "C"],
                    [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]],
                    pi0=[0.5, 0.0, 0.5])
MU = np.array([[1.0, 0.9], [1.05, 1.0]])
RETURNS = {"U": [1.0, 1.6, 0.8], "D": [1.0, 0.7, 1.3],
           "A": [1.0, 1.3, 0.9], "B": [1.0, 0.8, 1.2], "C": [1.0, 1.1, 1.05]}


def frictionless(states, n=2):
    return ConeTable({f"*->{s}": ConeSpec.frictionless(RETURNS[s][:n])
                      for s in states})


def costly(states, n=2):
    return ConeTable({f"*->{s}": ConeSpec.proportional_tc(
        RETURNS[s][:n], 0.01 * (i + 1), 0.02) for i, s in enumerate(states)})


def currency():
    return ConeTable({"*->U": ConeSpec.currency(MU),
                      "*->D": ConeSpec.currency(MU.T)})


def pruned_table():
    return ConeTable({
        "*->A": ConeSpec.frictionless([1.0, 1.3, 0.9]),
        "*->B": ConeSpec.proportional_tc([1.0, 0.8, 1.2], 0.01, 0.02),
        "C->C": ConeSpec.frictionless([1.0, 1.1, 1.05]),
        "*->C": ConeSpec.proportional_tc([1.0, 0.95, 1.0], 0.02, 0.0),
    })


# (name, tree, table); every parent has two children
FANOUT2 = [
    ("coin-frictionless", build_tree(COIN, 4), frictionless("UD")),
    ("coin-costly-n3", build_tree(COIN, 4), costly("UD", 3)),
    ("coin-currency", build_tree(COIN, 3), currency()),
    ("coin-pinned", build_tree(COIN, 4, root_state="D"), costly("UD")),
    # depths of at least _BATCH_LAST_WIDTH[n] nodes
    ("coin-wide", build_tree(COIN, 7), frictionless("UD", 3)),
    ("coin-wide-costly", build_tree(COIN, 6), costly("UD")),
]
# three children somewhere: rounding may differ from reduceat
FANOUT3 = [
    ("skew3", build_tree(SKEW3, 4), costly("ABC")),
    ("skew3-wide", build_tree(SKEW3, 5), frictionless("ABC", 3)),
    ("skew3-pinned", build_tree(SKEW3, 4, root_state="B"),
     frictionless("ABC")),
    ("pruned", build_tree(PRUNED, 5), pruned_table()),
    ("pruned-pinned", build_tree(PRUNED, 4, root_state="B"), pruned_table()),
]
ALL = FANOUT2 + FANOUT3


def x0_for(table):
    return np.linspace(1.0, 0.5, table.n)


# ---------------------------------------------------------------------------
# the reference: gather/scatter assembly and reduceat elimination


def ref_assemble(self, Y, mu, objective=True):
    """``_TreeProgram._assemble`` with index arrays and ``reduceat``."""
    leaves = self.tree.leaves()
    n = self.n
    N = Y.shape[0]
    G = np.zeros((N, n))
    H = np.zeros((N, n, n))
    CP = np.zeros((N, n, n))  # rows: own variables, cols: parent x
    # each edge's parent-side terms, stored at its child
    PG, PH = np.zeros((N, n)), np.zeros((N, n * n))

    # coordinate barriers, weighted by node probability
    prob = self.tree.abs_prob
    idx = np.arange(n)
    mw = mu * prob[1:, None]
    G[1:] -= mw / Y[1:]
    H[1:, idx, idx] += mw / Y[1:] ** 2

    # terminal objective
    vals = (self.leaf_w * Y[leaves]).sum(axis=1)
    if objective:
        G[leaves] += (-self.leaf_prob / vals)[:, None] * self.leaf_w
    H[leaves] += (self.leaf_prob / vals ** 2)[:, None, None] \
        * self.leaf_ww

    rows = [Y[g.parents] @ g.Fa.T + Y[g.nodes] @ g.Fv.T for g in self.groups]
    for g, r in zip(self.groups, rows):
        u = 1.0 / (-r)  # positive
        mw = mu * prob[g.nodes, None]
        w = mw * u ** 2
        mu_u = mw * u
        PG[g.nodes] = mu_u @ g.Fa
        PH[g.nodes] = w @ g.FaFa
        G[g.nodes] += mu_u @ g.Fv
        H[g.nodes] += (w @ g.FvFv).reshape(-1, n, n)
        CP[g.nodes] = (w @ g.FvFa).reshape(-1, n, n)
    # each non-leaf node has >= 1 child: no reduceat range is empty
    starts = self.tree.first_child[:self.n_inner] - 1
    G[:self.n_inner] += np.add.reduceat(PG[1:], starts)
    H[:self.n_inner] += np.add.reduceat(PH[1:], starts).reshape(-1, n, n)
    return G, H, CP, vals, rows


def ref_solve_kkt_by_depth(self, G, H, CP):
    """``_TreeProgram._solve_kkt_by_depth`` with ``reduceat`` and the
    parent gather."""
    tree = self.tree
    N, n = G.shape
    ds, first_child = tree.depth_start, tree.first_child
    idx = np.arange(n)
    diag_max = np.maximum(H[1:, idx, idx].max(axis=1), tree.abs_prob[1:])
    H[1:, idx, idx] += 1e-14 * diag_max[:, None]

    sol = np.zeros((N, n, n + 1))
    wide = _BATCH_LAST_WIDTH.get(n, np.inf)
    for d in range(tree.horizon, 0, -1):
        vs = slice(ds[d], ds[d + 1])
        if ds[d + 1] - ds[d] >= wide:
            sol[vs] = _solve_batch_last(H[vs], G[vs], CP[vs], d)
        else:
            try:
                sol[vs] = np.linalg.solve(H[vs], np.concatenate(
                    [G[vs, :, None], CP[vs]], axis=2))
            except np.linalg.LinAlgError:
                raise SolverError("singular Newton system at depth "
                                  f"{d}") from None
        if d > 1:
            ps = slice(ds[d - 1], ds[d])
            schur = np.add.reduceat(
                CP[vs].transpose(0, 2, 1) @ sol[vs],
                first_child[ps] - ds[d])
            G[ps] -= schur[:, :, 0]
            H[ps] -= schur[:, :, 1:]

    delta = np.zeros((N, n))
    for d in range(1, tree.horizon + 1):
        vs = slice(ds[d], ds[d + 1])
        delta[vs] = -(sol[vs, :, 0] + (
            sol[vs, :, 1:] @ delta[tree.parent[vs], :, None])[:, :, 0])
    per_node = np.einsum("vi,vi->v", G[1:], sol[1:, :, 0])
    return (delta, float(per_node.sum()),
            float((per_node / tree.abs_prob[1:]).max()))


def iterates(tree, table, objective="wealth"):
    """``(prog, Y, mu)`` along a short solve: the interior start, then
    Newton and predictor steps over three barrier weights."""
    prog = _TreeProgram(tree, table, x0_for(table), objective)
    Y = _interior_start(tree, prog.groups, x0_for(table))
    for mu in (1.0, 1e-2, 1e-4):
        for _ in range(2):
            yield prog, Y, mu
            Y = prog.newton_step(Y, mu)[0]
        Y = prog.predictor_step(Y, mu, mu * 1e-2)


def both_steps(prog, Y, mu, objective):
    """The Newton system and direction by the solver and the reference."""
    out = []
    for assemble, solve in ((prog._assemble, prog._solve_kkt_by_depth),
                            (lambda *a: ref_assemble(prog, *a),
                             lambda *a: ref_solve_kkt_by_depth(prog, *a))):
        G, H, CP, vals, rows = assemble(Y, mu, objective)
        system = [a.copy() for a in (G, H, CP, vals)] + rows
        out.append((system, solve(G, H, CP)))
    return out


def relative_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("objective", [True, False])
@pytest.mark.parametrize("name, tree, table", FANOUT2,
                         ids=[c[0] for c in FANOUT2])
def test_fanout2_step_is_bit_identical(name, tree, table, objective):
    for prog, Y, mu in iterates(tree, table):
        (got, (dY, dec, worst)), (ref, (ref_dY, ref_dec, ref_worst)) = (
            both_steps(prog, Y, mu, objective))
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
        assert np.array_equal(dY, ref_dY)
        assert (dec, worst) == (ref_dec, ref_worst)


@pytest.mark.parametrize("objective", [True, False])
@pytest.mark.parametrize("name, tree, table", FANOUT3,
                         ids=[c[0] for c in FANOUT3])
def test_fanout3_step_agrees_to_rounding(name, tree, table, objective):
    for prog, Y, mu in iterates(tree, table, "liquidation"):
        (got, (dY, dec, worst)), (ref, (ref_dY, ref_dec, ref_worst)) = (
            both_steps(prog, Y, mu, objective))
        for a, b in zip(got, ref):
            assert relative_gap(a, b) <= 1e-12
        assert relative_gap(dY, ref_dY) <= 1e-12
        assert dec == pytest.approx(ref_dec, rel=1e-12)
        assert worst == pytest.approx(ref_worst, rel=1e-12)


@pytest.mark.parametrize("root", [None, "B"])
@pytest.mark.parametrize("table", [costly("ABC"), costly("ABC", 3),
                                   frictionless("ABC", 3)],
                         ids=["costly-n2", "costly-n3", "frictionless-n3"])
def test_fanout3_solve_agrees_to_rounding(table, root, monkeypatch):
    tree = build_tree(SKEW3, 5, root_state=root)
    res = solve_tree_log_optimal(tree, table, x0_for(table))
    monkeypatch.setattr(_TreeProgram, "_assemble", ref_assemble)
    monkeypatch.setattr(_TreeProgram, "_solve_kkt_by_depth",
                        ref_solve_kkt_by_depth)
    ref = solve_tree_log_optimal(tree, table, x0_for(table))
    assert res.iterations == ref.iterations
    assert res.objective == pytest.approx(ref.objective, rel=1e-13)
    # frictionless leaves value only their wealth, so how a frictionless
    # plan splits it is fixed only to the barrier's accuracy
    assert relative_gap(res.plan.x.sum(axis=1),
                        ref.plan.x.sum(axis=1)) <= 1e-12
    if table.resolve("A", "A").family != "frictionless":
        assert relative_gap(res.plan.x, ref.plan.x) <= 1e-12


# ---------------------------------------------------------------------------
# the slices and the child sums


@pytest.mark.parametrize("name, tree, table", ALL, ids=[c[0] for c in ALL])
def test_slices_select_the_group_ids(name, tree, table):
    prog = _TreeProgram(tree, table, x0_for(table), "wealth")
    ids = np.arange(tree.n_nodes)
    for g in prog.groups:
        assert np.array_equal(ids[g.at], g.nodes)
        assert np.array_equal(ids[g.at_parent], g.parents)
    assert np.array_equal(ids[prog.leaves], tree.leaves())


@pytest.mark.parametrize("spec, c", [(COIN, 2), (SKEW3, 3)])
def test_dense_chain_groups_are_strided_slices(spec, c):
    # edges into state v are every c-th id from 1 + v; their parents are
    # every non-leaf node
    tree = build_tree(spec, 4)
    table = frictionless(spec.states)
    prog = _TreeProgram(tree, table, x0_for(table), "wealth")
    N = tree.n_nodes
    assert [g.at for g in prog.groups] == [slice(1 + v, N - c + 1 + v, c)
                                           for v in range(c)]
    assert all(g.at_parent == slice(0, prog.n_inner, 1)
               for g in prog.groups)
    assert prog.leaves == slice(prog.n_inner, N)


def test_uneven_ids_stay_index_arrays():
    table = pruned_table()
    prog = _TreeProgram(build_tree(PRUNED, 4), table, x0_for(table),
                        "wealth")
    assert all(type(g.at) is type(g.at_parent) is np.ndarray
               for g in prog.groups)
    # pinned at B, the root has one child: the C->C edges are evenly
    # spaced, their parents are not
    prog = _TreeProgram(build_tree(PRUNED, 4, root_state="B"), table,
                        x0_for(table), "wealth")
    assert {type(g.at_parent) for g in prog.groups} == {slice, np.ndarray}


def child_sums_by_loop(S, counts):
    out, start = [], 0
    for c in counts:
        acc = S[start]
        for j in range(1, c):
            acc = acc + S[start + j]
        out.append(acc)
        start += c
    return np.array(out)


@pytest.mark.parametrize("spec, root", [(COIN, None), (SKEW3, None),
                                        (SKEW3, "B"), (PRUNED, None),
                                        (PRUNED, "B")])
def test_child_sums_take_the_branch_of_the_depth(spec, root):
    tree = build_tree(spec, 4, root_state=root)
    ds = tree.depth_start
    rng = np.random.default_rng(tree.n_nodes)
    S = rng.standard_normal((tree.n_nodes, 3, 2)) * np.exp(
        rng.uniform(-20, 20, (tree.n_nodes, 1, 1)))

    def expected(lo, hi):
        counts = tree.n_children[lo:hi]
        kids = S[tree.first_child[lo]:tree.first_child[hi - 1] + counts[-1]]
        if (tree.n_children[ds[tree.depth[lo]]:ds[tree.depth[hi - 1] + 1]]
                == counts[0]).all():
            return child_sums_by_loop(kids, counts)
        return np.add.reduceat(kids, tree.first_child[lo:hi]
                               - tree.first_child[lo])

    inner = ds[tree.horizon]
    assert np.array_equal(_child_sums(tree, S[1:], 0, inner),
                          expected(0, inner))
    for d in range(tree.horizon):
        lo, hi = ds[d], ds[d + 1]
        got = _child_sums(tree, S[hi:ds[d + 2]], lo, hi)
        assert np.array_equal(got, expected(lo, hi))
        # one node at a time takes its depth's branch: the same bits
        for v in range(lo, hi):
            one = _child_sums(tree, S[tree.children(v)], v, v + 1)
            assert np.array_equal(one[0], got[v - lo])


def test_depth_fanout_reads_shared_child_counts():
    # the root B has one child (C), C has three, then counts differ
    tree = build_tree(PRUNED, 4, root_state="B")
    assert tree._depth_fanout.tolist() == [1, 3, 0, 0]
    assert build_tree(SKEW3, 3)._depth_fanout.tolist() == [3, 3, 3]


def test_newton_step_runs_both_child_sum_branches(monkeypatch):
    fanouts = set()

    def record(tree, S, lo, hi):
        fanouts.update(tree._depth_fanout[tree.depth[lo]:
                                          tree.depth[hi - 1] + 1].tolist())
        return _child_sums(tree, S, lo, hi)

    monkeypatch.setattr(solver, "_child_sums", record)
    tree = build_tree(PRUNED, 4, root_state="B")
    table = pruned_table()
    prog = _TreeProgram(tree, table, x0_for(table), "wealth")
    prog.newton_step(_interior_start(tree, prog.groups, x0_for(table)), 1.0)
    assert 0 in fanouts and 3 in fanouts


# ---------------------------------------------------------------------------
# the least prices and the certificate's expectations


@pytest.mark.parametrize("name, tree, table", FANOUT3,
                         ids=[c[0] for c in FANOUT3])
def test_least_prices_meet_the_dual_rows_exactly(name, tree, table):
    res = solve_tree_log_optimal(tree, table, x0_for(table))
    dual = res.dual
    rows = dual.expected_next_rows()
    for v in range(1, tree.n_nodes):
        assert np.array_equal(rows[v], dual.expected_next(v))
        G = table.resolve(*tree.transition_label(v)).exchange
        assert np.array_equal(dual.prices[v], _least_price(G, rows[v]))
