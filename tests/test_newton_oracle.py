"""The primal Newton step against dense and per-node references.

``solver._TreeProgram.newton_step`` assembles the barrier Hessian with
one matrix product per edge group, sums each edge's parent-side terms
over the parent's consecutive child range, and eliminates the tree one
depth slice at a time.  Here the same Newton system is written out
densely, one edge at a time from its cone's facet rows, and solved whole.
The set-up that feeds the step (the tree layout, the edge groups and
the interior start) is checked against the per-node loops it replaced,
kept here as the reference.  Depths of at least ``_BATCH_LAST_WIDTH``
nodes are solved by the batch-last Gauss-Jordan kernel, which is also
checked on its own against ``np.linalg.solve``.
"""

import numpy as np
import pytest

from vngale import solver
from vngale.cones import (
    ConeSpec,
    ConeTable,
    _by_depth,
    _group_edges,
    boundary_scale,
    wealth_weights,
)
from vngale.scenario import MarkovSpec, build_tree
from vngale.solver import (
    _BATCH_LAST_WIDTH,
    SolverError,
    _interior_start,
    _solve_batch_last,
    _TreeProgram,
)

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
# zero-probability transitions: A has 2 children, B one, C three
PRUNED = MarkovSpec(["A", "B", "C"],
                    [[0.6, 0.4, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]],
                    pi0=[0.5, 0.0, 0.5])

MU = np.array([[1.0, 0.9], [1.05, 1.0]])


def frictionless():
    return ConeTable({"*->U": ConeSpec.frictionless([1.0, 1.6]),
                      "*->D": ConeSpec.frictionless([1.0, 0.7])})


def costly():
    return ConeTable({
        "*->U": ConeSpec.proportional_tc([1.0, 1.6], [0.02, 0.03], 0.04),
        "*->D": ConeSpec.proportional_tc([1.0, 0.7], 0.01, [0.0, 0.05]),
    })


def currency():
    return ConeTable({"*->U": ConeSpec.currency(MU),
                      "*->D": ConeSpec.currency(MU.T)})


def mixed():
    # currency facet rows on U edges, budget rows on D edges
    return ConeTable({"*->U": ConeSpec.currency(MU),
                      "*->D": ConeSpec.proportional_tc([1.0, 0.7], 0.01,
                                                       0.02)})


def exact_over_wildcard():
    # U -> D must resolve to its own key, not to *->D
    return ConeTable({
        "*->U": ConeSpec.frictionless([1.0, 1.6]),
        "*->D": ConeSpec.frictionless([1.0, 0.7]),
        "U->D": ConeSpec.proportional_tc([1.0, 0.8], 0.02, 0.03),
    })


def pruned_table():
    return ConeTable({
        "*->A": ConeSpec.frictionless([1.0, 1.3, 0.9]),
        "*->B": ConeSpec.proportional_tc([1.0, 0.8, 1.2], 0.01, 0.02),
        "C->C": ConeSpec.frictionless([1.0, 1.1, 1.05]),
        "*->C": ConeSpec.proportional_tc([1.0, 0.95, 1.0], 0.02, 0.0),
    })


# (name, tree, table); every tree has 7-143 nodes
CASES = [
    ("frictionless", build_tree(COIN, 3), frictionless()),
    ("proportional_tc", build_tree(COIN, 3), costly()),
    ("currency", build_tree(COIN, 2), currency()),
    ("mixed", build_tree(COIN, 3), mixed()),
    ("pinned-root", build_tree(COIN, 3, root_state="D"), costly()),
    ("exact-key", build_tree(COIN, 4, root_state="U"),
     exact_over_wildcard()),
    ("pruned", build_tree(PRUNED, 4), pruned_table()),
    ("pruned-pinned", build_tree(PRUNED, 3, root_state="B"),
     pruned_table()),
    # depths of at least _BATCH_LAST_WIDTH[n] nodes: the batch-last kernel
    ("frictionless-wide", build_tree(COIN, 6), frictionless()),
    ("proportional_tc-wide", build_tree(COIN, 6), costly()),
    ("pruned-wide", build_tree(PRUNED, 6), pruned_table()),
]
IDS = [c[0] for c in CASES]
WIDE = [c for c in CASES if c[0].endswith("-wide")]


def x0_for(table):
    return np.linspace(1.0, 0.5, table.n)


# ---------------------------------------------------------------------------
# tree layout


def _children_by_loop(parent):
    n = parent.size
    first_child = np.full(n, n, dtype=int)
    n_children = np.zeros(n, dtype=int)
    for v in range(n - 1, 0, -1):
        first_child[parent[v]] = v
    np.add.at(n_children, parent[1:], 1)
    return first_child, n_children


def test_child_ranges_match_the_loop():
    rng = np.random.default_rng(11)
    trees = [tree for _, tree, _ in CASES]
    for k in (1, 2, 4):
        P = rng.dirichlet(np.ones(k), size=k)
        P[P < 0.3] = 0.0  # prune, keeping each row's largest entry
        P[np.arange(k), rng.integers(0, k, k)] += 0.05
        P /= P.sum(axis=1, keepdims=True)
        spec = MarkovSpec([str(i) for i in range(k)], P)
        trees += [build_tree(spec, 4), build_tree(spec, 3, root_state="0")]
    for tree in trees:
        first_child, n_children = _children_by_loop(tree.parent)
        assert np.array_equal(tree.first_child, first_child)
        assert np.array_equal(tree.n_children, n_children)
        inner = tree.depth_start[tree.horizon]
        assert (tree.n_children[:inner] >= 1).all()
        assert (tree.n_children[inner:] == 0).all()
        assert not tree.first_child.flags.writeable
        assert not tree.n_children.flags.writeable
    pruned = build_tree(PRUNED, 3, root_state="B")
    assert set(pruned.n_children[1:pruned.depth_start[3]]) == {1, 2, 3}


# ---------------------------------------------------------------------------
# edge groups and the interior start


@pytest.mark.parametrize("name, tree, table", CASES, ids=IDS)
def test_edge_groups_partition_by_resolved_cone(name, tree, table):
    groups = _group_edges(tree, table)
    expected = [table.resolve(*tree.transition_label(v))
                for v in range(1, tree.n_nodes)]
    ids = np.arange(tree.n_nodes)
    seen = np.zeros(tree.n_nodes, dtype=int)
    for g in groups:
        assert np.array_equal(g.nodes, np.sort(g.nodes))
        assert np.array_equal(g.parents, tree.parent[g.nodes])
        assert all(expected[v - 1] is g.cone for v in g.nodes)
        assert np.array_equal(ids[g.at], g.nodes)
        assert np.array_equal(ids[g.at_parent], g.parents)
        seen[g.nodes] += 1
    assert seen[0] == 0 and (seen[1:] == 1).all()
    assert len({id(g.cone) for g in groups}) == len(groups)

    # the per-depth cut: depth d's ids, each once, in pieces taken in
    # group order, each piece its group's edges into depth d
    ds = tree.depth_start
    by_depth = _by_depth(tree, groups)
    assert len(by_depth) == tree.horizon
    gathered = False
    for d, parts in enumerate(by_depth, 1):
        into = [(g, (g.nodes >= ds[d]) & (g.nodes < ds[d + 1]))
                for g in groups]
        into = [(g, at_d) for g, at_d in into if at_d.any()]
        assert len(parts) == len(into)
        for p, (g, at_d) in zip(parts, into):
            assert p.cone is g.cone
            assert p.Fa is g.Fa and p.FaFa is g.FaFa  # shared tables
            assert np.array_equal(p.nodes, g.nodes[at_d])
            assert np.array_equal(p.parents, g.parents[at_d])
            assert np.array_equal(ids[p.at], p.nodes)
            assert np.array_equal(ids[p.at_parent], p.parents)
            gathered |= not (isinstance(p.at, slice)
                             and isinstance(p.at_parent, slice))
        assert np.array_equal(np.sort(np.concatenate([p.nodes
                                                      for p in parts])),
                              np.arange(ds[d], ds[d + 1]))
    if name in ("pruned", "pruned-wide"):
        # uneven child counts leave some piece an id array: the
        # rollout's gather path
        assert gathered


def _interior_start_by_node(tree, table, x0):
    n = x0.size
    Y = np.ones((tree.n_nodes, n))
    Y[0] = x0
    ones = np.ones(n)
    for v in range(1, tree.n_nodes):
        cone = table.resolve(*tree.transition_label(v))
        k = (tree.horizon - tree.depth[v] + 1) * (n + 1)
        t = k / (k + 1) * boundary_scale(cone, Y[tree.parent[v]], ones)
        if t <= 0:
            raise SolverError("cannot construct interior start "
                              f"(zero growth at node {v})")
        Y[v] = t * ones
    return Y


@pytest.mark.parametrize("name, tree, table", CASES, ids=IDS)
def test_interior_start_matches_the_loop(name, tree, table):
    x0 = x0_for(table)
    groups = _group_edges(tree, table)
    Y = _interior_start(tree, groups, x0)
    ref = _interior_start_by_node(tree, table, x0)
    assert np.array_equal(Y, ref)
    assert (Y[1:] > 0).all()
    for g in groups:
        assert (g.residual_rows(Y) < 0).all()


def test_zero_growth_names_the_first_failing_node():
    # D edges cannot sell and the start holds none of asset 1, so there
    # is no room to grow toward (1, 1): node 2, the first D node, fails
    table = ConeTable({"*->U": ConeSpec.frictionless([1.0, 1.5]),
                       "*->D": ConeSpec.proportional_tc([1.0, 1.0],
                                                        0.0, 1.0)})
    for tree in (build_tree(COIN, 2), build_tree(COIN, 3, root_state="U")):
        x0 = np.array([1.0, 0.0])
        with pytest.raises(SolverError) as ref:
            _interior_start_by_node(tree, table, x0)
        with pytest.raises(SolverError) as got:
            _interior_start(tree, _group_edges(tree, table), x0)
        assert str(got.value) == str(ref.value)
        assert "at node 2)" in str(got.value)


# ---------------------------------------------------------------------------
# the Newton direction against the dense system


def _dense_newton(tree, table, Y, mu, objective):
    """Gradient and Hessian of the barrier over all non-root node
    variables, written edge by edge, with the solver's relative ridge;
    node ``v``'s coordinate and edge-row logs carry its probability.
    Returns the Newton direction, the decrement and the largest node
    term over the node's probability.  Node ``v``'s term is what its
    subtree's decrement adds to its children's subtrees' (they couple
    only through ``v``), i.e. its block's term once the subtrees below
    are eliminated."""
    n = table.n
    N = tree.n_nodes
    g = np.zeros((N - 1) * n)
    H = np.zeros((g.size, g.size))

    def cols(v):
        return np.arange((v - 1) * n, v * n)

    for v in range(1, N):
        cone = table.resolve(*tree.transition_label(v))
        C, D = cone.facets
        Fa, Fv = -C, D
        own = cols(v)
        mw = mu * tree.abs_prob[v]
        g[own] -= mw / Y[v]
        H[own, own] += mw / Y[v] ** 2
        u = tree.parent[v]
        r = Fa @ Y[u] + Fv @ Y[v]
        for row in range(r.size):
            if u == 0:  # the root portfolio is fixed
                idx, coef = own, Fv[row]
            else:
                idx = np.concatenate([cols(u), own])
                coef = np.concatenate([Fa[row], Fv[row]])
            g[idx] += mw / -r[row] * coef
            H[np.ix_(idx, idx)] += mw / r[row] ** 2 * np.outer(coef, coef)
        if tree.depth[v] == tree.horizon:
            w = wealth_weights(cone, objective)
            val = w @ Y[v]
            p = tree.abs_prob[v]
            g[own] -= p / val * w
            H[np.ix_(own, own)] += p / val ** 2 * np.outer(w, w)
    for v in range(1, N):
        own = cols(v)
        H[own, own] += 1e-14 * max(H[own, own].max(), tree.abs_prob[v])
    delta = np.linalg.solve(H, -g)

    subtree = {}
    decrement = {}
    worst = 0.0
    for v in range(N - 1, 0, -1):
        kids = [c for c in range(v + 1, N) if tree.parent[c] == v]
        subtree[v] = np.concatenate([cols(v)] + [subtree[c] for c in kids])
        S = subtree[v]
        decrement[v] = g[S] @ np.linalg.solve(H[np.ix_(S, S)], g[S])
        term = decrement[v] - sum(decrement[c] for c in kids)
        worst = max(worst, term / tree.abs_prob[v])
    return delta.reshape(N - 1, n), float(-g @ delta), worst


@pytest.mark.parametrize("objective", ["wealth", "liquidation"])
@pytest.mark.parametrize("name, tree, table", CASES, ids=IDS)
def test_newton_direction_matches_dense_solve(name, tree, table, objective):
    x0 = x0_for(table)
    prog = _TreeProgram(tree, table, x0, objective)
    Y = _interior_start(tree, prog.groups, x0)
    solve_by_depth = prog._solve_kkt_by_depth
    steps = []

    def record(G, H, CP):
        out = solve_by_depth(G, H, CP)
        steps.append(out)
        return out

    prog._solve_kkt_by_depth = record
    for mu in (1.0, 1e-1, 1e-2):
        for _ in range(3):
            Y_next, dec, worst = prog.newton_step(Y, mu)
            dY, dec_tree, worst_tree = steps[-1]
            assert (dec, worst) == (dec_tree, worst_tree)
            ref, ref_dec, ref_worst = _dense_newton(tree, table, Y, mu,
                                                    objective)
            assert np.abs(dY[0]).max() == 0.0
            scale = np.abs(ref).max()
            assert np.abs(dY[1:] - ref).max() <= 1e-9 * scale
            assert dec == pytest.approx(ref_dec, rel=1e-9)
            assert worst == pytest.approx(ref_worst, rel=1e-9)
            Y = Y_next


# ---------------------------------------------------------------------------
# the batch-last kernel against LAPACK


def _spd_stack(rng, k, n):
    M = rng.standard_normal((k, n, n))
    H = M @ M.transpose(0, 2, 1) + 0.5 * np.eye(n)
    return H, rng.standard_normal((k, n)), rng.standard_normal((k, n, n))


@pytest.mark.parametrize("n", range(1, 7))
def test_batch_last_kernel_matches_lapack(n):
    rng = np.random.default_rng(n)
    w = _BATCH_LAST_WIDTH[n]
    for k in (1, w - 1, w, 2 * w + 3):
        H, G, CP = _spd_stack(rng, k, n)
        ref = np.linalg.solve(H, np.concatenate([G[:, :, None], CP], axis=2))
        got = _solve_batch_last(H.copy(), G.copy(), CP.copy(), 4)
        assert got.shape == (k, n, n + 1)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("bad", ["zero-first", "zero-later", "nan"])
def test_batch_last_kernel_names_the_singular_depth(bad):
    rng = np.random.default_rng(7)
    H, G, CP = _spd_stack(rng, 40, 3)
    if bad == "zero-first":
        H[17, 0, :] = H[17, :, 0] = 0.0
    elif bad == "zero-later":  # rows 0 and 1 equal: the second pivot is 0
        H[17] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    else:
        H[17, 1, 1] = np.nan
    with pytest.raises(SolverError, match="singular Newton system at depth "
                                          "5$"):
        _solve_batch_last(H, G, CP, 5)


@pytest.mark.parametrize("name, tree, table", WIDE,
                         ids=[c[0] for c in WIDE])
def test_kernel_solves_the_wide_depths_only(name, tree, table, monkeypatch):
    widths = []

    def record(H, G, CP, depth):
        widths.append((depth, len(G)))
        return _solve_batch_last(H, G, CP, depth)

    monkeypatch.setattr(solver, "_solve_batch_last", record)
    x0 = x0_for(table)
    prog = _TreeProgram(tree, table, x0, "wealth")
    prog.newton_step(_interior_start(tree, prog.groups, x0), 1.0)
    sizes = np.diff(tree.depth_start)
    wide = sizes >= _BATCH_LAST_WIDTH[table.n]
    assert widths == [(d, sizes[d]) for d in range(tree.horizon, 0, -1)
                      if wide[d]]
    assert wide[1:].any() and not wide[1:].all()  # both branches run
