"""`build_tree` against a reference two-phase builder.

The reference lays out depth 1 from the first-observation law, then each
deeper depth from per-state support lists, as the builder did before it
became one loop over depths.  Every array of the tree must match it
exactly (dtype, values, read-only flag), and so must node-limit errors.
"""

import numpy as np
import pytest

from vngale.scenario import MarkovSpec, build_tree

FIELDS = ("parent", "depth", "state", "cond_prob", "abs_prob",
          "first_child", "n_children", "depth_start")


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _two_phase_tree(spec, horizon, node_limit, root_state=None):
    """The tree's arrays by name, built depth 1 first, then per state."""
    k = spec.k
    support = [np.flatnonzero(spec.P[s] > 0.0) for s in range(k)]
    sup_n = np.array([s.size for s in support])

    root_idx = -1 if root_state is None else spec.state_index(root_state)
    first_law = spec.pi0 if root_state is None else spec.P[root_idx]

    parent = [np.array([-1])]
    state = [np.array([root_idx])]
    cond = [np.array([1.0])]
    absp = [np.array([1.0])]
    depth_start = [0, 1]
    total = 1

    init = np.flatnonzero(first_law > 0.0)
    parent.append(np.zeros(init.size, dtype=int))
    state.append(init)
    cond.append(first_law[init])
    absp.append(first_law[init])
    total += init.size
    depth_start.append(total)
    if total > node_limit:
        raise ValueError(f"node limit exceeded: {total} > {node_limit}")

    for _ in range(2, horizon + 1):
        ids = np.arange(depth_start[-2], depth_start[-1])
        sd = state[-1]
        counts = sup_n[sd]
        new_total = total + int(counts.sum())
        if new_total > node_limit:
            raise ValueError(
                f"node limit exceeded: {new_total} > {node_limit}"
            )
        par = np.repeat(ids, counts)
        st = (np.concatenate([support[s] for s in sd]) if sd.size
              else np.zeros(0, dtype=int))
        cp = spec.P[np.repeat(sd, counts), st]
        ap = np.repeat(absp[-1], counts) * cp
        parent.append(par)
        state.append(st)
        cond.append(cp)
        absp.append(ap)
        total = new_total
        depth_start.append(total)

    parent = np.concatenate(parent)
    state = np.concatenate(state)
    cond = np.concatenate(cond)
    absp = np.concatenate(absp)
    n = parent.size

    kids = parent[1:]
    first = np.flatnonzero(np.diff(kids, prepend=-1))
    first_child = np.full(n, n, dtype=int)
    first_child[kids[first]] = first + 1
    n_children = np.bincount(kids, minlength=n)

    depth = np.zeros(n, dtype=int)
    for d in range(len(depth_start) - 1):
        depth[depth_start[d]: depth_start[d + 1]] = d
    for arr in (parent, depth, state, cond, absp, first_child, n_children):
        arr.flags.writeable = False
    return dict(parent=parent, depth=depth, state=state, cond_prob=cond,
                abs_prob=absp, first_child=first_child,
                n_children=n_children,
                depth_start=_readonly(depth_start, dtype=int))


def _random_spec(rng):
    """A chain with about 40% of its transitions and 30% of its start
    law pruned to zero (every row keeps at least one entry)."""
    k = int(rng.integers(1, 6))
    P = rng.dirichlet(np.ones(k), size=k)
    P[rng.random((k, k)) < 0.4] = 0.0
    empty = P.sum(axis=1) == 0.0
    P[empty, rng.integers(k, size=int(empty.sum()))] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    pi0 = rng.dirichlet(np.ones(k))
    pi0[rng.random(k) < 0.3] = 0.0
    if pi0.sum() == 0.0:
        pi0[rng.integers(k)] = 1.0
    pi0 /= pi0.sum()
    return MarkovSpec([f"s{i}" for i in range(k)], P, pi0)


def _assert_same(spec, horizon, node_limit, root_state):
    try:
        want, want_err = _two_phase_tree(spec, horizon, node_limit,
                                         root_state), None
    except ValueError as exc:
        want, want_err = None, str(exc)
    if want_err is not None:
        with pytest.raises(ValueError) as exc:
            build_tree(spec, horizon, node_limit, root_state)
        assert str(exc.value) == want_err
        return False
    tree = build_tree(spec, horizon, node_limit, root_state)
    for name in FIELDS:
        got, ref = getattr(tree, name), want[name]
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name
        assert got.flags.writeable == ref.flags.writeable, name
    return True


@pytest.mark.parametrize("seed", range(5))
def test_random_pruned_chains_match_the_two_phase_builder(seed):
    rng = np.random.default_rng(seed)
    built = limited = 0
    for _ in range(100):
        spec = _random_spec(rng)
        root = None if rng.random() < 0.5 \
            else spec.states[int(rng.integers(spec.k))]
        ok = _assert_same(spec, int(rng.integers(1, 7)),
                          int(rng.integers(3, 500)), root)
        built += ok
        limited += not ok
    # both outcomes are exercised
    assert built > 0 and limited > 0


@pytest.mark.parametrize("root", [None, "U", "D"])
def test_coin_trees_match_the_two_phase_builder(root):
    spec = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])
    for horizon in (1, 2, 11):
        assert _assert_same(spec, horizon, 10 ** 6, root)
    # the limit falls on depth 1, and on a deeper depth
    assert not _assert_same(spec, 3, 2, root)
    assert not _assert_same(spec, 3, 10, root)
