"""The random competitors' directions, drawn one Dirichlet call per chunk.

``certify._competitor_plans`` draws the directions of a chunk's random
plans with one ``rng.dirichlet(alpha, size=(plans, nodes))`` call.  The
reference is one ``rng.dirichlet(np.ones(n), size=nodes)`` call per
plan, in plan order: the directions must be equal and the generator
must be left in the same state, with several plans per chunk and with
one plan per chunk.
"""

import numpy as np
import pytest

from vngale import certify
from vngale.cones import ConeSpec, ConeTable, _group_edges
from vngale.plans import ContingentPlan
from vngale.scenario import MarkovSpec, build_tree

COIN = MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]])


def coin_cones(n):
    up = [1.0] + [1.2 + 0.1 * i for i in range(n - 1)]
    down = [1.0] + [0.8 - 0.05 * i for i in range(n - 1)]
    return ConeTable({"*->U": ConeSpec.frictionless(up),
                      "*->D": ConeSpec.frictionless(down)})


def drawn_directions(monkeypatch, n, horizon, count, seed):
    """Every chunk's directions as rolled, the plans per chunk, and the
    generator ``_competitor_plans`` drew them from."""
    tree = build_tree(COIN, horizon)
    cones = coin_cones(n)
    plan = ContingentPlan(tree, np.full((tree.n_nodes, n), 1.0 / n))
    chunks, rngs = [], []
    real_rng = np.random.default_rng

    def keep_rng(*args, **kwargs):
        rngs.append(real_rng(*args, **kwargs))
        return rngs[-1]

    def keep_dirs(x0, dirs, by_depth):
        chunks.append(dirs.copy())
        return dirs  # the rollout itself is not under test

    monkeypatch.setattr(np.random, "default_rng", keep_rng)
    monkeypatch.setattr(certify, "_roll", keep_dirs)
    for _ in certify._competitor_plans(plan, _group_edges(tree, cones),
                                       count, seed):
        pass
    (rng,) = rngs
    return tree, chunks, rng


@pytest.mark.parametrize("n, horizon, count, seed, per_chunk", [
    (3, 4, 40, 5, "several"),    # 31 nodes: many plans per chunk
    (2, 15, 3, 11, "one"),       # 65535 nodes x 2 assets > _CHUNK_ELEMENTS
])
def test_chunked_draw_matches_per_plan_draws(monkeypatch, n, horizon, count,
                                             seed, per_chunk):
    tree, chunks, rng = drawn_directions(monkeypatch, n, horizon, count,
                                         seed)
    N = tree.n_nodes
    if per_chunk == "one":
        assert N * n > certify._CHUNK_ELEMENTS
        assert [c.shape[0] for c in chunks] == [1] * (n + count)
    else:
        assert len(chunks) < n + count
        assert max(c.shape[0] for c in chunks) > 1
    dirs = np.concatenate(chunks)
    assert dirs.shape == (n + count, N, n)
    for i in range(n):
        assert np.array_equal(dirs[i], np.broadcast_to(np.eye(n)[i], (N, n)))

    ref = np.random.default_rng(seed)
    for k in range(count):
        assert np.array_equal(dirs[n + k],
                              ref.dirichlet(np.ones(n), size=N))
    assert rng.bit_generator.state == ref.bit_generator.state
