"""``sample_paths`` steps all paths at once; the per-path loop it
replaced is kept here as the reference and must give identical arrays."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vngale.scenario import (MarkovSpec, _PATH_CHUNK_ELEMENTS,
                             sample_paths)


def _sample_paths_loop(spec, length, count, seed):
    """One path at a time, one ``searchsorted`` per step."""
    k = spec.k
    cum0 = np.cumsum(spec.pi0)
    cumP = np.cumsum(spec.P, axis=1)
    out = np.empty((count, length), dtype=np.int64)
    base = np.uint64(seed & (2 ** 64 - 1))
    for i in range(count):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([base, np.uint64(i)],
                                          dtype=np.uint64)))
        u = gen.random(length)
        s = min(int(np.searchsorted(cum0, u[0] * cum0[-1], side="right")),
                k - 1)
        out[i, 0] = s
        for t in range(1, length):
            row = cumP[s]
            s = min(int(np.searchsorted(row, u[t] * row[-1], side="right")),
                    k - 1)
            out[i, t] = s
    return out


def _weights(k):
    w = np.random.default_rng(k).random((k, k))
    w[w < 1.0 / 3] = 0.0
    w[np.arange(k), np.arange(k)] += 0.1
    return w / w.sum(axis=1, keepdims=True)


CHAINS = {
    "one-state": MarkovSpec(["S"], [[1.0]]),
    "coin": MarkovSpec(["U", "D"], [[0.5, 0.5], [0.5, 0.5]]),
    # zero-probability transitions, an absorbing state and a start law
    # that never picks the first state
    "sparse": MarkovSpec(["A", "B", "C", "D"],
                         [[0.0, 1.0, 0.0, 0.0],
                          [0.5, 0.0, 0.5, 0.0],
                          [0.0, 0.0, 0.0, 1.0],
                          [0.0, 0.0, 0.0, 1.0]],
                         pi0=[0.0, 0.5, 0.5, 0.0]),
    "skew": MarkovSpec(["A", "B", "C"], [[0.98, 0.01, 0.01]] * 3),
    # eight states, about a third of the transitions impossible
    "eight": MarkovSpec([f"s{i}" for i in range(8)], _weights(8)),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("seed", [0, 11, -1, 2 ** 63, 2 ** 63 + 12345,
                                  2 ** 64 - 1, 2 ** 70 + 3])
def test_vectorized_paths_equal_loop(name, seed):
    spec = CHAINS[name]
    for length, count in [(1, 1), (1, 7), (60, 1), (60, 25)]:
        got = sample_paths(spec, length, count, seed)
        assert got.dtype == np.int64 and got.shape == (count, length)
        np.testing.assert_array_equal(
            got, _sample_paths_loop(spec, length, count, seed))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_sparse_chains_equal_loop(data):
    k = data.draw(st.integers(1, 5))
    P = np.array([data.draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0 / 3, 0.5, 1.0]),
        min_size=k, max_size=k)) for _ in range(k)])
    P[P.sum(axis=1) == 0, 0] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    spec = MarkovSpec([f"s{i}" for i in range(k)], P)
    seed = data.draw(st.integers(0, 2 ** 64 - 1))
    np.testing.assert_array_equal(sample_paths(spec, 30, 9, seed),
                                  _sample_paths_loop(spec, 30, 9, seed))


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("count", [1, 6])
def test_chunk_boundaries_equal_loop(name, count):
    # the draws after the first are resolved in chunks of this many steps
    spec = CHAINS[name]
    chunk = max(1, _PATH_CHUNK_ELEMENTS // (count * spec.k))
    for length in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        np.testing.assert_array_equal(
            sample_paths(spec, length, count, 5),
            _sample_paths_loop(spec, length, count, 5))


@pytest.mark.parametrize("name", ["coin", "sparse", "eight"])
def test_one_long_path_equals_loop(name):
    spec = CHAINS[name]
    np.testing.assert_array_equal(sample_paths(spec, 20001, 1, 3),
                                  _sample_paths_loop(spec, 20001, 1, 3))
