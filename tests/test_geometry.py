import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruviz.geometry import convex_hull

from conftest import oracle_monotone_chain


def _zonotope(rng, n, parallel):
    """All 0/1 sums of up to 12 generators; with `parallel`, every other
    generator is a multiple of its neighbour, so hull edges hold many
    collinear points."""
    k = int(np.clip(np.log2(n), 1, 12))
    gens = rng.normal(size=(k, 2))
    if parallel:
        gens[1::2] = gens[: k // 2] * rng.choice([-2.0, -0.5, 1.0, 3.0], size=(k // 2, 1))
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return bits @ gens


def _cloud(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(n, 2))
    if kind == "grid":
        return rng.integers(-4, 5, size=(n, 2)).astype(float)
    if kind == "collinear":
        direction = rng.integers(-3, 4, size=2).astype(float)
        return rng.normal(size=2) + np.outer(rng.integers(-20, 21, size=n), direction)
    if kind == "circle":
        t = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([np.cos(t), np.sin(t)])
    return _zonotope(rng, n, parallel=kind == "parallel_zonotope")


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(
        ["gaussian", "grid", "collinear", "circle", "zonotope", "parallel_zonotope"]
    ),
    n=st.integers(3, 5000),
    scale=st.sampled_from([1e-10, 1.0, 1e9]),
    offset=st.sampled_from([0.0, 1.0, -250.0]),
    duplicates=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hull_matches_unpruned_chain(kind, n, scale, offset, duplicates, seed):
    pts = _cloud(kind, n, seed) * scale + offset
    if duplicates:
        rng = np.random.default_rng(seed + 1)
        pts = rng.permutation(np.vstack([pts, pts[rng.integers(0, len(pts), len(pts))]]))
    got = convex_hull(pts)
    expected = oracle_monotone_chain(pts)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("pts", [
    np.zeros((0, 2)),
    np.array([[1.0, 2.0]]),
    np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]]),
    np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
])
def test_degenerate_inputs_match_unpruned_chain(pts):
    got = convex_hull(pts)
    expected = oracle_monotone_chain(pts)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
