import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruviz.pareto import (
    composite_front,
    knee_point,
    pareto_set,
    rays_to_reference,
)

from conftest import (
    dominates,
    make_nm,
    oracle_front,
    oracle_front_ids,
    oracle_knee,
    oracle_pareto_ids,
    oracle_rays,
)


def random_values(rng, shape, levels=None):
    """Uniform [0, 1] draws, or draws from `levels` evenly spaced values."""
    if levels is None:
        return rng.random(shape)
    return rng.integers(0, levels, shape) / (levels - 1)


class TestDominates:
    def test_componentwise_true(self):
        assert dominates((0.8, 0.9), (0.2,), (0.7, 0.9), (0.3,))

    def test_identical_vectors_false(self):
        assert not dominates((0.5, 0.5), (0.5,), (0.5, 0.5), (0.5,))

    def test_incomparable_false(self):
        assert not dominates((0.9, 0.1), (0.2,), (0.1, 0.9), (0.3,))
        assert not dominates((0.1, 0.9), (0.3,), (0.9, 0.1), (0.2,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((0.1, 0.2), (0.3,), (0.1,), (0.3,))


class TestParetoSet:
    def test_single_candidate_is_optimal(self):
        nm = make_nm(np.array([[0.2, 0.6], [0.9, 0.9]]), 1, reference_index=1)
        res = pareto_set(nm)
        assert res.pareto_ids == {"a0"}

    def test_totally_dominated_row_excluded(self):
        vals = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])  # risk, utility
        nm = make_nm(vals, 1)
        res = pareto_set(nm)
        assert "a2" not in res.pareto_ids  # worst on both
        assert "a0" in res.pareto_ids

    def test_dominance_matrix_covers_reference(self):
        nm = make_nm(np.array([[0.0, 1.0], [0.5, 0.5]]), 1, reference_index=0)
        res = pareto_set(nm)
        # reference (row 0) dominates row 1 in the relation even though it is
        # not a candidate
        assert res.matrix[0, 1]
        assert not res.matrix[1, 0]
        assert res.pareto_ids == {"a1"}

    def test_matches_bruteforce_oracle_random(self):
        # levels=3 draws from {0, 0.5, 1}, so ties and duplicate rows abound
        rng = np.random.default_rng(123)
        for levels in [None] * 50 + [3] * 50:
            n = int(rng.integers(2, 9))
            vals = random_values(rng, (n, 5), levels)
            nm = make_nm(vals, 3)
            res = pareto_set(nm)
            expected = oracle_pareto_ids(
                [list(row[3:]) for row in vals], [list(row[:3]) for row in vals]
            )
            assert res.pareto_ids == {f"a{i}" for i in expected}
            assert res.matrix.tolist() == [
                [dominates(vals[i, 3:], vals[i, :3], vals[j, 3:], vals[j, :3])
                 for j in range(n)]
                for i in range(n)
            ]


class TestCompositeFront:
    def test_three_point_front_edges(self):
        front = composite_front(
            [("a", 0.2, 0.1), ("b", 0.5, 0.3), ("c", 0.9, 0.8)]
        )
        assert front.labels == ("a", "b", "c")
        assert len(front.d_utility) == len(front.d_risk) == len(front.slope) == 2
        assert front.slope[0] == pytest.approx(0.2 / 0.3)
        assert front.slope[1] == pytest.approx(0.5 / 0.4)

    def test_dominated_point_absent(self):
        front = composite_front([("good", 0.8, 0.2), ("bad", 0.5, 0.4)])
        assert front.ids == {"good"}

    def test_duplicate_points_both_kept(self):
        front = composite_front([("x", 0.5, 0.5), ("y", 0.5, 0.5)])
        assert front.ids == {"x", "y"}
        assert np.isnan(front.slope[0])  # zero utility step

    def test_staircase_property_random(self):
        # levels=4 puts points on a 4 x 4 grid: equal utilities and duplicates
        rng = np.random.default_rng(5)
        for levels in [None] * 50 + [4] * 50:
            pts = [(f"p{i}", float(u), float(r))
                   for i, (u, r) in enumerate(random_values(rng, (10, 2), levels))]
            front = composite_front(pts)
            assert (np.diff(front.risk) >= 0).all()
            assert front.ids == oracle_front_ids(pts)


class TestKnee:
    def test_known_knee(self):
        front = composite_front([("a", 0.0, 0.0), ("b", 0.5, 0.9), ("c", 1.0, 1.0)])
        knee = knee_point(front)
        assert knee is not None
        assert knee.id == "b"
        assert knee.distance == pytest.approx(0.4 / math.sqrt(2), abs=1e-9)
        assert knee.concave is False  # bows toward the high-risk side

    def test_concave_side_flag(self):
        knee = knee_point(composite_front([("a", 0.0, 0.0), ("b", 0.9, 0.5),
                                           ("c", 1.0, 1.0)]))
        assert knee is not None and knee.id == "b" and knee.concave is True

    def test_collinear_returns_none(self):
        front = composite_front([("a", 0.0, 0.0), ("b", 0.5, 0.5), ("c", 1.0, 1.0)])
        assert len(front.labels) == 3
        assert knee_point(front) is None

    def test_two_point_front_none(self):
        front = composite_front([("a", 0.1, 0.1), ("b", 0.9, 0.9)])
        assert knee_point(front) is None

    def test_order_invariance(self):
        pts = [("a", 0.0, 0.0), ("b", 0.5, 0.9), ("c", 1.0, 1.0)]
        k1 = knee_point(composite_front(pts))
        for shuffled in itertools.permutations(pts):
            assert knee_point(composite_front(shuffled)) == k1

    def test_tie_breaks_lower_risk_then_id(self):
        front = composite_front([
            ("a", 0.0, 0.0),
            ("z", 0.25, 0.45),
            ("b", 0.75, 0.95),
            ("c", 1.0, 1.0),
        ])
        # both interior points are 0.2/sqrt(2) from the chord
        assert len(front.labels) == 4
        knee = knee_point(front)
        assert knee is not None and knee.id == "z"


class TestRays:
    def test_diagonal(self):
        rays = rays_to_reference([("p", 0.5, 0.5)], [0], [("o", 1.0, 1.0)])
        assert rays.slope[0] == pytest.approx(1.0)
        assert rays.l2[0] == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_zero_displacement_flagged(self):
        rays = rays_to_reference([("p", 1.0, 1.0)], [0], [("o", 1.0, 1.0)])
        assert np.isnan(rays.slope[0])
        assert rays.l2[0] == 0.0

    def test_random_matches_direct_recomputation(self):
        rng = np.random.default_rng(9)
        pts = [(f"p{i}", float(u), float(r))
               for i, (u, r) in enumerate(rng.random((20, 2)))]
        u0, r0 = 0.9, 0.85
        rays = rays_to_reference(pts, [0] * len(pts), [("o", u0, r0)])
        for u, r, slope, l2 in zip(rays.utility, rays.risk, rays.slope, rays.l2):
            assert l2 == pytest.approx(math.hypot(u - u0, r - r0), abs=1e-12)
            if not np.isnan(slope):
                assert slope == pytest.approx((r - r0) / (u - u0), abs=1e-12)

    def test_each_ray_runs_to_its_own_reference(self):
        rays = rays_to_reference([("p", 0.5, 0.5), ("q", 0.5, 0.5)], [0, 1],
                                 [("o1", 1.0, 1.0), ("o2", 0.0, 0.0)])
        assert rays.reference.tolist() == [0, 1]
        assert rays.slope.tolist() == [1.0, 1.0]
        assert rays.l2[0] == rays.l2[1] == math.hypot(0.5, 0.5)

    def test_no_points(self):
        rays = rays_to_reference([], [], [("o", 1.0, 1.0)])
        assert rays.ids == () and len(rays.slope) == len(rays.l2) == 0
        front = composite_front([])
        assert front.labels == () and len(front.slope) == 0
        assert knee_point(front) is None


def _same_bits(column, oracle) -> bool:
    """A float column holds the oracle's values bit for bit, NaN where the
    oracle gives None."""
    want = np.array([np.nan if v is None else v for v in oracle], dtype=float)
    undefined = np.isnan(want)
    return (column.dtype == np.float64 and np.array_equal(np.isnan(column), undefined)
            and column[~undefined].tobytes() == want[~undefined].tobytes())


# a few grid values give equal utilities, exact duplicates, zero steps and
# both signs of zero
coordinate = st.one_of(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=200, deadline=None)
@given(coords=st.lists(st.tuples(coordinate, coordinate), max_size=10),
       references=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=3),
       picks=st.lists(st.integers(0, 20), min_size=10, max_size=10),
       on_point=st.booleans())
def test_columns_equal_the_record_oracles(coords, references, picks, on_point):
    points = [(f"p{i}", u, r) for i, (u, r) in enumerate(coords)]
    if on_point and points:  # a zero-displacement ray
        references[0] = coords[0]
    front = composite_front(points)
    want_points, want_edges = oracle_front(points)
    assert front.labels == tuple(p[0] for p in want_points)
    assert _same_bits(front.utility, [p[1] for p in want_points])
    assert _same_bits(front.risk, [p[2] for p in want_points])
    for k, column in enumerate((front.d_utility, front.d_risk, front.slope), start=2):
        assert _same_bits(column, [e[k] for e in want_edges])
    knee, want_knee = knee_point(front), oracle_knee(want_points)
    assert (None if knee is None else (knee.id, knee.distance, knee.concave)) == want_knee

    reference = [k % len(references) for k in picks[:len(points)]]
    rays = rays_to_reference(points, reference, [("ref", u, r) for u, r in references])
    want = [oracle_rays([p], references[k])[0] for p, k in zip(points, reference)]
    assert rays.ids == tuple(w[0] for w in want)
    for k, column in enumerate((rays.utility, rays.risk, rays.slope, rays.l2), start=1):
        assert _same_bits(column, [w[k] for w in want])


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def nm_values(draw, n_min=2, n_max=7, margin=0.0):
    n = draw(st.integers(n_min, n_max))
    p_risk = draw(st.integers(1, 3))
    p_util = draw(st.integers(1, 3))
    p = p_risk + p_util
    lo, hi = margin, 1.0 - margin
    cell = st.floats(min_value=lo, max_value=hi, allow_nan=False)
    rows = draw(st.lists(st.lists(cell, min_size=p, max_size=p),
                         min_size=n, max_size=n))
    return np.array(rows), p_risk


@settings(max_examples=60, deadline=None)
@given(nm_values(), st.floats(min_value=0.05, max_value=1.0))
def test_property_scale_free_membership(data, c):
    vals, p_risk = data
    nm = make_nm(vals, p_risk)
    scaled = vals.copy()
    scaled[:, p_risk:] = scaled[:, p_risk:] * c  # positive rescale of utilities
    # the claim holds where the rescale keeps the order of every pair of
    # utilities; rounding can merge two (0 and 5e-324 both become 0 at c=0.5)
    order = np.sign(vals[:, None, p_risk:] - vals[None, :, p_risk:])
    assume(np.array_equal(order, np.sign(scaled[:, None, p_risk:] - scaled[None, :, p_risk:])))
    nm_scaled = make_nm(scaled, p_risk)
    assert pareto_set(nm).pareto_ids == pareto_set(nm_scaled).pareto_ids


def test_scale_free_dominance_above_one():
    # arbitrary positive constants on raw vectors (outside the [0,1] type)
    rng = np.random.default_rng(3)
    for _ in range(100):
        u_i, u_j = rng.random(3), rng.random(3)
        r_i, r_j = rng.random(2), rng.random(2)
        c = float(rng.uniform(0.01, 50.0))
        assert dominates(u_i, r_i, u_j, r_j) == dominates(
            c * u_i, r_i, c * u_j, r_j
        )


@settings(max_examples=60, deadline=None)
@given(nm_values(n_min=2, n_max=6, margin=0.05), st.integers(0, 5))
def test_property_adding_dominated_row_changes_nothing(data, pick):
    vals, p_risk = data
    base = pareto_set(make_nm(vals, p_risk)).pareto_ids
    row = vals[pick % len(vals)].copy()
    row[:p_risk] = row[:p_risk] + 0.04  # strictly riskier
    row[p_risk:] = row[p_risk:] - 0.04  # strictly less useful
    extended = np.vstack([vals, row])
    ext = pareto_set(make_nm(extended, p_risk)).pareto_ids
    assert ext == base
