import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruviz.config import StudyOptions
from ruviz.errors import ValidationError
from ruviz.pipeline import profiles_json, run_study
from ruviz.profiles import AREA_CAVEAT, origami_profiles, ranked_areas

from conftest import build_origami, json_text, make_nm, profiles_nm

IDS5 = tuple(f"m{i}" for i in range(5))


def fan_area(radii: np.ndarray) -> float:
    """Independent fan-triangulation oracle: sum of 0.5 r_i r_{i+1} sin(dtheta)."""
    k = len(radii)
    dtheta = 2.0 * math.pi / k
    total = 0.0
    for i in range(k):
        total += 0.5 * radii[i] * radii[(i + 1) % k] * math.sin(dtheta)
    return total


class TestBuildOrigami:
    def test_all_ones_area_is_one(self):
        prof = build_origami("x", np.ones(5), IDS5, r_aux=0.1)
        assert prof.area_normalized[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_values_at_r_aux_regular_polygon(self):
        m, r_aux = 5, 0.3
        prof = build_origami("x", np.full(m, r_aux), IDS5, r_aux=r_aux)
        expected = m * r_aux**2 * math.sin(math.pi / m)
        assert prof.area_raw[0] == pytest.approx(expected, abs=1e-12)

    def test_random_profiles_match_fan_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = int(rng.integers(3, 9))
            ids = tuple(f"m{i}" for i in range(m))
            vals = rng.random(m)
            prof = build_origami("x", vals, ids, r_aux=0.2)
            assert prof.area_raw[0] == pytest.approx(fan_area(prof.radii[0]), abs=1e-10)

    def test_angles_strictly_increasing_and_vertices_closed_shape(self):
        prof = build_origami("x", np.array([0.2, 0.5, 0.9]), ("a", "b", "c"))
        assert np.all(np.diff(prof.angles) > 0)
        assert prof.angles[0] == 0.0
        assert prof.angles[-1] < 2 * math.pi
        assert prof.radii.shape == (1, 6)
        assert prof.vertices.shape == (1, 6, 2)

    def test_r_aux_bounds(self):
        # the options own the radius; `origami_profiles` takes it as given
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError, match=r"^options\.r_aux: must be in \(0, 1\)"):
                StudyOptions(r_aux=bad)


class TestAreaInvariances:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                 min_size=3, max_size=9),
        st.integers(0, 8),
    )
    def test_cyclic_rotation_invariance(self, values, shift):
        vals = np.array(values)
        ids = tuple(f"m{i}" for i in range(len(vals)))
        base = build_origami("x", vals, ids, r_aux=0.15)
        rolled = np.roll(vals, shift % len(vals))
        rotated = build_origami("x", rolled, ids, r_aux=0.15)
        assert rotated.area_raw[0] == pytest.approx(base.area_raw[0], abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                 min_size=3, max_size=9)
    )
    def test_reflection_invariance(self, values):
        vals = np.array(values)
        ids = tuple(f"m{i}" for i in range(len(vals)))
        base = build_origami("x", vals, ids)
        reflected = build_origami("x", vals[::-1].copy(), ids)
        assert reflected.area_raw[0] == pytest.approx(base.area_raw[0], abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                 min_size=3, max_size=8),
        st.integers(0, 7),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_monotone_in_any_radius(self, values, idx, bump):
        vals = np.array(values)
        ids = tuple(f"m{i}" for i in range(len(vals)))
        base = build_origami("x", vals, ids)
        raised = vals.copy()
        j = idx % len(vals)
        raised[j] = min(1.0, raised[j] + bump)
        bigger = build_origami("x", raised, ids)
        assert bigger.area_raw[0] >= base.area_raw[0] - 1e-12
        assert 0.0 < bigger.area_normalized[0] <= 1.0 + 1e-12


class TestRankedAreas:
    def test_ordering_with_degenerate_profile(self):
        nm = profiles_nm(("empty", "full"), [np.zeros(4), np.ones(4)], tuple("abcd"))
        table = ranked_areas(origami_profiles(nm, 0.1))
        assert table.ids == ("full", "empty")
        assert table.areas[0] == 1.0
        assert table.areas[1] == pytest.approx(0.0, abs=1e-12)
        assert table.caveat == AREA_CAVEAT

    def test_ties_stable_lexicographic(self):
        nm = profiles_nm(("b", "a"), np.full((2, 4), 0.5), tuple("wxyz"))
        table = ranked_areas(origami_profiles(nm, 0.1))
        assert table.ids == ("a", "b")

    def test_display_rounding_two_decimals(self, study_matrix, study_config):
        # profiles.json writes the display next to the full-precision area
        result = run_study(study_matrix, study_config)
        entries = json.loads(json_text(profiles_json(result)))["areas"]
        assert [e["id"] for e in entries] == list(result.areas.ids)
        assert [e["area"] for e in entries] == result.areas.areas.tolist()
        assert [e["display"] for e in entries] == [
            f"{a:.2f}" for a in result.areas.areas.tolist()]


def test_origami_profiles_covers_every_row(study_config, study_csv_bytes):
    from ruviz.model import harmonize_and_normalize, ingest

    nm = harmonize_and_normalize(ingest(study_csv_bytes, study_config), False)
    profs = origami_profiles(nm, r_aux=0.1)
    assert profs.ids == nm.labels
    assert profs.measure_ids == tuple(s.id for s in nm.specs)
    assert len(profs.radii) == len(profs.area_normalized) == len(nm.labels)
    # the reference row is at the normalized maximum everywhere
    original = profs.area_normalized[profs.ids.index("original")]
    assert original == pytest.approx(1.0, abs=1e-12)


def shoelace_oracle(values: np.ndarray, r_aux: float) -> float:
    """One polygon's area, vertex by vertex: the per-row shoelace sum with
    two `np.dot` products that the profiles' areas reproduce bit for bit."""
    m = len(values)
    angles = np.arange(2 * m) * (2.0 * np.pi) / (2 * m)
    radii = np.empty(2 * m)
    radii[0::2] = np.clip(values, 0.0, 1.0)
    radii[1::2] = r_aux
    xy = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    x, y = xy[:, 0], xy[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


unit_values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5]))


class TestOrigamiProfilesMatchOneRow:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 9), st.integers(1, 12), st.data(),
           st.sampled_from([0.1, 0.05, 0.37]))
    def test_every_row_equals_build_origami(self, m, n, data, r_aux):
        values = np.array(data.draw(st.lists(
            st.lists(unit_values, min_size=m, max_size=m), min_size=n, max_size=n)))
        nm = make_nm(values, 1)
        profiles = origami_profiles(nm, r_aux=r_aux)
        ids = tuple(s.id for s in nm.specs)
        assert profiles.ids == nm.labels
        for i, (row, label) in enumerate(zip(values, nm.labels)):
            one = build_origami(label, row, ids, r_aux=r_aux)
            assert np.array_equal(profiles.angles, one.angles)
            for name in ("radii", "vertices", "area_raw", "area_normalized"):
                assert np.array_equal(getattr(profiles, name)[i], getattr(one, name)[0])
            assert profiles.area_raw[i] == shoelace_oracle(row, r_aux)
            assert profiles.measure_ids == one.measure_ids
            assert profiles.r_aux == one.r_aux
