import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stppfit import (
    MarkedPointPattern,
    PointPattern,
    SpaceTimePoint,
    Window,
    find_duplicate_points,
    ground_pattern,
    split_by_mark,
)
from stppfit.patterns import _mark_codes


def unit_window():
    return Window.unit_cube()


class TestWindow:
    def test_unit_cube_volume(self):
        assert unit_window().volume() == 1.0

    def test_box_volume_is_product_of_lengths(self):
        assert Window.from_bounds(0, 2, 0, 3, 0, 5).volume() == 30.0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError, match="positive length"):
            Window.from_bounds(1, 1, 0, 1, 0, 1)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            Window.from_bounds(1, 0, 0, 1, 0, 1)

    def test_nonfinite_bound_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Window.from_bounds(0, math.inf, 0, 1, 0, 1)

    def test_boundary_is_inside(self):
        w = unit_window()
        assert w.contains(0.0, 0.0, 0.0)
        assert w.contains(1.0, 1.0, 1.0)
        assert not w.contains(1.0 + 1e-12, 0.5, 0.5)

    def test_contains_window(self):
        outer = Window.from_bounds(0, 2, 0, 2, 0, 2)
        inner = Window.from_bounds(0.5, 1.5, 0, 2, 0.25, 1)
        assert outer.contains_window(inner)
        assert not inner.contains_window(outer)

    def test_bounding_box(self):
        pts = [SpaceTimePoint(0.2, 1.0, -1.0), SpaceTimePoint(0.7, 2.0, 3.0)]
        w = Window.bounding(pts)
        assert w.x_range == (0.2, 0.7)
        assert w.y_range == (1.0, 2.0)
        assert w.t_range == (-1.0, 3.0)


class TestSpaceTimePoint:
    def test_coordinates_coerced_to_float(self):
        p = SpaceTimePoint(1, 2, 3)
        assert p == (1.0, 2.0, 3.0) and all(type(v) is float for v in p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SpaceTimePoint(bad, 0.0, 0.0)


class TestPointPattern:
    def test_empty_pattern_is_valid(self):
        assert PointPattern(unit_window()).n == 0

    def test_boundary_point_accepted(self):
        pat = PointPattern(unit_window(), (SpaceTimePoint(1.0, 0.0, 1.0),))
        assert pat.n == 1

    def test_outside_point_rejected_with_index(self):
        pts = (SpaceTimePoint(0.5, 0.5, 0.5), SpaceTimePoint(1.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="point 1"):
            PointPattern(unit_window(), pts)

    def test_coords_preserve_order(self):
        pts = (SpaceTimePoint(0.1, 0.2, 0.3), SpaceTimePoint(0.4, 0.5, 0.6))
        got = PointPattern(unit_window(), pts).coords()
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])

    def test_from_arrays_roundtrip(self):
        rng = np.random.default_rng(3)
        x, y, t = rng.random((3, 17))
        pat = PointPattern.from_arrays(unit_window(), x, y, t)
        np.testing.assert_array_equal(pat.coords(), np.column_stack([x, y, t]))


def two_level_pattern(n_a=3, n_b=2, seed=11):
    rng = np.random.default_rng(seed)
    pts = [(SpaceTimePoint(*rng.random(3)), "A") for _ in range(n_a)]
    pts += [(SpaceTimePoint(*rng.random(3)), "B") for _ in range(n_b)]
    return MarkedPointPattern.from_labeled(unit_window(), pts)


class TestMarkedPattern:
    def test_split_by_mark_counts(self):
        pat = two_level_pattern(3, 2)
        subs = split_by_mark(pat)
        counts = {label: sp.n for label, sp in subs.items()}
        assert counts == {"A": 3, "B": 2}
        for sp in subs.values():
            assert sp.window == pat.window

    def test_split_preserves_within_level_order(self):
        pat = two_level_pattern(4, 3, seed=5)
        subs = split_by_mark(pat)
        for label, sub in subs.items():
            expected = [p for p, m in pat.points if m == label]
            assert list(sub.points) == expected

    def test_single_level_split_is_identity(self):
        rng = np.random.default_rng(2)
        pts = [(SpaceTimePoint(*rng.random(3)), "only") for _ in range(6)]
        pat = MarkedPointPattern.from_labeled(unit_window(), pts)
        (sub,) = split_by_mark(pat).values()
        assert list(sub.points) == [p for p, _ in pat.points]

    def test_from_arrays_needs_marks_and_levels(self):
        with pytest.raises(TypeError, match="'marks' and 'levels'"):
            MarkedPointPattern.from_arrays(unit_window(), [0.5], [0.5], [0.5])
        with pytest.raises(ValueError, match=re.escape("need 1 integer mark codes, got float64 of shape (0,)")):
            MarkedPointPattern.from_arrays(unit_window(), [0.5], [0.5], [0.5], [], ("A",))
        with pytest.raises(ValueError, match="needs at least one mark level"):
            MarkedPointPattern.from_arrays(unit_window(), [0.5], [0.5], [0.5], [0], ())
        with pytest.raises(ValueError, match="marked point 0 at"):
            MarkedPointPattern.from_arrays(unit_window(), [1.5], [0.5], [0.5], [0], ("A",))

    def test_empty_pattern_with_declared_levels(self):
        pat = MarkedPointPattern(unit_window(), levels=("A", "B"))
        subs = split_by_mark(pat)
        assert all(sp.n == 0 for sp in subs.values())
        assert ground_pattern(pat).n == 0

    def test_ground_pattern_projects_locations(self):
        pat = two_level_pattern(3, 2)
        ground = ground_pattern(pat)
        assert ground.n == 5
        assert list(ground.points) == [p for p, _ in pat.points]

    def test_partition_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n_a, n_b = rng.integers(0, 10, size=2)
            if n_a + n_b == 0:
                continue
            pat = two_level_pattern(int(n_a), int(n_b), seed=int(rng.integers(1 << 30)))
            subs = split_by_mark(pat)
            assert sum(sp.n for sp in subs.values()) == ground_pattern(pat).n

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            MarkedPointPattern(unit_window(), levels=("A", "A"))

    def test_unknown_mark_rejected(self):
        levels = ("A",)
        stray = SpaceTimePoint(0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="unknown mark"):
            MarkedPointPattern(unit_window(), (stray,), [1], levels)

    def test_outside_marked_point_rejected(self):
        levels = ("A",)
        bad = SpaceTimePoint(2.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="marked point 0"):
            MarkedPointPattern(unit_window(), (bad,), [0], levels)

    def test_location_error_names_a_marked_point(self):
        xyt = [[0.5, 0.5, 0.5], [0.5, 2.0, 0.5], [math.inf, 0.5, 0.5]]
        with pytest.raises(ValueError, match=r"^marked point 1 at \(0.5, 2.0, 0.5\) lies outside the window"):
            MarkedPointPattern(unit_window(), xyt, [0, 0, 0], ("A",))
        with pytest.raises(ValueError, match=r"^marked point 0 at \(inf, 0.5, 0.5\) is not finite"):
            MarkedPointPattern(unit_window(), xyt[2:], [0], ("A",))

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a\r\n", "a\x0bb", "a\u2028b", " a", "a ", "\ta"])
    def test_label_a_csv_cell_cannot_carry_is_rejected(self, label):
        # a comma or any line break the reader splits on (str.splitlines) splits the cell, and
        # surrounding whitespace would read back stripped
        with pytest.raises(ValueError, match=re.escape(f"mark label {label!r} cannot be written to a CSV cell")):
            MarkedPointPattern(unit_window(), levels=(label,))
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            MarkedPointPattern.from_labeled(unit_window(), [(SpaceTimePoint(0.5, 0.5, 0.5), label)])

    @pytest.mark.parametrize("label", ["\ud800", "a\udfffb"])
    def test_label_without_utf8_form_is_rejected(self, label):
        # a lone surrogate has no UTF-8 form: the pattern CSV writer failed after the header
        message = f"mark label {label!r} cannot be written to a CSV cell: it must be UTF-8 encodable"
        with pytest.raises(ValueError, match=re.escape(message)):
            MarkedPointPattern.from_labeled(unit_window(), [(SpaceTimePoint(0.5, 0.5, 0.5), label)])
        with pytest.raises(ValueError, match=re.escape(message)):
            MarkedPointPattern(unit_window(), levels=("A", label))

    @pytest.mark.parametrize("label", ["50%", "a b", "é", "x;y"])
    def test_label_with_inner_space_or_symbols_is_accepted(self, label):
        assert MarkedPointPattern(unit_window(), levels=(label,)).levels == (label,)


class TestDuplicates:
    def test_flags_exact_duplicates(self):
        p = SpaceTimePoint(0.25, 0.5, 0.75)
        pat = PointPattern(unit_window(), (p, SpaceTimePoint(0.1, 0.1, 0.1), p))
        assert find_duplicate_points(pat) == [(0, 2)]

    def test_clean_pattern_has_no_duplicates(self):
        rng = np.random.default_rng(9)
        pat = PointPattern.from_arrays(unit_window(), *rng.random((3, 50)))
        assert find_duplicate_points(pat) == []

    @pytest.mark.parametrize(
        "xyt, groups",
        [
            ([[0.5, 0.1, 0.2], [0.5, 0.3, 0.2]], []),  # x ties, y differs
            ([[0.5, 0.1, 0.2], [0.5, 0.3, 0.2], [-0.0, 0.4, 0.4], [0.0, 0.4, 0.4]], [(2, 3)]),
        ],
    )
    def test_x_ties_alone_are_not_duplicates(self, xyt, groups):
        assert find_duplicate_points(PointPattern(unit_window(), xyt)) == groups


class TestArrayOwnership:
    def test_pattern_copies_its_input(self):
        xyt = np.full((3, 3), 0.5)
        pat = PointPattern(unit_window(), xyt)
        xyt[0] = 7.0
        np.testing.assert_array_equal(pat.coords(), np.full((3, 3), 0.5))
        assert xyt.flags.writeable
        assert not pat.coords().flags.writeable

    def test_from_arrays_copies_its_input(self):
        xyt = np.full((3, 3), 0.5)
        pat = PointPattern.from_arrays(unit_window(), *xyt.T)
        xyt[0] = 7.0
        np.testing.assert_array_equal(pat.coords(), np.full((3, 3), 0.5))
        assert not pat.coords().flags.writeable

    def test_nonfinite_coordinate_names_point(self):
        with pytest.raises(ValueError, match=r"point 1 at \(0.5, nan, 0.5\).*finite"):
            PointPattern(unit_window(), [[0.5, 0.5, 0.5], [0.5, math.nan, 0.5]])

    def test_marked_pattern_is_a_point_pattern_with_codes(self):
        pat = two_level_pattern(3, 2)
        assert isinstance(pat, PointPattern)
        assert pat.coords() is pat.xyt
        assert not pat.marks.flags.writeable

    def test_ground_pattern_shares_coordinates(self):
        pat = two_level_pattern(3, 2)
        assert ground_pattern(pat).coords() is pat.xyt


def dict_oracle_duplicates(rows):
    """Reference grouping: a dict keyed by coordinate tuples (so -0.0 == 0.0)."""
    seen = {}
    for i, row in enumerate(rows):
        seen.setdefault(tuple(row), []).append(i)
    return [tuple(ix) for ix in seen.values() if len(ix) > 1]


# a small pool of values (signed zeros included) makes repeated rows common
coordinate = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
rows = st.lists(st.tuples(coordinate, coordinate, coordinate), max_size=40)
labeled_rows = st.lists(
    st.tuples(st.tuples(coordinate, coordinate, coordinate), st.sampled_from(["b", "a", "c", "B", "a2"])),
    min_size=1,
    max_size=40,
)


def labeled_pattern(pairs):
    return MarkedPointPattern.from_labeled(unit_window(), [(SpaceTimePoint(*xyz), lab) for xyz, lab in pairs])


class TestPatternProperties:
    @settings(max_examples=200, deadline=None)
    @given(rows)
    def test_duplicates_match_dict_oracle(self, xyt):
        assert find_duplicate_points(PointPattern(unit_window(), xyt)) == dict_oracle_duplicates(xyt)

    @settings(max_examples=100, deadline=None)
    @given(labeled_rows)
    def test_split_partitions_ground_in_order(self, pairs):
        pat = labeled_pattern(pairs)
        ground = ground_pattern(pat).coords()
        subs = split_by_mark(pat)
        for label, sub in subs.items():
            mine = [i for i, (_, lab) in enumerate(pairs) if lab == label]
            assert sub.coords().tobytes() == ground[mine].tobytes()
        assert sum(sub.n for sub in subs.values()) == pat.n == len(pairs)

    @settings(max_examples=100, deadline=None)
    @given(labeled_rows)
    def test_levels_are_sorted_labels_and_counts_match(self, pairs):
        pat = labeled_pattern(pairs)
        labels = [lab for _, lab in pairs]
        assert pat.levels == tuple(sorted(set(labels)))
        assert pat.counts_by_level() == Counter(labels)
        assert [m for _, m in pat.points] == labels

    @settings(max_examples=100, deadline=None)
    @given(labeled_rows)
    def test_marked_from_arrays_matches_from_labeled(self, pairs):
        want = labeled_pattern(pairs)
        x, y, t = np.array([xyz for xyz, _ in pairs]).T  # strided column views
        got = MarkedPointPattern.from_arrays(unit_window(), x, y, t, want.marks, want.levels)
        assert type(got) is MarkedPointPattern
        assert got.xyt.tobytes() == want.xyt.tobytes()
        assert (got.marks.tolist(), got.levels) == (want.marks.tolist(), want.levels)
        assert got.points == want.points

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*3 * [st.sampled_from([-0.5, -0.0, 1.0, 1.5, math.nan, math.inf]) | st.floats(-1.0, 2.0)]),
                    max_size=20))
    def test_location_check_names_the_first_row_outside(self, xyt):
        inside = [all(0.0 <= v <= 1.0 for v in row) for row in xyt]  # nan compares false
        if all(inside):
            assert PointPattern(unit_window(), xyt).n == len(xyt)
        else:
            with pytest.raises(ValueError, match=f"^point {inside.index(False)} at "):
                PointPattern(unit_window(), xyt)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["b", "a", "%s", "50%", "é", "Ω", "B"]) | st.text(min_size=1, max_size=3),
                    min_size=1, max_size=40))
    def test_mark_codes_index_the_sorted_unique_labels(self, labels):
        codes, levels = _mark_codes(labels)
        assert levels == tuple(sorted(set(labels)))
        assert [levels[c] for c in codes.tolist()] == labels
        # the object-array np.unique coding gives the same levels and codes
        unique, inverse = np.unique(np.array(labels, dtype=object), return_inverse=True)
        assert levels == tuple(unique) and codes.tolist() == inverse.tolist()
