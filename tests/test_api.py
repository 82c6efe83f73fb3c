"""The public surface: exported names and the SpaceTimePoint-based edges."""

import stppfit
from stppfit import (
    GridResolution,
    MarkedPointPattern,
    MarkLevel,
    PointPattern,
    SpaceTimePoint,
    Window,
    build_scheme,
    cube_index,
    generate_dummy_grid,
)


def test_every_exported_name_resolves():
    assert [name for name in stppfit.__all__ if not hasattr(stppfit, name)] == []


def test_point_edges_return_space_time_points():
    window, res = Window.unit_cube(), GridResolution(2, 1, 1)
    pat = PointPattern.from_arrays(window, [0.9], [0.8], [0.7])
    assert pat.points == (SpaceTimePoint(0.9, 0.8, 0.7),)
    assert cube_index(window, res, pat.points[0]) == 1
    grid = generate_dummy_grid(window, res)
    assert grid == [SpaceTimePoint(0.25, 0.5, 0.5), SpaceTimePoint(0.75, 0.5, 0.5)]
    scheme_points = build_scheme(pat, res).points
    assert scheme_points == pat.points + tuple(grid)
    assert all(type(p) is SpaceTimePoint for p in pat.points + tuple(grid) + scheme_points)


def test_marked_points_pair_locations_with_levels():
    pat = MarkedPointPattern.from_labeled(
        Window.unit_cube(), [(SpaceTimePoint(0.1, 0.2, 0.3), "b"), (SpaceTimePoint(0.4, 0.5, 0.6), "a")]
    )
    assert pat.points == (
        (SpaceTimePoint(0.1, 0.2, 0.3), MarkLevel("b", 2)),
        (SpaceTimePoint(0.4, 0.5, 0.6), MarkLevel("a", 1)),
    )
    assert all(type(p) is SpaceTimePoint for p, _ in pat.points)
