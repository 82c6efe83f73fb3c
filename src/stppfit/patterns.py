"""Space-time geometry and point-pattern data model.

Events live in a bounded axis-aligned box (the observation window); a
pattern is a finite ordered collection of events, optionally carrying a
categorical mark. All types are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceTimePoint",
    "Window",
    "PointPattern",
    "MarkLevel",
    "MarkedPointPattern",
    "split_by_mark",
    "ground_pattern",
    "find_duplicate_points",
]

_AXES = ("x", "y", "t")


def _readonly(a: np.ndarray) -> np.ndarray:
    """C-contiguous, non-writeable version of ``a`` (shared by every frozen array holder)."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _as_interval(name: str, rng) -> tuple[float, float]:
    try:
        lo, hi = (float(rng[0]), float(rng[1]))
    except (TypeError, ValueError, IndexError):
        raise ValueError(f"{name} must be a (low, high) pair, got {rng!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} bounds must be finite, got ({lo}, {hi})")
    if not hi > lo:
        raise ValueError(f"{name} must have strictly positive length, got ({lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class SpaceTimePoint:
    """An event at spatial location (x, y) occurring at time t."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        for name in _AXES:
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"coordinate {name} must be finite, got {getattr(self, name)!r}")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.t)


@dataclass(frozen=True)
class Window:
    """Closed axis-aligned box [x0,x1] x [y0,y1] x [t0,t1].

    Each interval must have strictly positive length, so ``volume()`` is
    always positive. Boundary points count as inside.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    t_range: tuple[float, float]

    def __post_init__(self):
        for name in _AXES:
            attr = f"{name}_range"
            object.__setattr__(self, attr, _as_interval(attr, getattr(self, attr)))

    @classmethod
    def from_bounds(cls, x0, x1, y0, y1, t0, t1) -> "Window":
        return cls((x0, x1), (y0, y1), (t0, t1))

    @classmethod
    def unit_cube(cls) -> "Window":
        return cls((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))

    @classmethod
    def bounding(cls, points) -> "Window":
        """Smallest window containing all points (degenerate axes rejected)."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot infer a window from an empty point list")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        ts = [p.t for p in pts]
        return cls((min(xs), max(xs)), (min(ys), max(ys)), (min(ts), max(ts)))

    @property
    def ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.x_range, self.y_range, self.t_range)

    @property
    def lengths(self) -> tuple[float, float, float]:
        return tuple(hi - lo for lo, hi in self.ranges)

    def volume(self) -> float:
        lx, ly, lt = self.lengths
        return lx * ly * lt

    def contains(self, x: float, y: float, t: float) -> bool:
        return (
            self.x_range[0] <= x <= self.x_range[1]
            and self.y_range[0] <= y <= self.y_range[1]
            and self.t_range[0] <= t <= self.t_range[1]
        )

    def contains_point(self, p: SpaceTimePoint) -> bool:
        return self.contains(p.x, p.y, p.t)

    def contains_window(self, other: "Window") -> bool:
        return all(
            o_lo >= s_lo and o_hi <= s_hi
            for (s_lo, s_hi), (o_lo, o_hi) in zip(self.ranges, other.ranges)
        )


def _check_inside(window: Window, points, describe) -> None:
    for i, p in enumerate(points):
        if not window.contains_point(p):
            raise ValueError(
                f"{describe} {i} at ({p.x}, {p.y}, {p.t}) lies outside the window "
                f"x{window.x_range} y{window.y_range} t{window.t_range}"
            )


@dataclass(frozen=True)
class PointPattern:
    """Finite ordered set of events inside a window (count not fixed)."""

    window: Window
    points: tuple[SpaceTimePoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _check_inside(self.window, self.points, "point")

    @classmethod
    def from_arrays(cls, window: Window, x, y, t) -> "PointPattern":
        x, y, t = (np.asarray(a, dtype=float).ravel() for a in (x, y, t))
        if not (x.size == y.size == t.size):
            raise ValueError("x, y, t must have equal lengths")
        pts = tuple(SpaceTimePoint(*c) for c in zip(x, y, t))
        return cls(window, pts)

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self) -> np.ndarray:
        """Coordinates as an (n, 3) float array in pattern order."""
        if not self.points:
            return np.empty((0, 3), dtype=float)
        return np.array([p.as_tuple() for p in self.points], dtype=float)


@dataclass(frozen=True)
class MarkLevel:
    """A categorical mark value: a label plus its 1-based index."""

    label: str
    index: int

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"mark label must be a nonempty string, got {self.label!r}")
        if int(self.index) != self.index or self.index < 1:
            raise ValueError(f"mark index must be a positive integer, got {self.index!r}")
        object.__setattr__(self, "index", int(self.index))


@dataclass(frozen=True)
class MarkedPointPattern:
    """Pattern whose events carry a categorical mark from a fixed level set.

    The per-level sub-patterns partition the ground (location-only)
    pattern; every declared level is allowed to be empty.
    """

    window: Window
    points: tuple[tuple[SpaceTimePoint, MarkLevel], ...] = ()
    levels: tuple[MarkLevel, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(pm) for pm in self.points))
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("a marked pattern needs at least one mark level")
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise ValueError(f"mark labels must be distinct, got {labels}")
        if sorted(lv.index for lv in self.levels) != list(range(1, len(self.levels) + 1)):
            raise ValueError("mark indices must be a bijection onto 1..M")
        level_set = set(self.levels)
        for i, (p, m) in enumerate(self.points):
            if m not in level_set:
                raise ValueError(f"point {i} carries unknown mark {m.label!r}")
        _check_inside(self.window, [p for p, _ in self.points], "marked point")

    @classmethod
    def from_labeled(cls, window: Window, labeled_points) -> "MarkedPointPattern":
        """Build from (point, label) pairs; levels are the sorted unique labels."""
        labeled_points = list(labeled_points)
        labels = sorted({lab for _, lab in labeled_points})
        if not labels:
            raise ValueError("cannot derive mark levels from an empty pattern; pass levels explicitly")
        levels = tuple(MarkLevel(lab, i + 1) for i, lab in enumerate(labels))
        by_label = {lv.label: lv for lv in levels}
        pts = tuple((p, by_label[lab]) for p, lab in labeled_points)
        return cls(window, pts, levels)

    @property
    def n(self) -> int:
        return len(self.points)

    def level_by_label(self, label: str) -> MarkLevel:
        for lv in self.levels:
            if lv.label == label:
                return lv
        raise KeyError(f"unknown mark label {label!r}")

    def counts_by_level(self) -> dict[MarkLevel, int]:
        counts = {lv: 0 for lv in self.levels}
        for _, m in self.points:
            counts[m] += 1
        return counts


def split_by_mark(pattern: MarkedPointPattern) -> dict[MarkLevel, PointPattern]:
    """Partition a marked pattern into one sub-pattern per mark level.

    Sub-patterns share the window, preserve within-level order, and their
    counts sum to the ground count.
    """
    buckets: dict[MarkLevel, list[SpaceTimePoint]] = {lv: [] for lv in pattern.levels}
    for p, m in pattern.points:
        buckets[m].append(p)
    return {lv: PointPattern(pattern.window, tuple(pts)) for lv, pts in buckets.items()}


def ground_pattern(pattern: MarkedPointPattern) -> PointPattern:
    """Drop the marks, keeping all locations in their original order."""
    return PointPattern(pattern.window, tuple(p for p, _ in pattern.points))


def find_duplicate_points(pattern: PointPattern) -> list[tuple[int, ...]]:
    """Groups of indices whose coordinates coincide exactly.

    Duplicates are stored, not rejected; downstream fitting warns because
    the model assumes simple patterns. Cubature weights stay well defined.
    """
    seen: dict[tuple[float, float, float], list[int]] = {}
    for i, p in enumerate(pattern.points):
        seen.setdefault(p.as_tuple(), []).append(i)
    return [tuple(ix) for ix in seen.values() if len(ix) > 1]
