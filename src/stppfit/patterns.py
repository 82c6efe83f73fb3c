"""Space-time geometry and the columnar point-pattern data model.

Events live in a bounded axis-aligned box (the observation window). A
pattern stores them as one validated, read-only ``(n, 3)`` float array
``xyt`` (columns x, y, t, rows in pattern order); a marked pattern is a
``PointPattern`` that adds ``marks``, integer positions into its ``levels``
(so ``isinstance(marked, PointPattern)`` holds, and ``fit_stpp`` refuses it by name).
``SpaceTimePoint`` is the scalar type at the API edges: ``points`` builds
those objects on demand, and no fitting code calls it. Patterns hold arrays,
so they do not compare with ``==``. All types are immutable after construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceTimePoint",
    "Window",
    "PointPattern",
    "MarkedPointPattern",
    "split_by_mark",
    "ground_pattern",
    "find_duplicate_points",
]

_AXES = ("x", "y", "t")


def _readonly(a: np.ndarray) -> np.ndarray:
    """Non-writeable C-contiguous view of ``a``; the array passed in stays writeable."""
    view = np.ascontiguousarray(a).view()
    view.flags.writeable = False
    return view


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


class SpaceTimePoint(namedtuple("SpaceTimePoint", "x y t")):
    """An event at spatial location (x, y) occurring at time t (finite floats)."""

    __slots__ = ()

    def __new__(cls, x, y, t):
        xyt = (float(x), float(y), float(t))
        for name, v, raw in zip(_AXES, xyt, (x, y, t)):
            if not math.isfinite(v):
                raise ValueError(f"coordinate {name} must be finite, got {raw!r}")
        return super().__new__(cls, *xyt)


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
    def bounding(cls, xyt) -> "Window":
        """Smallest window containing the rows of an (n, 3) array (degenerate axes rejected)."""
        xyt = np.asarray(xyt, dtype=float).reshape(-1, 3)
        if not len(xyt):
            raise ValueError("cannot infer a window from an empty point list")
        return cls(*zip(xyt.min(axis=0).tolist(), xyt.max(axis=0).tolist()))

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
        return _first_outside(self, np.array([[x], [y], [t]], dtype=float)) is None

    def contains_window(self, other: "Window") -> bool:
        return all(
            o_lo >= s_lo and o_hi <= s_hi
            for (s_lo, s_hi), (o_lo, o_hi) in zip(self.ranges, other.ranges)
        )


def _first_outside(window: Window, columns) -> int | None:
    """The first row of the coordinate ``columns`` x, y, t outside the closed ``window``, or None. Per-column
    extrema rule most inputs in first; nan fails every comparison, so a nan coordinate lies outside."""
    if not len(columns[0]) or all(c.min() >= lo and c.max() <= hi for c, (lo, hi) in zip(columns, window.ranges)):
        return None
    return int(np.argmax(~np.all([(c >= lo) & (c <= hi) for c, (lo, hi) in zip(columns, window.ranges)], axis=0)))


@dataclass(frozen=True, eq=False, init=False)
class PointPattern:
    """Finite ordered set of events inside a window (count not fixed).

    ``points`` (an (n, 3) array-like or ``SpaceTimePoint`` sequence) is copied,
    so later writes to the caller's array cannot move an event out of the window.
    """

    window: Window
    xyt: np.ndarray
    _noun = "point"  # how a location error names a row

    def __init__(self, window: Window, points=()):
        xyt = np.array(points, dtype=float)
        if xyt.size and xyt.shape[-1] != 3:
            raise ValueError(f"{self._noun} coordinates must form an (n, 3) array, got shape {xyt.shape}")
        self._set_locations(window, xyt.reshape(-1, 3))

    def _set_locations(self, window: Window, xyt: np.ndarray) -> None:
        """Check that every row of the (n, 3) array ``xyt``, which the pattern then owns, lies in ``window``."""
        i = _first_outside(window, xyt.T)
        if i is not None:
            x, y, t = xyt[i].tolist()
            problem = "lies outside" if np.isfinite(xyt[i]).all() else "is not finite, so not inside"
            raise ValueError(
                f"{self._noun} {i} at ({x}, {y}, {t}) {problem} the window "
                f"x{window.x_range} y{window.y_range} t{window.t_range}"
            )
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "xyt", _readonly(xyt))

    @classmethod
    def from_arrays(cls, window: Window, x, y, t) -> "PointPattern":
        """Build from coordinate arrays of equal size, copied once into the pattern's (n, 3) array."""
        x, y, t = (np.asarray(a, dtype=float).reshape(-1) for a in (x, y, t))  # views where possible
        if not (x.size == y.size == t.size):
            raise ValueError("x, y, t must have equal lengths")
        pattern = cls.__new__(cls)
        pattern._set_locations(window, np.column_stack([x, y, t]))
        return pattern

    @property
    def n(self) -> int:
        return len(self.xyt)

    def coords(self) -> np.ndarray:
        """Coordinates as the read-only (n, 3) float array, in pattern order."""
        return self.xyt

    @property
    def points(self) -> tuple[SpaceTimePoint, ...]:
        """The events as ``SpaceTimePoint`` objects, built on each access."""
        return tuple(map(SpaceTimePoint._make, self.xyt.tolist()))


def _validated_marks(marks, n: int, levels: tuple[str, ...]) -> np.ndarray:
    """Check level labels, which must each fit one UTF-8 CSV cell, and ``n`` integer codes into them;
    return the codes as a read-only copy."""
    if not levels:
        raise ValueError("a marked pattern needs at least one mark level")
    for label in levels:
        if not isinstance(label, str) or not label:
            raise ValueError(f"mark label must be a nonempty string, got {label!r}")
        if ("," in label or label.splitlines() != [label] or label != label.strip()
                or label.encode("utf-8", "ignore").decode() != label):  # e.g. a lone surrogate, '\ud800'
            raise ValueError(f"mark label {label!r} cannot be written to a CSV cell: it must be UTF-8 encodable, "
                             "hold no comma or line break and not start or end with whitespace")
    if len(set(levels)) != len(levels):
        raise ValueError(f"mark labels must be distinct, got {list(levels)}")
    codes = np.asarray(marks)
    if codes.shape != (n,) or (codes.size and codes.dtype.kind not in "iu"):
        raise ValueError(f"need {n} integer mark codes, got {codes.dtype} of shape {codes.shape}")
    unknown = (codes < 0) | (codes >= len(levels))
    if unknown.any():
        i = int(np.argmax(unknown))
        raise ValueError(f"point {i} carries unknown mark code {codes[i]} ({len(levels)} levels)")
    return _readonly(codes.astype(np.intp))


def _mark_codes(labels) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each label's 0-based position among the levels, and the levels: the sorted unique labels."""
    if not len(labels):
        raise ValueError("cannot derive mark levels from an empty pattern; pass levels explicitly")
    levels = tuple(sorted(set(labels)))
    position = {label: i for i, label in enumerate(levels)}
    return np.fromiter(map(position.__getitem__, labels), dtype=np.intp, count=len(labels)), levels


@dataclass(frozen=True, eq=False, init=False)
class MarkedPointPattern(PointPattern):
    """Pattern whose events carry a categorical mark from a fixed level set.

    The locations are a ``PointPattern``'s; ``marks[i]`` is the 0-based position
    of event i's label in ``levels``. The per-level sub-patterns partition the
    ground (location-only) pattern; every declared level is allowed to be empty.
    """

    marks: np.ndarray
    levels: tuple[str, ...]
    _noun = "marked point"

    def __init__(self, window: Window, xyt=(), marks=(), levels=()):
        super().__init__(window, xyt)
        self._set_marks(marks, levels)

    def _set_marks(self, marks, levels) -> None:
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "marks", _validated_marks(marks, self.n, self.levels))

    @classmethod
    def from_arrays(cls, window: Window, x, y, t, marks, levels) -> "MarkedPointPattern":
        """Build from coordinate arrays and, per point, its integer mark code into ``levels``."""
        pattern = super().from_arrays(window, x, y, t)
        pattern._set_marks(marks, levels)
        return pattern

    @classmethod
    def from_labeled(cls, window: Window, labeled_points) -> "MarkedPointPattern":
        """Build from (point, label) pairs; levels are the sorted unique labels."""
        pairs = list(labeled_points)
        points, labels = zip(*pairs) if pairs else ((), ())
        return cls(window, points, *_mark_codes(labels))

    @property
    def points(self) -> tuple[tuple[SpaceTimePoint, str], ...]:
        """(``SpaceTimePoint``, label) pairs, built on each access."""
        return tuple(zip(super().points, map(self.levels.__getitem__, self.marks.tolist())))

    def counts_by_level(self) -> dict[str, int]:
        return dict(zip(self.levels, np.bincount(self.marks, minlength=len(self.levels)).tolist()))


def split_by_mark(pattern: MarkedPointPattern) -> dict[str, PointPattern]:
    """Partition a marked pattern into one sub-pattern per mark level, keyed by label.

    Sub-patterns share the window, preserve within-level order, and their
    counts sum to the ground count.
    """
    window, xyt, marks = pattern.window, pattern.xyt, pattern.marks
    return {label: PointPattern(window, xyt[marks == i]) for i, label in enumerate(pattern.levels)}


def ground_pattern(pattern: MarkedPointPattern) -> PointPattern:
    """Drop the marks, keeping all locations in order (sharing the validated, frozen array)."""
    ground = PointPattern.__new__(PointPattern)
    object.__setattr__(ground, "window", pattern.window)
    object.__setattr__(ground, "xyt", pattern.xyt)
    return ground


def find_duplicate_points(pattern: PointPattern) -> list[tuple[int, ...]]:
    """Groups of indices whose coordinates coincide exactly (``-0.0 == 0.0``).

    Groups come in order of first occurrence, indices ascending. Duplicates
    are stored, not rejected; downstream fitting warns because the model
    assumes simple patterns. Cubature weights stay well defined.
    """
    xs = np.sort(pattern.xyt[:, 0])
    if not (xs[1:] == xs[:-1]).any():  # a duplicate needs a tie in x; one sort rules most out
        return []
    order = np.lexsort(pattern.xyt.T)  # stable: equal rows keep ascending indices
    rows = pattern.xyt[order]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    sizes = np.diff(np.r_[starts, len(rows)])
    dup = sizes > 1
    groups = [tuple(order[a : a + k].tolist()) for a, k in zip(starts[dup].tolist(), sizes[dup].tolist())]
    return sorted(groups)  # disjoint groups, so this orders them by first index
