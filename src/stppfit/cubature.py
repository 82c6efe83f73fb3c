"""Finite cubature approximation of intensity integrals.

The window is partitioned into equal-volume cells; one dummy point sits at
every cell center. Each cubature point (data or dummy) gets the weight
``nu / n_k`` where ``nu`` is the cell volume and ``n_k`` the number of
cubature points sharing its cell, so the weights always sum to the window
volume. The 0/1 data indicators and the responses ``y_k = e_k / a_k`` turn
the intensity log-likelihood into a weighted Poisson regression.

For multitype patterns the scheme is replicated: every level shares one
location list (all data locations plus the dummy grid) and gets its own
indicator row, with level-specific indicators and per-level weight rows
each summing to the window volume.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .patterns import (
    MarkedPointPattern,
    MarkLevel,
    PointPattern,
    SpaceTimePoint,
    Window,
    _readonly,
    find_duplicate_points,
    ground_pattern,
)

__all__ = [
    "GridResolution",
    "DEFAULT_RESOLUTION",
    "CubatureWarning",
    "CubatureScheme",
    "ReplicatedCubatureScheme",
    "cube_index",
    "cell_axes",
    "cell_centers",
    "generate_dummy_grid",
    "build_scheme",
    "build_replicated_scheme",
    "responses",
    "replicated_responses",
    "approximate_integral",
]

WEIGHT_SUM_RTOL = 1e-10


class CubatureWarning(UserWarning):
    """Non-fatal cubature diagnostics (few dummy points, duplicate data)."""


@dataclass(frozen=True)
class GridResolution:
    """Number of partition cells per axis."""

    nx: int
    ny: int
    nt: int

    def __post_init__(self):
        for name in ("nx", "ny", "nt"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nt

    @property
    def per_axis(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nt)

    def cell_volume(self, window: Window) -> float:
        return window.volume() / self.n_cells


DEFAULT_RESOLUTION = GridResolution(10, 10, 10)


def _axis_indices(v: np.ndarray, lo: float, hi: float, n: int, name: str) -> np.ndarray:
    bad = (v < lo) | (v > hi)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(f"coordinate {name}={v[k]} outside window range ({lo}, {hi})")
    # Interior cell boundaries belong to the higher-index cell; the upper
    # window face is clamped into the last cell.
    idx = np.floor((v - lo) * n / (hi - lo)).astype(np.int64)
    return np.clip(idx, 0, n - 1)


def cell_indices(window: Window, res: GridResolution, x, y, t) -> np.ndarray:
    """Vectorized cell ids (row-major, x fastest) for points inside the window."""
    x, y, t = (np.asarray(a, dtype=float) for a in (x, y, t))
    ix = _axis_indices(x, *window.x_range, res.nx, "x")
    iy = _axis_indices(y, *window.y_range, res.ny, "y")
    it = _axis_indices(t, *window.t_range, res.nt, "t")
    return ix + res.nx * (iy + res.ny * it)


def cube_index(window: Window, res: GridResolution, p: SpaceTimePoint) -> int:
    """Cell id of a single point, in 0 .. n_cells - 1."""
    return int(cell_indices(window, res, [p.x], [p.y], [p.t])[0])


def cell_axes(window: Window, res: GridResolution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-center coordinates along x, y and t; the centers are their tensor product."""
    axes = []
    for (lo, hi), n in zip(window.ranges, res.per_axis):
        step = (hi - lo) / n
        axes.append(lo + (np.arange(n) + 0.5) * step)
    return tuple(axes)


def cell_centers(window: Window, res: GridResolution) -> np.ndarray:
    """Centers of all partition cells as an (n_cells, 3) array in cell-id order."""
    ax, ay, at = cell_axes(window, res)
    tt, yy, xx = np.meshgrid(at, ay, ax, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), tt.ravel()])


def generate_dummy_grid(window: Window, res: GridResolution) -> list[SpaceTimePoint]:
    """Dummy points at the cell centers of the partition, in cell-id order."""
    return [SpaceTimePoint(*row) for row in cell_centers(window, res)]


@dataclass(frozen=True, eq=False)
class CubatureScheme:
    """Data points followed by dummy points, with indicators and weights."""

    window: Window
    resolution: GridResolution
    coords: np.ndarray  # (n_data + n_dummy, 3)
    is_data: np.ndarray  # (K,) 0/1
    weights: np.ndarray  # (K,) positive, summing to window volume
    n_data: int
    n_dummy: int

    def __post_init__(self):
        coords = _readonly(np.asarray(self.coords, dtype=float).reshape(-1, 3))
        is_data = _readonly(np.asarray(self.is_data, dtype=np.uint8).ravel())
        weights = _readonly(np.asarray(self.weights, dtype=float).ravel())
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "is_data", is_data)
        object.__setattr__(self, "weights", weights)
        k = self.n_data + self.n_dummy
        if not (len(coords) == len(is_data) == len(weights) == k):
            raise ValueError("coords, is_data and weights must all have length n_data + n_dummy")
        if not np.all(np.isin(is_data, (0, 1))):
            raise ValueError("is_data entries must be 0 or 1")
        if int(is_data.sum()) != self.n_data:
            raise ValueError("is_data must contain exactly n_data ones")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("all cubature weights must be positive and finite")
        vol = self.window.volume()
        if abs(float(weights.sum()) - vol) > WEIGHT_SUM_RTOL * vol:
            raise ValueError(
                f"cubature weights sum to {weights.sum()!r}, expected window volume {vol!r}"
            )

    @property
    def size(self) -> int:
        return self.n_data + self.n_dummy

    @property
    def points(self) -> tuple[SpaceTimePoint, ...]:
        return tuple(SpaceTimePoint(*row) for row in self.coords)


def _scheme_arrays(window: Window, res: GridResolution, data_coords: np.ndarray):
    """Shared construction: merged coordinates, cell counts, weights."""
    dummies = cell_centers(window, res)
    coords = np.vstack([data_coords, dummies]) if len(data_coords) else dummies
    ids = cell_indices(window, res, coords[:, 0], coords[:, 1], coords[:, 2])
    counts = np.bincount(ids, minlength=res.n_cells)
    nu = res.cell_volume(window)
    weights = nu / counts[ids]
    return coords, weights


def build_scheme(pattern: PointPattern, res: GridResolution = DEFAULT_RESOLUTION) -> CubatureScheme:
    """Cubature scheme for a pattern: its points plus one dummy per cell.

    Each point's weight is the cell volume divided by the total number of
    cubature points (data and dummy) in its cell, so the weights sum to
    the window volume. Warns when the dummy count does not exceed the data
    count and when the pattern contains exactly duplicated points.
    """
    n = pattern.n
    m = res.n_cells
    if m <= n:
        warnings.warn(
            f"only {m} dummy points for {n} data points; refine the grid so that "
            "dummies outnumber the data",
            CubatureWarning,
            stacklevel=2,
        )
    if find_duplicate_points(pattern):
        warnings.warn(
            "pattern contains exactly coincident points; the fitted model assumes "
            "simple patterns, proceeding anyway",
            CubatureWarning,
            stacklevel=2,
        )
    coords, weights = _scheme_arrays(pattern.window, res, pattern.coords())
    is_data = np.zeros(n + m, dtype=np.uint8)
    is_data[:n] = 1
    return CubatureScheme(pattern.window, res, coords, is_data, weights, n, m)


def responses(scheme: CubatureScheme) -> np.ndarray:
    """Regression responses y_k = e_k / a_k (zero at dummy points)."""
    return scheme.is_data / scheme.weights


@dataclass(frozen=True, eq=False)
class ReplicatedCubatureScheme:
    """One shared location list with per-level indicators and weights.

    Locations are all ground data points followed by the dummy grid; a
    data location has indicator 1 exactly for its own level. Weight rows
    are computed over the shared location set, so each level's weights
    sum to the window volume.
    """

    window: Window
    resolution: GridResolution
    levels: tuple[MarkLevel, ...]
    coords: np.ndarray  # (K, 3) shared locations
    is_data_by_level: np.ndarray  # (M, K) 0/1
    weights_by_level: np.ndarray  # (M, K) positive
    n_ground: int
    n_dummy: int

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        coords = _readonly(np.asarray(self.coords, dtype=float).reshape(-1, 3))
        e = _readonly(np.asarray(self.is_data_by_level, dtype=np.uint8))
        w = _readonly(np.asarray(self.weights_by_level, dtype=float))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "is_data_by_level", e)
        object.__setattr__(self, "weights_by_level", w)
        m, k = len(self.levels), self.n_ground + self.n_dummy
        if m == 0:
            raise ValueError("a replicated scheme needs at least one mark level")
        if coords.shape != (k, 3) or e.shape != (m, k) or w.shape != (m, k):
            raise ValueError("inconsistent replicated scheme shapes")
        if not np.all(np.isin(e, (0, 1))):
            raise ValueError("indicators must be 0 or 1")
        col_sums = e.sum(axis=0)
        if np.any(col_sums[: self.n_ground] != 1):
            raise ValueError("each data location must belong to exactly one level")
        if np.any(col_sums[self.n_ground:] != 0):
            raise ValueError("dummy locations must have all-zero indicators")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("all cubature weights must be positive and finite")
        vol = self.window.volume()
        sums = w.sum(axis=1)
        if np.any(np.abs(sums - vol) > WEIGHT_SUM_RTOL * vol):
            raise ValueError(f"per-level weight sums {sums} do not match window volume {vol!r}")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def size(self) -> int:
        return self.n_ground + self.n_dummy

    def n_by_level(self) -> dict[MarkLevel, int]:
        return {lv: int(self.is_data_by_level[i].sum()) for i, lv in enumerate(self.levels)}


def build_replicated_scheme(
    pattern: MarkedPointPattern, res: GridResolution = DEFAULT_RESOLUTION
) -> ReplicatedCubatureScheme:
    """Replicated scheme for a multitype pattern.

    The shared locations are the ground pattern followed by the dummy
    grid. Every level sees the full location set (other levels' data
    points act as extra dummies for it), and weights are computed once
    over that shared set, which keeps each level's weight sum equal to
    the window volume.
    """
    if not pattern.levels:
        raise ValueError("marked pattern has no levels")
    base = build_scheme(ground_pattern(pattern), res)
    m = len(pattern.levels)
    k = base.size
    e = np.zeros((m, k), dtype=np.uint8)
    level_pos = {lv: i for i, lv in enumerate(pattern.levels)}
    for j, (_, mark) in enumerate(pattern.points):
        e[level_pos[mark], j] = 1
    w = np.tile(base.weights, (m, 1))
    return ReplicatedCubatureScheme(
        pattern.window,
        res,
        pattern.levels,
        base.coords,
        e,
        w,
        base.n_data,
        base.n_dummy,
    )


def replicated_responses(scheme: ReplicatedCubatureScheme) -> np.ndarray:
    """Per-level responses y_mk = e_mk / a_mk as an (M, K) array."""
    return scheme.is_data_by_level / scheme.weights_by_level


def approximate_integral(scheme: CubatureScheme, f) -> float:
    """Weighted Riemann sum of ``f`` over the scheme's points.

    ``f`` is called as ``f(x, y, t)`` with the three coordinate arrays and
    must return finite values elementwise.
    """
    vals = np.asarray(
        f(scheme.coords[:, 0], scheme.coords[:, 1], scheme.coords[:, 2]), dtype=float
    )
    if vals.shape != (scheme.size,):
        vals = np.broadcast_to(vals, (scheme.size,))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        x, y, t = scheme.coords[k]
        raise ValueError(f"integrand is not finite at point ({x}, {y}, {t}): {vals[k]!r}")
    return float(np.dot(scheme.weights, vals))
