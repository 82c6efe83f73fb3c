"""Finite cubature approximation of intensity integrals.

The window is partitioned into equal-volume cells; one dummy point sits at
every cell center. Each cubature point (data or dummy) gets the weight
``nu / n_k`` where ``nu`` is the cell volume and ``n_k`` the number of
cubature points sharing its cell, so the weights always sum to the window
volume. The 0/1 data indicators and the responses ``y_k = e_k / a_k`` turn
the intensity log-likelihood into a weighted Poisson regression.

For multitype patterns the scheme is the ground pattern's scheme plus the
mark code of each data row: every level shares the locations and the one
weight vector, and gets its own indicator row, derived from the marks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .patterns import (
    MarkedPointPattern,
    PointPattern,
    Window,
    _readonly,
    _validated_marks,
    find_duplicate_points,
    ground_pattern,
)

__all__ = [
    "GridResolution",
    "DEFAULT_RESOLUTION",
    "CubatureWarning",
    "CubatureScheme",
    "ReplicatedCubatureScheme",
    "cell_axes",
    "cell_centers",
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

    def __str__(self) -> str:
        """The ``nx,ny,nt`` form the CLI's grid options take."""
        return f"{self.nx},{self.ny},{self.nt}"


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
    window = pattern.window
    dummies = cell_centers(window, res)
    coords = np.vstack([pattern.coords(), dummies]) if n else dummies
    ids = cell_indices(window, res, coords[:, 0], coords[:, 1], coords[:, 2])
    weights = res.cell_volume(window) / np.bincount(ids, minlength=m)[ids]
    is_data = np.zeros(n + m, dtype=np.uint8)
    is_data[:n] = 1
    return CubatureScheme(window, res, coords, is_data, weights, n, m)


def responses(scheme: CubatureScheme) -> np.ndarray:
    """Regression responses y_k = e_k / a_k (zero at dummy points)."""
    return scheme.is_data / scheme.weights


@dataclass(frozen=True, eq=False)
class ReplicatedCubatureScheme(CubatureScheme):
    """The ground pattern's scheme plus the mark code of each data row.

    Every level shares the locations and the weights; a data location has
    indicator 1 exactly for its own level, so other levels' data points act
    as extra dummies. ``weights_by_level`` and ``is_data_by_level`` are
    read-only (M, K) arrays derived from ``weights`` and ``marks``.
    """

    levels: tuple[str, ...]
    marks: np.ndarray  # (n_data,) positions into levels, in data-row order

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "marks", _validated_marks(self.marks, self.n_data, self.levels))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def weights_by_level(self) -> np.ndarray:
        return np.broadcast_to(self.weights, (self.n_levels, self.size))

    @property
    def is_data_by_level(self) -> np.ndarray:
        e = np.zeros((self.n_levels, self.size), dtype=np.uint8)
        e[self.marks, np.flatnonzero(self.is_data)] = 1
        return _readonly(e)


def build_replicated_scheme(
    pattern: MarkedPointPattern, res: GridResolution = DEFAULT_RESOLUTION
) -> ReplicatedCubatureScheme:
    """Replicated scheme for a multitype pattern: the ground pattern's scheme plus its marks.

    Weights are computed once over the shared locations (the ground data
    points followed by the dummy grid), so each level's weights sum to the
    window volume.
    """
    base = build_scheme(ground_pattern(pattern), res)
    return ReplicatedCubatureScheme(**vars(base), levels=pattern.levels, marks=pattern.marks)


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
