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
    bad = ~((v >= lo) & (v <= hi))  # nan fails both tests, so it lies outside
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


def _write_centers(out: np.ndarray, res: GridResolution, axes) -> None:
    """Write the tensor product of the cell ``axes`` into the (n_cells, 3) array ``out``, in cell-id order."""
    ax, ay, at = axes
    grid = out.reshape(res.nt, res.ny, res.nx, 3)  # a view: ``out`` is C-contiguous
    grid[..., 0] = ax
    grid[..., 1] = ay[:, None]
    grid[..., 2] = at[:, None, None]


def cell_centers(window: Window, res: GridResolution) -> np.ndarray:
    """Centers of all partition cells as an (n_cells, 3) array in cell-id order."""
    out = np.empty((res.n_cells, 3))
    _write_centers(out, res, cell_axes(window, res))
    return out


@dataclass(frozen=True, eq=False)
class CubatureScheme:
    """K cubature points with weights, the first ``n_data`` rows being the data points."""

    window: Window
    resolution: GridResolution
    coords: np.ndarray  # (K, 3), data rows first
    weights: np.ndarray  # (K,) positive, summing to window volume
    n_data: int

    def __post_init__(self):
        coords = _readonly(np.asarray(self.coords, dtype=float).reshape(-1, 3))
        weights = _readonly(np.asarray(self.weights, dtype=float).ravel())
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)
        if len(coords) != len(weights):
            raise ValueError(f"coords has {len(coords)} rows but weights has {len(weights)}")
        if not 0 <= self.n_data <= len(coords):
            raise ValueError(f"n_data must lie between 0 and the {len(coords)} points, got {self.n_data}")
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise ValueError("all cubature weights must be positive and finite")
        vol = self.window.volume()
        if abs(float(weights.sum()) - vol) > WEIGHT_SUM_RTOL * vol:
            raise ValueError(
                f"cubature weights sum to {weights.sum()!r}, expected window volume {vol!r}"
            )

    @property
    def size(self) -> int:
        return len(self.coords)

    @property
    def n_dummy(self) -> int:
        return self.size - self.n_data

    @property
    def is_data(self) -> np.ndarray:
        """Read-only (K,) uint8 data indicator: 1 on the first ``n_data`` rows, 0 after."""
        e = np.zeros(self.size, dtype=np.uint8)
        e[: self.n_data] = 1
        return _readonly(e)


def build_scheme(pattern: PointPattern, res: GridResolution = DEFAULT_RESOLUTION) -> CubatureScheme:
    """Cubature scheme for a pattern: its points plus one dummy per cell.

    Each point's weight is the cell volume divided by the total number of
    cubature points (data and dummy) in its cell, so the weights sum to
    the window volume. Warns when the dummy count does not exceed the data
    count and when the pattern contains exactly duplicated points. Raises a
    ValueError when cells are so narrow that a centre bins into another cell.
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
    axes = cell_axes(window, res)
    # dummy k, the centre of cell k, bins into cell k exactly when each axis's centres bin into their own cells
    for (lo, hi), k, centres, name in zip(window.ranges, res.per_axis, axes, "xyt"):
        if not np.array_equal(_axis_indices(centres, lo, hi, k, name), np.arange(k)):
            raise ValueError(f"grid too fine for its window: at {k} cells along {name}, a cell is {(hi - lo) / k!r} "
                             f"wide, too narrow for the range ({lo}, {hi}) to give each its own centre")
    coords = np.empty((n + m, 3))
    coords[:n] = pattern.coords()
    _write_centers(coords[n:], res, axes)
    ids = cell_indices(window, res, *coords[:n].T)
    counts = np.bincount(ids, minlength=m) + 1  # + 1: the cell's own dummy
    weights = np.empty(n + m)
    weights[:n], weights[n:] = counts[ids], counts
    np.divide(res.cell_volume(window), weights, out=weights)
    return CubatureScheme(window, res, coords, weights, n)


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
        e[self.marks, np.arange(self.n_data)] = 1
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
    vals = np.asarray(f(*scheme.coords.T), dtype=float)
    if vals.shape != (scheme.size,):
        vals = np.broadcast_to(vals, (scheme.size,))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        k = int(np.argmax(bad))
        x, y, t = scheme.coords[k]
        raise ValueError(f"integrand is not finite at point ({x}, {y}, {t}): {vals[k]!r}")
    return float(np.dot(scheme.weights, vals))
