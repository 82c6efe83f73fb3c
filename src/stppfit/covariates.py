"""Covariate terms for log-linear intensity models.

Built-in terms are the intercept and coordinate monomials ``x^i y^j t^k``.
External covariates observed at scattered locations are first smoothed
onto a fine regular grid by three-dimensional inverse-distance weighting
(IDW) and then looked up by containing cell, which for cell centers is
the nearest grid point.

Space and time carry different units, so raw 3D Euclidean distance is not
meaningful; distances are computed after dividing each axis by a
configurable scale factor (by default the window side lengths, which maps
the window onto the unit cube).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .cubature import GridResolution, cell_axes, cell_indices
from .patterns import SpaceTimePoint, Window, _readonly

__all__ = [
    "CovariateSample",
    "IdwConfig",
    "CovariateGrid",
    "Intercept",
    "CoordinateMonomial",
    "ExternalCovariate",
    "CovariateFunction",
    "DEFAULT_FINE_RESOLUTION",
    "MAX_MONOMIAL_DEGREE",
    "idw_interpolate",
    "smooth_to_grid",
    "nearest_grid_value",
    "evaluate_covariate",
]

DEFAULT_FINE_RESOLUTION = GridResolution(64, 64, 64)
MAX_MONOMIAL_DEGREE = 6

# Scaled distances below this are treated as coincident with a sample site.
_COINCIDENT_DIST = 1e-12

# Cap on the (query, sample) pairs in one IDW block buffer.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class CovariateSample:
    """A covariate value observed at one space-time location."""

    location: SpaceTimePoint
    value: float

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError(f"covariate value must be finite, got {self.value!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class IdwConfig:
    """Inverse-distance weighting parameters.

    ``power`` is the exponent p in the weights 1 / d^p. ``scaling`` holds
    per-axis divisors applied before the Euclidean distance.
    """

    power: float = 2.0
    scaling: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"IDW power must be positive, got {self.power!r}")
        s = tuple(float(v) for v in self.scaling)
        if len(s) != 3 or any(not math.isfinite(v) or v <= 0 for v in s):
            raise ValueError(f"scaling must be three positive factors, got {self.scaling!r}")
        object.__setattr__(self, "scaling", s)

    @classmethod
    def for_window(cls, window: Window, power: float = 2.0) -> "IdwConfig":
        """Scale each axis by its window length (window maps to the unit cube)."""
        return cls(power=power, scaling=window.lengths)


def _sample_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    samples = list(samples)
    if not samples:
        raise ValueError("IDW needs at least one covariate sample")
    xyz = np.array([s.location.as_tuple() for s in samples], dtype=float)
    vals = np.array([s.value for s in samples], dtype=float)
    return xyz, vals


def _idw_on_axes(axes, xyz: np.ndarray, vals: np.ndarray, cfg: IdwConfig) -> np.ndarray:
    """IDW estimates on the tensor product of the coordinate arrays ``axes = (ax, ay, at)``.

    The result is in cell-id order (x fastest, then y, then t). Scaled
    squared distances come from per-axis tables ``D_a = (axis_a / scale_a -
    s_a)**2`` of shape ``(n_a, J)``, summed as ``(D_x + D_y) + D_t``: the
    order of the direct ``((q - s)**2).sum(axis=-1)``. Queries are taken in
    blocks of at most ``_BLOCK_PAIRS`` (query, sample) pairs, and one block
    of ``D_x + D_y`` serves every t slice, so working memory is two block
    buffers plus the three tables. Weights are normalized per row before
    the value sum, which makes a lone sample reproduce exactly. Every row is
    reduced on its own, so each value is bit-identical to the direct
    formula whatever the axes or the block size: grid smoothing and
    single-point interpolation agree bit for bit.
    """
    s = xyz / np.asarray(cfg.scaling)
    dx, dy, dt = (
        (np.asarray(ax, dtype=float)[:, None] / sc - s[None, :, a]) ** 2
        for a, (ax, sc) in enumerate(zip(axes, cfg.scaling))
    )
    nx, n_xy, nt = len(dx), len(dx) * len(dy), len(dt)
    n_samples = len(vals)
    rows = max(1, min(n_xy, _BLOCK_PAIRS // n_samples))
    dxy_buf = np.empty((rows, n_samples))
    w_buf = np.empty((rows, n_samples))
    out = np.empty(n_xy * nt)
    # coincident rows come out as nan here and are overwritten below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r0 in range(0, n_xy, rows):
            xy = np.arange(r0, min(r0 + rows, n_xy))
            dxy, w = dxy_buf[: len(xy)], w_buf[: len(xy)]
            # mode="clip" lets take write into out without a temporary
            np.take(dx, xy % nx, axis=0, out=dxy, mode="clip")
            np.take(dy, xy // nx, axis=0, out=w, mode="clip")
            dxy += w
            for it in range(nt):
                np.add(dxy, dt[it], out=w)
                if cfg.power == 2.0:
                    np.divide(1.0, w, out=w)
                else:
                    np.power(w, -cfg.power / 2.0, out=w)
                w /= w.sum(axis=1, keepdims=True)
                w *= vals
                w.sum(axis=1, out=out[it * n_xy + r0 : it * n_xy + r0 + len(xy)])

    # A cell within _COINCIDENT_DIST of a sample gets the mean of all such
    # samples. A rounded sum of nonnegative terms is at least each term, so
    # only samples close on every axis can be coincident with a cell.
    eps2 = _COINCIDENT_DIST**2
    near_x, near_y, near_t = (d < eps2 for d in (dx, dy, dt))
    hits = set()
    for j in np.flatnonzero(near_x.any(axis=0) & near_y.any(axis=0) & near_t.any(axis=0)):
        hits.update(
            itertools.product(*(np.flatnonzero(n[:, j]) for n in (near_x, near_y, near_t)))
        )
    for ix, iy, it in hits:
        near = (dx[ix] + dy[iy]) + dt[it] < eps2
        if near.any():
            out[it * n_xy + iy * nx + ix] = float(np.mean(vals[near]))
    return out


def idw_interpolate(samples, query: SpaceTimePoint, cfg: IdwConfig | None = None) -> float:
    """Inverse-distance weighted mean of the sample values at one query point.

    Weights are 1 / d^p with d the per-axis scaled Euclidean distance. A
    query within 1e-12 scaled distance of one or more sample sites returns
    the plain mean of those samples' values, which keeps the interpolant
    exact at its sampling locations.
    """
    xyz, vals = _sample_arrays(samples)
    cfg = cfg if cfg is not None else IdwConfig()
    axes = ([query.x], [query.y], [query.t])
    return float(_idw_on_axes(axes, xyz, vals, cfg)[0])


@dataclass(frozen=True, eq=False)
class CovariateGrid:
    """Covariate values on a regular grid, stored in cell-id order."""

    window: Window
    resolution: GridResolution
    values: np.ndarray

    def __post_init__(self):
        vals = _readonly(np.asarray(self.values, dtype=float).ravel())
        if vals.size != self.resolution.n_cells:
            raise ValueError(
                f"grid needs {self.resolution.n_cells} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must all be finite")
        object.__setattr__(self, "values", vals)


def smooth_to_grid(
    samples,
    window: Window,
    res: GridResolution = DEFAULT_FINE_RESOLUTION,
    cfg: IdwConfig | None = None,
) -> CovariateGrid:
    """IDW-smooth scattered samples onto the cell centers of a fine grid.

    With ``cfg=None`` the per-axis scaling defaults to the window lengths.
    Cost is O(cells x samples): a 64^3 grid with 200 samples is 52 million
    (cell, sample) pairs.
    """
    xyz, vals = _sample_arrays(samples)
    cfg = cfg if cfg is not None else IdwConfig.for_window(window)
    return CovariateGrid(window, res, _idw_on_axes(cell_axes(window, res), xyz, vals, cfg))


def nearest_grid_value(grid: CovariateGrid, p: SpaceTimePoint) -> float:
    """Value of the grid cell containing ``p`` (its nearest center for interior points)."""
    ids = cell_indices(grid.window, grid.resolution, [p.x], [p.y], [p.t])
    return float(grid.values[ids[0]])


class Intercept:
    """Constant covariate, identically one."""

    name = "1"

    def evaluate(self, x, y, t) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))

    def __repr__(self):
        return "Intercept()"

    def __eq__(self, other):
        return isinstance(other, Intercept)

    def __hash__(self):
        return hash("Intercept")


@dataclass(frozen=True)
class CoordinateMonomial:
    """Coordinate covariate x^i y^j t^k with small nonnegative exponents."""

    x_exp: int = 0
    y_exp: int = 0
    t_exp: int = 0

    def __post_init__(self):
        exps = (self.x_exp, self.y_exp, self.t_exp)
        if any(int(e) != e or e < 0 for e in exps):
            raise ValueError(f"exponents must be nonnegative integers, got {exps}")
        for name, e in zip(("x_exp", "y_exp", "t_exp"), exps):
            object.__setattr__(self, name, int(e))
        if self.x_exp + self.y_exp + self.t_exp > MAX_MONOMIAL_DEGREE:
            raise ValueError(
                f"total monomial degree is capped at {MAX_MONOMIAL_DEGREE}, got {exps}"
            )

    @property
    def name(self) -> str:
        parts = []
        for sym, e in zip("xyt", (self.x_exp, self.y_exp, self.t_exp)):
            if e == 1:
                parts.append(sym)
            elif e > 1:
                parts.append(f"{sym}^{e}")
        return "*".join(parts) if parts else "1"

    def evaluate(self, x, y, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        for arr, e in zip((x, y, t), (self.x_exp, self.y_exp, self.t_exp)):
            if e:
                out = out * np.asarray(arr, dtype=float) ** e
        return out


@dataclass(frozen=True, eq=False)
class ExternalCovariate:
    """Named external covariate backed by a smoothed grid."""

    grid: CovariateGrid
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("external covariate needs a nonempty name")

    def evaluate(self, x, y, t) -> np.ndarray:
        ids = cell_indices(self.grid.window, self.grid.resolution, x, y, t)
        return self.grid.values[ids]


CovariateFunction = Union[Intercept, CoordinateMonomial, ExternalCovariate]


def evaluate_covariate(f: CovariateFunction, p: SpaceTimePoint) -> float:
    """Value of a covariate term at a single point."""
    return float(f.evaluate(np.array([p.x]), np.array([p.y]), np.array([p.t]))[0])
