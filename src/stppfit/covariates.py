"""Covariate terms for log-linear intensity models.

Built-in terms are the intercept and coordinate monomials ``x^i y^j t^k``.
External covariates observed at scattered locations are smoothed onto a
fine regular grid by three-dimensional inverse-distance weighting (IDW),
``v_0 + sum_j w_j (v_j - v_0) / sum_j w_j`` with ``w_j = d_j^-p``, and
looked up by containing cell, which for cell centers is the nearest grid
point. The grid computes a cell only when a lookup first reads it, and a
cell whose value is not finite is never stored: it fails on every read.

Space and time carry different units, so raw 3D Euclidean distance is not
meaningful; distances are computed after dividing each axis by a
configurable scale factor (by default the window side lengths, which maps
the window onto the unit cube).
"""

from __future__ import annotations

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
]

DEFAULT_FINE_RESOLUTION = GridResolution(64, 64, 64)
MAX_MONOMIAL_DEGREE = 6

# Scaled distances below this are treated as coincident with a sample site.
_COINCIDENT_DIST = 1e-12

# Cap on the (query, sample) pairs in one IDW block buffer.
_BLOCK_PAIRS = 1 << 15


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


def _sample_table(samples) -> np.ndarray:
    """``CovariateSample`` objects or an (J, 4) array-like of ``x, y, t, value`` rows as a new finite array, J >= 1."""
    if not isinstance(samples, np.ndarray):
        samples = [(*s.location, s.value) if isinstance(s, CovariateSample) else s for s in samples]
    table = np.array(samples, dtype=float)
    if table.ndim != 2 or table.shape[1] != 4 or not len(table) or not np.isfinite(table).all():
        raise ValueError("IDW needs at least one covariate sample, as finite x, y, t, value rows")
    return table


def _idw_cells(axes, cells: np.ndarray, samples: np.ndarray, cfg: IdwConfig, out: np.ndarray) -> None:
    """Write the IDW estimate at cell ``cells[k]`` of the grid ``axes`` to ``out[cells[k]]``.

    ``axes = (ax, ay, at)`` are the cell-center coordinates (ids run x
    fastest) and ``samples`` holds ``x, y, t, value`` rows. Cell ``(ix, iy,
    it)`` sums the per-axis tables ``D_a = (axis_a / scale_a - s_a)**2`` as
    ``(D_x[ix] + D_y[iy]) + D_t[it]``, the order of the direct ``((q -
    s)**2).sum(axis=-1)``, in blocks of at most ``_BLOCK_PAIRS`` (cell,
    sample) pairs. Its value is ``v_0 + sum_j w_j (v_j - v_0) / sum_j w_j``,
    two numpy row reductions and one division; centring on the first
    sample's value ``v_0`` keeps a lone sample and a constant field exact.
    Each row is reduced on its own, so a value does not depend on what else
    is computed with it. A cell within ``_COINCIDENT_DIST`` of samples gets
    the mean of their values; a rounded sum of terms ``D_a >= 0`` is at
    least each term, so only cells that close to a sample on every axis are
    checked. A non-finite value raises a ValueError before its block is stored.
    """
    s, vals, offsets = samples[:, :3] / np.asarray(cfg.scaling), samples[:, 3], samples[:, 3] - samples[0, 3]
    dx, dy, dt = (
        (np.asarray(ax, dtype=float)[:, None] / sc - s[None, :, a]) ** 2
        for a, (ax, sc) in enumerate(zip(axes, cfg.scaling))
    )
    nx, ny, n, n_samples = len(dx), len(dy), len(cells), len(vals)
    rows = max(1, min(n, _BLOCK_PAIRS // n_samples))
    d_buf, w_buf, eps2 = np.empty((rows, n_samples)), np.empty((rows, n_samples)), _COINCIDENT_DIST**2
    near_x, near_y, near_t = ((da < eps2).any(axis=1) for da in (dx, dy, dt))
    # coincident rows come out as nan here and are overwritten below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r0 in range(0, n, rows):
            c = cells[r0 : r0 + rows]
            d, w = d_buf[: len(c)], w_buf[: len(c)]
            ix, iy, it = c % nx, c // nx % ny, c // (nx * ny)
            # mode="clip" lets take write into the buffers without a temporary
            np.take(dx, ix, axis=0, out=d, mode="clip")
            np.take(dy, iy, axis=0, out=w, mode="clip")
            d += w
            np.take(dt, it, axis=0, out=w, mode="clip")
            d += w
            if cfg.power == 2.0:
                np.divide(1.0, d, out=w)
            else:
                np.power(d, -cfg.power / 2.0, out=w)
            v = np.einsum("ij,j->i", w, offsets)
            v /= np.einsum("ij->i", w)
            v += vals[0]
            for r in np.flatnonzero(near_x[ix] & near_y[iy] & near_t[it]):
                if (hit := d[r] < eps2).any():
                    v[r] = float(np.mean(vals[hit]))
            if not np.isfinite(v).all():
                r = int(np.argmin(np.isfinite(v)))
                x, y, t = (a[i] for a, i in zip(axes, (ix[r], iy[r], it[r])))
                raise ValueError(f"grid values must all be finite: at the cell centred at ({x:g}, {y:g}, {t:g}), the "
                                 f"IDW weights 1/d^p at power {cfg.power:g} leave the range of double precision")
            out[c] = v


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct entries of ``ids`` in increasing order, as ``np.unique`` returns them, with less overhead."""
    ids = np.sort(ids)
    return ids[np.diff(ids, prepend=ids[:1] - 1) != 0]


def idw_interpolate(samples, query: SpaceTimePoint, cfg: IdwConfig | None = None) -> float:
    """Inverse-distance weighted mean of the sample values at one query point.

    Weights are 1 / d^p with d the per-axis scaled Euclidean distance. A
    query within 1e-12 scaled distance of one or more sample sites returns
    the plain mean of those samples' values, which keeps the interpolant
    exact at its sampling locations; weights beyond double precision raise.
    """
    axes, cfg, out = ([query.x], [query.y], [query.t]), cfg if cfg is not None else IdwConfig(), np.empty(1)
    _idw_cells(axes, np.zeros(1, dtype=np.intp), _sample_table(samples), cfg, out)
    return float(out[0])


class CovariateGrid:
    """Covariate values on a regular grid, in cell-id order (x fastest, then y, then t).

    ``CovariateGrid(window, resolution, values)`` holds one value per cell.
    ``CovariateGrid(window, resolution, samples=table, idw=cfg)``, which ``smooth_to_grid``
    builds, holds IDW samples instead, an (J, 4) array of ``x, y, t, value`` rows, and
    computes a cell when ``values_at`` or ``values`` first reads it, bit-identical to
    ``idw_interpolate`` at its center; a cell whose value is not finite fails every read.
    """

    def __init__(self, window: Window, resolution: GridResolution, values=None, *,
                 samples=None, idw: IdwConfig | None = None):
        self.window, self.resolution = window, resolution
        n = resolution.n_cells
        if samples is None:
            self.samples = self.idw = None
            self._cache = np.array(values, dtype=float).ravel()
            if self._cache.size != n:
                raise ValueError(f"grid needs {n} values, got {self._cache.size}")
            if not np.isfinite(self._cache).all():
                raise ValueError("grid values must all be finite")
            return
        if values is not None or not isinstance(idw, IdwConfig):
            raise ValueError("a grid takes either values, or samples with an IdwConfig")
        # nan marks a cell not computed yet: a computed value is finite or never stored
        self.samples, self.idw, self._cache = _readonly(_sample_table(samples)), idw, np.full(n, np.nan)

    @property
    def values(self) -> np.ndarray:
        """Every cell's value, read-only; computes the cells not read yet."""
        self.values_at(np.flatnonzero(np.isnan(self._cache)))
        return _readonly(self._cache)

    def values_at(self, ids) -> np.ndarray:
        """Cells ``ids`` (repeats allowed), checked to lie in 0 ... n_cells - 1; one fill computes the unread."""
        ids = np.asarray(ids, dtype=np.intp)
        bad = (ids < 0) | (ids >= self._cache.size)
        if bad.any():
            raise IndexError(f"cell id {ids[bad][0]} is outside 0 ... {self._cache.size - 1}")
        missing = ids[np.isnan(self._cache[ids])]
        if missing.size:
            _idw_cells(cell_axes(self.window, self.resolution), _distinct(missing), self.samples, self.idw, self._cache)
        return self._cache[ids]


def smooth_to_grid(
    samples,
    window: Window,
    res: GridResolution = DEFAULT_FINE_RESOLUTION,
    cfg: IdwConfig | None = None,
) -> CovariateGrid:
    """IDW-smooth scattered samples onto the cell centers of a fine grid.

    ``samples`` are ``CovariateSample`` objects or an (J, 4) array of ``x, y,
    t, value`` rows, as ``read_covariate_samples`` returns. With
    ``cfg=None`` the per-axis scaling defaults to the window lengths.
    The grid keeps the samples and computes a cell when it is first read,
    so the cost is O(cells read x samples), not O(cells x samples): a fit
    and a prediction read only the cells holding their points, while the
    whole 64^3 grid with 200 samples is 52 million (cell, sample) pairs.
    """
    cfg = cfg if cfg is not None else IdwConfig.for_window(window)
    return CovariateGrid(window, res, samples=samples, idw=cfg)


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
        # a new array; the product starts at its first factor, as 1 * v is v bit for bit
        out = None
        for arr, e in zip((x, y, t), (self.x_exp, self.y_exp, self.t_exp)):
            if not e:
                continue
            arr = np.asarray(arr, dtype=float)
            if out is None:
                out = arr ** e if e > 1 else arr.copy()
            else:
                out = out * (arr ** e if e > 1 else arr)
        return np.ones_like(np.asarray(x, dtype=float)) if out is None else out


class Intercept(CoordinateMonomial):
    """Constant covariate, identically one: the degree-0 monomial under its own type."""

    def __init__(self):  # no exponents to pass: an Intercept is always the constant
        super().__init__()

    def __repr__(self):
        return "Intercept()"


@dataclass(frozen=True, eq=False)
class ExternalCovariate:
    """Named external covariate backed by a smoothed grid."""

    grid: CovariateGrid
    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("external covariate needs a nonempty name")

    def evaluate(self, x, y, t) -> np.ndarray:
        return self.grid.values_at(cell_indices(self.grid.window, self.grid.resolution, x, y, t))


CovariateFunction = Union[Intercept, CoordinateMonomial, ExternalCovariate]
