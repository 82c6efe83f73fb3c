"""End-to-end intensity model fitting.

A model is a list of covariate terms entering a log-linear intensity.
Fitting builds a cubature scheme over the observation window, assembles
the K x p base design B at the cubature points, and hands the weighted
Poisson regression to the IRLS engine. ``fit_stpp`` and ``fit_multitype``
check their inputs, build their scheme and share one fit body, ``_fit``.
A multitype pattern is fitted on the replicated scheme in a single
regression over M level-major copies of the cubature rows, either with
one full coefficient set per mark level or with shared terms plus
per-level intercept contrasts, which an optional ridge shrinks toward the
first level (a fixed-effects surrogate for random mark effects). The
first is the design I_M kron B, a ``DesignMatrix`` with ``levels=M`` that
stores only B, so its memory grows linearly in M; an unmarked fit is the
case M = 1. The second is a dense (M*K) x (p+M-1) matrix.
``_column_names`` is the one statement of the coefficient layout (a
model's names are derived from it), and ``FittedModel._coefs`` the one place
that resolves a mark label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covariates import CoordinateMonomial, CovariateFunction, ExternalCovariate
from .cubature import (
    DEFAULT_RESOLUTION,
    CubatureScheme,
    GridResolution,
    approximate_integral,
    build_replicated_scheme,
    build_scheme,
    replicated_responses,
    responses,
)
from .glm import DesignMatrix, FitResult, IrlsConfig, fit_irls
from .patterns import MarkedPointPattern, PointPattern, SpaceTimePoint, Window, _first_outside, _validated_marks

__all__ = [
    "MarkFixedEffects",
    "ModelSpec",
    "FittedModel",
    "build_design",
    "fit_stpp",
    "fit_multitype",
]


@dataclass(frozen=True)
class MarkFixedEffects:
    """Multitype expansion mode.

    ``interact_all=True`` crosses every term with every mark level, giving
    each level its own full coefficient set. ``False`` keeps one shared
    coefficient per term and adds per-level intercept contrasts against
    the first level.
    """

    interact_all: bool = True


@dataclass(frozen=True)
class ModelSpec:
    """Declarative log-linear intensity: exp(theta . terms).

    ``ridge_on_marks`` shrinks the ``mark[<level>]`` contrasts of a
    shared-terms multitype model toward the first level.
    """

    terms: tuple[CovariateFunction, ...]
    multitype_mode: Optional[MarkFixedEffects] = None
    ridge_on_marks: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a model needs at least one term")
        if sum(isinstance(t, CoordinateMonomial) and t.name == "1" for t in self.terms) > 1:
            raise ValueError("at most one intercept term is allowed")
        if not (math.isfinite(self.ridge_on_marks) and self.ridge_on_marks >= 0):
            raise ValueError(f"ridge_on_marks must be nonnegative, got {self.ridge_on_marks!r}")
        if self.ridge_on_marks > 0 and self.multitype_mode != MarkFixedEffects(interact_all=False):
            raise ValueError("ridge_on_marks needs the shared-terms multitype mode "
                             "MarkFixedEffects(interact_all=False)")

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)


def _term_matrix(terms, x, y, t) -> np.ndarray:
    """One column per term, each written into the one (rows, terms) array.

    External covariate columns are read first, so that a grid's lazy IDW
    fill does not run beside that array."""
    external = {j: term.evaluate(x, y, t) for j, term in enumerate(terms) if isinstance(term, ExternalCovariate)}
    out = np.empty((np.size(x), len(terms)))
    for j, term in enumerate(terms):
        out[:, j] = external.pop(j) if j in external else term.evaluate(x, y, t)
    return out


def build_design(scheme: CubatureScheme, spec: ModelSpec) -> DesignMatrix:
    """The base design B: one row per cubature point and one column per term."""
    for t in spec.terms:
        if isinstance(t, ExternalCovariate) and not t.grid.window.contains_window(scheme.window):
            raise ValueError(
                f"external covariate {t.name!r} grid window {t.grid.window} does not "
                f"cover the scheme window {scheme.window}"
            )
    return DesignMatrix(_term_matrix(spec.terms, *scheme.coords.T), spec.term_names)


def _column_names(spec: ModelSpec, levels) -> tuple[str, ...]:
    """Coefficient names in coefficient order: the terms (unmarked), every level's
    terms (``interact_all``), or the shared terms plus one intercept contrast per
    level after the first."""
    if not levels:
        return spec.term_names
    if spec.multitype_mode.interact_all:
        return tuple(f"{label}:{name}" for label in levels for name in spec.term_names)
    return spec.term_names + tuple(f"mark[{label}]" for label in levels[1:])


def _expand_multitype(base: np.ndarray, m: int) -> np.ndarray:
    """Level-major shared-terms design over ``m`` levels, in the ``_column_names``
    order: the base stacked ``m`` times, then one indicator per level after the first."""
    k, p = base.shape
    values = np.zeros((m * k, p + m - 1))
    values[:, :p] = np.tile(base, (m, 1))
    for i in range(1, m):
        values[i * k : (i + 1) * k, p + i - 1] = 1.0
    return values


@dataclass(frozen=True, eq=False)
class FittedModel:
    """A fitted intensity: specification, scheme summary, and coefficients."""

    spec: ModelSpec
    window: Window
    resolution: GridResolution
    n_data: int
    fit: FitResult
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not isinstance(self.n_data, (int, np.integer)) or isinstance(self.n_data, bool) or self.n_data < 1:
            raise ValueError(f"n_data must be an integer >= 1, the count of fitted data points, got {self.n_data!r}")
        if self.levels:
            _validated_marks((), 0, self.levels)  # the label rules of a marked pattern
        if bool(self.levels) != (self.spec.multitype_mode is not None):
            raise ValueError("a model has mark levels exactly when its spec has a multitype mode")
        if len(self.column_names) != self.fit.coefficients.size:
            raise ValueError("one column name per fitted coefficient is required")

    @property
    def column_names(self) -> tuple[str, ...]:
        return _column_names(self.spec, self.levels)

    @property
    def n_dummy(self) -> int:
        """Dummy points: one per grid cell."""
        return self.resolution.n_cells

    @property
    def is_marked(self) -> bool:
        return bool(self.levels)

    @property
    def coefficients(self) -> np.ndarray:
        return self.fit.coefficients

    @property
    def aic(self) -> float:
        """2p - 2 * approximate log-likelihood (constant term included)."""
        return 2.0 * self.fit.coefficients.size - 2.0 * self.fit.log_likelihood_approx

    def coefficient_table(self) -> list[tuple[str, float, float]]:
        ses = self.fit.std_errors()
        return [
            (name, float(est), float(se))
            for name, est, se in zip(self.column_names, self.fit.coefficients, ses)
        ]

    def _coefs(self, mark) -> tuple[np.ndarray, float]:
        """Per-term coefficients and additive log offset for the level labelled
        ``mark``, which is required exactly when the model is marked."""
        if not self.is_marked:
            if mark is not None:
                raise ValueError("this model is unmarked: no mark argument applies")
            return self.fit.coefficients, 0.0
        if mark is None:
            raise ValueError("this model is marked: pass mark=<label>")
        if mark not in self.levels:
            raise KeyError(f"unknown mark label {mark!r}")
        p = len(self.spec.terms)
        pos = self.levels.index(mark)
        if self.spec.multitype_mode.interact_all:
            return self.fit.coefficients[pos * p : (pos + 1) * p], 0.0
        offset = 0.0 if pos == 0 else float(self.fit.coefficients[p + pos - 1])
        return self.fit.coefficients[:p], offset

    def _terms(self, x, y, t) -> np.ndarray:
        """The term matrix at points of the closed fitted window; a point outside it, or nan, raises."""
        cols = [np.asarray(v, dtype=float).reshape(-1) for v in (x, y, t)]
        i = _first_outside(self.window, cols)
        if i is not None:
            raise ValueError(f"point ({cols[0][i]}, {cols[1][i]}, {cols[2][i]}) lies outside the fitted window")
        return _term_matrix(self.spec.terms, *cols)

    def predict_intensity(self, p: SpaceTimePoint, mark=None) -> float:
        """Fitted intensity at a point (a mark is required iff the model is marked)."""
        return float(self.intensity_values([p.x], [p.y], [p.t], mark)[0])

    def marginal_intensity(self, p: SpaceTimePoint) -> float:
        """Ground intensity of a marked model: the sum over all mark levels."""
        return float(self.marginal_values([p.x], [p.y], [p.t])[0])

    def intensity_values(self, x, y, t, mark=None) -> np.ndarray:
        """Vectorized fitted intensity at coordinate arrays (one level if marked) in the fitted window."""
        coefs, offset = self._coefs(mark)
        return np.exp(self._terms(x, y, t) @ coefs + offset)

    def marginal_values(self, x, y, t) -> np.ndarray:
        """Vectorized ground intensity of a marked model (sum over levels) in the fitted window."""
        if not self.is_marked:
            raise ValueError("marginal intensity is defined for marked models only")
        terms = self._terms(x, y, t)
        out = np.zeros(terms.shape[0])
        for label in self.levels:
            coefs, offset = self._coefs(label)
            out += np.exp(terms @ coefs + offset)
        return out

    def expected_count(self, res: GridResolution | None = None) -> float:
        """Integral of the fitted intensity over the window on a dummy-only scheme.

        Marked models integrate the marginal (ground) intensity.
        """
        res = res if res is not None else self.resolution
        scheme = build_scheme(PointPattern(self.window, ()), res)
        values = self.marginal_values if self.is_marked else self.intensity_values
        return approximate_integral(scheme, values)


def _fit(scheme: CubatureScheme, spec: ModelSpec, irls: IrlsConfig | None,
         levels: tuple[str, ...] = ()) -> FittedModel:
    """Fit ``spec`` on ``scheme``, which is replicated exactly when ``levels`` is
    not empty: one weighted Poisson regression over one level-major copy of the
    cubature rows per mark level (one copy when unmarked)."""
    base = build_design(scheme, spec)
    m = max(1, len(levels))
    if levels and not spec.multitype_mode.interact_all:
        design = DesignMatrix(_expand_multitype(base.values, m), _column_names(spec, levels))
        # the ridge acts on the m - 1 mark contrasts that follow the shared terms
        penalty = np.r_[np.zeros(base.n_cols), np.full(m - 1, spec.ridge_on_marks)]
    else:  # at m = 1 the base design, already checked, is the whole design
        design, penalty = (base if m == 1 else DesignMatrix(base.values, base.column_names, m)), None
    y = replicated_responses(scheme).ravel() if levels else responses(scheme)
    # every level shares the one weight vector; at m = 1 the ravel is a view, not a copy
    w = np.broadcast_to(scheme.weights, (m, scheme.size)).ravel()
    window, resolution, n_data = scheme.window, scheme.resolution, scheme.n_data
    del scheme, base  # the IRLS needs neither the K x 3 coordinates nor, beside the design, the base
    return FittedModel(spec=spec, window=window, resolution=resolution, n_data=n_data,
                       fit=fit_irls(design, y, w, irls, penalty), levels=levels)


def fit_stpp(
    pattern: PointPattern,
    spec: ModelSpec,
    res: GridResolution = DEFAULT_RESOLUTION,
    irls: IrlsConfig | None = None,
) -> FittedModel:
    """Fit an unmarked log-linear intensity model by cubature plus IRLS."""
    if spec.multitype_mode is not None:
        raise ValueError("spec declares a multitype mode: use fit_multitype")
    if isinstance(pattern, MarkedPointPattern):
        raise ValueError("pattern is marked: use fit_multitype")
    if pattern.n == 0:
        raise ValueError("no points: an empty pattern has no finite intensity estimate")
    return _fit(build_scheme(pattern, res), spec, irls)


def fit_multitype(
    pattern: MarkedPointPattern,
    spec: ModelSpec,
    res: GridResolution = DEFAULT_RESOLUTION,
    irls: IrlsConfig | None = None,
) -> FittedModel:
    """Fit a multitype intensity model on the replicated cubature scheme.

    All levels are fitted in one weighted Poisson regression whose rows
    are the shared locations replicated per level (level-major order).
    """
    if spec.multitype_mode is None:
        raise ValueError("spec has no multitype mode: use fit_stpp")
    if not isinstance(pattern, MarkedPointPattern):
        raise ValueError("pattern has no marks: use fit_stpp")
    if len(pattern.levels) < 2:
        raise ValueError("single mark level: fit the ground pattern with fit_stpp")
    empty = [label for label, c in pattern.counts_by_level().items() if c == 0]
    if empty:
        raise ValueError(
            f"mark level(s) {empty} have no points; their intensity estimate "
            "does not exist, drop them or merge levels"
        )
    return _fit(build_replicated_scheme(pattern, res), spec, irls, pattern.levels)
