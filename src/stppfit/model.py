"""End-to-end intensity model fitting.

A model is a list of covariate terms entering a log-linear intensity.
Fitting builds a cubature scheme over the observation window, assembles
the design matrix at the cubature points, and hands the weighted Poisson
regression to the IRLS engine. Multitype patterns are fitted on the
replicated scheme in a single regression, either with one full
coefficient set per mark level or with shared terms plus per-level
intercept contrasts; an optional ridge penalty on the mark-specific
columns acts as a fixed-effects surrogate for random mark effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .covariates import CovariateFunction, ExternalCovariate, Intercept
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
from .patterns import MarkedPointPattern, MarkLevel, PointPattern, SpaceTimePoint, Window

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
    """Declarative log-linear intensity: exp(theta . terms)."""

    terms: tuple[CovariateFunction, ...]
    multitype_mode: Optional[MarkFixedEffects] = None
    ridge_on_marks: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a model needs at least one term")
        if sum(isinstance(t, Intercept) for t in self.terms) > 1:
            raise ValueError("at most one intercept term is allowed")
        if not (math.isfinite(self.ridge_on_marks) and self.ridge_on_marks >= 0):
            raise ValueError(f"ridge_on_marks must be nonnegative, got {self.ridge_on_marks!r}")
        if self.ridge_on_marks > 0 and self.multitype_mode is None:
            raise ValueError("ridge_on_marks requires a multitype mode")

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)


def _check_external_coverage(terms, window: Window) -> None:
    for t in terms:
        if isinstance(t, ExternalCovariate) and not t.grid.window.contains_window(window):
            raise ValueError(
                f"external covariate {t.name!r} grid window {t.grid.window} does not "
                f"cover the scheme window {window}"
            )


def _term_matrix(terms, coords: np.ndarray) -> np.ndarray:
    x, y, t = coords[:, 0], coords[:, 1], coords[:, 2]
    return np.column_stack([term.evaluate(x, y, t) for term in terms])


def build_design(scheme: CubatureScheme, spec: ModelSpec) -> DesignMatrix:
    """Design matrix with one row per cubature point and one column per term."""
    _check_external_coverage(spec.terms, scheme.window)
    return DesignMatrix(_term_matrix(spec.terms, scheme.coords), spec.term_names)


def _mark_column_name(level: MarkLevel) -> str:
    return f"mark[{level.label}]"


def _expand_multitype(base: np.ndarray, term_names, levels, interact_all: bool):
    """Level-major stacked design for the replicated scheme.

    Returns (values, column_names, mark_mask) where mark_mask flags the
    mark-specific columns (ridge surrogate targets).
    """
    m = len(levels)
    k, p = base.shape
    if interact_all:
        values = np.zeros((m * k, m * p))
        names = []
        for i, lv in enumerate(levels):
            values[i * k : (i + 1) * k, i * p : (i + 1) * p] = base
            names.extend(f"{lv.label}:{name}" for name in term_names)
        mask = (1,) * (m * p)
    else:
        values = np.zeros((m * k, p + m - 1))
        values[:, :p] = np.tile(base, (m, 1))
        names = list(term_names)
        for i, lv in enumerate(levels[1:], start=1):
            values[i * k : (i + 1) * k, p + i - 1] = 1.0
            names.append(_mark_column_name(lv))
        mask = (0,) * p + (1,) * (m - 1)
    return values, tuple(names), mask


@dataclass(frozen=True, eq=False)
class FittedModel:
    """A fitted intensity: specification, scheme summary, and coefficients."""

    spec: ModelSpec
    window: Window
    resolution: GridResolution
    n_data: int
    n_dummy: int
    fit: FitResult
    column_names: tuple[str, ...]
    levels: tuple[MarkLevel, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "column_names", tuple(self.column_names))
        if len(self.column_names) != self.fit.coefficients.size:
            raise ValueError("one column name per fitted coefficient is required")
        p = len(self.spec.terms)
        mode = self.spec.multitype_mode
        if not self.levels:
            expected = p
        elif mode is not None and mode.interact_all:
            expected = len(self.levels) * p
        else:
            expected = p + len(self.levels) - 1
        if len(self.column_names) != expected:
            raise ValueError(
                f"coefficient count {len(self.column_names)} does not match the "
                f"mark-expansion rule (expected {expected})"
            )

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

    def level(self, mark) -> MarkLevel:
        """Resolve a MarkLevel or label string to one of this model's levels."""
        if isinstance(mark, MarkLevel):
            if mark in self.levels:
                return mark
            raise KeyError(f"unknown mark level {mark.label!r}")
        for lv in self.levels:
            if lv.label == mark:
                return lv
        raise KeyError(f"unknown mark label {mark!r}")

    def _level_slice(self, level: MarkLevel) -> tuple[np.ndarray, float]:
        """Per-term coefficients and additive offset for one level."""
        p = len(self.spec.terms)
        pos = self.levels.index(level)
        if self.spec.multitype_mode.interact_all:
            return self.fit.coefficients[pos * p : (pos + 1) * p], 0.0
        offset = 0.0 if pos == 0 else float(self.fit.coefficients[p + pos - 1])
        return self.fit.coefficients[:p], offset

    def predict_intensity(self, p: SpaceTimePoint, mark=None) -> float:
        """Fitted intensity at a point (a mark is required iff the model is marked)."""
        if not self.window.contains(*p):
            raise ValueError(
                f"point ({p.x}, {p.y}, {p.t}) lies outside the fitted window"
            )
        row = _term_matrix(self.spec.terms, np.array([[p.x, p.y, p.t]]))[0]
        if self.is_marked:
            if mark is None:
                raise ValueError("this model is marked: pass mark=<level or label>")
            coefs, offset = self._level_slice(self.level(mark))
            return float(np.exp(np.dot(row, coefs) + offset))
        if mark is not None:
            raise ValueError("this model is unmarked: no mark argument applies")
        return float(np.exp(np.dot(row, self.fit.coefficients)))

    def marginal_intensity(self, p: SpaceTimePoint) -> float:
        """Ground intensity of a marked model: the sum over all mark levels."""
        if not self.is_marked:
            raise ValueError("marginal intensity is defined for marked models only")
        return float(sum(self.predict_intensity(p, mark=lv) for lv in self.levels))

    def intensity_values(self, x, y, t, mark=None) -> np.ndarray:
        """Vectorized fitted intensity at coordinate arrays (one level if marked)."""
        tm = _term_matrix(self.spec.terms, np.column_stack([x, y, t]))
        if not self.is_marked:
            if mark is not None:
                raise ValueError("this model is unmarked: no mark argument applies")
            return np.exp(tm @ self.fit.coefficients)
        if mark is None:
            raise ValueError("this model is marked: pass mark=<level or label>")
        coefs, offset = self._level_slice(self.level(mark))
        return np.exp(tm @ coefs + offset)

    def marginal_values(self, x, y, t) -> np.ndarray:
        """Vectorized ground intensity of a marked model (sum over levels)."""
        if not self.is_marked:
            raise ValueError("marginal intensity is defined for marked models only")
        out = np.zeros(np.asarray(x, dtype=float).size)
        for lv in self.levels:
            out += self.intensity_values(x, y, t, mark=lv)
        return out

    def expected_count(self, res: GridResolution | None = None) -> float:
        """Integral of the fitted intensity over the window on a dummy-only scheme.

        Marked models integrate the marginal (ground) intensity.
        """
        res = res if res is not None else self.resolution
        scheme = build_scheme(PointPattern(self.window, ()), res)
        if self.is_marked:
            return approximate_integral(scheme, self.marginal_values)
        return approximate_integral(scheme, self.intensity_values)


def fit_stpp(
    pattern: PointPattern,
    spec: ModelSpec,
    res: GridResolution = DEFAULT_RESOLUTION,
    irls: IrlsConfig | None = None,
) -> FittedModel:
    """Fit an unmarked log-linear intensity model by cubature plus IRLS."""
    if spec.multitype_mode is not None:
        raise ValueError("spec declares a multitype mode: use fit_multitype")
    if pattern.n == 0:
        raise ValueError("no points: an empty pattern has no finite intensity estimate")
    scheme = build_scheme(pattern, res)
    design = build_design(scheme, spec)
    result = fit_irls(design, responses(scheme), scheme.weights, irls)
    return FittedModel(
        spec=spec,
        window=pattern.window,
        resolution=res,
        n_data=scheme.n_data,
        n_dummy=scheme.n_dummy,
        fit=result,
        column_names=design.column_names,
    )


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
    if len(pattern.levels) < 2:
        raise ValueError("single mark level: fit the ground pattern with fit_stpp")
    empty = [lv.label for lv, c in pattern.counts_by_level().items() if c == 0]
    if empty:
        raise ValueError(
            f"mark level(s) {empty} have no points; their intensity estimate "
            "does not exist, drop them or merge levels"
        )
    irls = irls if irls is not None else IrlsConfig()
    if spec.ridge_on_marks > 0 and irls.ridge != 0:
        raise ValueError("set the mark ridge via ModelSpec.ridge_on_marks only")

    scheme = build_replicated_scheme(pattern, res)
    _check_external_coverage(spec.terms, scheme.window)
    base = _term_matrix(spec.terms, scheme.coords)
    values, names, mark_mask = _expand_multitype(
        base, spec.term_names, scheme.levels, spec.multitype_mode.interact_all
    )
    design = DesignMatrix(values, names)
    y = replicated_responses(scheme).ravel()
    w = scheme.weights_by_level.ravel()
    if spec.ridge_on_marks > 0:
        irls = replace(irls, ridge=spec.ridge_on_marks, ridge_mask=mark_mask)
    result = fit_irls(design, y, w, irls)
    return FittedModel(
        spec=spec,
        window=pattern.window,
        resolution=res,
        n_data=scheme.n_ground,
        n_dummy=scheme.n_dummy,
        fit=result,
        column_names=design.column_names,
        levels=scheme.levels,
    )
