"""Weighted Poisson regression by iteratively reweighted least squares.

Maximizes sum_k w_k (y_k * eta_k - exp(eta_k)) + sum_k w_k with
eta = X theta (log link), optionally minus a ridge penalty
(lambda_r / 2) * theta' M theta on a masked subset of coefficients.
Fisher scoring with step halving keeps the (penalized) deviance
non-increasing; the fit stops once the relative deviance change falls
below the tolerance and the score equations hold to 1e-8 of the total
weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .patterns import _readonly

__all__ = [
    "DesignMatrix",
    "IrlsConfig",
    "FitResult",
    "FitError",
    "RankDeficiencyError",
    "PredictorOverflowError",
    "weighted_poisson_loglik",
    "score_and_fisher",
    "fit_irls",
]

# exp overflows double precision near 709; stay clear of it
MAX_LINEAR_PREDICTOR = 700.0
GRADIENT_RTOL = 1e-8
_PIVOT_RTOL = 1e-10


class FitError(RuntimeError):
    """The fit cannot be computed for the given inputs."""


class RankDeficiencyError(FitError):
    """The design matrix has linearly dependent columns."""


class PredictorOverflowError(FitError):
    """A linear predictor is too large for exp() in double precision."""


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Dense covariate matrix with distinct, named columns."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        vals = _readonly(np.asarray(self.values, dtype=float))
        if vals.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {vals.shape}")
        names = tuple(str(c) for c in self.column_names)
        if vals.shape[1] != len(names):
            raise ValueError("one column name per design column is required")
        if len(names) < 1:
            raise ValueError("design matrix needs at least one column")
        if len(set(names)) != len(names):
            raise ValueError(f"column names must be distinct, got {names}")
        if not np.all(np.isfinite(vals)):
            r, c = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"non-finite design entry at row {r}, column {names[c]!r}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "column_names", names)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class IrlsConfig:
    """Solver knobs: iteration cap, stopping tolerance, optional ridge.

    ``tolerance`` applies to the relative change of the (penalized)
    deviance between iterations. ``ridge_mask`` selects the penalized
    coefficients; None penalizes every coefficient when ``ridge > 0``.
    """

    max_iterations: int = 100
    tolerance: float = 1e-10
    ridge: float = 0.0
    ridge_mask: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be a positive integer, got {self.max_iterations!r}")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be nonnegative, got {self.ridge!r}")
        if self.ridge_mask is not None:
            mask = tuple(int(v) for v in self.ridge_mask)
            if any(v not in (0, 1) for v in mask):
                raise ValueError("ridge_mask entries must be 0 or 1")
            object.__setattr__(self, "ridge_mask", mask)

    def penalty_vector(self, p: int) -> np.ndarray:
        """Per-coefficient ridge strengths of length p."""
        if self.ridge == 0.0:
            return np.zeros(p)
        if self.ridge_mask is None:
            return np.full(p, self.ridge)
        if len(self.ridge_mask) != p:
            raise ValueError(f"ridge_mask has length {len(self.ridge_mask)}, expected {p}")
        return self.ridge * np.asarray(self.ridge_mask, dtype=float)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted coefficients with curvature-based uncertainty and diagnostics."""

    coefficients: np.ndarray
    covariance: np.ndarray
    deviance: float
    log_likelihood_approx: float
    iterations: int
    converged: bool
    deviance_trace: tuple[float, ...] = ()

    def __post_init__(self):
        coef = _readonly(np.asarray(self.coefficients, dtype=float).ravel())
        cov = _readonly(np.asarray(self.covariance, dtype=float))
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "covariance", cov)
        p = coef.size
        if cov.shape != (p, p):
            raise ValueError(f"covariance must be {p}x{p}, got {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-8 * scale:
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-8 * scale:
            raise ValueError("covariance must be positive semidefinite")

    def std_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def _validated(X: DesignMatrix, y, w) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if y.size != X.n_rows or w.size != X.n_rows:
        raise ValueError(
            f"design has {X.n_rows} rows but y has {y.size} and w has {w.size}"
        )
    if not np.all(np.isfinite(y)) or np.any(y < 0):
        raise ValueError("responses must be finite and nonnegative")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be finite and positive")
    return y, w


def _linear_predictor(X: DesignMatrix, theta: np.ndarray) -> np.ndarray:
    eta = X.values @ theta
    amax = float(np.abs(eta).max()) if eta.size else 0.0
    if amax > MAX_LINEAR_PREDICTOR:
        k = int(np.argmax(np.abs(eta)))
        raise PredictorOverflowError(
            f"linear predictor overflows exp(): |eta| reaches {amax:.6g} at row {k} "
            f"(limit {MAX_LINEAR_PREDICTOR:g})"
        )
    return eta


def weighted_poisson_loglik(X: DesignMatrix, y, w, theta) -> float:
    """Weighted Poisson log-likelihood sum_k w_k (y_k eta_k - exp(eta_k)) + sum_k w_k.

    Zero responses contribute w_k (1 - exp(eta_k)); the y*log term is zero
    by convention.
    """
    y, w = _validated(X, y, w)
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != X.n_cols:
        raise ValueError(f"theta has length {theta.size}, expected {X.n_cols}")
    eta = _linear_predictor(X, theta)
    lam = np.exp(eta)
    return float(np.dot(w * y, eta) - np.dot(w, lam) + w.sum())


def score_and_fisher(
    X: DesignMatrix, y, w, theta, cfg: IrlsConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Fisher information of the (ridge-penalized) log-likelihood.

    gradient = X' (w * (y - lambda)) - ridge * theta_masked
    fisher   = X' diag(w * lambda) X + diag(ridge_mask)
    """
    y, w = _validated(X, y, w)
    cfg = cfg if cfg is not None else IrlsConfig()
    theta = np.asarray(theta, dtype=float).ravel()
    pen = cfg.penalty_vector(X.n_cols)
    eta = _linear_predictor(X, theta)
    lam = np.exp(eta)
    grad = X.values.T @ (w * (y - lam)) - pen * theta
    fisher = (X.values * (w * lam)[:, None]).T @ X.values + np.diag(pen)
    return grad, fisher


def _deviance(y: np.ndarray, w: np.ndarray, lam: np.ndarray) -> float:
    pos = y > 0
    dev = np.array(w * lam)
    yl = y[pos]
    with np.errstate(divide="ignore"):
        dev[pos] = w[pos] * (yl * np.log(yl / lam[pos]) - (yl - lam[pos]))
    return float(2.0 * dev.sum())


def _check_rank(X: DesignMatrix) -> None:
    if X.n_rows < X.n_cols:
        raise RankDeficiencyError(
            f"design has more columns ({X.n_cols}) than rows ({X.n_rows})"
        )
    _, r, piv = scipy.linalg.qr(X.values, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0:
        raise RankDeficiencyError(f"column {X.column_names[piv[0]]!r} is identically zero")
    bad = diag <= _PIVOT_RTOL * diag[0]
    if np.any(bad):
        j = int(np.argmax(bad))
        raise RankDeficiencyError(
            f"column {X.column_names[piv[j]]!r} is linearly dependent on the others "
            f"(pivot ratio {diag[j] / diag[0]:.3e})"
        )


def fit_irls(X: DesignMatrix, y, w, cfg: IrlsConfig | None = None) -> FitResult:
    """Maximize the weighted Poisson log-likelihood by Fisher scoring.

    The intercept (first all-ones column, if any) starts at
    log(sum(w y) / sum(w)), the remaining coefficients at zero. Steps are
    halved whenever the penalized deviance would increase, so the deviance
    trace is non-increasing up to roundoff. Raises on rank-deficient
    designs and on all-zero responses (the maximum does not exist);
    reaching the iteration cap returns a result with ``converged=False``.
    """
    cfg = cfg if cfg is not None else IrlsConfig()
    y, w = _validated(X, y, w)
    _check_rank(X)
    pen = cfg.penalty_vector(X.n_cols)
    sw = float(w.sum())
    swy = float(np.dot(w, y))
    if swy <= 0.0:
        raise FitError(
            "empty pattern: all responses are zero, the intensity maximum does not exist"
        )

    theta = np.zeros(X.n_cols)
    ones_cols = np.nonzero(np.all(X.values == 1.0, axis=0))[0]
    if ones_cols.size:
        theta[ones_cols[0]] = math.log(swy / sw)

    def penalized_deviance(lam_vec, th):
        return _deviance(y, w, lam_vec) + float(np.dot(pen * th, th))

    eta = _linear_predictor(X, theta)
    lam = np.exp(eta)
    pdev = penalized_deviance(lam, theta)
    if not math.isfinite(pdev):
        raise FitError(f"initial deviance is not finite ({pdev!r})")
    trace = [_deviance(y, w, lam)]

    def gradient(lam_vec, th):
        return X.values.T @ (w * (y - lam_vec)) - pen * th

    converged = False
    iterations = 0
    grad_tol = GRADIENT_RTOL * sw
    # the score at the current theta; each accepted step refreshes it once
    grad = gradient(lam, theta)
    for iterations in range(1, cfg.max_iterations + 1):
        fisher = (X.values * (w * lam)[:, None]).T @ X.values + np.diag(pen)
        try:
            delta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(fisher), grad)
        except scipy.linalg.LinAlgError as exc:
            raise FitError(
                f"Fisher information became singular at iteration {iterations}; "
                f"deviance trace: {trace}"
            ) from exc

        step = 1.0
        accepted = False
        for _ in range(40):
            cand = theta + step * delta
            cand_eta = X.values @ cand
            if float(np.abs(cand_eta).max()) <= MAX_LINEAR_PREDICTOR:
                cand_lam = np.exp(cand_eta)
                cand_pdev = penalized_deviance(cand_lam, cand)
                if math.isfinite(cand_pdev) and cand_pdev <= pdev + 1e-12 * max(1.0, abs(pdev)):
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            # no usable step: already at the optimum within roundoff, or stuck
            iterations -= 1
            break

        rel_change = abs(pdev - cand_pdev) / max(abs(cand_pdev), 1e-300)
        theta, eta, lam, pdev = cand, cand_eta, cand_lam, cand_pdev
        trace.append(_deviance(y, w, lam))
        if not math.isfinite(pdev):
            raise FitError(
                f"deviance diverged at iteration {iterations}; deviance trace: {trace}"
            )
        grad = gradient(lam, theta)
        if rel_change <= cfg.tolerance and float(np.abs(grad).max()) <= grad_tol:
            converged = True
            break

    if not converged:
        converged = float(np.abs(grad).max()) <= grad_tol

    fisher = (X.values * (w * lam)[:, None]).T @ X.values + np.diag(pen)
    try:
        cov = scipy.linalg.cho_solve(scipy.linalg.cho_factor(fisher), np.eye(X.n_cols))
    except scipy.linalg.LinAlgError as exc:
        raise FitError("Fisher information at the optimum is singular") from exc
    cov = 0.5 * (cov + cov.T)

    return FitResult(
        coefficients=theta,
        covariance=cov,
        deviance=_deviance(y, w, lam),
        log_likelihood_approx=float(np.dot(w * y, eta) - np.dot(w, lam) + sw),
        iterations=iterations,
        converged=converged,
        deviance_trace=tuple(trace),
    )
