"""Weighted Poisson regression by iteratively reweighted least squares.

Maximizes sum_k w_k (y_k * eta_k - exp(eta_k)) + sum_k w_k with
eta = X theta (log link), minus an optional ridge penalty
(1/2) * sum_j pen_j * theta_j^2 with one nonnegative strength per
coefficient. Fisher scoring with step halving keeps the (penalized)
deviance non-increasing; the fit stops once the relative deviance change
falls below the tolerance and the score equations hold to 1e-8 of the
total weight.

One kernel per formula: ``_score_fisher`` (score and Fisher matrix),
``_loglik`` and the ``_overflows`` range check serve the public helpers,
every IRLS step and the final covariance alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Iteration control: iteration cap and stopping tolerance.

    ``tolerance`` applies to the relative change of the (penalized)
    deviance between iterations.
    """

    max_iterations: int = 100
    tolerance: float = 1e-10

    def __post_init__(self):
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be a positive integer, got {self.max_iterations!r}")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance!r}")


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


def _validated(X: DesignMatrix, y, w, theta=None, penalty=None):
    """y, w, theta (None if not given) and the per-coefficient ridge penalty
    (zeros if not given) as float vectors, checked against X."""
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
    if theta is not None:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != X.n_cols:
            raise ValueError(f"theta has length {theta.size}, expected {X.n_cols}")
    pen = np.zeros(X.n_cols) if penalty is None else np.asarray(penalty, dtype=float).ravel()
    if pen.size != X.n_cols:
        raise ValueError(f"penalty has length {pen.size}, expected {X.n_cols}")
    if not np.all(np.isfinite(pen)) or np.any(pen < 0):
        raise ValueError("penalty entries must be finite and nonnegative")
    return y, w, theta, pen


def _overflows(eta: np.ndarray) -> bool:
    return eta.size > 0 and float(np.abs(eta).max()) > MAX_LINEAR_PREDICTOR


def _linear_predictor(X: DesignMatrix, theta: np.ndarray) -> np.ndarray:
    eta = X.values @ theta
    if _overflows(eta):
        k = int(np.argmax(np.abs(eta)))
        raise PredictorOverflowError(
            f"linear predictor overflows exp(): |eta| reaches {abs(eta[k]):.6g} at row {k} "
            f"(limit {MAX_LINEAR_PREDICTOR:g})"
        )
    return eta


def _loglik(y: np.ndarray, w: np.ndarray, eta: np.ndarray, lam: np.ndarray) -> float:
    return float(np.dot(w * y, eta) - np.dot(w, lam) + w.sum())


def _score_fisher(X: DesignMatrix, y, w, theta, lam, pen) -> tuple[np.ndarray, np.ndarray]:
    grad = X.values.T @ (w * (y - lam)) - pen * theta
    fisher = (X.values * (w * lam)[:, None]).T @ X.values + np.diag(pen)
    return grad, fisher


def weighted_poisson_loglik(X: DesignMatrix, y, w, theta) -> float:
    """Weighted Poisson log-likelihood sum_k w_k (y_k eta_k - exp(eta_k)) + sum_k w_k.

    Zero responses contribute w_k (1 - exp(eta_k)); the y*log term is zero
    by convention.
    """
    y, w, theta, _ = _validated(X, y, w, theta)
    eta = _linear_predictor(X, theta)
    return _loglik(y, w, eta, np.exp(eta))


def score_and_fisher(X: DesignMatrix, y, w, theta, penalty=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Fisher information of the (ridge-penalized) log-likelihood.

    gradient = X' (w * (y - lambda)) - penalty * theta
    fisher   = X' diag(w * lambda) X + diag(penalty)
    """
    y, w, theta, pen = _validated(X, y, w, theta, penalty)
    return _score_fisher(X, y, w, theta, np.exp(_linear_predictor(X, theta)), pen)


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
    _, r, piv = scipy.linalg.qr(X.values, mode="raw", pivoting=True)
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


def fit_irls(X: DesignMatrix, y, w, cfg: IrlsConfig | None = None, penalty=None) -> FitResult:
    """Maximize the weighted Poisson log-likelihood by Fisher scoring.

    ``penalty`` holds one nonnegative ridge strength per coefficient (None:
    no penalty). The intercept (first all-ones column, if any) starts at
    log(sum(w y) / sum(w)), the remaining coefficients at zero. Steps are
    halved whenever the penalized deviance would increase or the linear
    predictor would leave |eta| <= MAX_LINEAR_PREDICTOR, so the deviance
    trace is non-increasing up to roundoff. Raises on rank-deficient
    designs, on all-zero responses, and when the last step still ran into
    that bound (in each of the latter two the maximum does not exist);
    reaching the iteration cap returns a result with ``converged=False``.
    """
    cfg = cfg if cfg is not None else IrlsConfig()
    y, w, _, pen = _validated(X, y, w, penalty=penalty)
    _check_rank(X)
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

    def deviances(lam_vec, th):  # plain and penalized
        dev = _deviance(y, w, lam_vec)
        return dev, dev + float(np.dot(pen * th, th))

    eta = _linear_predictor(X, theta)
    lam = np.exp(eta)
    dev, pdev = deviances(lam, theta)
    if not math.isfinite(pdev):
        raise FitError(f"initial deviance is not finite ({pdev!r})")
    trace = [dev]

    # score and Fisher information at the current theta; each accepted step
    # refreshes both once, so the covariance inverts the Fisher matrix at the end
    grad, fisher = _score_fisher(X, y, w, theta, lam, pen)
    grad_tol = GRADIENT_RTOL * sw
    iterations, at_guard = 0, False
    for iterations in range(1, cfg.max_iterations + 1):
        try:
            delta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(fisher), grad)
        except scipy.linalg.LinAlgError as exc:
            raise FitError(
                f"Fisher information became singular at iteration {iterations}; "
                f"last deviance {trace[-1]:.10g}"
            ) from exc

        step, at_guard = 1.0, False
        for _ in range(40):
            cand = theta + step * delta
            cand_eta = X.values @ cand
            if _overflows(cand_eta):
                at_guard = True
            else:
                cand_lam = np.exp(cand_eta)
                cand_dev, cand_pdev = deviances(cand_lam, cand)
                if math.isfinite(cand_pdev) and cand_pdev <= pdev + 1e-12 * max(1.0, abs(pdev)):
                    break
            step *= 0.5
        else:
            # no usable step: already at the optimum within roundoff, or stuck
            iterations -= 1
            break

        rel_change = abs(pdev - cand_pdev) / max(abs(cand_pdev), 1e-300)
        theta, eta, lam, pdev = cand, cand_eta, cand_lam, cand_pdev
        trace.append(cand_dev)
        grad, fisher = _score_fisher(X, y, w, theta, lam, pen)
        if rel_change <= cfg.tolerance and float(np.abs(grad).max()) <= grad_tol:
            break

    if at_guard:
        raise FitError(
            f"the maximum-likelihood estimate does not exist: after {iterations} iterations "
            f"the linear predictor still runs into its bound |eta| <= {MAX_LINEAR_PREDICTOR:g} "
            "(the data separate from the dummy points)"
        )

    try:
        cov = scipy.linalg.cho_solve(scipy.linalg.cho_factor(fisher), np.eye(X.n_cols))
    except scipy.linalg.LinAlgError as exc:
        raise FitError("Fisher information at the optimum is singular") from exc
    cov = 0.5 * (cov + cov.T)

    return FitResult(
        coefficients=theta,
        covariance=cov,
        deviance=trace[-1],
        log_likelihood_approx=_loglik(y, w, eta, lam),
        iterations=iterations,
        converged=float(np.abs(grad).max()) <= grad_tol,
        deviance_trace=tuple(trace),
    )
