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
every IRLS step and the final covariance alike. The kernels reach the
design only through its products ``dot``, ``tdot`` and ``gram``. The one
design type, ``DesignMatrix``, is I_M kron B: it stores the K x p matrix B
and never forms the (M*K) x (M*p) matrix of the fully mark-interacted
multitype design; an unmarked or dense design is the case M = 1. The
rank check runs on B, in row blocks: numpy reduces each block of at most
``_RANK_BLOCK_ROWS`` rows to its R, then the stacked Rs to B's p x p R,
so no QR copies more than one block of B. For M > 1, entry (i, j) of
level m's Fisher block is v_m . (B_i * B_j), so the design caches the
K x p(p+1)/2 table of row-wise pair products B_i * B_j (i <= j) on first
use and ``gram`` forms all M blocks in one product v.reshape(M, K) @ P.
An M = 1 design never builds the table: there B' diag(v) B is already one
product, and P, (p+1)/2 times the size of B, costs more memory than it
saves time.

The fit's own LAPACK calls are three routines of scipy's compiled
``_flapack`` extension: ``dpotrf`` and ``dpotrs`` for the Cholesky
factor and solves of the Fisher matrix, ``dgeqp3`` for the pivoted QR of
the rank check. ``_flapack()`` loads that one file on the first fit and
registers it as ``scipy.linalg._flapack``; the ``scipy.linalg`` package,
whose import costs about eight times the memory of the extension, is
never imported. Importing the package, simulating and predicting load no
scipy at all.
``_cho_factor``, ``_cho_solve`` and ``_pivoted_qr`` give these routines
the arguments that ``scipy.linalg.cho_factor``, ``cho_solve`` and
``qr(mode="raw", pivoting=True)`` give them, so their results are the
same bits. They see only matrices of at most n_cols x n_cols and one
1-D right-hand side per solve; numpy's products and its row-block QRs
do the rest. numpy and scipy each bundle their own OpenBLAS with its own
thread pool, and ``_flapack`` links scipy's: these sizes keep that pool
from starting, so its threads do not spin beside numpy's.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
_RANK_BLOCK_ROWS = 8192  # rows of B per numpy QR in the rank check


class FitError(RuntimeError):
    """The fit cannot be computed for the given inputs."""


class RankDeficiencyError(FitError):
    """The design matrix has linearly dependent columns."""


class PredictorOverflowError(FitError):
    """A linear predictor is too large for exp() in double precision."""


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """The design I_M kron B: ``levels`` (M) copies of ``values`` (B) on the diagonal.

    ``levels=1`` is B itself, a dense matrix with distinct, named columns.
    ``column_names`` names B's columns. Rows and columns are level-major:
    row m*K + k is row k of B in level m, and column m*p + j is column j of
    B in level m. Only the K x p matrix B is stored; ``n_rows`` and
    ``n_cols`` give the logical (M*K) x (M*p) shape.
    """

    values: np.ndarray
    column_names: tuple[str, ...]
    levels: int = 1

    def __post_init__(self):
        if int(self.levels) != self.levels or self.levels < 1:
            raise ValueError(f"levels must be a positive integer, got {self.levels!r}")
        vals = _readonly(np.asarray(self.values, dtype=float))
        if vals.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got shape {vals.shape}")
        names = tuple(str(c) for c in self.column_names)
        if vals.shape[1] != len(names):
            raise ValueError("one column name per design column is required")
        if len(set(names)) != len(names):
            raise ValueError(f"column names must be distinct, got {names}")
        if len(names) < 1:
            raise ValueError("design matrix needs at least one column")
        if not np.all(np.isfinite(vals)):
            r, c = np.argwhere(~np.isfinite(vals))[0]
            raise ValueError(f"non-finite design entry at row {r}, column {names[c]!r}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "levels", int(self.levels))

    @property
    def n_rows(self) -> int:
        return self.levels * self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.levels * self.values.shape[1]

    def dot(self, theta: np.ndarray) -> np.ndarray:
        """X theta."""
        # Theta B' is already level-major; (B Theta')' would need a transposed copy
        return (theta.reshape(self.levels, -1) @ self.values.T).ravel()

    def tdot(self, v: np.ndarray) -> np.ndarray:
        """X' v."""
        return (v.reshape(self.levels, -1) @ self.values).ravel()

    @cached_property
    def _pair_products(self) -> np.ndarray:
        """K x p(p+1)/2 row-wise products B_i * B_j, i <= j, in ``np.triu_indices`` order."""
        i, j = np.triu_indices(self.values.shape[1])
        return self.values[:, i] * self.values[:, j]

    def gram(self, v: np.ndarray) -> np.ndarray:
        """X' diag(v) X: M diagonal blocks B' diag(v_m) B."""
        b = self.values
        if self.levels == 1:
            return (b * v[:, None]).T @ b
        k, p = b.shape
        i, j = np.triu_indices(p)
        sums = v.reshape(self.levels, k) @ self._pair_products  # one row per level
        off = np.arange(0, self.n_cols, p)[:, None]
        out = np.zeros((self.n_cols, self.n_cols))
        out[off + i, off + j] = out[off + j, off + i] = sums
        return out

    def ones_column(self) -> int | None:
        """Index of the first all-ones column, or None."""
        if self.levels > 1:  # every column is zero outside its own level
            return None
        # compare the whole column only where its first entry is 1
        cand = np.flatnonzero(np.all(self.values[:1] == 1.0, axis=0))
        cols = cand[np.all(self.values[:, cand] == 1.0, axis=0)]
        return int(cols[0]) if cols.size else None


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
    """Fitted coefficients with curvature-based uncertainty and diagnostics; ``deviance``
    and ``iterations`` are read off ``deviance_trace``, so neither is stored."""

    coefficients: np.ndarray
    covariance: np.ndarray
    deviance_trace: tuple[float, ...]  # the deviance after each accepted step, starting value first
    log_likelihood_approx: float
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "deviance_trace", tuple(map(float, self.deviance_trace)))
        if not self.deviance_trace:
            raise ValueError("deviance_trace needs at least the starting deviance")
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

    @property
    def deviance(self) -> float:
        """The deviance at the returned coefficients: the last entry of ``deviance_trace``."""
        return self.deviance_trace[-1]

    @property
    def iterations(self) -> int:
        """Accepted IRLS steps: one per entry of ``deviance_trace`` after the starting value."""
        return len(self.deviance_trace) - 1


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
    # max |eta| without the |eta| temporary; a nan still compares False
    return eta.size > 0 and float(max(eta.max(), -eta.min())) > MAX_LINEAR_PREDICTOR


def _linear_predictor(X: DesignMatrix, theta: np.ndarray) -> np.ndarray:
    eta = X.dot(theta)
    if _overflows(eta):
        k = int(np.argmax(np.abs(eta)))
        raise PredictorOverflowError(
            f"linear predictor overflows exp(): |eta| reaches {abs(eta[k]):.6g} at row {k} "
            f"(limit {MAX_LINEAR_PREDICTOR:g})"
        )
    return eta


def _loglik(y: np.ndarray, w: np.ndarray, eta: np.ndarray, lam: np.ndarray) -> float:
    return float(np.dot(w * y, eta) - np.dot(w, lam) + w.sum())


def _positive_rows(y: np.ndarray) -> slice | np.ndarray:
    """The rows with y > 0: a slice when they are contiguous, as the data rows of a
    cubature scheme are, so that indexing by them gives views; else their indices."""
    pos = np.flatnonzero(y > 0)
    if pos.size and pos[-1] - pos[0] + 1 == pos.size:
        return slice(int(pos[0]), int(pos[-1]) + 1)
    return pos


def _score_fisher(X: DesignMatrix, y, w, theta, lam, pen, pos) -> tuple[np.ndarray, np.ndarray]:
    # pos: the rows with y > 0; elsewhere w * (y - lam) is -(w * lam), bit for bit
    wlam = w * lam
    resid = -wlam
    resid[pos] = w[pos] * (y[pos] - lam[pos])
    grad = X.tdot(resid) - pen * theta
    del resid  # gram's weighted copy of the design comes next
    fisher = X.gram(wlam) + np.diag(pen)
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
    lam = np.exp(_linear_predictor(X, theta))
    return _score_fisher(X, y, w, theta, lam, pen, _positive_rows(y))


def _flapack():
    """scipy's compiled LAPACK wrappers, loaded from their file without ``scipy.linalg``.

    ``import scipy`` comes first: it is light, and on Windows it sets up the
    search path of the DLLs its wheels bundle. The module is registered under
    its own name, so it loads once per process, and a ``scipy.linalg``
    imported before or after shares the one module object.
    """
    import sysconfig  # not loaded at start-up; scipy loads it too

    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.isfile(path):
        raise ImportError(f"scipy's LAPACK extension is not at {path}", name=name, path=path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_factor(a)[0]``: the upper Cholesky factor of ``a``, whose
    strict lower triangle keeps ``a``'s entries."""
    c, info = _flapack().dpotrf(np.asarray_chkfinite(a), lower=0, clean=0, overwrite_a=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((c, False), b)``: solve A x = b given A's ``_cho_factor``."""
    x, info = _flapack().dpotrs(np.asarray_chkfinite(c), np.asarray_chkfinite(b), lower=0, overwrite_b=0)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R and the 0-based column pivots of ``scipy.linalg.qr(a, mode="raw", pivoting=True)``."""
    a = np.asarray_chkfinite(a)
    geqp3 = _flapack().dgeqp3
    work = geqp3(a, lwork=-1, overwrite_a=0)[-2]  # the workspace query
    qr, jpvt, _, _, info = geqp3(a, lwork=int(work[0]), overwrite_a=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqp3")
    return np.triu(qr[: a.shape[1], :]), jpvt - 1


def _check_rank(X: DesignMatrix) -> None:
    # X'X is block-diagonal with M copies of B'B, so pivoted QR of X has B's
    # R diagonal M times over: X has full column rank iff B has
    k, p = X.values.shape
    if k < p:
        raise RankDeficiencyError(f"design has more columns ({p}) than rows ({k})")
    # B = [B_1; B_2; ...] and the stack [R_1; R_2; ...] of its blocks' Rs have the
    # same Gram matrix, so the stack's R is B's R (R'R = B'B), and pivoted QR of
    # that R has B's pivots and |diag R|
    rs = [np.linalg.qr(X.values[i : i + _RANK_BLOCK_ROWS], mode="r") for i in range(0, k, _RANK_BLOCK_ROWS)]
    r, piv = _pivoted_qr(np.linalg.qr(np.vstack(rs), mode="r"))
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
    designs, on a singular Fisher matrix, on all-zero responses, and when
    the last step still ran into that bound. The maximum does not exist in
    the latter two cases, and when the Fisher matrix turns singular while
    the fitted rates w*lambda span more than 1/eps; reaching the iteration
    cap returns a result with ``converged=False``.
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
    ones = X.ones_column()
    if ones is not None:
        theta[ones] = math.log(swy / sw)

    # only rows with y > 0 carry the y log(y / lambda) term; find them once per fit
    pos = _positive_rows(y)
    w_pos, y_pos = w[pos], y[pos]

    def deviances(lam_vec, th):  # plain and penalized
        d = w * lam_vec
        lam_pos = lam_vec[pos]
        with np.errstate(divide="ignore"):
            d[pos] = w_pos * (y_pos * np.log(y_pos / lam_pos) - (y_pos - lam_pos))
        dev = float(2.0 * d.sum())
        return dev, dev + float(np.dot(pen * th, th))

    lam = np.exp(_linear_predictor(X, theta))
    dev, pdev = deviances(lam, theta)
    if not math.isfinite(pdev):
        raise FitError(f"initial deviance is not finite ({pdev!r})")
    trace = [dev]

    # score and Fisher information at the current theta; each accepted step
    # refreshes both once, so the covariance inverts the Fisher matrix at the end
    grad, fisher = _score_fisher(X, y, w, theta, lam, pen, pos)
    grad_tol = GRADIENT_RTOL * sw
    at_guard = False
    for iterations in range(1, cfg.max_iterations + 1):
        try:
            delta = _cho_solve(_cho_factor(fisher), grad)
        except np.linalg.LinAlgError as exc:
            rates = w * lam
            lo, hi = float(rates.min()), float(rates.max())
            if lo / hi < np.finfo(float).eps:
                raise FitError(
                    f"the maximum-likelihood estimate does not exist: at iteration {iterations} "
                    f"the Fisher information is singular as the fitted rates w*lambda span "
                    f"{lo:.3g} to {hi:.3g} (ratio {lo / hi:.2g} is below machine epsilon)"
                ) from exc
            raise FitError(
                f"Fisher information became singular at iteration {iterations}; "
                f"last deviance {trace[-1]:.10g}"
            ) from exc

        step, at_guard = 1.0, False
        for _ in range(40):
            cand = theta + step * delta
            cand_lam = X.dot(cand)  # eta, which exp turns into lambda in place
            if _overflows(cand_lam):
                at_guard = True
            else:
                np.exp(cand_lam, out=cand_lam)
                cand_dev, cand_pdev = deviances(cand_lam, cand)
                if math.isfinite(cand_pdev) and cand_pdev <= pdev + 1e-12 * max(1.0, abs(pdev)):
                    break
            step *= 0.5
        else:
            break  # no usable step: already at the optimum within roundoff, or stuck

        rel_change = abs(pdev - cand_pdev) / max(abs(cand_pdev), 1e-300)
        theta, lam, pdev = cand, cand_lam, cand_pdev
        trace.append(cand_dev)
        grad, fisher = _score_fisher(X, y, w, theta, lam, pen, pos)
        if rel_change <= cfg.tolerance and float(np.abs(grad).max()) <= grad_tol:
            break

    if at_guard:
        raise FitError(
            f"the maximum-likelihood estimate does not exist: after {len(trace) - 1} iterations "
            f"the linear predictor still runs into its bound |eta| <= {MAX_LINEAR_PREDICTOR:g} "
            "(the data separate from the dummy points)"
        )

    try:
        factor = _cho_factor(fisher)
    except np.linalg.LinAlgError as exc:
        raise FitError("Fisher information at the optimum is singular") from exc
    # one unit vector per solve gives the bits of the multi-column solve
    cov = np.column_stack([_cho_solve(factor, e) for e in np.eye(X.n_cols)])
    cov = 0.5 * (cov + cov.T)

    return FitResult(coefficients=theta, covariance=cov, deviance_trace=trace,
                     log_likelihood_approx=_loglik(y, w, X.dot(theta), lam),
                     converged=float(np.abs(grad).max()) <= grad_tol)
