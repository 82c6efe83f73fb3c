"""Poisson point-pattern simulation on a space-time window.

Inhomogeneous patterns thin a dominating homogeneous pattern, keeping
each candidate with probability intensity / lambda_max; a homogeneous
pattern is the thinning of a constant intensity at its own bound, which
keeps every candidate. The generator is a named, counter-based PRNG
(numpy Philox) so identical seeds reproduce byte-identical patterns
across platforms; the identifier travels with simulation metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .patterns import PointPattern, Window

__all__ = ["GENERATOR_ID", "SimConfig", "simulate_homogeneous", "simulate_inhomogeneous"]

GENERATOR_ID = "numpy-philox4x64-v1"

# advisory envelope check: sampled sup may miss the true sup
_ENVELOPE_CHECK_POINTS = 10_000
_ENVELOPE_RTOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Seed and, for thinning, the dominating intensity bound."""

    seed: int
    lambda_max: Optional[float] = None

    def __post_init__(self):
        if int(self.seed) != self.seed or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.lambda_max is not None:
            lm = float(self.lambda_max)
            if not (math.isfinite(lm) and lm > 0):
                raise ValueError(f"lambda_max must be positive, got {self.lambda_max!r}")
            object.__setattr__(self, "lambda_max", lm)


def _generator(seed: int, jumps: int = 0) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    if jumps:
        bg = bg.jumped(jumps)
    return np.random.Generator(bg)


def _uniform_coords(rng: np.random.Generator, window: Window, n: int) -> np.ndarray:
    u = rng.random((n, 3))
    los = np.array([r[0] for r in window.ranges])
    lens = np.array(window.lengths)
    return los + u * lens


def simulate_homogeneous(window: Window, rate: float, cfg: SimConfig) -> PointPattern:
    """Homogeneous Poisson pattern: thinning at the constant intensity ``rate``
    with ``lambda_max=rate``, which keeps every candidate (``cfg.lambda_max`` is unused)."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be positive, got {rate!r}")
    return simulate_inhomogeneous(
        window, lambda x, y, t: np.full(x.shape, float(rate)), SimConfig(cfg.seed, rate)
    )


def simulate_inhomogeneous(
    window: Window,
    intensity: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    cfg: SimConfig,
) -> PointPattern:
    """Inhomogeneous Poisson pattern by thinning a homogeneous dominating pattern.

    ``intensity`` is called as ``intensity(x, y, t)`` on coordinate arrays
    and must stay below ``cfg.lambda_max`` everywhere. The bound is checked
    on 10,000 sampled window points (advisory, from an independent
    substream) and again at every candidate point (exact for the realized
    pattern). Candidates are kept when u * lambda_max < intensity, so a
    constant intensity equal to lambda_max keeps every candidate.
    """
    if cfg.lambda_max is None:
        raise ValueError("inhomogeneous simulation needs cfg.lambda_max")
    lam_max = cfg.lambda_max
    bound = lam_max * (1.0 + _ENVELOPE_RTOL)

    check_rng = _generator(cfg.seed, jumps=1)
    probe = _uniform_coords(check_rng, window, _ENVELOPE_CHECK_POINTS)
    probe_vals = np.asarray(intensity(probe[:, 0], probe[:, 1], probe[:, 2]), dtype=float)
    if not np.all(np.isfinite(probe_vals)) or np.any(probe_vals < 0):
        raise ValueError("intensity must be finite and nonnegative on the window")
    vmax = float(probe_vals.max()) if probe_vals.size else 0.0
    if vmax > bound:
        raise ValueError(
            f"lambda_max={lam_max!r} is below the sampled intensity supremum {vmax!r}"
        )

    rng = _generator(cfg.seed)
    n_cand = int(rng.poisson(lam_max * window.volume()))
    coords = _uniform_coords(rng, window, n_cand)
    u = rng.random(n_cand)
    vals = np.asarray(intensity(coords[:, 0], coords[:, 1], coords[:, 2]), dtype=float)
    if vals.size and (not np.all(np.isfinite(vals)) or np.any(vals < 0)):
        k = int(np.argmax(~np.isfinite(vals) | (vals < 0)))
        raise ValueError(
            f"intensity is invalid ({float(vals[k])!r}) at candidate ({coords[k, 0]}, "
            f"{coords[k, 1]}, {coords[k, 2]})"
        )
    if vals.size and float(vals.max()) > bound:
        k = int(np.argmax(vals))
        raise ValueError(
            f"intensity {float(vals[k])!r} exceeds lambda_max={lam_max!r} at candidate "
            f"({coords[k, 0]}, {coords[k, 1]}, {coords[k, 2]})"
        )
    keep = u * lam_max < vals
    kept = coords[keep]
    return PointPattern.from_arrays(window, kept[:, 0], kept[:, 1], kept[:, 2])
