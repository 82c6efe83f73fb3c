import math

import numpy as np
import pytest
from scipy import stats

from stppfit import (
    GENERATOR_ID,
    GridResolution,
    SimConfig,
    Window,
    simulate_homogeneous,
    simulate_inhomogeneous,
)
from stppfit.cubature import cell_indices

UNIT = Window.unit_cube()


class TestSimConfig:
    def test_generator_is_named(self):
        assert "philox" in GENERATOR_ID

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=bad)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf])
    def test_bad_lambda_max_rejected(self, bad):
        with pytest.raises(ValueError, match="lambda_max"):
            SimConfig(seed=0, lambda_max=bad)

    def test_lambda_max_required_for_thinning(self):
        with pytest.raises(ValueError, match="lambda_max"):
            simulate_inhomogeneous(UNIT, lambda x, y, t: np.ones_like(x), SimConfig(seed=1))


class TestHomogeneous:
    def test_mean_count_over_replicates(self):
        # Poisson moments oracle: mean of N over R reps within 3 sqrt(mu/R)
        counts = [simulate_homogeneous(UNIT, 100.0, SimConfig(seed)).n for seed in range(1000, 1500)]
        assert abs(np.mean(counts) - 100.0) <= 3.0 * math.sqrt(100.0 / 500.0)

    def test_tiny_rate_gives_empty_pattern(self):
        pat = simulate_homogeneous(UNIT, 1e-8, SimConfig(seed=5))
        assert pat.n == 0

    def test_identical_seed_identical_pattern(self):
        a = simulate_homogeneous(UNIT, 80.0, SimConfig(seed=99))
        b = simulate_homogeneous(UNIT, 80.0, SimConfig(seed=99))
        assert a.coords().tobytes() == b.coords().tobytes()

    def test_different_seeds_differ(self):
        a = simulate_homogeneous(UNIT, 80.0, SimConfig(seed=1))
        b = simulate_homogeneous(UNIT, 80.0, SimConfig(seed=2))
        assert a.coords().tobytes() != b.coords().tobytes()

    def test_points_live_in_window(self):
        window = Window.from_bounds(-2, -1, 3, 5, 10, 11)
        pat = simulate_homogeneous(window, 40.0, SimConfig(seed=3))
        assert pat.n > 0  # volume 2, expect ~80

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate"):
            simulate_homogeneous(UNIT, 0.0, SimConfig(seed=1))

    def test_spatial_uniformity_chi_square(self):
        pat = simulate_homogeneous(UNIT, 400.0, SimConfig(seed=12345))
        coords = pat.coords()
        ids = cell_indices(UNIT, GridResolution(2, 2, 2), coords[:, 0], coords[:, 1], coords[:, 2])
        obs = np.bincount(ids, minlength=8)
        expected = pat.n / 8.0
        chi2 = float(((obs - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, 7)


class TestInhomogeneous:
    def test_tight_bound_equals_homogeneous_byte_for_byte(self):
        a = simulate_homogeneous(UNIT, 50.0, SimConfig(seed=77))
        b = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.full_like(x, 50.0), SimConfig(seed=77, lambda_max=50.0)
        )
        assert a.coords().tobytes() == b.coords().tobytes()

    def test_thinning_invariance_of_the_mean(self):
        # doubling lambda_max must not change the distribution
        counts = [
            simulate_inhomogeneous(
                UNIT, lambda x, y, t: np.full_like(x, 100.0), SimConfig(seed, lambda_max=200.0)
            ).n
            for seed in range(2000, 2500)
        ]
        assert abs(np.mean(counts) - 100.0) <= 3.0 * math.sqrt(100.0 / 500.0)

    def test_loglinear_mean_count_matches_analytic_integral(self):
        true = math.exp(4.0) * (math.exp(1.2) - 1.0) / 1.2
        counts = [
            simulate_inhomogeneous(
                UNIT, lambda x, y, t: np.exp(4.0 + 1.2 * x), SimConfig(seed, lambda_max=185.0)
            ).n
            for seed in range(3000, 3500)
        ]
        assert abs(np.mean(counts) - true) <= 3.0 * math.sqrt(true / 500.0)

    def test_zero_intensity_gives_empty_pattern(self):
        pat = simulate_inhomogeneous(
            UNIT, lambda x, y, t: np.zeros_like(x), SimConfig(seed=4, lambda_max=1.0)
        )
        assert pat.n == 0

    def test_determinism(self):
        f = lambda x, y, t: np.exp(1.0 + x + t)
        a = simulate_inhomogeneous(UNIT, f, SimConfig(seed=11, lambda_max=25.0))
        b = simulate_inhomogeneous(UNIT, f, SimConfig(seed=11, lambda_max=25.0))
        assert a.coords().tobytes() == b.coords().tobytes()

    def test_bound_violation_detected(self):
        with pytest.raises(ValueError, match="lambda_max"):
            simulate_inhomogeneous(
                UNIT, lambda x, y, t: np.exp(4.0 + 1.2 * x), SimConfig(seed=1, lambda_max=100.0)
            )

    def test_bound_violation_prints_both_numbers_in_full(self):
        # under :g both numbers would print as 100
        below = r"^lambda_max=100\.00001 is below the sampled intensity supremum 100\.00002$"
        with pytest.raises(ValueError, match=below):
            simulate_inhomogeneous(
                UNIT, lambda x, y, t: np.full_like(x, 100.00002), SimConfig(seed=1, lambda_max=100.00001)
            )
        calls = []

        def rises_after_the_probe(x, y, t):  # passes the envelope check, fails at the candidates
            calls.append(None)
            return np.full_like(x, 100.0 if len(calls) == 1 else 100.00002)

        with pytest.raises(ValueError, match=r"^intensity 100\.00002 exceeds lambda_max=100\.00001 at candidate"):
            simulate_inhomogeneous(UNIT, rises_after_the_probe, SimConfig(seed=1, lambda_max=100.00001))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_inhomogeneous(
                UNIT, lambda x, y, t: x - 0.5, SimConfig(seed=1, lambda_max=1.0)
            )

    def test_envelope_check_does_not_consume_candidate_stream(self):
        # two different intensities under the same seed share the dominating draw
        f1 = lambda x, y, t: np.full_like(x, 30.0)
        f2 = lambda x, y, t: 30.0 * np.exp(-0.0 * x)
        a = simulate_inhomogeneous(UNIT, f1, SimConfig(seed=21, lambda_max=30.0))
        b = simulate_inhomogeneous(UNIT, f2, SimConfig(seed=21, lambda_max=30.0))
        assert a.coords().tobytes() == b.coords().tobytes()
