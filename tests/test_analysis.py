import math

import numpy as np
import pytest

from qcollide import analysis, dynamics


def coherence_series(p, n_collisions):
    sched = dynamics.repeated_schedule(2, (0, 1), n_collisions)
    traj = dynamics.run_trajectory(
        dynamics.SUPERPOSITION_PLUS, dynamics.DEFAULT_ANCILLA, p, sched
    )
    return traj.columns["coherence_a"]


class TestDetectPeriod:
    def test_constant_series(self):
        verdict = analysis.detect_period([0.3] * 120)
        assert verdict.period == 1
        assert verdict.label == "periodic(1)"
        assert verdict.n_distinct == 1

    @pytest.mark.parametrize("k", list(range(1, 17)))
    def test_synthetic_known_period(self, k):
        rng = np.random.default_rng(k)
        cycle = rng.uniform(0, 1, size=k)
        # Perturb one entry so no divisor of k sneaks in as a shorter period.
        if k > 1:
            cycle[0], cycle[1] = 0.0, 1.0
        series = np.tile(cycle, 130 // k + 2)
        verdict = analysis.detect_period(series)
        assert verdict.period == k

    def test_half_strength_collision_series(self):
        verdict = analysis.detect_period(coherence_series(0.5, 100))
        assert verdict.period == 4
        assert verdict.n_distinct == 3

    def test_chaotic_series_is_aperiodic(self):
        verdict = analysis.detect_period(coherence_series(0.8, 200), window=60)
        assert verdict.period is None
        assert verdict.label == "aperiodic"
        assert not verdict.is_periodic

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="short"):
            analysis.detect_period([1.0, 0.5] * 10)

    def test_rejects_window_longer_than_series(self):
        # This classified all 120 points and returned periodic(1).
        with pytest.raises(ValueError, match="^window 200 is longer than the series of length 120$"):
            analysis.detect_period([0.3] * 120, window=200)

    def test_deterministic(self):
        series = coherence_series(0.75, 100)
        assert analysis.detect_period(series) == analysis.detect_period(series)

    def test_period_three_series(self):
        verdict = analysis.detect_period(coherence_series(0.75, 100))
        assert verdict.period == 3
        # Only two distinct values: the cycle visits 1, 1/2, 1/2.
        assert verdict.n_distinct == 2


class TestDistinctValues:
    def test_three_level_cycle(self):
        half = 1 / math.sqrt(2)
        series = [0.0, half, 1.0, half, 0.0, half, 1.0]
        assert analysis.distinct_values(series, 1e-6) == 3

    def test_all_equal(self):
        assert analysis.distinct_values([2.5] * 7, 1e-6) == 1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        series = np.repeat([0.1, 0.4, 0.9], 20) + rng.uniform(-1e-8, 1e-8, 60)
        shuffled = rng.permutation(series)
        assert analysis.distinct_values(series, 1e-6) == analysis.distinct_values(
            shuffled, 1e-6
        )

    def test_chains_merge_clusters(self):
        # Single linkage: values connected through small gaps form one cluster.
        series = [0.0, 0.5e-6, 1.0e-6, 1.5e-6, 1.0]
        assert analysis.distinct_values(series, 1e-6) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            analysis.distinct_values([], 1e-6)


class TestClusterValues:
    def test_means(self):
        values = analysis.cluster_values([0.0, 1e-9, 0.5, 0.5 + 1e-9, 1.0], 1e-6)
        np.testing.assert_allclose(values, [5e-10, 0.5 + 5e-10, 1.0], atol=1e-12)

    def test_sorted_ascending(self):
        values = analysis.cluster_values([0.9, 0.1, 0.5], 1e-6)
        assert values == sorted(values)


class TestArgumentValidation:
    @pytest.mark.parametrize("window", [0, -5])
    def test_detect_period_rejects_a_non_positive_window(self, window):
        # x[-0:] is the whole series and x[-5:] drops its head, so neither
        # value may pass silently as a tail length.
        with pytest.raises(ValueError, match="window must be a positive integer"):
            analysis.detect_period([1.0, 0.5] * 50, window=window)

    def test_detect_period_accepts_a_window_of_60_and_reads_only_the_tail(self):
        # A chaotic head followed by a clean two-cycle of 60 points.
        head = list(np.random.default_rng(0).random(40))
        verdict = analysis.detect_period(head + [1.0, 0.5] * 30, window=60)
        assert verdict.label == "periodic(2)"
        assert verdict.n_distinct == 2

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    @pytest.mark.parametrize("func", [analysis.cluster_values, analysis.distinct_values])
    def test_cluster_tolerance_must_be_non_negative(self, func, tol):
        # NaN would merge every value and a negative tolerance split equal ones.
        with pytest.raises(ValueError, match="cluster tolerance must be non-negative"):
            func([0.0, 0.0, 0.5, 1.0], cluster_tol=tol)

    def test_zero_cluster_tolerance_counts_exact_values(self):
        assert analysis.distinct_values([0.0, 0.0, 0.5, 1.0], cluster_tol=0.0) == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("func", [analysis.cluster_values, analysis.distinct_values])
    def test_clustering_rejects_a_non_finite_value(self, func, bad):
        # A NaN sorts last and fails every gap test, so it swallowed the values above it.
        with pytest.raises(ValueError, match="non-finite"):
            func([0.0, bad, 1.0])

    def test_detect_period_rejects_a_non_finite_value_in_the_tail(self):
        with pytest.raises(ValueError, match="non-finite"):
            analysis.detect_period([1.0, 0.5] * 50 + [float("nan")])
