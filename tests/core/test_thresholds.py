"""Unit tests for the MOSAIC configuration."""

import pytest

from repro.core import DEFAULT_CONFIG, MosaicConfig
from repro.parallel import ParallelConfig, RetryPolicy


class TestDefaults:
    def test_paper_values(self):
        cfg = DEFAULT_CONFIG
        assert cfg.insignificant_bytes == 100 * 1024 * 1024  # 100 MB
        assert cfg.n_chunks == 4                              # 25% chunks
        assert cfg.dominance_factor == 2.0                    # "more than twice"
        assert cfg.steady_cv == 0.25                          # CV under 25%
        assert cfg.high_spike_rate == 250.0                   # req/s
        assert cfg.spike_rate == 50.0
        assert cfg.min_spikes == 5
        assert cfg.density_rate == 50.0
        assert cfg.merge.runtime_fraction == 0.001            # 0.1% of runtime
        assert cfg.merge.op_fraction == 0.01                  # 1% of op duration
        assert cfg.busy_time_threshold == 0.25

    def test_period_magnitude_boundaries_increase(self):
        cfg = DEFAULT_CONFIG
        assert cfg.period_second_max < cfg.period_minute_max < cfg.period_hour_max


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"insignificant_bytes": -1},
            {"n_chunks": 1},
            {"dominance_factor": 1.0},
            {"steady_cv": 0.0},
            {"steady_cv": 1.0},
            {"meanshift_bandwidth": 0.0},
            {"min_group_size": 1},
            {"busy_time_threshold": 1.5},
            {"spike_rate": 500.0},  # above high_spike_rate
            {"min_spikes": 0},
            {"metadata_bin_seconds": 0.0},
            {"period_second_max": 10_000_000.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MosaicConfig(**kwargs)

    def test_with_overrides_returns_new_config(self):
        cfg = DEFAULT_CONFIG.with_overrides(insignificant_bytes=1)
        assert cfg.insignificant_bytes == 1
        assert DEFAULT_CONFIG.insignificant_bytes == 100 * 1024 * 1024

    def test_paper_strict_group_size_allowed(self):
        # the paper's "strictly greater than 1" rule remains expressible
        cfg = MosaicConfig(min_group_size=2)
        assert cfg.min_group_size == 2

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.n_chunks = 8  # type: ignore[misc]


class TestRobustnessKnobs:
    """Execution knobs live on ``ParallelConfig.retry``, not here: the
    config's repr namespaces the result cache, so it must describe what
    shapes a result and nothing else."""

    def test_defaults(self):
        retry = ParallelConfig().retry
        assert retry.task_timeout_s == 0.0  # deadlines off offline
        assert retry.max_retries == 2
        assert retry.backoff_base_s == 0.05
        assert retry.max_pool_rebuilds == 3
        for knob in ("task_timeout_s", "max_retries", "backoff_base_s", "max_pool_rebuilds"):
            assert not hasattr(DEFAULT_CONFIG, knob)
            assert knob not in repr(DEFAULT_CONFIG)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff_base_s": -0.01},
            {"max_pool_rebuilds": -1},
        ],
    )
    def test_invalid_robustness_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_overridable(self):
        cfg = ParallelConfig(retry=RetryPolicy(task_timeout_s=30.0, max_retries=0))
        assert cfg.retry.task_timeout_s == 30.0
        assert cfg.retry.max_retries == 0
