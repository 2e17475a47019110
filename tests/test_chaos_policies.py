"""Unit tests for the unified resilience-policy layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos.policies import (
    DegradationPolicy,
    HedgePolicy,
    ResiliencePolicy,
    RetryPolicy,
    TimeoutPolicy,
)
from repro.errors import ConfigurationError


class TestRetryPolicy:
    def test_budget_explicit(self):
        assert RetryPolicy(max_attempts=4).budget(default=9) == 4

    def test_budget_context_default(self):
        policy = RetryPolicy(max_attempts=None)
        assert policy.budget(default=3) == 3
        assert policy.budget(default=7) == 7

    def test_rejects_zero_attempts(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)

    def test_rejects_negative_backoff(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff=-0.1)

    def test_rejects_sub_one_multiplier(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_rejects_jitter_out_of_range(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.5)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_backoff=0.1, backoff_multiplier=2.0,
                             jitter_fraction=0.0)
        assert policy.backoff_delay(1) == pytest.approx(0.1)
        assert policy.backoff_delay(2) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.4)

    def test_backoff_capped(self):
        policy = RetryPolicy(base_backoff=1.0, backoff_multiplier=10.0,
                             max_backoff=3.0, jitter_fraction=0.0)
        assert policy.backoff_delay(5) == 3.0

    def test_backoff_rejects_zero_attempt(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_delay(0)

    def test_zero_base_draws_nothing_from_rng(self):
        # Legacy policies must not perturb downstream random streams.
        policy = RetryPolicy(base_backoff=0.0, jitter_fraction=0.5)
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state["state"]["state"]
        assert policy.backoff_delay(3, rng) == 0.0
        assert rng.bit_generator.state["state"]["state"] == before

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_backoff=0.1, jitter_fraction=0.2)
        a = policy.backoff_delay(2, np.random.default_rng(5))
        b = policy.backoff_delay(2, np.random.default_rng(5))
        assert a == b
        assert 0.16 <= a <= 0.24  # 0.2 +/- 20%


class TestTimeoutPolicy:
    def test_no_bound_never_times_out(self):
        assert not TimeoutPolicy(per_hop=None).is_timeout(1e9)

    def test_bound_enforced(self):
        policy = TimeoutPolicy(per_hop=2.0)
        assert not policy.is_timeout(2.0)
        assert policy.is_timeout(2.0001)

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            TimeoutPolicy(per_hop=0.0)


class TestHedgeAndDegradation:
    def test_hedge_validation(self):
        with pytest.raises(ConfigurationError):
            HedgePolicy(trigger=0.0)
        with pytest.raises(ConfigurationError):
            HedgePolicy(max_hedges=0)

    def test_degradation_validation(self):
        with pytest.raises(ConfigurationError):
            DegradationPolicy(min_completeness=1.5)


class TestResiliencePolicyBundles:
    def test_legacy_matches_pre_policy_behaviour(self):
        policy = ResiliencePolicy.legacy()
        assert policy.retry.max_attempts is None
        assert policy.retry.base_backoff == 0.0
        assert policy.timeout.per_hop is None
        assert not policy.hedge.enabled
        assert not policy.degradation.enabled

    def test_resilient_defaults(self):
        policy = ResiliencePolicy.resilient()
        assert policy.retry.max_attempts == 6
        assert policy.timeout.per_hop == 2.0
        assert policy.hedge.enabled
        assert policy.degradation.enabled
        assert policy.degradation.min_completeness == 0.25
