"""Resilience policies: how one query rides out failures.

The paper's proxy retries a failed query in another region (§IV-D).
A :class:`ResiliencePolicy` names every knob of that behaviour — retry
budget and backoff, per-hop timeouts, hedged requests and labelled
degradation — and is chosen by the caller of each query
(``CubrickProxy.submit(policy=...)``), which passes it down to the
region coordinator; no component stores one. "Enhancing OLAP Resilience
at LinkedIn" (PAPERS.md) argues these decisions belong in one place.
The default, :meth:`ResiliencePolicy.legacy`, is the paper's proxy;
:meth:`ResiliencePolicy.resilient` is what the chaos probes run.

Everything here is deterministic: backoff jitter is drawn from an
injected :class:`numpy.random.Generator` (a named stream of the sim's
:class:`~repro.sim.rng.RngRegistry`), never the wall clock, so two
identically-seeded chaos runs retry at byte-identical virtual times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget plus exponential backoff with deterministic jitter.

    ``max_attempts`` counts *total* tries including the first; ``None``
    means "derived from context" (the proxy uses one try per candidate
    region — the pre-policy behaviour).
    """

    max_attempts: Optional[int] = 3
    base_backoff: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff: float = 5.0
    # Uniform +/- fraction applied to each delay, drawn from the sim RNG.
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1: {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError(
                f"jitter_fraction out of [0, 1]: {self.jitter_fraction}"
            )

    def budget(self, default: int) -> int:
        """The attempt budget, falling back to a context-derived default."""
        return self.max_attempts if self.max_attempts is not None else default

    def backoff_delay(self, attempt: int, rng=None) -> float:
        """Delay before retry number ``attempt`` (1-based), in seconds.

        With ``rng`` supplied, the delay is jittered by a uniform factor
        in ``[1 - jitter, 1 + jitter]``. A zero base backoff draws
        nothing from the RNG, so legacy (no-backoff) policies do not
        perturb downstream random streams.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1: {attempt}")
        delay = self.base_backoff * self.backoff_multiplier ** (attempt - 1)
        delay = min(delay, self.max_backoff)
        if delay <= 0.0:
            return 0.0
        if rng is not None and self.jitter_fraction > 0.0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * float(rng.random()) - 1.0)
        return delay


@dataclass(frozen=True)
class TimeoutPolicy:
    """Per-hop timeout semantics, unified across all layers.

    A host whose (simulated) service time exceeds ``per_hop`` **counts
    as failed** — it consumes one attempt of the retry budget, exactly
    like a crashed host.
    """

    per_hop: Optional[float] = None  # None = no per-hop bound

    def __post_init__(self) -> None:
        if self.per_hop is not None and self.per_hop <= 0:
            raise ConfigurationError(
                f"per_hop timeout must be positive: {self.per_hop}"
            )

    def is_timeout(self, elapsed: float) -> bool:
        """Whether a hop that took ``elapsed`` seconds counts as failed."""
        return self.per_hop is not None and elapsed > self.per_hop


@dataclass(frozen=True)
class HedgePolicy:
    """Hedged fan-out requests (Dean & Barroso's tail-tolerant trick).

    When a host's sampled service time exceeds ``trigger``, up to
    ``max_hedges`` duplicate requests are issued and the fastest answer
    wins — trading extra work for a shorter tail.
    """

    enabled: bool = False
    trigger: float = 0.2
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if self.trigger <= 0:
            raise ConfigurationError(f"hedge trigger must be positive: {self.trigger}")
        if self.max_hedges < 1:
            raise ConfigurationError(f"max_hedges must be >= 1: {self.max_hedges}")


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful degradation once the retry budget is exhausted.

    Instead of failing the query outright, the proxy re-executes it in
    partial mode (dead/slow hosts dropped) and returns the answer with
    an explicit ``metadata["completeness"]`` fraction — the Scuba-style
    accuracy-for-availability trade (paper §II-C), but *opt-in* and
    *labelled*: an accepted query never silently drops rows.
    """

    enabled: bool = False
    # Degraded answers covering less than this fraction are still failed.
    min_completeness: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_completeness <= 1.0:
            raise ConfigurationError(
                f"min_completeness out of [0, 1]: {self.min_completeness}"
            )


@dataclass(frozen=True)
class ResiliencePolicy:
    """The full bundle one query runs under, from proxy to coordinator.

    Frozen, so an instance is safe as a default argument.
    """

    retry: RetryPolicy = RetryPolicy()
    timeout: TimeoutPolicy = TimeoutPolicy()
    hedge: HedgePolicy = HedgePolicy()
    degradation: DegradationPolicy = DegradationPolicy()

    @classmethod
    def legacy(cls) -> "ResiliencePolicy":
        """The pre-policy behaviour: one try per region, no backoff,
        no per-hop timeout, no hedging, no degradation."""
        return cls(
            retry=RetryPolicy(max_attempts=None, base_backoff=0.0,
                              jitter_fraction=0.0),
        )

    @classmethod
    def resilient(
        cls,
        *,
        max_attempts: int = 6,
        per_hop_timeout: Optional[float] = 2.0,
        hedge: bool = True,
        degrade: bool = True,
        min_completeness: float = 0.25,
    ) -> "ResiliencePolicy":
        """A production-shaped policy for chaos runs: bounded budget,
        backoff, per-hop timeouts, hedging and labelled degradation."""
        return cls(
            retry=RetryPolicy(max_attempts=max_attempts),
            timeout=TimeoutPolicy(per_hop=per_hop_timeout),
            hedge=HedgePolicy(enabled=hedge),
            degradation=DegradationPolicy(
                enabled=degrade, min_completeness=min_completeness
            ),
        )
