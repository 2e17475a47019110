"""repro.chaos — deterministic fault injection and unified resilience.

The paper's scalability wall is fundamentally a *resilience* phenomenon:
query success ratio under full fan-out collapses as per-host failures
compound (§II-A). This package provides the machinery to study — and
defend — those recovery paths reproducibly:

* :mod:`repro.chaos.policies` — the per-query resilience policy (retry
  budgets, deterministic exponential backoff, per-hop timeouts, hedged
  requests, graceful degradation) that callers of the Cubrick proxy
  choose and the region coordinator enforces.
* :mod:`repro.chaos.faults` — a declarative, DES-clock-driven
  :class:`FaultSchedule` plus the :class:`ChaosInjector` that applies it
  (host crash/hang, slow disk, tail amplification, region partition,
  datastore session expiry, SM failover republish, interrupted
  migrations), emitting every fault through the shared EventLog.
* :mod:`repro.chaos.invariants` — the :class:`InvariantChecker` that
  validates system-wide safety (single primary, discovery/SM/datastore
  agreement) after every chaos event and convergence once faults clear.
* :mod:`repro.chaos.scenarios` — named, seeded chaos scenarios and the
  ``repro chaos`` CLI runner producing byte-reproducible reports.
"""

from repro.chaos.faults import ChaosInjector, FaultKind, FaultSchedule, FaultSpec
from repro.chaos.invariants import (
    InvariantChecker,
    InvariantReport,
    InvariantViolation,
)
from repro.chaos.policies import (
    DegradationPolicy,
    HedgePolicy,
    ResiliencePolicy,
    RetryPolicy,
    TimeoutPolicy,
)
from repro.chaos.scenarios import (
    ChaosReport,
    ProbeRecord,
    list_scenarios,
    run_scenario,
)

__all__ = [
    "ChaosInjector",
    "ChaosReport",
    "DegradationPolicy",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "HedgePolicy",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "ProbeRecord",
    "ResiliencePolicy",
    "RetryPolicy",
    "TimeoutPolicy",
    "list_scenarios",
    "run_scenario",
]
