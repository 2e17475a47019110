"""Workload management: admission control, executor queues, result cache.

The subsystem sits in front of the Cubrick deployment and models the
production traffic-management layer the paper's SLA story depends on:
per-node executor queues with concurrency slots and EDF dispatch,
token-bucket admission with adaptive SLA-defending shedding, and a
versioned-key query result cache. See ARCHITECTURE.md § Workload
management.
"""

from repro.sched.admission import (
    REASON_OK,
    REASON_QUOTA,
    REASON_SHED,
    REASON_TENANT_QUOTA,
    AdaptiveShedder,
    AdmissionController,
    AdmissionDecision,
    SlidingWindowAdmission,
    TokenBucket,
)
from repro.sched.cache import (
    CACHE_HIT_LATENCY,
    CacheStats,
    QueryResultCache,
    plan_key,
)
from repro.sched.manager import JobRecord, SchedPolicy, WorkloadManager
from repro.sched.queue import (
    OUTCOME_EXPIRED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_QUEUE_FULL,
    ExecutorQueue,
    PriorityClass,
    QueueStats,
    ScheduledJob,
)

__all__ = [
    "AdaptiveShedder",
    "AdmissionController",
    "AdmissionDecision",
    "CACHE_HIT_LATENCY",
    "CacheStats",
    "ExecutorQueue",
    "JobRecord",
    "OUTCOME_EXPIRED",
    "OUTCOME_FAILED",
    "OUTCOME_OK",
    "OUTCOME_QUEUE_FULL",
    "PriorityClass",
    "QueryResultCache",
    "QueueStats",
    "REASON_OK",
    "REASON_QUOTA",
    "REASON_SHED",
    "REASON_TENANT_QUOTA",
    "ScheduledJob",
    "SchedPolicy",
    "SlidingWindowAdmission",
    "TokenBucket",
    "WorkloadManager",
    "plan_key",
]
