"""Workload generators and experiment drivers.

Synthetic equivalents of the production workloads the paper measures:
multi-tenant table populations with realistic size skew
(:mod:`repro.workloads.tables`), OLAP query streams
(:mod:`repro.workloads.queries`), the Figure 5 fan-out/latency
experiment (:mod:`repro.workloads.fanout_experiment`), the
Figure 4e hot/cold access trace (:mod:`repro.workloads.hotcold`), and
open-loop overload traffic with Zipf tenant skew
(:mod:`repro.workloads.loadgen`).
"""

from repro.workloads.tables import (
    TableSpec,
    TenantWorkload,
    generate_rows,
    generate_table_population,
)
from repro.workloads.queries import QueryGenerator
from repro.workloads.fanout_experiment import (
    FanoutExperimentResult,
    LatencyPercentiles,
    run_fanout_experiment,
    sample_fanout_latencies,
)
from repro.workloads.hotcold import HotColdTrace, run_hot_cold_week
from repro.workloads.loadgen import (
    OverloadReport,
    TenantProfile,
    TrafficGenerator,
    overload_policy,
    run_overload_experiment,
    zipf_tenant_weights,
)

__all__ = [
    "TableSpec",
    "TenantWorkload",
    "generate_rows",
    "generate_table_population",
    "QueryGenerator",
    "FanoutExperimentResult",
    "LatencyPercentiles",
    "run_fanout_experiment",
    "sample_fanout_latencies",
    "HotColdTrace",
    "run_hot_cold_week",
    "OverloadReport",
    "TenantProfile",
    "TrafficGenerator",
    "overload_policy",
    "run_overload_experiment",
    "zipf_tenant_weights",
]
