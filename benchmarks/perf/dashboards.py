"""Inputs of the dashboard workloads (``serve_*``, ``sim_storm``): the
300-row ``events`` table and the pool of statements asked of it."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import reference

TENANTS = 6
POOL = 8
ZIPF_S = 1.1
#: Every request is interactive, the one class the adaptive shedder
#: never sheds: with sheddable classes a seed whose latency draws miss
#: the SLA for a moment gets refusals, and a workload must not fail.
PRIORITY = "interactive"
#: Statement shapes of one tenant's dashboard: (grouped, filter kind).
#: Fixed so that response sizes and scan widths, and with them the cost
#: per request, do not depend on the seed; only the literals do.
_SHAPES = (
    (False, "eq"), (False, "between"), (False, "in"), (False, None),
    (False, "eq"), (True, None), (True, "between"), (True, "in"),
)


@dataclass
class Statement:
    tenant: str
    query: object  # the generated repro ``Query``
    sql: str
    spec: reference.Spec
    #: Wire request up to the id: ``{...,"id":`` — the id and ``}`` follow.
    prefix: bytes


def events_columns(seed: int) -> dict:
    """The 300-row ``events`` table ``build_serving_deployment(seed)``
    loads (``repro.cli serve --seed`` too).

    The program generates its own table from the seed; the oracle needs
    the same rows without asking the program, so the draw order is
    repeated here (``day`` then ``clicks``, row by row). If the program
    changes its generator every answer stops matching — loudly.
    """
    rng = np.random.default_rng(seed)
    day, clicks = [], []
    for __ in range(300):
        day.append(int(rng.integers(30)))
        clicks.append(float(rng.integers(1, 100)))
    return {"day": np.array(day), "clicks": np.array(clicks)}


def build_pool(seed: int) -> list[Statement]:
    """6 tenants x 8 dashboard statements from the public generator,
    drawn until each tenant has one statement of every shape."""
    from repro.cubrick.schema import Dimension, Metric, TableSchema
    from repro.cubrick.sql import render_query
    from repro.workloads.queries import QueryGenerator

    schema = TableSchema.build(
        "events",
        dimensions=[Dimension("day", 30, range_size=7)],
        metrics=[Metric("clicks")],
    )
    generator = QueryGenerator([schema], np.random.default_rng([seed, 1]))
    pool: list[Statement] = []
    for rank in range(TENANTS):
        tenant = f"tenant{rank:02d}"
        wanted = list(_SHAPES)
        while wanted:
            query = generator.next_query()
            kind = query.filters[0].op.value if query.filters else None
            shape = (bool(query.group_by), kind)
            if shape not in wanted:
                continue
            wanted.remove(shape)
            sql = render_query(query)
            body = json.dumps(
                {
                    "op": "sql",
                    "sql": sql,
                    "tenant": tenant,
                    "priority": PRIORITY,
                },
                separators=(",", ":"),
            )
            pool.append(
                Statement(
                    tenant=tenant,
                    query=query,
                    sql=sql,
                    spec=reference.spec_of_query(query),
                    prefix=body[:-1].encode() + b',"id":',
                )
            )
    return pool


def statement_weights() -> np.ndarray:
    """Zipf tenant shares, spread evenly over each tenant's statements."""
    from repro.workloads.loadgen import zipf_tenant_weights

    return np.repeat(np.asarray(zipf_tenant_weights(TENANTS, ZIPF_S)) / POOL, POOL)
