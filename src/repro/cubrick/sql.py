"""The canonical SQL printer for :class:`~repro.cubrick.query.Query`.

:func:`render_query` prints a ``Query`` in the dialect the
:mod:`repro.sql` frontend parses. Its output is ``Query.plan_key``, the
key of the scheduler's result cache, so it must be deterministic and
must identify the query: ``deployment.compile_sql(render_query(q)) == q``
for every non-empty query with only replicated joins the planner can
emit against the catalog (checked by a property test). A join's
strategy is not printed (the answer does not depend on it); an empty
plan prints ``FALSE`` as its last WHERE conjunct, so it never shares a
key with the unfiltered query. SQL is compiled elsewhere: every SQL
surface goes through :mod:`repro.sql` parse → plan → ``build_physical``.

.. code-block:: sql

    SELECT sum(clicks), count(clicks)
    FROM events
    JOIN dim_users ON events.user_id = dim_users.user_id
    WHERE day BETWEEN 0 AND 6 AND dim_users.country IN (1, 2, 3)
    GROUP BY dim_users.country
    ORDER BY sum(clicks) DESC
    LIMIT 5
"""

from __future__ import annotations

from repro.cubrick.query import FilterOp, Query


def render_query(query: Query) -> str:
    """Render a :class:`Query` as one line of the SQL dialect."""
    parts = ["SELECT "]
    parts.append(", ".join(
        f"{agg.func.value}({agg.metric})" for agg in query.aggregations
    ))
    parts.append(f" FROM {query.table}")
    for join in query.joins:
        parts.append(
            f" JOIN {join.table} ON {query.table}.{join.fact_key} = "
            f"{join.table}.{join.dim_key}"
        )
    if query.filters or query.empty_reason:
        clauses = []
        for flt in query.filters:
            if flt.op is FilterOp.EQ:
                clauses.append(f"{flt.dimension} = {flt.values[0]}")
            elif flt.op is FilterOp.BETWEEN:
                clauses.append(
                    f"{flt.dimension} BETWEEN {flt.values[0]} AND "
                    f"{flt.values[1]}"
                )
            elif flt.op is FilterOp.NOT_IN:
                values = ", ".join(str(v) for v in flt.values)
                clauses.append(f"{flt.dimension} NOT IN ({values})")
            else:
                values = ", ".join(str(v) for v in flt.values)
                clauses.append(f"{flt.dimension} IN ({values})")
        if query.empty_reason:
            clauses.append("FALSE")
        parts.append(" WHERE " + " AND ".join(clauses))
    if query.group_by:
        parts.append(" GROUP BY " + ", ".join(query.group_by))
    if query.having:
        clauses = [
            f"{h.column} {h.op.value} {_render_number(h.value)}"
            for h in query.having
        ]
        parts.append(" HAVING " + " AND ".join(clauses))
    if query.order_by is not None:
        direction = "DESC" if query.descending else "ASC"
        parts.append(f" ORDER BY {query.order_by} {direction}")
    if query.limit is not None:
        parts.append(f" LIMIT {query.limit}")
    return "".join(parts)


def _render_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
