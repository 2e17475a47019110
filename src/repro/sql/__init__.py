"""repro.sql: SQL frontend and distributed query planner.

Three stages, each importable on its own:

* :mod:`repro.sql.lexer` / :mod:`repro.sql.parser` /
  :mod:`repro.sql.ast` — hand-written tokenizer and recursive-descent
  parser producing a typed AST with source positions.
* :mod:`repro.sql.planner` / :mod:`repro.sql.rules` — catalog-aware
  name resolution and the ordered rewrite-rule pipeline (predicate
  normalisation, join-strategy selection, pushdown, pruning,
  partial-aggregation placement).
* :mod:`repro.sql.physical` / :mod:`repro.sql.explain` — the plan's
  execution shape (proxy fan-out, broadcast and partitioned-hash joins)
  and deterministic EXPLAIN rendering. The plan itself is a
  :class:`~repro.cubrick.query.Query`, which the Cubrick proxy routes.
"""

from repro.errors import SqlError
from repro.sql.ast import SelectStatement, unparse
from repro.sql.explain import explain, render_explain
from repro.sql.parser import parse
from repro.sql.physical import PhysicalPlan, build_physical
from repro.sql.planner import LogicalPlan, PlannerContext, plan

__all__ = [
    "LogicalPlan",
    "PhysicalPlan",
    "PlannerContext",
    "SelectStatement",
    "SqlError",
    "build_physical",
    "explain",
    "parse",
    "plan",
    "render_explain",
    "unparse",
]
