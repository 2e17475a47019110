"""Reference oracle: every answer recomputed with plain numpy.

The oracle sees only what the benchmark generated — whole columns, no
bricks, no partitions, no SQL text — and a :class:`Spec` describing the
aggregation. It shares no code with ``repro``'s planner, storage or
kernels, so agreement is evidence and disagreement is a failure that
counts against ``failed``.

Metric values in every workload are multiples of 1/8, so sums are exact
in any order and answers are compared with ``==``, not a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

Columns = dict  # column name -> 1-d numpy array, all of one length


@dataclass(frozen=True)
class Spec:
    """One aggregation query, as the oracle understands it.

    ``aggs`` are ``(func, column)`` with func in sum / count / min / max
    / count_distinct; ``filters`` are ``(column, op, values)`` with op in
    eq / in / between; ``order_by`` is the index of an output column.
    """

    aggs: tuple
    group_by: tuple = ()
    filters: tuple = ()
    order_by: Optional[int] = None
    descending: bool = True
    limit: Optional[int] = None


def spec_of_query(query) -> Spec:
    """The oracle's view of a generated ``repro`` ``Query`` object."""
    labels = list(query.group_by) + [a.label() for a in query.aggregations]
    return Spec(
        aggs=tuple((a.func.value, a.metric) for a in query.aggregations),
        group_by=tuple(query.group_by),
        filters=tuple(
            (f.dimension, f.op.value, tuple(f.values)) for f in query.filters
        ),
        order_by=None if query.order_by is None else labels.index(query.order_by),
        descending=query.descending,
        limit=query.limit,
    )


def _mask(columns: Columns, filters: tuple) -> np.ndarray:
    size = len(next(iter(columns.values())))
    mask = np.ones(size, dtype=bool)
    for column, op, values in filters:
        data = columns[column]
        if op == "eq":
            mask &= data == values[0]
        elif op == "in":
            mask &= np.isin(data, values)
        elif op == "between":
            mask &= (data >= values[0]) & (data <= values[1])
        else:
            raise ValueError(f"oracle does not know filter op {op!r}")
    return mask


def _aggregate(func: str, values: np.ndarray, group: np.ndarray, n: int) -> list:
    if func == "count":
        return np.bincount(group, minlength=n).astype(float).tolist()
    if func == "sum":
        return np.bincount(group, weights=values, minlength=n).tolist()
    if func in ("min", "max"):
        out = np.full(n, np.inf if func == "min" else -np.inf)
        (np.minimum if func == "min" else np.maximum).at(out, group, values)
        return out.tolist()
    if func == "count_distinct":
        pairs = np.unique(np.stack([group, values.astype(np.int64)]), axis=1)
        return np.bincount(pairs[0], minlength=n).astype(float).tolist()
    raise ValueError(f"oracle does not know aggregate {func!r}")


def full_rows(spec: Spec, columns: Columns) -> list[tuple]:
    """Every result row in group-key order, before ORDER BY / LIMIT."""
    mask = _mask(columns, spec.filters)
    matched = int(mask.sum())
    if matched == 0:
        # The engine returns no row (not a zero row) when nothing matches.
        return []
    if spec.group_by:
        keys = np.stack([columns[c][mask].astype(np.int64) for c in spec.group_by])
        unique, group = np.unique(keys, axis=1, return_inverse=True)
        group = group.reshape(-1)
        key_columns = [row.tolist() for row in unique]
        n = unique.shape[1]
    else:
        group = np.zeros(matched, dtype=np.int64)
        key_columns, n = [], 1
    value_columns = [
        _aggregate(func, columns[column][mask], group, n)
        for func, column in spec.aggs
    ]
    return list(zip(*key_columns, *value_columns))


class Expected:
    """The reference answer of one spec over one state of the columns."""

    def __init__(self, spec: Spec, columns: Columns):
        self.spec = spec
        self.rows = full_rows(spec, columns)
        if spec.order_by is not None:
            ranked = sorted(
                (r[spec.order_by] for r in self.rows), reverse=spec.descending
            )
            self.ranked = ranked if spec.limit is None else ranked[: spec.limit]
            self.row_set = set(self.rows)

    def matches(self, rows) -> bool:
        """Whether ``rows`` (engine or wire answer) equals the reference.

        With ORDER BY + LIMIT, ties at the cut may be broken either way:
        the answer is right when its order column holds exactly the
        reference's top values, in order, and every returned row is a
        row of the full reference result.
        """
        got = [tuple(row) for row in rows]
        spec = self.spec
        if spec.order_by is None:
            want = self.rows if spec.limit is None else self.rows[: spec.limit]
            return got == want
        return (
            [r[spec.order_by] for r in got] == self.ranked
            and self.row_set.issuperset(got)
        )


class Answers:
    """Reference answers of a fixed set of specs, computed once per
    version of the data and compared many times."""

    def __init__(self, specs: dict):
        self.specs = specs
        self.expected: dict = {}

    def ok(self, name, columns: Columns, version, rows) -> bool:
        """``rows`` is the right answer of spec ``name`` over ``columns``
        (``version`` names that state of the columns)."""
        key = (name, version)
        expected = self.expected.get(key)
        if expected is None:
            expected = self.expected[key] = Expected(self.specs[name], columns)
        return expected.matches(rows)


def self_test() -> None:
    """The oracle must reject a corrupted answer (run by test_smoke.py)."""
    rng = np.random.default_rng(7)
    columns = {
        "day": rng.integers(8, size=500),
        "value": rng.integers(0, 80, size=500) / 8.0,
    }
    spec = Spec(aggs=(("sum", "value"), ("count", "value")), group_by=("day",))
    good = Expected(spec, columns)
    assert good.matches(good.rows)
    bad = list(good.rows)
    bad[3] = (bad[3][0], bad[3][1] + 0.125, bad[3][2])
    assert not good.matches(bad)
    top = Expected(
        Spec(aggs=(("sum", "value"),), group_by=("day",), order_by=1, limit=3),
        columns,
    )
    best = sorted(top.rows, key=lambda r: -r[1])[:3]
    assert top.matches(best)
    assert not top.matches(best[::-1])
