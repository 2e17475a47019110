"""Smoke test of the perf ledger. Run by path (about a minute):

    python3 -m pytest benchmarks/perf/test_smoke.py -q

``pyproject.toml`` keeps ``testpaths`` at ``tests/``, so Tier-1 never
collects this file.
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import reference  # noqa: E402
import run as perf_run  # noqa: E402
import serve  # noqa: E402

SPEC = common.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick`` pass over every workload, untraced and traced."""
    record = tmp_path_factory.mktemp("perf") / "record.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--record", str(record)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    with open(record, encoding="utf-8") as handle:
        return done.stdout, json.load(handle), str(record)


def test_names_and_units_in_benchmark_json():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_every_metric_is_emitted_once_with_its_unit(quick):
    __, record, __ = quick
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload in SPEC["workloads"]:
            runs = [
                r for r in record["runs"]
                if r["workload"] == workload["name"] and r["trace"] == trace
            ]
            assert len(runs) == 1
            got = {n: m["unit"] for n, m in runs[0]["metrics"].items()}
            assert got == units
            if not trace:
                assert all(m["value"] > 0 for m in runs[0]["metrics"].values())
    # Every layer metric is measured (non-zero) on at least one workload,
    # except the counters whose healthy value is zero.
    zero_is_healthy = {
        "serve.gateway.protocol_errors", "serve.gateway.internal_errors",
        "sched.admission.reject_ratio",
    }
    for metric in SPEC["per_layer"]:
        values = [
            r["metrics"][metric["name"]]["value"]
            for r in record["runs"] if r["trace"]
        ]
        assert metric["name"] in zero_is_healthy or any(values), metric["name"]


def test_last_line_is_the_json_summary_and_nothing_failed(quick):
    stdout, record, __ = quick
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    assert all(r["failed"] == 0 for r in record["runs"])


def test_ledgers_close_exactly(quick):
    for workload in ("serve_hot", "serve_churn"):
        with open(common.RESULTS / f"ledger-{workload}.json", encoding="utf-8") as f:
            ledger = json.load(f)
        parts = sum(ledger["parts_ns"].values())
        assert parts + ledger["unattributed_ns"] == ledger["server_cpu_ns"]
        assert (common.RESULTS / f"trace-{workload}.json").exists()


def test_storm_counts_repeat_exactly_and_compare_agrees(quick, capsys):
    __, record, path = quick
    storm = [r for r in record["runs"] if r["workload"] == "sim_storm"]
    assert len({tuple(r["checksum"]) for r in storm}) == 1
    assert perf_run.compare(SPEC, path, path) == 0
    table = capsys.readouterr().out
    assert "worse" not in table and "DIFFERENT" not in table


def test_record_describes_the_machine_and_churn_counts_only_its_schedule(quick):
    __, record, __ = quick
    # Not the one core a serve workload pins its generator to.
    assert record["effective_cores"] == len(os.sched_getaffinity(0))
    churn = next(
        r for r in record["runs"] if r["workload"] == "serve_churn" and not r["trace"]
    )
    # The verification pass after the schedule is not counted as timed ops.
    assert churn["metrics"]["ops_per_s"]["value"] <= serve.CHURN_RATE * 1.01


def test_compare_refuses_runs_of_different_lengths(quick, tmp_path):
    __, record, path = quick
    longer = dict(record, runs=[dict(r, seconds=r["seconds"] * 2) for r in record["runs"]])
    other = tmp_path / "longer.json"
    other.write_text(json.dumps(longer), encoding="utf-8")
    assert perf_run.compare(SPEC, path, str(other)) == 2


def test_a_wrong_answer_raises_the_fail_ratio():
    reference.self_test()
    import numpy as np

    columns = {"day": np.array([0, 0, 1]), "value": np.array([1.0, 2.0, 4.0])}
    answers = reference.Answers(
        {"q": reference.Spec(aggs=(("sum", "value"),), group_by=("day",))}
    )
    tally = common.Tally()
    right = reference.full_rows(answers.specs["q"], columns)
    tally.record(answers.ok("q", columns, 0, right))
    assert tally.fail_ratio == 0
    # Corrupt the reference itself: the same engine answer now counts
    # as a failure.
    answers.expected[("q", 0)].rows[0] = (0, 99.0)
    tally.record(answers.ok("q", columns, 0, right))
    assert tally.failed == 1 and tally.fail_ratio > 0


def test_no_child_or_listener_survives_a_failed_run(monkeypatch):
    seen = {}

    def broken_warm(self):
        seen["port"] = self.socks[0].getpeername()[1]
        raise RuntimeError("injected failure")

    real_init = serve.Gateway.__init__

    def spying_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        seen["pid"] = self.pid

    monkeypatch.setattr(serve.Load, "warm", broken_warm)
    monkeypatch.setattr(serve.Gateway, "__init__", spying_init)
    affinity = os.sched_getaffinity(0)
    try:
        with pytest.raises(RuntimeError, match="injected failure"):
            serve.run("serve_hot", 0, 1.0, False, 1)
    finally:
        os.sched_setaffinity(0, affinity)
    with pytest.raises(ProcessLookupError):
        os.kill(seen["pid"], 0)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", seen["port"]), timeout=2)
