"""Perf ledger: one command for every workload and metric.

    python3 benchmarks/perf/run.py                      # all workloads
    python3 benchmarks/perf/run.py --workload serve_hot --seed 3 --trace 1
    python3 benchmarks/perf/run.py --compare A.json B.json

``BENCHMARK.json`` at the repository root names the workloads, metrics,
units and bounds; README.md beside this file explains them. With
``--workload`` one workload runs in this process and the last line of
stdout is its result as one JSON object; without it every workload runs
in a fresh child process, untraced and traced, ``--repeats`` times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone

from common import HERE, RESULTS, ROOT, SRC, load_spec, spread

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
QUICK_SECONDS = 2
#: Counts that must repeat exactly between two runs of one commit.
EXACT = ("sim.engine.events_per_query", "obs.tracer.spans_per_query")


def import_program() -> float:
    """Import the parts of ``repro`` the in-process workloads drive;
    returns the seconds it took (part of their ``setup_s``)."""
    t0 = time.perf_counter()
    import repro.core.deployment  # noqa: F401
    import repro.cubrick.loader  # noqa: F401
    import repro.serve.deploy  # noqa: F401
    import repro.sql  # noqa: F401
    import repro.workloads.loadgen  # noqa: F401

    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    if name in ("serve_hot", "serve_churn"):
        import serve

        return serve.run(name, seed, seconds, trace, setups)
    import_s = import_program()
    if name == "engine_scan":
        import engine

        return engine.run_scan(seed, seconds, trace, setups, import_s)
    if name == "engine_ingest":
        import engine

        return engine.run_ingest(seed, seconds, trace, setups, import_s)
    if name == "sim_storm":
        import storm

        return storm.run(seed, seconds, trace, setups, import_s)
    raise SystemExit(f"unknown workload {name!r}")


def result_line(spec: dict, outcome: dict, trace: bool) -> dict:
    """The contract's result object: exactly the metrics BENCHMARK.json
    lists for this kind of run, each with its unit. A layer a workload
    does not exercise reads 0."""
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = outcome["metrics"]
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not trace and set(measured) != {m["name"] for m in listed}:
        raise RuntimeError("an untraced run must emit every end-to-end metric")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }


def print_run(run: dict) -> None:
    print(
        f"{run['workload']} seed={run['seed']} seconds={run['seconds']} "
        f"trace={int(run['trace'])}"
    )
    for name, metric in run["metrics"].items():
        if metric["value"] or not run["trace"]:
            print(f"  {name:44s} {metric['value']:14.4f} {metric['unit']}")
    for name, t in run["timings"].items():
        tail = f" p{t['tail_q']:g}={t['tail']:.4f}" if t["tail_q"] > 50 else ""
        print(f"  timing {name}: p50={t['p50']:.4f}{tail} n={t['n']}")
    if run.get("ledger"):
        print(f"  ledger: {run['ledger']} (results/ledger-{run['workload']}.json)")
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    print(
        f"  attempted={run['attempted']} failed={run['failed']} "
        f"fail_ratio={ratio:.6f} {run['fail_reasons'] or ''}"
    )
    if not run["valid"]:
        print("  INVALID RUN: the load generator was late or CPU-bound (README.md)")


# ----------------------------------------------------------------------
# Run records
# ----------------------------------------------------------------------


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "nogit"


def new_record_path() -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    return str(RESULTS / f"{stamp}-{commit()}.json")


def append_run(path: str, run: dict, effective_cores: int) -> None:
    """Add one run to the record at ``path`` (created with the machine's
    description when missing). Records are appended to, never rewritten
    from scratch: one file is one trajectory point. ``effective_cores``
    is the affinity this command started with, before any workload
    pinned itself to one core."""
    import numpy

    RESULTS.mkdir(exist_ok=True)
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    except FileNotFoundError:
        record = {
            "commit": commit(),
            "cores": os.cpu_count(),
            "effective_cores": effective_cores,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "runs": [],
        }
    record["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _values(record: dict, trace: bool) -> dict:
    """(workload, metric) -> values over the record's runs of that kind."""
    out: dict = {}
    for run in record["runs"]:
        if bool(run["trace"]) == trace:
            for name, metric in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): B against A under the
    metric's bound. Returns 1 when any row is worse or a count differs,
    2 when the records did not measure for the same number of seconds."""
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        record_a, record_b = json.load(a), json.load(b)
    lengths = {run["seconds"] for rec in (record_a, record_b) for run in rec["runs"]}
    if len(lengths) != 1:
        print(f"not comparable: runs of {sorted(lengths)} seconds", file=sys.stderr)
        return 2
    values_a, values_b = _values(record_a, False), _values(record_b, False)
    bad = 0
    print(f"{'workload':14s} {'metric':16s} {'A':>12s} {'B':>12s} {'change':>8s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                continue
            a, b = statistics.median(values_a[key]), statistics.median(values_b[key])
            sign = 1.0 if metric["better"] == "higher" else -1.0
            gain = sign * (b - a) / abs(a)
            wide = max(spread(values_a[key]), spread(values_b[key]))
            if wide > metric["bound"]:
                verdict = "unresolved"
            elif gain < -metric["bound"]:
                verdict = "worse"
                bad += 1
            else:
                verdict = "better" if gain > metric["bound"] else "same"
            print(f"{workload:14s} {metric['name']:16s} {a:12.4f} {b:12.4f} "
                  f"{gain:+8.1%} {wide:7.1%} {metric['bound']:6.0%}  {verdict}")
    for label, record in (("A", record_a), ("B", record_b)):
        failed = sum(run["failed"] for run in record["runs"])
        invalid = sum(1 for run in record["runs"] if not run["valid"])
        print(f"{label}: failed operations {failed}, invalid runs {invalid}")
        bad += failed > 0
    layers_a, layers_b = _values(record_a, True), _values(record_b, True)
    for name in EXACT:
        key = ("sim_storm", name)
        if key in layers_a and key in layers_b:
            same = set(layers_a[key]) == set(layers_b[key])
            print(f"sim_storm {name}: {'identical' if same else 'DIFFERENT'}")
            bad += not same
    sums = [
        {tuple(r["checksum"]) for r in rec["runs"] if r["workload"] == "sim_storm"
         and r["seed"] == 0}
        for rec in (record_a, record_b)
    ]
    if sums[0] and sums[1]:
        print(f"sim_storm checksum: {'identical' if sums[0] == sums[1] else 'DIFFERENT'}")
        bad += sums[0] != sums[1]
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run; the driver passes "
                        f"run_seconds = {spec['run_seconds']}, the default")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=None,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s phases, one set-up (smoke test)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--record", default=None,
                        help="run record to append to (default: a new one)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(spec, *args.compare)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec["run_seconds"])
    record = args.record or new_record_path()
    # Read before a serve workload pins this process to one core.
    effective_cores = len(os.sched_getaffinity(0))

    if args.workload:
        trace = bool(args.trace)
        outcome = run_workload(
            args.workload, args.seed, seconds, trace, 1 if args.quick else SETUPS
        )
        line = result_line(spec, outcome, trace)
        run = {
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": trace, **line,
            **{k: outcome[k] for k in ("timings", "fail_reasons", "valid")},
            "checksum": outcome.get("checksum", []),
            "ledger": outcome.get("ledger"),
        }
        append_run(record, run, effective_cores)
        print_run(run)
        print(json.dumps(line))
        return 0

    # Every workload, each run in a fresh child process.
    traces = (0, 1) if args.trace is None else (args.trace,)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for repeat in range(args.repeats):
            for trace in traces:
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed + repeat), "--trace", str(trace),
                    "--record", record,
                ] + (["--quick"] if args.quick else [])
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(child.stdout)
                if child.returncode != 0:
                    print(f"{name}: run failed with code {child.returncode}",
                          file=sys.stderr)
                    return child.returncode
                line = json.loads(child.stdout.strip().splitlines()[-1])
                merged["correct"] &= line["correct"]
                merged["attempted"] += line["attempted"]
                merged["failed"] += line["failed"]
                for metric, value in line["metrics"].items():
                    merged["metrics"][f"{name}.{metric}"] = value
    print(f"record: {record}")
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
