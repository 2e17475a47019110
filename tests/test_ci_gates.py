"""Gates that would otherwise run only in CI, as Tier-1 tests.

* The wall-clock ban (ruff's TID251 in ``pyproject.toml``): code under
  ``src/`` reads time from the injected virtual clock, so two seeded runs
  stay byte-identical. An ``ast`` walk enforces it where ruff is absent.
* The perf ledger's tracing targets (``benchmarks/perf/tracing.py``)
  must keep resolving, or a traced run loses a layer; this checks them
  in well under a second instead of in the minutes-long smoke run. SQL
  compilation must also keep calling them where the ledger's per-call
  arithmetic expects.
* No dead settings: every field of ``DeploymentConfig`` and
  ``SchedPolicy`` is set by some caller in ``src/``, ``benchmarks/`` or
  ``examples/``. A field only its default ever uses is a constant.
* No dangling exports: every module under ``src/repro`` imports, and
  every name in each ``__all__`` resolves, so a deletion that leaves a
  re-export behind fails here even when no test imports that module.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _ruff_lint_config() -> dict:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["tool"]["ruff"]["lint"]


def _banned_calls(path: Path, banned: set[str]) -> list[tuple[int, str]]:
    """(line, ``module.attr``) for each use of a banned API in one file.

    A ``# noqa: TID251`` comment exempts nothing: the pyproject
    per-file-ignore for ``serve/clock.py`` is the one sanctioned
    boundary."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    modules = {}  # local name -> module name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None:
                names = [f"{module}.{node.attr}"]
        for name in names:
            if name in banned:
                found.append((node.lineno, name))
    return sorted(found)


def test_no_wall_clock_in_src():
    lint = _ruff_lint_config()
    banned = set(lint["flake8-tidy-imports"]["banned-api"])
    exempt = {
        ROOT / pattern
        for pattern, rules in lint["per-file-ignores"].items()
        if pattern.startswith("src/") and "TID251" in rules
    }
    found = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in exempt
        for line, name in _banned_calls(path, banned)
    ]
    assert not found, "wall-clock calls in src/: " + ", ".join(found)


def test_wall_clock_walk_catches_both_spellings(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import time as t\n"
        "from time import perf_counter\n"
        "t.monotonic()\n"
        "t.sleep(1)\n"
        "t.time()  # noqa: TID251\n",
        encoding="utf-8",
    )
    banned = {"time.time", "time.perf_counter", "time.monotonic"}
    assert _banned_calls(sample, banned) == [
        (2, "time.perf_counter"), (3, "time.monotonic"), (5, "time.time")
    ]


#: Calls whose keyword arguments set a config field.
SETTING_CALLS = {"DeploymentConfig", "SchedPolicy", "SchedPolicy.legacy",
                 "serve_policy"}
#: Builders whose own ``dict(...)`` of field values counts as setting.
SETTING_BUILDERS = {"SchedPolicy.legacy", "serve_policy"}


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return ""


def _keywords(call: ast.Call) -> set[str]:
    return {keyword.arg for keyword in call.keywords if keyword.arg}


def _set_fields(paths) -> set[str]:
    """Keyword names passed to :data:`SETTING_CALLS`, plus those of the
    ``dict(...)`` each of :data:`SETTING_BUILDERS` builds."""
    found: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        functions[f"{node.name}.{method.name}"] = method
        for name in SETTING_BUILDERS & functions.keys():
            for call in ast.walk(functions[name]):
                if isinstance(call, ast.Call) and _dotted(call.func) == "dict":
                    found.update(_keywords(call))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _dotted(call.func) in SETTING_CALLS:
                found.update(_keywords(call))
    return found


def test_every_config_field_is_set_somewhere():
    from repro.core.deployment import DeploymentConfig
    from repro.sched.manager import SchedPolicy

    paths = [
        path
        for directory in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / directory).rglob("*.py"))
    ]
    set_fields = _set_fields(paths)
    unset = [
        f"{config.__name__}.{field.name}"
        for config in (DeploymentConfig, SchedPolicy)
        for field in dataclasses.fields(config)
        if field.name not in set_fields
    ]
    assert not unset, "fields no caller sets (make them constants): " + (
        ", ".join(unset)
    )


def test_setting_walk_flags_a_field_nothing_sets(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class SchedPolicy:\n"
        "    def legacy(cls, **overrides):\n"
        "        return cls(**dict(global_rate=None))\n"
        "def serve_policy(**overrides):\n"
        "    return dict(deadline=2.0)\n"
        "def unrelated():\n"
        "    return dict(ghost_knob=1)\n"
        "config = DeploymentConfig(seed=1)\n"
        "policy = SchedPolicy.legacy(cache_capacity=0)\n"
        "other = Other(ghost_knob=2)\n",
        encoding="utf-8",
    )
    assert _set_fields([sample]) == {
        "global_rate", "deadline", "seed", "cache_capacity"
    }


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perf_tracing", ROOT / "benchmarks" / "perf" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve():
    tracing = _tracing()
    unresolved = []
    for module_name, owner_name, attr, __ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"{module_name}:{owner_name}.{attr}")
    assert not unresolved, f"tracing targets gone: {unresolved}"


def test_compile_sql_spans_match_the_ledger_arithmetic():
    """A statement-cache miss is one ``sql.compile`` span over three
    ``sql.plan`` spans (parse, plan, build_physical), which is what the
    ledger's ``sql.plan_us = self / (calls / 3)`` assumes; a hit is one
    ``sql.compile`` span and no planning."""
    from repro.core.deployment import CubrickDeployment, DeploymentConfig
    from repro.cubrick.schema import Dimension, Metric, TableSchema

    tracing = _tracing()
    deployment = CubrickDeployment(
        DeploymentConfig(seed=0, regions=1, racks_per_region=1, hosts_per_rack=2)
    )
    deployment.create_table(TableSchema.build(
        "events", [Dimension("day", 30)], [Metric("clicks")]
    ))
    statement = "SELECT sum(clicks) FROM events WHERE day = 3"
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        deployment.compile_sql(statement)
        miss = {name: total[0] for name, total in recorder.totals.items()}
        deployment.compile_sql(statement)
        both = {name: total[0] for name, total in recorder.totals.items()}
    finally:
        recorder.unpatch_all()
    assert miss == {"sql.compile": 1, "sql.plan": 3}
    assert both == {"sql.compile": 2, "sql.plan": 3}


def _dangling_exports(package_name: str) -> list[str]:
    """``module.name`` for each ``__all__`` entry under the package
    (itself included) that the module does not define; importing every
    module also fails on a re-export whose source is gone."""
    package = importlib.import_module(package_name)
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, f"{package_name}.")
    ]
    return [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]


def test_every_exported_name_resolves():
    dangling = _dangling_exports("repro")
    assert not dangling, f"__all__ names that do not resolve: {dangling}"


def test_export_walk_flags_a_stale_all(tmp_path, monkeypatch):
    package = tmp_path / "stalepkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from stalepkg.kept import kept\n__all__ = ['kept', 'deleted']\n",
        encoding="utf-8",
    )
    (package / "kept.py").write_text("def kept():\n    pass\n", encoding="utf-8")
    (package / "sub" / "__init__.py").write_text(
        "__all__ = ['gone']\n", encoding="utf-8"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert _dangling_exports("stalepkg") == [
        "stalepkg.deleted", "stalepkg.sub.gone"
    ]
