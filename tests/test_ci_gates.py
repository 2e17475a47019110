"""Gates that would otherwise run only in CI, as Tier-1 tests.

* The wall-clock ban (ruff's TID251 in ``pyproject.toml``): code under
  ``src/`` reads time from the injected virtual clock, so two seeded runs
  stay byte-identical. An ``ast`` walk enforces it where ruff is absent.
* The perf ledger's tracing targets (``benchmarks/perf/tracing.py``)
  must keep resolving, or a traced run loses a layer; this checks them
  in well under a second instead of in the minutes-long smoke run.
"""

import ast
import importlib
import importlib.util
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


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perf_tracing", ROOT / "benchmarks" / "perf" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unresolved = []
    for module_name, owner_name, attr, __ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"{module_name}:{owner_name}.{attr}")
    assert not unresolved, f"tracing targets gone: {unresolved}"
