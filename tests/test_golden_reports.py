"""Behaviour lock: every seeded CLI report, byte for byte.

Each entry of :data:`REPORTS` runs one CLI command in-process at its
default seed; ``tests/golden/manifest.json`` pins the sha256 of its
stdout. A refactor that claims "same behaviour" proves it by leaving the
manifest unchanged. An intentional change to a report regenerates the
manifest with ``pytest tests/test_golden_reports.py --update-golden``, so
the change shows up as a reviewable diff of named lines.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from repro.chaos import list_scenarios
from repro.cli import main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

_JOIN = (
    "SELECT dim_users.tier, sum(clicks), sum(cost) FROM events "
    "JOIN dim_users ON events.user_id = dim_users.user_id "
    "GROUP BY dim_users.tier"
)

#: report name -> CLI arguments (every seed left at its default).
REPORTS = {
    "overload": ["overload"],
    "autoscale": ["autoscale"],
    "regionfail": ["regionfail"],
    "obs": ["obs"],
    "profile": ["profile"],
    "fanout-experiment": ["fanout-experiment"],
    "explain/join": ["explain", _JOIN],
    "sql/group_day": [
        "sql", "SELECT day, sum(cost), count(*) FROM events GROUP BY day"
    ],
    "sql/join": ["sql", _JOIN],
    "collisions": ["collisions"],
    "smc-delay": ["smc-delay"],
    **{
        f"chaos/{name}": ["chaos", "--scenario", name]
        for name, __ in list_scenarios()
    },
}


def _stdout_sha256(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_seeded_reports_match_manifest(update_golden):
    digests = {name: _stdout_sha256(argv) for name, argv in REPORTS.items()}
    if update_golden:
        MANIFEST.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    changed = sorted(
        name for name in digests.keys() | pinned.keys()
        if digests.get(name) != pinned.get(name)
    )
    assert not changed, f"reports differ from the manifest: {changed}"
