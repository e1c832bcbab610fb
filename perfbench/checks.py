"""Output checks: each returns a list of issues (empty when the output is right).

Every check failure counts against ``failed`` and makes the run exit
non-zero; :mod:`perfbench.test_perfbench` shows each one rejecting a bad
output.
"""

from __future__ import annotations

import json

import numpy as np

#: Float slack on an error bound, as the program's own tests allow for
#: rounding in the reconstruction itself.
BOUND_SLACK = 1e-9


def scrub(path: str) -> list[str]:
    """Issues ``repro.durability.verify_path`` finds in a container."""
    from repro.durability import verify_path

    try:
        report = verify_path(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: scrub failed: {exc}"]
    return [f"{path}: {issue}" for issue in report.issues]


def same_crc_maps(reference: dict, other: dict, label: str) -> list[str]:
    """Issues when two ``block_crc32c`` maps differ in any block."""
    if reference == other:
        return []
    missing = sorted(set(reference) ^ set(other))
    changed = sorted(
        k for k in set(reference) & set(other) if reference[k] != other[k]
    )
    sample = (missing + changed)[:3]
    return [
        f"{label}: block CRC32C map differs ({len(missing)} blocks "
        f"missing, {len(changed)} changed; e.g. {sample})"
    ]


def within_bounds(original: dict, restored: dict, bounds: dict) -> list[str]:
    """Issues for any restored value farther from its original than its bound."""
    issues = []
    for name, values in original.items():
        got = restored.get(name)
        if got is None or got.shape != values.shape:
            issues.append(f"field {name!r}: missing or mis-shaped on load")
            continue
        err = float(np.max(np.abs(got.astype(np.float64) - values), initial=0.0))
        if not err <= bounds[name] * (1 + BOUND_SLACK):
            issues.append(
                f"field {name!r}: max |error| {err!r} exceeds bound "
                f"{bounds[name]!r}"
            )
    return issues


def solution_issues(sent_instance: dict, body: dict) -> list[str]:
    """Issues with one ``/solve`` 200 response: it must carry a schedule
    for the instance that was sent, and the schedule must validate."""
    from repro.core import ScheduleError, schedule_from_json

    solution = body.get("solution") if body.get("ok") else None
    schedule = solution.get("schedule") if isinstance(solution, dict) else None
    if schedule is None:
        return ["200 response without a schedule"]
    if schedule.get("instance") != sent_instance:
        return ["schedule is for a different instance than the one sent"]
    try:
        schedule_from_json(json.dumps(schedule)).validate()
    except (ScheduleError, KeyError, TypeError, ValueError) as exc:
        return [f"schedule does not validate: {exc}"]
    return []

