"""Human and JSON reporters for lint results."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.engine import Violation, rule_catalog

__all__ = ["format_human", "format_json", "report_payload"]


def format_human(
    violations: Sequence[Violation],
    *,
    files_checked: int = 0,
    cache_note: Optional[str] = None,
) -> str:
    """Conventional ``path:line:col: RULE message`` listing + summary line.

    ``cache_note`` (the incremental-cache reuse line) appears only in
    this human rendering — the JSON report must stay byte-identical
    between cold and warm runs of the same tree.
    """
    lines: List[str] = [v.format() for v in violations]
    if violations:
        summary = (
            f"repro-lint: {len(violations)} violation(s) "
            f"({files_checked} file(s) checked)"
        )
    else:
        summary = f"repro-lint: clean ({files_checked} file(s) checked)"
    if cache_note:
        lines.append(cache_note)
    lines.append(summary)
    return "\n".join(lines)


def report_payload(
    violations: Sequence[Violation], *, files_checked: int = 0
) -> Dict[str, Any]:
    """The machine-readable report as a plain dict (``--json`` emits it)."""
    return {
        "files_checked": files_checked,
        "violations": [v.to_dict() for v in violations],
        "rules": rule_catalog(),
        "summary": {
            "violations": len(violations),
            "clean": not violations,
        },
    }


def format_json(
    violations: Sequence[Violation], *, files_checked: int = 0
) -> str:
    """Stable, indented JSON rendering of :func:`report_payload`."""
    return json.dumps(
        report_payload(violations, files_checked=files_checked),
        indent=2,
        sort_keys=True,
    )
