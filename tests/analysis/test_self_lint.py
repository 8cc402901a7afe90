"""The gate applied to ourselves: ``src/repro`` must be violation-free.

This is the acceptance criterion for the whole static-analysis
subsystem — every rule active, zero findings.  A new violation anywhere in the library fails this
test with the exact ``path:line:col`` the CLI would print.
"""

from pathlib import Path

import repro
from repro.analysis import (
    all_rules,
    analyze_paths,
    analyze_project_paths,
    rule_catalog,
)

SRC_REPRO = Path(repro.__file__).resolve().parent


def test_rule_floor():
    assert len(all_rules()) >= 7


def test_catalog_floor_including_project_checks():
    ids = {entry["id"] for entry in rule_catalog()}
    assert len(ids) >= 17
    assert {
        "REPRO-PAR001",
        "REPRO-PAR002",
        "REPRO-LINT001",
        "REPRO-PERF001",
        "REPRO-SHAPE001",
    } <= ids
    # The native boundary is checked at runtime by sta_run, not here.
    assert not {"REPRO-NATIVE001", "REPRO-SHAPE002"} & ids


def test_src_repro_is_violation_free():
    found = analyze_paths([SRC_REPRO])
    rendered = "\n".join(v.format() for v in found)
    assert not found, f"repro-lint violations in src/repro:\n{rendered}"


def test_src_repro_passes_the_full_project_gate():
    report = analyze_project_paths([SRC_REPRO])
    rendered = "\n".join(v.format() for v in report.violations)
    assert not report.violations, f"gate violations in src/repro:\n{rendered}"
    assert not report.has_syntax_errors
