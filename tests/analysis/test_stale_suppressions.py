"""Tests for the REPRO-LINT001 stale-suppression audit."""

from pathlib import Path

from repro.analysis import analyze_project_paths
from repro.analysis.engine import LINT_RULE_ID

FIXTURES = Path(__file__).parent / "fixtures"
STALE_SELECT = {LINT_RULE_ID, "REPRO-SHAPE001", "REPRO-RNG001"}


def test_stale_directives_are_reported():
    report = analyze_project_paths(
        [FIXTURES / "stale_bad.py"], select=STALE_SELECT
    )
    assert [v.rule_id for v in report.violations] == [LINT_RULE_ID] * 3
    messages = {v.line: v.message for v in report.violations}
    assert "disable-file=REPRO-RNG001" in messages[8]
    assert "anywhere in this file" in messages[8]
    assert "disable=REPRO-SHAPE001" in messages[12]
    assert "no finding on this line" in messages[12]
    assert "unknown rule id 'REPRO-NOPE999'" in messages[13]


def test_live_directive_is_not_stale_and_still_suppresses():
    report = analyze_project_paths(
        [FIXTURES / "stale_good.py"], select=STALE_SELECT
    )
    assert report.violations == []


def test_directives_in_docstrings_are_not_parsed(tmp_path):
    target = tmp_path / "doc.py"
    target.write_text(
        '"""Mentions ``# repro-lint: disable=REPRO-RNG001`` as syntax '
        'documentation, not as a directive."""\n\n'
        "VALUE = 1\n"
    )
    report = analyze_project_paths([target], select=STALE_SELECT)
    assert report.violations == []


def test_stale_check_skips_inactive_rules():
    # With only REPRO-LINT001 selected, directives for rules that did
    # not run (SHAPE001, RNG001) cannot be judged stale; an unknown
    # rule id is always reportable regardless of what ran.
    report = analyze_project_paths(
        [FIXTURES / "stale_bad.py"], select={LINT_RULE_ID}
    )
    messages = [v.message for v in report.violations]
    assert len(messages) == 1
    assert "unknown rule id 'REPRO-NOPE999'" in messages[0]
