"""Tests for the AST rule engine: registry, dispatch, suppressions."""

import ast

import pytest

from repro.analysis.engine import (
    SYNTAX_ERROR_RULE_ID,
    Rule,
    Violation,
    all_rules,
    analyze_paths,
    analyze_source,
    iter_python_files,
    register_rule,
    rule_catalog,
)


class NameCounterRule(Rule):
    """Test double: flags every ``Name`` node called ``forbidden``."""

    id = "TEST-NAME001"
    title = "forbidden name"
    rationale = "test rule"
    interests = (ast.Name,)

    def visit(self, node, ctx):
        if node.id == "forbidden":
            return [self.violation(ctx, node, "name is forbidden")]
        return ()


class WholeFileRule(Rule):
    """Test double exercising begin_file/finish_file state."""

    id = "TEST-FILE001"
    title = "whole-file rule"
    rationale = "test rule"
    interests = (ast.FunctionDef,)

    def begin_file(self, ctx):
        self.count = 0

    def visit(self, node, ctx):
        self.count += 1
        return ()

    def finish_file(self, ctx):
        if self.count > 1:
            return [self.violation(ctx, ctx.tree, f"{self.count} functions")]
        return ()


def run(source, **kwargs):
    kwargs.setdefault("rules", [NameCounterRule(), WholeFileRule()])
    return analyze_source(source, "demo.py", **kwargs)


# ----------------------------------------------------------------------
# Core dispatch.
# ----------------------------------------------------------------------
def test_visitor_dispatch_hits_interested_rule():
    found = run("x = forbidden\n")
    assert [v.rule_id for v in found] == ["TEST-NAME001"]
    assert found[0].line == 1
    assert found[0].path == "demo.py"


def test_clean_source_yields_nothing():
    assert run("x = 1\n") == []


def test_violations_sorted_by_location():
    found = run("a = forbidden\nb = 2\nc = forbidden\n")
    assert [v.line for v in found] == [1, 3]


def test_whole_file_rule_sees_every_function():
    source = "def a():\n    pass\n\ndef b():\n    pass\n"
    found = run(source)
    assert [v.rule_id for v in found] == ["TEST-FILE001"]
    assert "2 functions" in found[0].message


def test_fresh_state_per_analysis_run():
    source = "def a():\n    pass\n"
    # One function per run: finish_file must not accumulate across calls.
    assert run(source) == []
    assert run(source) == []


# ----------------------------------------------------------------------
# Suppressions.
# ----------------------------------------------------------------------
def test_line_suppression_silences_one_rule():
    found = run("x = forbidden  # repro-lint: disable=TEST-NAME001\n")
    assert found == []


def test_line_suppression_is_line_scoped():
    source = (
        "x = forbidden  # repro-lint: disable=TEST-NAME001\n"
        "y = forbidden\n"
    )
    found = run(source)
    assert [v.line for v in found] == [2]


def test_line_suppression_multiple_ids():
    source = "x = forbidden  # repro-lint: disable=OTHER,TEST-NAME001\n"
    assert run(source) == []


def test_line_suppression_other_rule_keeps_finding():
    source = "x = forbidden  # repro-lint: disable=TEST-OTHER\n"
    assert [v.rule_id for v in run(source)] == ["TEST-NAME001"]


def test_file_suppression_silences_everywhere():
    source = (
        "# repro-lint: disable-file=TEST-NAME001\n"
        "x = forbidden\n"
        "y = forbidden\n"
    )
    assert run(source) == []


def test_all_wildcard_suppresses_every_rule():
    source = "# repro-lint: disable-file=all\nx = forbidden\n"
    assert run(source) == []


# ----------------------------------------------------------------------
# Syntax errors.
# ----------------------------------------------------------------------
def test_unparseable_file_is_one_loud_violation():
    found = run("def broken(:\n")
    assert len(found) == 1
    assert found[0].rule_id == SYNTAX_ERROR_RULE_ID
    assert "does not parse" in found[0].message


# ----------------------------------------------------------------------
# Select / ignore.
# ----------------------------------------------------------------------
def test_select_runs_only_named_rules():
    source = "def a():\n    pass\n\ndef b():\n    x = forbidden\n"
    found = run(source, select=["TEST-FILE001"])
    assert [v.rule_id for v in found] == ["TEST-FILE001"]


def test_ignore_drops_named_rules():
    source = "x = forbidden\n"
    assert run(source, ignore=["TEST-NAME001"]) == []


def test_select_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="unknown rule ids"):
        run("x = 1\n", select=["NO-SUCH-RULE"])


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
def test_project_rules_registered_and_catalogued():
    rules = all_rules()
    ids = [rule.id for rule in rules]
    assert ids == sorted(ids)
    assert len(ids) >= 6  # the issue's floor on active project rules
    catalog = rule_catalog()
    catalog_ids = [entry["id"] for entry in catalog]
    assert catalog_ids == sorted(catalog_ids)
    # The catalog covers every per-file rule plus the whole-program
    # project checks (REPRO-SHAPE001, REPRO-PAR001/002, REPRO-LINT001).
    assert set(catalog_ids) >= set(ids)
    for entry in catalog:
        assert entry["title"]
        assert entry["rationale"]


def test_register_rule_requires_id():
    class NoId(Rule):
        id = ""

    with pytest.raises(ValueError, match="has no id"):
        register_rule(NoId)


def test_register_rule_rejects_duplicate_id():
    class Duplicate(Rule):
        id = "REPRO-RNG001"  # collides with the real project rule

    with pytest.raises(ValueError, match="duplicate rule id"):
        register_rule(Duplicate)


# ----------------------------------------------------------------------
# File discovery.
# ----------------------------------------------------------------------
def test_iter_python_files_walks_and_skips(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
    (tmp_path / ".hidden").mkdir()
    (tmp_path / ".hidden" / "skip.py").write_text("x = 1\n")
    (tmp_path / "top.py").write_text("y = 2\n")
    found = sorted(p.name for p in iter_python_files([tmp_path]))
    assert found == ["mod.py", "top.py"]


def test_iter_python_files_accepts_single_file(tmp_path):
    target = tmp_path / "one.py"
    target.write_text("x = 1\n")
    assert list(iter_python_files([target])) == [target]


def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([tmp_path / "nope"]))


def test_analyze_paths_aggregates(tmp_path):
    (tmp_path / "a.py").write_text("x = forbidden\n")
    (tmp_path / "b.py").write_text("y = forbidden\n")
    found = analyze_paths([tmp_path], rules=[NameCounterRule()])
    assert [v.path for v in found] == [
        str(tmp_path / "a.py"),
        str(tmp_path / "b.py"),
    ]


# ----------------------------------------------------------------------
# Violation rendering.
# ----------------------------------------------------------------------
def test_violation_format_and_dict():
    v = Violation(path="p.py", line=3, col=4, rule_id="X-1", message="msg")
    assert v.format() == "p.py:3:4: X-1 msg"
    assert v.to_dict() == {
        "path": "p.py",
        "line": 3,
        "col": 4,
        "rule": "X-1",
        "message": "msg",
    }
