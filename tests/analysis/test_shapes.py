"""REPRO-SHAPE001: provable constant-shape mismatches.

Fixture-driven coverage of the broadcast and reshape checks, plus the
live tree, which must have none.  (The native kernel's buffer sizes are
validated at runtime by ``sta_run``; see
``tests/timing/test_native_mutations.py``.)
"""

from pathlib import Path

import repro
from repro.analysis import analyze_project_paths
from repro.analysis.project import ProjectModel
from repro.analysis.shapes import SHAPE_RULE_ID, check_shapes

FIXTURES = Path(__file__).parent / "fixtures"
SRC_REPRO = Path(repro.__file__).resolve().parent


def rule_violations(fixture: str, rule_id: str):
    report = analyze_project_paths(
        [FIXTURES / fixture], select={rule_id}, use_cache=False
    )
    return [v for v in report.violations if v.rule_id == rule_id]


# -- SHAPE001: broadcast/shape mismatch -------------------------------


def test_shape_good_fixture_is_clean():
    assert rule_violations("shape_good.py", SHAPE_RULE_ID) == []


def test_provable_broadcast_mismatches_are_flagged():
    found = rule_violations("shape_bad_broadcast.py", SHAPE_RULE_ID)
    assert [v.line for v in found] == [14, 20]
    for violation in found:
        assert "provably not broadcastable" in violation.message


def test_reshape_between_constant_totals_is_flagged(tmp_path):
    target = tmp_path / "reshape.py"
    target.write_text(
        "import numpy as np\n\n\n"
        "def f():\n"
        "    flat = np.zeros(6)\n"
        "    ok = flat.reshape(2, 3) + flat[:3]\n"
        "    return flat.reshape(4, 2), ok\n"
    )
    found = check_shapes(ProjectModel.from_paths([target]))
    assert [v.line for v in found] == [7]
    assert "constant total of 8" in found[0].message


def test_live_tree_has_no_provable_mismatch():
    assert check_shapes(ProjectModel.from_paths([SRC_REPRO])) == []
