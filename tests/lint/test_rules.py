"""Per-rule fixture tests: each bad fixture is caught by exactly its
intended rule; each good fixture is clean under *all* rules."""

from __future__ import annotations

import glob
import os

import pytest

from repro.lint import all_rule_ids, lint_paths
from repro.lint.engine import LintConfig

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

RULE_IDS = [f"MOS{n:03d}" for n in range(1, 21)]


def _fixture_files(rule_id: str, kind: str) -> list[str]:
    pattern = os.path.join(FIXTURES, rule_id.lower(), f"{kind}*.py")
    files = sorted(glob.glob(pattern))
    assert files, f"no {kind} fixture for {rule_id}"
    return files


def test_registry_holds_all_twenty_rules():
    assert all_rule_ids() == RULE_IDS


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_caught_by_exactly_its_rule(rule_id):
    result = lint_paths(_fixture_files(rule_id, "bad"))
    fired = {f.rule_id for f in result.findings}
    assert fired == {rule_id}, (
        f"{rule_id} bad fixture fired {sorted(fired)}; "
        f"findings: {[f.message for f in result.findings]}"
    )


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_clean_under_all_rules(rule_id):
    result = lint_paths(_fixture_files(rule_id, "good"))
    assert result.findings == [], [f.message for f in result.findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_select_isolates_one_rule(rule_id):
    config = LintConfig(select=frozenset({rule_id}))
    result = lint_paths([FIXTURES], config)
    fired = {f.rule_id for f in result.findings}
    assert fired == {rule_id}


def test_mos012_sizes_os_read_by_its_second_argument():
    config = LintConfig(select=frozenset({"MOS012"}))
    good = lint_paths(_fixture_files("MOS012", "good"), config)
    assert good.findings == []
    (bad,) = _fixture_files("MOS012", "bad")
    with open(bad, encoding="utf-8") as fh:
        line = 1 + fh.read().split("\n").index("    return os.read(fd_cap, declared)")
    findings = lint_paths([bad], config).findings
    assert line in {f.line for f in findings}


def test_ignore_drops_a_rule():
    config = LintConfig(ignore=frozenset({"MOS001"}))
    result = lint_paths([FIXTURES], config)
    fired = {f.rule_id for f in result.findings}
    assert "MOS001" not in fired
    assert len(fired) == 19


def test_unknown_rule_id_rejected():
    config = LintConfig(select=frozenset({"MOS999"}))
    with pytest.raises(ValueError, match="MOS999"):
        lint_paths([FIXTURES], config)
