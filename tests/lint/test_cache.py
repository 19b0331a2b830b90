"""Warm-run cache: hits skip analysis, any relevant change invalidates."""

from __future__ import annotations

import json
import textwrap

from repro.lint import lint_paths
from repro.lint.cache import LintCache
from repro.lint.engine import LintConfig

BAD_DIVISION = textwrap.dedent(
    """
    def _rate(volume: float, duration: float) -> float:
        return volume / duration
    """
)


def _write(tmp_path, name: str, source: str) -> str:
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def test_warm_run_reproduces_findings(tmp_path):
    target = _write(tmp_path, "mod.py", BAD_DIVISION)
    cache = str(tmp_path / "cache.json")
    cold = lint_paths([target], cache_path=cache)
    warm = lint_paths([target], cache_path=cache)
    assert [f.fingerprint() for f in warm.findings] == [
        f.fingerprint() for f in cold.findings
    ]
    assert warm.n_files == cold.n_files == 1


def test_warm_run_skips_analysis(tmp_path, monkeypatch):
    target = _write(tmp_path, "mod.py", BAD_DIVISION)
    cache = str(tmp_path / "cache.json")
    lint_paths([target], cache_path=cache)

    import repro.lint.engine as engine_mod

    def _boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("analysis ran on a warm cache")

    monkeypatch.setattr(engine_mod, "_run_module_rules", _boom)
    monkeypatch.setattr(engine_mod, "_run_project_rules", _boom)
    warm = lint_paths([target], cache_path=cache)
    assert [f.rule_id for f in warm.findings] == ["MOS005"]


def test_content_change_invalidates_file_entry(tmp_path):
    target = _write(tmp_path, "mod.py", BAD_DIVISION)
    cache = str(tmp_path / "cache.json")
    assert lint_paths([target], cache_path=cache).findings
    _write(
        tmp_path,
        "mod.py",
        BAD_DIVISION.replace(
            "volume / duration", "volume / duration if duration else 0.0"
        ),
    )
    assert lint_paths([target], cache_path=cache).findings == []


def test_rule_set_change_invalidates_cache(tmp_path):
    target = _write(tmp_path, "mod.py", BAD_DIVISION)
    cache = str(tmp_path / "cache.json")
    lint_paths([target], cache_path=cache)
    narrowed = lint_paths(
        [target], LintConfig(select=frozenset({"MOS004"})), cache_path=cache
    )
    assert narrowed.findings == []
    # And back: the MOS004-only cache must not serve the full run.
    full = lint_paths([target], cache_path=cache)
    assert [f.rule_id for f in full.findings] == ["MOS005"]


def test_corrupt_cache_is_ignored(tmp_path):
    target = _write(tmp_path, "mod.py", BAD_DIVISION)
    cache = tmp_path / "cache.json"
    cache.write_text("{not json")
    result = lint_paths([target], cache_path=str(cache))
    assert [f.rule_id for f in result.findings] == ["MOS005"]
    # The damaged file was replaced with a valid one.
    assert json.loads(cache.read_text())["format"] == 1


def test_wrong_engine_version_starts_empty(tmp_path):
    cache_path = str(tmp_path / "cache.json")
    cache = LintCache(cache_path, LintCache.rules_key(["MOS005"]))
    cache.store_file("mod.py", "sha", [], 0)
    cache.save()
    data = json.loads(open(cache_path).read())
    data["rules_key"] = "stale"
    with open(cache_path, "w") as fh:
        json.dump(data, fh)
    reloaded = LintCache.load(cache_path, ["MOS005"])
    assert reloaded.files == {}


def test_project_key_is_path_and_content_sensitive():
    base = {"a.py": "h1", "b.py": "h2"}
    assert LintCache.project_key(base) == LintCache.project_key(dict(base))
    assert LintCache.project_key(base) != LintCache.project_key(
        {"a.py": "h1", "b.py": "CHANGED"}
    )
    assert LintCache.project_key(base) != LintCache.project_key(
        {"a.py": "h1"}
    )


def test_suppressed_counts_survive_the_cache(tmp_path):
    source = BAD_DIVISION.replace(
        "volume / duration", "volume / duration  # mosaic: disable=MOS005"
    )
    target = _write(tmp_path, "mod.py", source)
    cache = str(tmp_path / "cache.json")
    cold = lint_paths([target], cache_path=cache)
    warm = lint_paths([target], cache_path=cache)
    assert cold.n_suppressed == warm.n_suppressed == 1
    assert warm.findings == []
