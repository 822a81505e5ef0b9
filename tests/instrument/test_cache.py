"""Tests for the content-hash result cache."""

import json
import time

import pytest

from repro.instrument.cache import (
    cache_key,
    load_cached_result,
    store_result,
)
from repro.instrument.cli import main
from repro.instrument.diagnostics import Diagnostic, LintResult


#: One CC001 finding: a real sleep inside a generator event handler.
SIM_DEFECT = "import time\n\ndef handler():\n    time.sleep(1)\n    yield\n"


def _result_with(*diags, parse_errors=(), suppressed=(), files_scanned=1):
    result = LintResult()
    result.files_scanned = files_scanned
    result.parse_errors = list(parse_errors)
    result.diagnostics = list(diags)
    result.suppressed = list(suppressed)
    return result


class TestCacheKey:
    def test_content_change_changes_key(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        before = cache_key([str(target)], ["LP001"])
        target.write_text("x = 2\n")
        assert cache_key([str(target)], ["LP001"]) != before

    def test_rule_selection_changes_key(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        paths = [str(target)]
        assert cache_key(paths, ["LP001"]) != cache_key(paths, ["CC001"])

    def test_key_is_stable_and_order_insensitive(self, tmp_path):
        a = tmp_path / "a.py"
        b = tmp_path / "b.py"
        a.write_text("x = 1\n")
        b.write_text("y = 2\n")
        key = cache_key([str(a), str(b)], ["LP001", "CC001"])
        assert cache_key([str(b), str(a)], ["CC001", "LP001"]) == key

    def test_unreadable_file_still_produces_key(self, tmp_path):
        missing = tmp_path / "gone.py"
        key = cache_key([str(missing)], ["LP001"])
        assert isinstance(key, str) and len(key) == 40


class TestStoreLoad:
    def test_round_trip_preserves_result(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        diag = Diagnostic(
            rule_id="CC001", path="mod.py", line=4, col=4,
            message="blocking call time.sleep() reachable", hint="offload",
        )
        muted = Diagnostic(
            rule_id="ST002", path="mod.py", line=9, col=8, message="racy write",
        )
        stored = _result_with(
            diag, parse_errors=["bad.py: boom"], suppressed=[muted],
            files_scanned=3,
        )
        store_result(cache, "k1", stored)
        loaded = load_cached_result(cache, "k1")
        assert loaded is not None
        assert loaded.files_scanned == 3
        assert loaded.parse_errors == ["bad.py: boom"]
        assert loaded.diagnostics == [diag]
        assert loaded.suppressed == [muted]
        assert loaded.diagnostics[0].severity == diag.severity
        assert not loaded.clean  # parse errors survive the round trip

    def test_miss_returns_none(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        store_result(cache, "k1", _result_with())
        assert load_cached_result(cache, "other") is None
        assert load_cached_result(str(tmp_path / "absent.json"), "k1") is None

    def test_corrupt_cache_returns_none(self, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        assert load_cached_result(str(cache), "k1") is None
        cache.write_text(json.dumps({"format": 999, "entries": {}}))
        assert load_cached_result(str(cache), "k1") is None

    def test_old_entries_are_evicted(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        for i in range(12):
            store_result(cache, f"k{i}", _result_with(files_scanned=i))
        assert load_cached_result(cache, "k0") is None
        newest = load_cached_result(cache, "k11")
        assert newest is not None and newest.files_scanned == 11


class TestCliCache:
    def _lint(self, tree, cache, *extra, capsys=None):
        code = main([str(tree), "--cache", str(cache), "--json", *extra])
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_warm_run_replays_identical_report(self, tmp_path, capsys):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text(SIM_DEFECT)
        cache = tmp_path / "cache.json"
        code1, cold = self._lint(tree, cache, capsys=capsys)
        assert code1 == 1 and cache.exists()
        code2, warm = self._lint(tree, cache, capsys=capsys)
        assert code2 == 1
        assert warm == cold

    def test_edit_invalidates_cache(self, tmp_path, capsys):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text(SIM_DEFECT)
        cache = tmp_path / "cache.json"
        self._lint(tree, cache, capsys=capsys)
        (tree / "mod.py").write_text(
            SIM_DEFECT + "\ndef again():\n    time.sleep(2)\n    yield\n"
        )
        _, report = self._lint(tree, cache, capsys=capsys)
        assert len(report["findings"]) == 2

    def test_no_cache_never_touches_cache_file(self, tmp_path, capsys):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        code, report = self._lint(tree, cache, "--no-cache", capsys=capsys)
        assert code == 0 and report["clean"]
        assert not cache.exists()

    def test_registry_flag_partitions_cache(self, tmp_path, capsys):
        tree = tmp_path / "proj"
        tree.mkdir()
        (tree / "mod.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        registry = tmp_path / "registry.json"
        registry.write_text("[]")
        self._lint(tree, cache, capsys=capsys)
        # Same tree + a registry must not replay the registry-less entry.
        _, report = self._lint(
            tree, cache, "--registry", str(registry), capsys=capsys
        )
        assert report["clean"]
        payload = json.loads(cache.read_text())
        assert len(payload["entries"]) == 2


@pytest.mark.lint
def test_warm_full_tree_lint_is_fast(tmp_path, capsys):
    """Acceptance: a warm cached lint of src/repro finishes in < 5s."""
    cache = tmp_path / "cache.json"
    assert main(["src/repro", "--cache", str(cache), "--json"]) == 0
    capsys.readouterr()
    start = time.monotonic()
    assert main(["src/repro", "--cache", str(cache), "--json"]) == 0
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert elapsed < 5.0, f"warm lint took {elapsed:.2f}s"
