"""Content-hash result cache for full-tree lint runs.

Cross-file rules (LP001 resolves templates through the tree-wide
log-point inventory, LP004 drift compares the whole scan) make per-file
caching unsound — a finding in one file can depend on any other file in
the tree — so the cache key covers the *entire* input: the
sorted ``(path, sha1(content))`` list, the resolved rule selection, and
a registry fingerprint (rule ids/severities/titles), so editing any
linted file, changing ``--select``/``--ignore``, or upgrading the rule
set each invalidates the entry.

A warm hit replays the stored pre-baseline :class:`LintResult` without
parsing a single file.  Inline ``# saadlint: disable=`` accounting is
already baked into the stored result; the baseline is applied *after*
replay (by the CLI), so replay + baseline is bit-identical to a fresh
run + baseline.
The cache file (``.saadlint-cache.json``, gitignored) holds one entry
per key and is best-effort: any read/write/decode problem silently falls
back to a full run.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Optional

from .diagnostics import (
    Diagnostic,
    ERROR,
    INFO,
    LintResult,
    RULES,
    WARNING,
)

__all__ = ["DEFAULT_CACHE_NAME", "cache_key", "load_cached_result", "store_result"]

DEFAULT_CACHE_NAME = ".saadlint-cache.json"

#: Bump when the cached payload layout changes.
_FORMAT = 2

#: How many keys one cache file retains (oldest evicted first).
_MAX_ENTRIES = 8

_SEVERITY_BY_NAME = {"info": INFO, "warning": WARNING, "error": ERROR}


def _registry_fingerprint() -> str:
    payload = "|".join(
        f"{rule.rule_id}:{rule.severity}:{rule.title}"
        for rule in sorted(RULES.values(), key=lambda r: r.rule_id)
    )
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def cache_key(file_paths: Iterable[str], rules: Iterable[str]) -> str:
    """Digest of the full lint input: file contents + rule selection."""
    digest = hashlib.sha1()
    digest.update(f"format={_FORMAT}\n".encode("utf-8"))
    digest.update(f"rules={','.join(sorted(rules))}\n".encode("utf-8"))
    digest.update(f"registry={_registry_fingerprint()}\n".encode("utf-8"))
    for path in sorted(file_paths):
        try:
            with open(path, "rb") as handle:
                content_hash = hashlib.sha1(handle.read()).hexdigest()
        except OSError:
            content_hash = "<unreadable>"
        digest.update(f"{path}\x00{content_hash}\n".encode("utf-8"))
    return digest.hexdigest()


def _diag_to_dict(diag: Diagnostic) -> Dict[str, object]:
    return {
        "rule": diag.rule_id,
        "severity": diag.severity_name,
        "path": diag.path,
        "line": diag.line,
        "col": diag.col,
        "message": diag.message,
        "hint": diag.hint,
    }


def _diag_from_dict(raw: Dict[str, object]) -> Diagnostic:
    return Diagnostic(
        rule_id=str(raw["rule"]),
        path=str(raw["path"]),
        line=int(raw["line"]),
        col=int(raw["col"]),
        message=str(raw["message"]),
        hint=str(raw.get("hint", "")),
        severity=_SEVERITY_BY_NAME.get(str(raw.get("severity")), None),
    )


def load_cached_result(cache_path: str, key: str) -> Optional[LintResult]:
    """The stored result for ``key``, or None on miss/corruption."""
    try:
        with open(cache_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        return None
    entry = payload.get("entries", {}).get(key)
    if not isinstance(entry, dict):
        return None
    try:
        result = LintResult()
        result.files_scanned = int(entry["files_scanned"])
        result.parse_errors = [str(e) for e in entry["parse_errors"]]
        result.diagnostics = [_diag_from_dict(d) for d in entry["diagnostics"]]
        result.suppressed = [_diag_from_dict(d) for d in entry["suppressed"]]
        return result
    except (KeyError, TypeError, ValueError):
        return None


def store_result(cache_path: str, key: str, result: LintResult) -> None:
    """Persist ``result`` under ``key`` (best-effort; errors ignored)."""
    try:
        with open(cache_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            payload = None
    except (OSError, ValueError):
        payload = None
    if payload is None:
        payload = {"format": _FORMAT, "entries": {}, "order": []}
    entries: Dict[str, object] = payload.setdefault("entries", {})
    order: List[str] = payload.setdefault("order", [])
    entries[key] = {
        "files_scanned": result.files_scanned,
        "parse_errors": list(result.parse_errors),
        "diagnostics": [_diag_to_dict(d) for d in result.diagnostics],
        "suppressed": [_diag_to_dict(d) for d in result.suppressed],
    }
    if key in order:
        order.remove(key)
    order.append(key)
    while len(order) > _MAX_ENTRIES:
        evicted = order.pop(0)
        entries.pop(evicted, None)
    try:
        tmp_path = f"{cache_path}.tmp.{os.getpid()}"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp_path, cache_path)
    except OSError:
        pass
