"""Conventional text-mining log analysis (the paper's comparison point).

Implements the reverse-matching approach of Xu et al. [SOSP'09]: the
static log templates (printf-style format strings) are compiled into
regular expressions; every rendered log line is matched back to its
originating statement.  This is the compute-intensive step SAAD
eliminates by tracking log point ids directly (Sec. 5.3.3).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core import LogPointRegistry

_FORMAT_SPEC = re.compile(r"%[-+#0 ]?\d*(?:\.\d+)?[sdifeEgGxXor%]")


def template_to_regex(template: str) -> "re.Pattern":
    """Compile a printf-style template into a line-matching regex."""
    pattern_parts: List[str] = []
    cursor = 0
    for match in _FORMAT_SPEC.finditer(template):
        pattern_parts.append(re.escape(template[cursor : match.start()]))
        if match.group() == "%%":
            pattern_parts.append("%")
        else:
            pattern_parts.append(r"(.+?)")
        cursor = match.end()
    pattern_parts.append(re.escape(template[cursor:]))
    return re.compile("".join(pattern_parts))


class ReverseMatcher:
    """Matches rendered log lines back to log templates.

    The matcher tries templates in order of decreasing literal length
    (more specific first), the usual heuristic.  ``match`` returns the
    log point id or None for unparseable lines.
    """

    def __init__(self, registry: LogPointRegistry):
        self._entries: List[Tuple[int, "re.Pattern"]] = sorted(
            ((p.lpid, template_to_regex(p.template)) for p in registry),
            key=lambda pair: -len(pair[1].pattern),
        )
        self.lines_matched = 0
        self.lines_unmatched = 0

    def match(self, message: str) -> Optional[int]:
        for lpid, pattern in self._entries:
            if pattern.fullmatch(message):
                self.lines_matched += 1
                return lpid
        self.lines_unmatched += 1
        return None


_LINE_RE = re.compile(
    r"^\s*\S+ \[(?P<thread>[^\]]*)\] (?P<level>\w+)\s+(?P<logger>\S+) - (?P<msg>.*)$"
)


def extract_message(line: str) -> Optional[str]:
    match = _LINE_RE.match(line.rstrip("\n"))
    return match.group("msg") if match else None


def extract_fields(line: str) -> Optional[Dict[str, str]]:
    """Parse a PatternLayout line into its fields."""
    match = _LINE_RE.match(line.rstrip("\n"))
    return match.groupdict() if match else None


def parse_corpus(
    lines: Iterable[str], registry: LogPointRegistry
) -> List[Tuple[str, int]]:
    """Reverse-match a whole corpus; returns (thread, lpid) pairs.

    This is the per-line work the MapReduce job of Sec. 5.3.3 performs.
    """
    matcher = ReverseMatcher(registry)
    out: List[Tuple[str, int]] = []
    for line in lines:
        fields = extract_fields(line)
        if fields is None:
            continue
        lpid = matcher.match(fields["msg"])
        if lpid is not None:
            out.append((fields["thread"], lpid))
    return out
