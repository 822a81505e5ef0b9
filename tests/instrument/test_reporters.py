"""Reporter output contracts and suppression-comment parsing edge cases."""

import json

from repro.instrument.diagnostics import (
    Diagnostic,
    ERROR,
    LintResult,
    RULES,
    WARNING,
)
from repro.instrument.facts import parse_suppressions, suppressed_rules
from repro.instrument.lint import lint_source
from repro.instrument.reporters import (
    render_json,
    render_rule_table,
    render_text,
)


def _sample_result():
    result = LintResult()
    result.files_scanned = 2
    result.diagnostics = [
        Diagnostic(
            rule_id="CC001", path="svc/gateway.py", line=23, col=8,
            message="blocking call time.sleep() reachable from async handle()",
            hint="offload via asyncio.to_thread or use an async equivalent",
            severity=ERROR,
        ),
        Diagnostic(
            rule_id="ST002", path="svc/counter.py", line=42, col=8,
            message="attribute 'total' written without holding SharedCounter._lock",
            severity=WARNING,
        ),
    ]
    result.suppressed = [
        Diagnostic(
            rule_id="LP002", path="svc/gateway.py", line=7, col=0,
            message="duplicate template", severity=WARNING,
        ),
    ]
    result.parse_errors = ["svc/broken.py: invalid syntax (line 3)"]
    return result


class TestJsonReporter:
    GOLDEN = {
        "tool": "saadlint",
        "files_scanned": 2,
        "findings": [
            {
                "rule": "CC001",
                "severity": "error",
                "path": "svc/gateway.py",
                "line": 23,
                "col": 8,
                "message": (
                    "blocking call time.sleep() reachable from async handle()"
                ),
                "hint": (
                    "offload via asyncio.to_thread or use an async equivalent"
                ),
                "fingerprint": "719f1ecb4b8ca9c3",
            },
            {
                "rule": "ST002",
                "severity": "warning",
                "path": "svc/counter.py",
                "line": 42,
                "col": 8,
                "message": (
                    "attribute 'total' written without holding "
                    "SharedCounter._lock"
                ),
                "hint": "",
                "fingerprint": "a75f0cc36d02c4a6",
            },
        ],
        "suppressed": [
            {
                "rule": "LP002",
                "severity": "warning",
                "path": "svc/gateway.py",
                "line": 7,
                "col": 0,
                "message": "duplicate template",
                "hint": "",
                "fingerprint": "ea8bb2bc67bb1776",
            },
        ],
        "parse_errors": ["svc/broken.py: invalid syntax (line 3)"],
        "counts": {"CC001": 1, "ST002": 1},
        "clean": False,
    }

    def test_schema_golden(self):
        assert json.loads(render_json(_sample_result())) == self.GOLDEN

    def test_output_is_deterministic(self):
        assert render_json(_sample_result()) == render_json(_sample_result())

    def test_clean_result_shape(self):
        result = LintResult()
        result.files_scanned = 5
        payload = json.loads(render_json(result))
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["counts"] == {}


class TestTextReporter:
    def test_locations_hints_and_summary(self):
        text = render_text(_sample_result())
        assert "svc/gateway.py:23:8: error CC001" in text
        assert "    hint: offload via asyncio.to_thread" in text
        assert "parse error: svc/broken.py" in text
        assert "2 finding(s) in 2 file(s) [CC001:1, ST002:1], 1 suppressed" in text

    def test_verbose_lists_suppressed(self):
        quiet = render_text(_sample_result(), verbose=False)
        loud = render_text(_sample_result(), verbose=True)
        assert "suppressed findings:" not in quiet
        assert "suppressed findings:" in loud
        assert "svc/gateway.py:7: LP002 duplicate template" in loud

    def test_rule_table_covers_registry(self):
        table = render_rule_table()
        for rule_id in RULES:
            assert rule_id in table


class TestSuppressionParsing:
    def test_multiple_rules_on_one_line(self):
        found = parse_suppressions(
            ["q.put(x)  # saadlint: disable=ST001, lp002,CC001"]
        )
        assert found == {1: {"ST001", "LP002", "CC001"}}

    def test_trailing_comment_after_rule_list(self):
        found = parse_suppressions(
            ["q.put(x)  # saadlint: disable=ST001  # legacy shim, see #88"]
        )
        assert found == {1: {"ST001"}}

    def test_prose_mentioning_syntax_is_not_a_directive(self):
        found = parse_suppressions(
            ['"""Use ``# saadlint: disable=RULE[,RULE]`` to mute a line."""']
        )
        assert found == {}

    def test_non_alnum_token_invalidates_line(self):
        assert parse_suppressions(["x  # saadlint: disable=ST-001"]) == {}

    def test_empty_rule_list_is_ignored(self):
        assert parse_suppressions(["x  # saadlint: disable="]) == {}

    def test_suppressed_rules_line_bounds(self):
        lines = ["a = 1", "b = 2  # saadlint: disable=TM001"]
        assert suppressed_rules(lines, 2) == {"TM001"}
        assert suppressed_rules(lines, 1) == set()
        assert suppressed_rules(lines, 99) == set()


class TestUnknownRuleWarning:
    def test_unknown_rule_id_flags_sl001(self):
        # The second id belongs to a retired rule: it reads as unknown too.
        for unknown in ("WP999", "RC001"):
            diags = lint_source(
                "import struct\n"
                f"FMT = struct.Struct('<Q')  # saadlint: disable={unknown}\n"
            )
            sl = [d for d in diags if d.rule_id == "SL001"]
            assert len(sl) == 1
            assert unknown in sl[0].message
            assert sl[0].line == 2

    def test_known_rule_ids_do_not_trigger_sl001(self):
        diags = lint_source(
            "import struct\n"
            "FMT = struct.Struct('<Q')  # saadlint: disable=CC001,SL001\n"
        )
        assert [d.rule_id for d in diags] == []

    def test_mixed_known_and_unknown_flags_only_unknown(self):
        diags = lint_source(
            "import struct\n"
            "FMT = struct.Struct('<Q')  # saadlint: disable=CC001,ZZ123\n"
        )
        assert [d.rule_id for d in diags] == ["SL001"]
        assert "ZZ123" in diags[0].message

    def test_sl001_itself_is_suppressible(self):
        diags = lint_source(
            "import struct\n"
            "FMT = struct.Struct('<Q')"
            "  # saadlint: disable=CC001,WP999,SL001\n"
        )
        assert diags == []
