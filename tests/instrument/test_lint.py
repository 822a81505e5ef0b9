"""Tests for saadlint: every rule positive + negative, the seeded-defect
fixture tree, baselines, suppressions, reporters, and the CLI."""

import json
import os

import pytest

from repro.core import LogPointRegistry
from repro.instrument import (
    Baseline,
    Diagnostic,
    RULES,
    lint_source,
    render_json,
    render_rule_table,
    render_text,
    run_lint,
)
from repro.instrument.cli import main as lint_cli

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DEFECT_TREE = os.path.join(FIXTURES, "defect_tree")
DRIFT_TREE = os.path.join(FIXTURES, "drift_tree")
CLEAN_TREE = os.path.join(FIXTURES, "clean_tree")

#: Inventory preamble giving tests resolvable ``lps.<name>`` entries.
INVENTORY = '''
class Points:
    def __init__(self, saad):
        def lp(template):
            return saad.logpoints.register(template)
        self.alpha = lp("alpha event %s")
        self.beta = lp("beta event %d")
'''


def rules_of(diagnostics):
    return sorted(d.rule_id for d in diagnostics)


class TestLP001:
    def test_dynamic_template_flagged(self):
        diags = lint_source("def f(log, msg):\n    log.info(build(msg))\n")
        assert rules_of(diags) == ["LP001"]
        assert "not statically resolvable" in diags[0].message

    def test_unknown_inventory_attribute_flagged(self):
        diags = lint_source(
            "def f(log, lps):\n    log.info(lps.missing.template)\n"
        )
        assert rules_of(diags) == ["LP001"]
        assert "missing" in diags[0].message

    def test_literal_fstring_percent_and_inventory_ok(self):
        source = INVENTORY + (
            "def f(log, lps, x):\n"
            '    log.info("plain %s", x)\n'
            '    log.debug(f"got {x!r} items")\n'
            '    log.warn("count %d" % x)\n'
            "    log.error(lps.alpha.template, x, lpid=lps.alpha.lpid)\n"
        )
        assert lint_source(source) == []


class TestLP002:
    def test_duplicate_inventory_definition_flagged(self):
        source = INVENTORY.replace(
            'self.beta = lp("beta event %d")',
            'self.beta = lp("alpha event %s")',
        )
        diags = lint_source(source)
        assert rules_of(diags) == ["LP002"]
        assert "alpha event %s" in diags[0].message

    def test_duplicate_literal_templates_flagged(self):
        diags = lint_source(
            'def f(log):\n    log.info("same text")\n\n'
            'def g(log):\n    log.debug("same text")\n'
        )
        assert rules_of(diags) == ["LP002"]

    def test_same_inventory_point_at_two_sites_ok(self):
        source = INVENTORY + (
            "def f(log, lps):\n"
            "    log.info(lps.alpha.template, 1, lpid=lps.alpha.lpid)\n"
            "def g(log, lps):\n"
            "    log.info(lps.alpha.template, 2, lpid=lps.alpha.lpid)\n"
        )
        assert lint_source(source) == []


class TestLP003:
    def test_template_lpid_mismatch_flagged(self):
        source = INVENTORY + (
            "def f(log, lps):\n"
            "    log.info(lps.alpha.template, lpid=lps.beta.lpid)\n"
        )
        diags = lint_source(source)
        assert rules_of(diags) == ["LP003"]
        assert "alpha" in diags[0].message and "beta" in diags[0].message

    def test_colliding_integer_lpids_flagged(self):
        diags = lint_source(
            'def f(log):\n'
            '    log.info("a", lpid=3)\n'
            '    log.info("b", lpid=3)\n'
        )
        assert rules_of(diags) == ["LP003"]
        assert "collides" in diags[0].message

    def test_out_of_order_integer_lpids_flagged(self):
        diags = lint_source(
            'def f(log):\n'
            '    log.info("a", lpid=5)\n'
            '    log.info("b", lpid=2)\n'
        )
        assert rules_of(diags) == ["LP003"]
        assert "source-order" in diags[0].message

    def test_consistent_lpids_ok(self):
        assert lint_source(
            'def f(log):\n'
            '    log.info("a", lpid=0)\n'
            '    log.info("b", lpid=1)\n'
        ) == []


class TestLP004:
    def _registry(self):
        with open(os.path.join(DRIFT_TREE, "registry.json")) as handle:
            return LogPointRegistry.from_json(handle.read())

    def test_drift_both_directions_flagged(self):
        result = run_lint(
            [DRIFT_TREE], registry=self._registry(), registry_label="registry.json"
        )
        by_rule = {}
        for diag in result.diagnostics:
            by_rule.setdefault(diag.rule_id, []).append(diag)
        assert set(by_rule) == {"LP004"}
        messages = " | ".join(d.message for d in by_rule["LP004"])
        assert "added template %d" in messages  # in source, not registry
        assert "removed template" in messages  # in registry, not source
        assert len(by_rule["LP004"]) == 2

    def test_matching_registry_ok(self):
        registry = LogPointRegistry()
        registry.register("kept template %s")
        registry.register("added template %d")
        result = run_lint([DRIFT_TREE], registry=registry)
        assert result.diagnostics == []

    def test_no_registry_skips_rule(self):
        assert run_lint([DRIFT_TREE]).diagnostics == []


class TestST001:
    def test_run_class_without_context_flagged(self):
        diags = lint_source(
            "class Stage:\n"
            "    def run(self):\n"
            '        self.log.info("working")\n'
        )
        assert "ST001" in rules_of(diags)

    def test_dequeue_loop_without_context_flagged(self):
        diags = lint_source(
            "def consumer(log, task_queue):\n"
            "    while True:\n"
            "        task = task_queue.get()\n"
            '        log.debug("handling %s", task)\n'
        )
        assert rules_of(diags) == ["ST001"]

    def test_run_class_with_context_ok(self):
        assert lint_source(
            "class Stage:\n"
            "    def run(self):\n"
            '        self.runtime.set_context("Stage")\n'
            '        self.log.info("working")\n'
        ) == []

    def test_run_class_without_logs_ok(self):
        assert lint_source(
            "class Stepper:\n"
            "    def run(self):\n"
            "        self.step()\n"
        ) == []

    def test_sim_driver_run_with_args_ignored(self):
        # run(self, until) is a simulation driver, not a thread body.
        assert lint_source(
            "class Cluster:\n"
            "    def run(self, until):\n"
            '        self.log.info("stepping to %s", until)\n'
        ) == []


class TestST002:
    def test_log_before_context_flagged(self):
        diags = lint_source(
            "def stage(runtime, log):\n"
            '    log.debug("early")\n'
            '    runtime.set_context("S")\n'
            '    log.debug("late")\n'
        )
        assert rules_of(diags) == ["ST002"]
        assert diags[0].line == 2

    def test_log_after_context_ok(self):
        assert lint_source(
            "def stage(runtime, log):\n"
            '    runtime.set_context("S")\n'
            '    log.debug("fine")\n'
        ) == []

    def test_branch_bypassing_context_flagged(self):
        diags = lint_source(
            "def stage(runtime, log, fast):\n"
            "    if not fast:\n"
            '        runtime.set_context("S")\n'
            '    log.debug("maybe uncovered")\n'
        )
        assert rules_of(diags) == ["ST002"]

    def test_function_without_context_not_analyzed(self):
        # Helpers may be called from within a stage; only functions that
        # manage context themselves are checked.
        assert lint_source('def helper(log):\n    log.debug("x")\n') == []


class TestST003:
    def test_exception_path_bypassing_end_task_flagged(self):
        diags = lint_source(
            "def stage(runtime):\n"
            '    runtime.set_context("S")\n'
            "    risky()\n"
            "    runtime.end_task()\n"
        )
        assert rules_of(diags) == ["ST003"]

    def test_end_task_in_finally_ok(self):
        assert lint_source(
            "def stage(runtime):\n"
            '    runtime.set_context("S")\n'
            "    try:\n"
            "        risky()\n"
            "    finally:\n"
            "        runtime.end_task()\n"
        ) == []

    def test_catch_all_handler_ending_task_ok(self):
        assert lint_source(
            "def stage(runtime):\n"
            '    runtime.set_context("S")\n'
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        pass\n"
            "    runtime.end_task()\n"
        ) == []

    def test_inferred_termination_not_flagged(self):
        # No end_task at all: termination is inferred (set_context
        # re-entry / thread exit), the paper's default — not a defect.
        assert lint_source(
            "def stage(runtime, log):\n"
            '    runtime.set_context("S")\n'
            "    risky()\n"
        ) == []


class TestCC001:
    def test_time_sleep_in_generator_flagged(self):
        diags = lint_source(
            "import time\n"
            "def handler(env):\n"
            "    yield env.timeout(1)\n"
            "    time.sleep(0.1)\n"
        )
        assert rules_of(diags) == ["CC001"]

    def test_aliased_sleep_import_flagged(self):
        diags = lint_source(
            "from time import sleep as snooze\n"
            "def handler(env):\n"
            "    yield env.timeout(1)\n"
            "    snooze(2)\n"
        )
        assert rules_of(diags) == ["CC001"]

    def test_stdlib_queue_in_generator_flagged(self):
        diags = lint_source(
            "import queue\n"
            "def handler(env):\n"
            "    q = queue.Queue()\n"
            "    item = q.get()\n"
            "    yield env.timeout(1)\n"
        )
        assert rules_of(diags) == ["CC001"]
        assert "queue.Queue" in diags[0].message

    def test_simqueue_get_ok(self):
        assert lint_source(
            "def handler(env, packets):\n"
            "    item = yield packets.get()\n"
        ) == []

    def test_sleep_outside_handler_code_ok(self):
        # Plain functions are not event handlers; blocking is fine there.
        assert lint_source(
            "import time\n"
            "def warmup():\n"
            "    time.sleep(0.1)\n"
        ) == []

    def test_simsys_module_checked_even_without_yield(self):
        diags = lint_source(
            "import time\ndef tick():\n    time.sleep(1)\n",
            path="simsys/engine.py",
        )
        assert rules_of(diags) == ["CC001"]


class TestTM001:
    def test_augmented_write_flagged(self):
        diags = lint_source(
            "def probe(detector):\n"
            "    detector.tasks_seen += 1\n"
        )
        assert rules_of(diags) == ["TM001"]
        assert "tasks_seen" in diags[0].message

    def test_plain_assignment_flagged(self):
        diags = lint_source(
            "def reset(stream):\n"
            "    stream.bytes_streamed = 0\n"
        )
        assert rules_of(diags) == ["TM001"]

    def test_self_write_flagged(self):
        diags = lint_source(
            "class Shadow:\n"
            "    def bump(self):\n"
            "        self.windows_closed += 1\n"
        )
        assert rules_of(diags) == ["TM001"]

    def test_private_backing_field_ok(self):
        # The blessed pattern: owning classes mutate the private field.
        assert lint_source(
            "class Detector:\n"
            "    def observe(self):\n"
            "        self._tasks_seen += 1\n"
        ) == []

    def test_unrelated_attribute_ok(self):
        assert lint_source(
            "def track(stats):\n"
            "    stats.tasks_started += 1\n"
        ) == []

    def test_read_is_not_a_mutation(self):
        assert lint_source(
            "def report(detector):\n"
            "    return detector.tasks_seen\n"
        ) == []

    def test_suppression_comment(self):
        assert lint_source(
            "def probe(detector):\n"
            "    detector.tasks_seen += 1  # saadlint: disable=TM001\n"
        ) == []


class TestTR001:
    def test_manual_span_in_generator_handler_flagged(self):
        diags = lint_source(
            "def handler(env, tracer):\n"
            "    tracer.begin_span('work')\n"
            "    yield env.timeout(1.0)\n"
        )
        assert rules_of(diags) == ["TR001"]
        assert "tracer.begin_span" in diags[0].message

    def test_manual_finish_in_simsys_flagged(self):
        diags = lint_source(
            "def tick(self, task):\n"
            "    self.tracer.finish(task, [])\n",
            path="simsys/engine.py",
        )
        assert rules_of(diags) == ["TR001"]

    def test_tracker_plumbing_out_of_scope(self):
        # Non-generator code outside simsys (the tracker itself) may
        # legitimately drive the tracer.
        assert lint_source(
            "def _finalize(self, synopsis, events):\n"
            "    self.tracer.finish(synopsis, events)\n"
        ) == []

    def test_non_span_tracer_methods_ok(self):
        assert lint_source(
            "def handler(env, tracer):\n"
            "    yield env.timeout(1.0)\n"
            "    tracer.set_model(None)\n"
            "    tracer.traces()\n"
        ) == []

    def test_non_tracer_receiver_ok(self):
        assert lint_source(
            "def handler(env, journal, task):\n"
            "    journal.record(task)\n"
            "    yield env.timeout(1.0)\n"
        ) == []

    def test_advisory_severity(self):
        diags = lint_source(
            "def handler(env, tracer):\n"
            "    tracer.record(object())\n"
            "    yield env.timeout(1.0)\n"
        )
        assert diags[0].severity_name == "info"

    def test_suppression_comment(self):
        assert lint_source(
            "def handler(env, tracer):\n"
            "    tracer.record(x)  # saadlint: disable=TR001\n"
            "    yield env.timeout(1.0)\n"
        ) == []


class TestSeededDefectTree:
    """The analyzer must find every planted defect — and nothing else."""

    EXPECTED = {
        ("LP001", "seeded_sim.py", 19),
        ("LP003", "seeded_sim.py", 25),
        ("ST002", "seeded_sim.py", 31),
        ("ST003", "seeded_sim.py", 37),
        ("ST001", "seeded_sim.py", 42),  # run-method heuristic
        ("ST001", "seeded_sim.py", 43),  # dequeue-loop heuristic
        ("CC001", "seeded_sim.py", 51),
        ("TM001", "seeded_sim.py", 55),
        ("TR001", "seeded_sim.py", 59),
        ("TR001", "seeded_sim.py", 61),
        ("LP002", "logpoints.py", 12),
        ("SL001", "seeded_wire.py", 15),  # disable=WP999 typo
    }

    def test_finds_every_planted_defect(self):
        result = run_lint([DEFECT_TREE])
        found = {
            (d.rule_id, os.path.basename(d.path), d.line)
            for d in result.diagnostics
        }
        assert found == self.EXPECTED

    def test_clean_control_tree_stays_clean(self):
        result = run_lint([CLEAN_TREE])
        assert result.diagnostics == []


class TestSuppression:
    def test_inline_disable_comment(self):
        diags = lint_source(
            "def f(log, msg):\n"
            "    log.info(build(msg))  # saadlint: disable=LP001\n"
        )
        assert diags == []

    def test_disable_only_listed_rule(self):
        diags = lint_source(
            "def f(log, msg):\n"
            "    log.info(build(msg))  # saadlint: disable=ST002\n"
        )
        assert rules_of(diags) == ["LP001"]

    def test_select_and_ignore(self):
        source = "def f(log, msg):\n    log.info(build(msg))\n"
        assert lint_source(source, select=["ST002"]) == []
        assert lint_source(source, ignore=["LP001"]) == []
        assert rules_of(lint_source(source, select=["LP001"])) == ["LP001"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            lint_source("x = 1\n", select=["LP999"])


class TestBaseline:
    def test_roundtrip_filters_known_findings(self, tmp_path):
        result = run_lint([DEFECT_TREE])
        assert result.diagnostics
        baseline = Baseline.from_result(result)
        path = str(tmp_path / "baseline.json")
        baseline.save(path)
        filtered, unmatched = Baseline.load(path).apply(result)
        assert filtered.diagnostics == []
        assert unmatched == []
        assert len(filtered.suppressed) == len(result.diagnostics)

    def test_fixed_findings_reported_as_unmatched(self):
        result = run_lint([DEFECT_TREE])
        baseline = Baseline.from_result(result)
        clean = run_lint([CLEAN_TREE])
        filtered, unmatched = baseline.apply(clean)
        assert filtered.diagnostics == []
        assert len(unmatched) == len(baseline.fingerprints)

    def test_new_findings_not_masked(self):
        clean = run_lint([CLEAN_TREE])
        baseline = Baseline.from_result(clean)  # empty baseline
        result = run_lint([DEFECT_TREE])
        filtered, _ = baseline.apply(result)
        assert len(filtered.diagnostics) == len(result.diagnostics)

    def test_fingerprint_stable_under_line_drift(self):
        a = Diagnostic("LP001", "f.py", 10, 0, "same message")
        b = Diagnostic("LP001", "f.py", 99, 4, "same message")
        assert a.fingerprint() == b.fingerprint()
        c = Diagnostic("LP002", "f.py", 10, 0, "same message")
        assert a.fingerprint() != c.fingerprint()


class TestReporters:
    def test_text_report_lists_findings_and_summary(self):
        result = run_lint([DEFECT_TREE])
        text = render_text(result)
        assert "seeded_sim.py:19" in text
        assert "LP001" in text and "hint:" in text
        assert "finding(s)" in text

    def test_json_report_parses(self):
        result = run_lint([DEFECT_TREE])
        payload = json.loads(render_json(result))
        assert payload["tool"] == "saadlint"
        assert payload["clean"] is False
        assert payload["counts"]["ST001"] == 2
        assert all("fingerprint" in f for f in payload["findings"])

    def test_rule_table_covers_all_rules(self):
        table = render_rule_table()
        for rule_id in RULES:
            assert rule_id in table


class TestCLI:
    def test_clean_tree_exits_zero(self, capsys):
        code = lint_cli([CLEAN_TREE, "--no-cache"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = lint_cli([DEFECT_TREE, "--no-baseline", "--no-cache"])
        assert code == 1
        assert "LP001" in capsys.readouterr().out

    def test_json_flag(self, capsys):
        code = lint_cli([DEFECT_TREE, "--no-baseline", "--json", "--no-cache"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["CC001"] == 1

    def test_missing_path_exits_two(self):
        assert lint_cli(["does/not/exist", "--no-cache"]) == 2

    def test_unknown_rule_exits_nonzero(self):
        with pytest.raises(SystemExit):
            lint_cli([DEFECT_TREE, "--select", "NOPE1", "--no-cache"])

    def test_registry_drift_via_cli(self, capsys):
        code = lint_cli(
            [
                DRIFT_TREE,
                "--registry",
                os.path.join(DRIFT_TREE, "registry.json"),
                "--no-cache",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "LP004" in out

    def test_write_then_apply_baseline(self, tmp_path, capsys):
        baseline = str(tmp_path / "bl.json")
        write = [DEFECT_TREE, "--write-baseline", "--baseline", baseline, "--no-cache"]
        assert lint_cli(write) == 0
        capsys.readouterr()
        code = lint_cli([DEFECT_TREE, "--baseline", baseline, "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suppressed" in out

    def test_select_restricts_rules(self, capsys):
        code = lint_cli(
            [DEFECT_TREE, "--no-baseline", "--select", "CC001", "--json", "--no-cache"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts"]) == {"CC001"}
