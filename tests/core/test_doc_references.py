"""Every file name the docs quote in code must exist or be written.

A backticked ``*.py``, ``*.json``, ``*.jsonl``, ``*.md`` or ``*.txt``
name in the reader-facing docs passes when it is a tracked path or the
tail of one (``shard/worker.py``), when code under ``src/``, ``bench/``
or ``benchmarks/`` names it (what the program writes:
``TELEMETRY_fig7.jsonl``, ``.saadlint-cache.json``), or when it is an
upper-case placeholder the reader substitutes (``MODEL.json``,
``X.jsonl``, ``TESTS.txt``).  A doc that quotes a file nothing makes any
more — a retired benchmark's result JSON, a deleted test module, a run
log no commit tracks — fails here.
"""

import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

DOCS = [
    "README.md",
    "DESIGN.md",
    "docs/OPERATIONS.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
]

CODE_DIRS = ["src", "bench", "benchmarks"]

#: A code span or fenced block closes on a backtick run as long as the
#: one that opened it (```` ``x`` ````, ```` ```bash ... ``` ````).
_CODE = re.compile(r"(`+)(.+?)(?<!`)\1(?!`)", re.S)
_NAME = re.compile(r"[\w./-]*\w\.(?:py|jsonl|json|md|txt)\b")
_PLACEHOLDER = re.compile(r"[A-Z]+\.(?:jsonl|json|txt)")


def _tracked_paths():
    try:
        listed = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        # An exported tree without git metadata: every file is tracked.
        listed = [str(p.relative_to(ROOT)) for p in ROOT.rglob("*") if p.is_file()]
    return set(listed)


def _written_names():
    """Base names of every file name the code under CODE_DIRS spells out."""
    return {
        name.rsplit("/", 1)[-1]
        for folder in CODE_DIRS
        for path in (ROOT / folder).rglob("*.py")
        for name in _NAME.findall(path.read_text(encoding="utf-8"))
    }


def _quoted_names(text):
    return {
        name for _, span in _CODE.findall(text) for name in _NAME.findall(span)
    }


def _resolves(name, tracked, written):
    path = name[2:] if name.startswith("./") else name
    basename = path.rsplit("/", 1)[-1]
    return (
        path in tracked
        or any(entry.endswith("/" + path) for entry in tracked)
        or basename in written
        or _PLACEHOLDER.fullmatch(basename) is not None
    )


def test_quoted_file_names_exist_or_are_written():
    tracked = _tracked_paths()
    written = _written_names()
    stale = [
        f"{doc}: `{name}`"
        for doc in DOCS
        for name in sorted(_quoted_names((ROOT / doc).read_text(encoding="utf-8")))
        if not _resolves(name, tracked, written)
    ]
    assert not stale, "docs quote files nothing tracks or writes:\n" + "\n".join(stale)


def test_tracked_golden_text_files_resolve():
    tracked = _tracked_paths()
    goldens = sorted(path for path in tracked if path.endswith(".txt"))
    assert goldens
    for path in goldens:
        assert _quoted_names(f"`{path}`") == {path}
        assert _resolves(path, tracked, set())
    assert not _resolves("test_output.txt", tracked, _written_names())


@pytest.mark.parametrize(
    "text, names",
    [
        ("run `pytest benchmarks/test_x.py -q`", {"benchmarks/test_x.py"}),
        ("```bash\nfoo --out a.json  # b.jsonl\n```", {"a.json", "b.jsonl"}),
        ("`tests/core/test_y.py::TestZ`, plain c.py", {"tests/core/test_y.py"}),
        ("`*.py` globs and `repro.core` modules", set()),
        ("``d.md`` then e.py and `f.py`", {"d.md", "f.py"}),
        ("```bash\npytest | tee OUT.txt\n``` and `x/y.txt`", {"OUT.txt", "x/y.txt"}),
    ],
)
def test_quoted_names_are_read_from_code_spans(text, names):
    assert _quoted_names(text) == names
