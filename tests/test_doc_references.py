"""Every Markdown file named in ``src/`` or ``benchmarks/`` exists.

Docstrings and comments point readers at ``README.md`` and ``docs/*.md``;
a reference to a file that was never written (or was removed) fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MD_PATH = re.compile(r"[\w./-]*\w\.md\b")


def _md_references():
    for tree in ("src", "benchmarks"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for name in MD_PATH.findall(line):
                    yield path.relative_to(ROOT), lineno, name


def test_referenced_markdown_files_exist():
    refs = list(_md_references())
    assert any(name == "docs/pipeline.md" for _, _, name in refs)
    missing = [
        f"{path}:{lineno}: {name}"
        for path, lineno, name in refs
        if not (ROOT / name).is_file()
    ]
    assert not missing, missing


def test_pattern_reads_plain_and_dotted_names():
    line = "see DESIGN.md Sec. 3 and docs/engine.md; hashlib.md5 is not one"
    assert MD_PATH.findall(line) == ["DESIGN.md", "docs/engine.md"]
