"""README's "Library surface" block runs as it stands, so the README cannot
name a function or a parameter that no longer exists."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_surface_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library surface"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under Library surface"
    return match.group(1)


def test_library_surface_block_runs():
    namespace: dict = {}
    exec(compile(library_surface_block(), str(README), "exec"), namespace)
    # The block ends on an audited report of the worked example.
    report = namespace["report"]
    assert report.verdict.bielliptical and report.failures == []
    assert all(c.passed for c in namespace["verify_checks"](report))
    assert [r is not None for r in namespace["reports"]] == [True] * 4
