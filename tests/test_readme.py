"""The README's documented library use runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert snippet is not None, "README 'Library use' has no python block"
    exec(compile(snippet.group(1), "README.md", "exec"), {})
