"""README's library example runs and prints the numbers its comments show."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_commented_values():
    block = _library_block()
    # each print's comment starts with the printed value, cut at "..." or ":"
    prefixes = [re.split(r"\.\.\.|:", line.split("#", 1)[1].strip())[0]
                for line in block.splitlines() if line.startswith("print(")]
    assert prefixes == ["105.56", "57.58", "62.36", "(9, 8, 7)"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prefixes)
    for line, prefix in zip(printed, prefixes):
        assert line.startswith(prefix), (line, prefix)
