"""The README's Python quick start runs as written, so the API it shows stays current."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Python quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
