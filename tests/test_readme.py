"""The README's Python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # in order, sharing one namespace, as a reader runs them
        exec(compile(block, str(README), "exec"), namespace)
