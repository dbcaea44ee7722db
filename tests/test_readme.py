"""The README's Python examples and command lines run against the current API."""

import re
import shlex
from pathlib import Path

from wellpi.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # in order, sharing one namespace, as a reader runs them
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_command_lines_exit_0(capsys):
    # every `wellpi` line of the Command line section's sh block but `fit`,
    # which needs a measurement file
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    argvs = [words[1:] for words in commands if words[:1] == ["wellpi"] and words[1] != "fit"]
    assert argvs
    outputs = []
    for argv in argvs:
        assert main(argv) == 0, argv
        outputs.append(capsys.readouterr().out)
    assert "0.1358" in outputs[0]
