"""The README's Python examples run as written, and its verify example prints what it shows."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 4
    namespace = {}  # one namespace, so later blocks see earlier names
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert 0.0 < namespace["coverage"] <= 1.0


def test_readme_verify_coverage_block_is_its_output(capsys):
    # the console block of `verify coverage` shows what the command prints
    from quantest.cli import main

    command, shown = re.search(r"```console\n\$ quantest (verify coverage [^\n]*)\n(.*?)```",
                               README.read_text(encoding="utf-8"), re.S).groups()
    assert main(command.split()) == 0
    assert capsys.readouterr().out == shown
