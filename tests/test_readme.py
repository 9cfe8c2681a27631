"""The README's Python examples run as written, and its console examples print what they show."""

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


def test_readme_console_blocks_are_their_output(capsys, monkeypatch):
    # each console block shows what its command prints, run from the repo
    # root: the whole output, or its first lines when the block ends in ...
    from quantest.cli import main

    blocks = re.findall(r"```console\n\$ quantest ([^\n]*)\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S)
    assert [command.split()[0] for command, _ in blocks] == ["qtest", "qineq", "verify"]
    monkeypatch.chdir(README.parent)
    for command, shown in blocks:
        assert main(command.split()) == 0, command
        out = capsys.readouterr().out
        if shown.endswith("...\n"):
            assert out.startswith(shown[:-4]), command
        else:
            assert out == shown, command
