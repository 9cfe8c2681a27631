"""The README's Python examples run as written."""

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
