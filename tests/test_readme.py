"""Every ```python block of README.md runs against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0][:40])
def test_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
