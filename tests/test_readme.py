"""The python examples of README.md run, in order, in one namespace."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL))
    assert blocks, "README.md has no python blocks"
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            # pad with blank lines so a traceback points at the README line
            source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
            exec(compile(source, str(README), "exec"), namespace)
