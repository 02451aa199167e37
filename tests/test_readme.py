"""The examples of README.md run: its python blocks and its CLI lines; its table of
config keys names every key of the CLI."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from tridephase.cli import DEFAULT_CONFIG, main

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


def test_readme_cli_examples_run(tmp_path, capsys):
    # the first block of the CLI section; the line that reads run.json is skipped
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    lines = [line for line in block.group(1).splitlines() if "--config" not in line]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("tridephase ")]
    assert len(commands) == len(lines) >= 4, lines
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_readme_config_keys_are_the_cli_keys():
    section = re.search(r"^### Config keys.*?\n\n(.*?)\n\n", README.read_text(), re.MULTILINE | re.DOTALL)
    keys = []
    for cell in re.findall(r"^\| (.*?) \|", section.group(1), re.MULTILINE)[2:]:
        for name in re.findall(r"`([a-z_0-9/]+)`", cell):
            stem, _, suffixes = name.partition("/")  # omega_sq_a/b/c
            keys.append(stem)
            keys += [stem[:-1] + suffix for suffix in suffixes.split("/") if suffix]
    assert keys == list(DEFAULT_CONFIG)
