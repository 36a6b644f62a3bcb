"""Every ```python block of README.md runs as written, and so does every
`chromabound ...` line of its ```sh blocks; README lists every `gen` kind."""

import re
import shlex
from pathlib import Path

import pytest

from chromabound.cli import EXIT_OK, main
from chromabound.graphs import GENERATORS, generator_usage

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
CLI_LINES = [line for block in SH_BLOCKS for line in block.splitlines() if line.startswith("chromabound ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_cli_lines_run(tmp_path, monkeypatch):
    """In order, in one directory: `gen ... --out petersen.col` writes the file the later lines read."""
    assert CLI_LINES
    monkeypatch.chdir(tmp_path)
    for line in CLI_LINES:
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == EXIT_OK, line


def test_gen_kinds_listed():
    """README lists every generator kind with its parameters, as `gen --help` does."""
    for kind in GENERATORS:
        assert f"`{generator_usage(kind)}`" in TEXT
