"""The README's examples run as written.

Each ```python block of README.md is executed in a fresh namespace; a block
that builds an equivalence ``report`` must produce one that passes. Each
``passv ...`` line of a ```sh block runs through ``cli.execute`` in a fresh
directory, exits 0 and writes the artifact it names.
"""

import re
import shlex
from pathlib import Path

import pytest

from passv.cli import execute

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
COMMANDS = [shlex.split(line)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)
            for line in block.splitlines() if line.startswith("passv ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    if "report" in namespace:
        assert namespace["report"].passes()


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("args", COMMANDS,
                         ids=[f"{args[0]}-{k}" for k, args in enumerate(COMMANDS)])
def test_readme_command_runs(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert execute(args) == 0
    assert (tmp_path / args[args.index("--output") + 1]).stat().st_size > 0
