"""The README's Python examples run as written.

Each ```python block of README.md is executed in a fresh namespace; a block
that builds an equivalence ``report`` must produce one that passes.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    if "report" in namespace:
        assert namespace["report"].passes()
