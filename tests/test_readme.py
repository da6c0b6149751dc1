"""README's ``## Library`` block runs as written, so every name it shows exists."""

import re
from pathlib import Path


def test_library_block_runs():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["rep"].is_member and namespace["min_tv"] >= namespace["ch"].minimal_tv - 1e-9
