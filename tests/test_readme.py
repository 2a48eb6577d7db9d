"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    names: dict = {}
    exec(blocks[0], names)
    assert names["violated"] and names["enforced"]
    assert names["report"].sound
    assert names["trace"].outcome == "violated"
