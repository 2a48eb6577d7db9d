"""The README's library quick start runs as written, and its example report
is what the command prints."""

import re
import shlex
from pathlib import Path

from stateattack.cli import main

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    names: dict = {}
    exec(blocks[0], names)
    assert names["violated"] and names["enforced"]
    assert names["report"].sound
    assert names["trace"].outcome == "violated"


def test_readme_report_example_is_printed(capsys, monkeypatch):
    command = "$ stateattack check-enforced --model samples/model.json --attacked 2,4,8,9 --budget 1\n"
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    [block] = [block for block in blocks if block.startswith(command)]
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == block[len(command):]
