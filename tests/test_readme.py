"""The README's library quick start runs as written, its example report is
what the command prints, and its flag table is the parser's."""

import re
import shlex
from pathlib import Path

from stateattack.cli import COMMANDS, FLAGS, main

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


def test_readme_flag_table_is_the_parser():
    """One row per flag, with the choices the flag takes and, under "Taken
    by", the subcommands that take it: a list, or "all" with the exceptions
    named after "but"."""
    row = re.compile(r"^\| `(--[a-z-]+)([^`]*)` \|.*\| ([^|]*) \|$", re.M)
    rows = row.findall(README.read_text(encoding="utf-8"))
    assert sorted(flag for flag, _, _ in rows) == sorted(FLAGS)
    for flag, argument, taken_by in rows:
        named = set(re.findall(r"`([a-z-]+)`", taken_by))
        taken = set(COMMANDS) - named if taken_by.startswith("all") else named
        assert taken == {command for command, (_, flags) in COMMANDS.items() if flag in flags}, flag
        if "choices" in FLAGS[flag]:
            assert argument == f" {{{','.join(FLAGS[flag]['choices'])}}}", flag
