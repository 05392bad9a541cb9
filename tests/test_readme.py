"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from bmixlhv import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_blocks(heading, language):
    """The ``language`` code blocks under ``heading``, up to the next heading
    of its level or above; a ``#`` line inside a block is not a heading."""
    level = heading.index(" ")
    text = README.read_text(encoding="utf-8")
    blocks, under = [], False
    for piece in re.split(r"(^```.*?^```$)", text, flags=re.S | re.M):
        if piece.startswith("```"):
            if under and piece.startswith(f"```{language}\n"):
                blocks.append(piece[len(f"```{language}\n"):-3])
            continue
        for line in piece.splitlines():
            if line == heading:
                under = True
            elif re.match(rf"#{{1,{level}}} ", line):
                under = False
    return blocks


def test_library_use_runs_as_written(tmp_path, monkeypatch):
    blocks = _code_blocks("## Library use", "python")
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)  # the second block writes its event files here
    namespace = {}
    for block in blocks:  # in turn, in one namespace: the second reads the first's batch
        exec(compile(block, str(README), "exec"), namespace)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.bin", "events.csv"]


def test_command_line_examples_run_as_written(tmp_path, monkeypatch):
    (block,) = _code_blocks("## Command line", "sh")
    monkeypatch.chdir(tmp_path)  # analyze reads the run1/ that simulate writes
    commands = [shlex.split(line) for line in block.splitlines()
                if line and not line.startswith("#")]
    assert len(commands) == 4
    for argv in commands:
        assert argv[0] == "bmixlhv"
        assert cli.main(argv[1:]) == 0, argv
