"""The README's examples run as written."""

import re
from pathlib import Path

from bmixlhv import cli
from bmixlhv.model import ModelParams
from bmixlhv.montecarlo import SimConfig, read_events

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


def test_the_config_file_sample_serves_every_command(tmp_path, monkeypatch):
    (block,) = _code_blocks("### Config file", "ini")
    monkeypatch.chdir(tmp_path)
    Path("run.ini").write_text(block, encoding="utf-8")
    events = ["--events", "20000"]  # the flag wins over the sample's 10^6
    for argv in (["verify"], ["simulate", *events], ["analyze", "simulate/events.bin"],
                 ["scan", "0.776", *events]):
        assert cli.main([*argv, "--config", "run.ini", "--out", argv[0]]) == 0, argv
    # the file's model and seed reached the sample
    assert read_events("simulate/events.bin").config == SimConfig(
        params=ModelParams(1.0, 0.776), n_events=20000, seed=20260814)
