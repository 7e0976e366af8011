"""The README's configuration block is the default config, key for key,
its store paragraph describes the store format `mdb` writes, and its
CLI walkthrough prints what the `emap` command prints."""

import json
import pathlib
import re
import shlex

from emap import cli, mdb
from emap.orchestrator import RunConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_block_is_the_default_config():
    section = README.read_text(encoding="utf-8").split(
        "\n## Configuration\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == RunConfig().to_dict()


def test_readme_store_paragraph_names_the_format_and_payload():
    section = README.read_text(encoding="utf-8").split("\n**Store**", 1)[1]
    paragraph = section.split("\n\n", 1)[0]
    assert f"format {mdb.FORMAT_VERSION})" in paragraph
    assert f"`format_version` ({mdb.FORMAT_VERSION})" in paragraph
    assert f"`{mdb.PAYLOAD_FILE}`" in paragraph


def walkthrough():
    """(argv, expected stdout lines) for each `$ emap ...` command of
    the README's CLI walkthrough, in order."""
    section = README.read_text(encoding="utf-8").split(
        "\n## CLI walkthrough\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    steps = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.replace("\\\n", " ").splitlines()
        assert command.startswith("$ emap "), command
        steps.append((shlex.split(command)[2:], output))
    return steps


def lines_match(expected, got):
    """Line-for-line equality, where a `...` line matches any number of
    lines."""
    if not expected:
        return not got
    if expected[0] == "...":
        return any(lines_match(expected[1:], got[i:])
                   for i in range(len(got) + 1))
    return bool(got) and got[0] == expected[0] and lines_match(
        expected[1:], got[1:])


def test_readme_cli_walkthrough_prints_what_the_command_prints(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = walkthrough()
    assert len(steps) == 7
    for argv, expected in steps:
        assert cli.main(argv) == 0, argv
        got = capsys.readouterr().out.splitlines()
        assert lines_match(expected, got), (argv, expected, got)
