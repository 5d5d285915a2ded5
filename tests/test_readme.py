"""The README's documented library use and command line session run as
written, and its flags are the command's flags."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

from boxforest import boxes_from_rows, save_boxes
from boxforest.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use() -> dict:
    """The names the README's "## Library use" snippet leaves behind."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert snippet is not None, "README 'Library use' has no python block"
    names: dict = {}
    exec(compile(snippet.group(1), "README.md", "exec"), names)
    return names


def _session(index: int) -> list[tuple[str, str]]:
    """Each command of the ``index``-th sh block of "## Command line" with
    the lines it prints."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    assert len(blocks) > index, "README 'Command line' lacks an sh block"
    return re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", blocks[index], re.MULTILINE)


def test_library_use_snippet_runs():
    _library_use()


def _cli_long_options() -> set[str]:
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_every_cli_flag_is_documented():
    # both ways: a flag the README never names is undocumented, and a flag
    # the README names that no subcommand defines is stale
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    defined = _cli_long_options()
    assert defined - named == set(), "flags missing from README.md"
    assert named - defined == set(), "README.md names flags the CLI lacks"
    # nor does the command read any environment variable
    assert "BOXFOREST_" not in text


def test_command_line_session_replays(tmp_path, monkeypatch, capsys):
    # the first session of "## Command line": gen seed 7, color, verify;
    # each command's printed lines, stderr then stdout, are the README's
    steps = _session(0)
    assert [shlex.split(command)[1] for command, _ in steps] == ["gen", "color", "verify"]
    monkeypatch.chdir(tmp_path)
    _replay(steps, capsys)


def _replay(steps: list[tuple[str, str]], capsys) -> None:
    """Run each ``boxforest`` command of a session, which must exit 0 and
    print, stderr then stdout, the lines the README shows."""
    for command, printed in steps:
        program, *argv = shlex.split(command)
        assert program == "boxforest"
        assert main(argv) == 0, command
        out, err = capsys.readouterr()
        assert err + out == printed, command


def test_star_session_replays(tmp_path, monkeypatch, capsys):
    # the tree session of "## Command line" on star.boxes, the rows of
    # "## Library use": color exits 3, and cat shows the certificate it wrote
    rows = _library_use()["rows"]
    (command, printed), (show, shown) = _session(1)
    program, *argv = shlex.split(command)
    assert (program, argv[:2]) == ("boxforest", ["color", "star.boxes"])
    monkeypatch.chdir(tmp_path)
    save_boxes(boxes_from_rows(rows), "star.boxes")
    assert main(argv) == 3, command
    out, err = capsys.readouterr()
    assert err + out == printed, command
    program, path = shlex.split(show)
    assert program == "cat"
    assert Path(path).read_text(encoding="utf-8") == shown


def test_decompose_and_oracle_sessions_replay(tmp_path, monkeypatch, capsys):
    # the decompose and oracle sessions of "## Command line" on demo.boxes,
    # written by the first session's gen: every line each command prints
    (gen, _), *_ = _session(0)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(gen)[1:]) == 0
    steps = _session(2) + _session(3)
    assert [shlex.split(command)[1:3] for command, _ in steps] == [
        ["decompose", "demo.boxes"], ["oracle", "demo.boxes"],
    ]
    _replay(steps, capsys)
