"""The README's documented library use and command line session run as
written, and its flags are the command's flags."""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

from boxforest.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert snippet is not None, "README 'Library use' has no python block"
    exec(compile(snippet.group(1), "README.md", "exec"), {})


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
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    session = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert session is not None, "README 'Command line' has no sh block"
    steps = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", session.group(1), re.MULTILINE)
    assert [shlex.split(command)[1] for command, _ in steps] == ["gen", "color", "verify"]
    monkeypatch.chdir(tmp_path)
    for command, printed in steps:
        program, *argv = shlex.split(command)
        assert program == "boxforest"
        assert main(argv) == 0, command
        out, err = capsys.readouterr()
        assert err + out == printed, command
