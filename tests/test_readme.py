"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from deltagrad.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})


def test_cli_examples_run(tmp_path, monkeypatch):
    """Runs each `deltagrad ...` command of the README's bash blocks in order,
    in one directory, with `\\` continuations joined, and expects exit 0.

    A command with a shell substitution `$(` cannot run without a shell and
    is skipped: the quick-start `unlearn --delete-ids "$(seq -s, 0 49)"`.
    """
    monkeypatch.chdir(tmp_path)
    commands = [line.strip() for block in _blocks("bash")
                for line in block.replace("\\\n", " ").splitlines()
                if line.strip().startswith("deltagrad ")]
    assert commands
    for command in commands:
        if "$(" not in command:
            assert main(shlex.split(command)[1:]) == 0, command
