"""The README's examples run as written: the library quick start prints what
its comments say, and every command-line example exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from mahlercf.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    # the first fenced block of the language after the heading
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)[1]


def test_library_quick_start_prints_its_comments():
    code = _block("Library quick start", "python")
    # each print line ends in the comment that shows what it prints
    expected = [
        line.partition("  # ")[2].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(expected) == 3 and all(expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    commands = [
        shlex.split(line, comments=True)
        for line in _block("Command line", "sh").splitlines()
        if line.startswith("mahlercf ")
    ]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)  # the witness example saves and replays a file
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out, argv
