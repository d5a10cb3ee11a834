"""The README's library example prints what its comments say, and its
command-line section names exactly the flags the parser takes."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from zalcman.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    expected = [line.split("# ", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _command_line_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _parser_flags():
    """Every long option of every ``build_parser()`` subcommand but --help."""
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices.values()
    return {
        flag
        for sub in subcommands
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def test_readme_command_line_lists_exactly_the_parser_flags():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _command_line_section()))
    assert documented == _parser_flags()
