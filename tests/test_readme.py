"""The README's library example prints what its comments say, and its
command-line section names exactly the flags the parser takes."""

import contextlib
import io
import re
from pathlib import Path

from zalcman.cli import build_parser

from support import command_flags

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


FLAG = r"(?<![\w-])--[a-z][a-z-]*"


def _documented_flags():
    """{command: flags} from the section's bullet list, one bullet per group
    of commands; the "every command" bullet adds its flags to each."""
    documented, common = {}, set()
    for bullet in re.findall(r"^- (.*(?:\n  .*)*)", _command_line_section(), re.M):
        head, tail = bullet.split(":", 1)
        flags = set(re.findall(FLAG, tail))
        if head == "every command":
            common = flags
        for command in re.findall(r"`([a-z0-9 ]+)`", head):
            documented.setdefault(command, set()).update(flags)
    return {command: flags | common for command, flags in documented.items()}


def test_readme_command_line_lists_exactly_the_parser_flags():
    # Each command's bullet names exactly its flags, so a flag documented
    # under the wrong campaign fails here.
    parsed = command_flags(build_parser())
    assert _documented_flags() == parsed
    assert set(re.findall(FLAG, _command_line_section())) == set().union(*parsed.values())
