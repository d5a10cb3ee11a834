"""The README's library example prints what its comments say, its
command-line section names exactly the flags the parser takes, it states
the current report version, and the package namespace re-exports exactly
what the example and the acceptance tests import from it."""

import ast
import contextlib
import io
import pkgutil
import re
import types
from pathlib import Path

import zalcman
from zalcman.campaigns import REPORT_VERSION
from zalcman.cli import build_parser

from support import command_flags

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_python_block_prints_its_comments():
    code = _python_block()
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


def test_readme_states_the_current_report_version():
    versions = re.findall(r"`version` \(currently (\d+)\)", README.read_text(encoding="utf-8"))
    assert versions == [str(REPORT_VERSION)]


def _package_imports(source: str) -> set[str]:
    """The names a source imports with ``from zalcman import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "zalcman"
        for alias in node.names
    }


def test_the_package_reexports_exactly_what_the_readme_and_acceptance_tests_import():
    submodules = {module.name for module in pkgutil.iter_modules(zalcman.__path__)}
    sources = (_python_block(), (TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = set().union(*map(_package_imports, sources)) - submodules
    assert imported == set(zalcman.__all__)
    public = {
        name
        for name, value in vars(zalcman).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(zalcman.__all__)
