"""The package names the benchmark uses still exist.

``perfbench/run.py --trace 1`` looks up every (owner, attribute) of
``workloads.traced_functions()`` in ``vars(owner)``; a deleted or renamed
function would end the traced run with a KeyError.  Every run, traced or
not, builds its jobs with ``workloads.make_job``, which calls into the
package as well, and ``perfbench/test_perfbench.py``, which the suite
does not collect, imports package names of its own.
"""

import ast
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_is_defined_where_the_benchmark_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    targets = workloads.traced_functions()
    assert targets
    missing = [name for name, owner, attr in targets if attr not in vars(owner)]
    assert missing == []


def test_every_workload_builds_its_jobs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for workload in workloads.WORKLOADS:
        assert workloads.make_job(workload, 0).commands


def _resolves(module, name: str) -> bool:
    """Whether ``from <module> import <name>`` finds an attribute or a submodule."""
    if hasattr(module, name):
        return True
    return hasattr(module, "__path__") and importlib.util.find_spec(f"{module.__name__}.{name}") is not None


def test_every_package_name_the_benchmark_imports_exists():
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zalcman"
        for alias in node.names
    ]
    assert imports
    missing = [entry for entry in imports if not _resolves(importlib.import_module(entry[1]), entry[2])]
    assert missing == []
