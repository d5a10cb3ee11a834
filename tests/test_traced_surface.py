"""The functions the benchmark traces by name still exist.

``perfbench/run.py --trace 1`` looks up every (owner, attribute) of
``workloads.traced_functions()`` in ``vars(owner)``; a deleted or renamed
function would end the traced run with a KeyError.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_function_is_defined_where_the_benchmark_looks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    targets = workloads.traced_functions()
    assert targets
    missing = [name for name, owner, attr in targets if attr not in vars(owner)]
    assert missing == []
