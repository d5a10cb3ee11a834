"""The package names the benchmark uses still exist.

``perfbench/run.py --trace 1`` looks up every (owner, attribute) of
``workloads.traced_functions()`` in ``vars(owner)``; a deleted or renamed
function would end the traced run with a KeyError.  Every run, traced or
not, builds its jobs with ``workloads.make_job``, which calls into the
package as well.
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


def test_every_workload_builds_its_jobs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for workload in workloads.WORKLOADS:
        assert workloads.make_job(workload, 0).commands
