"""Tests of the benchmark itself: span arithmetic, output checks, layer predictions.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zalcman import cli  # noqa: E402
from zalcman.mappings import ScanReport, ScanWitness, h_eval  # noqa: E402


# --- span arithmetic -------------------------------------------------------

def _nest(rows, names=("a", "b", "c", "d", "e")):
    """Spans from (name, parent, start, end) rows."""
    name_id, parent, start, end = zip(*rows)
    return spans.Spans(
        list(names),
        np.array([names.index(n) for n in name_id], dtype=np.int32),
        np.array(parent, dtype=np.int32),
        np.array(start, dtype=float),
        np.array(end, dtype=float),
    )


NEST = [
    ("a", -1, 0.0, 10.0),   # root with children b and c
    ("b", 0, 1.0, 4.0),     # child d
    ("d", 1, 2.0, 3.0),
    ("c", 0, 5.0, 9.0),
    ("e", -1, 11.0, 12.0),  # second root
]


def test_self_time_is_span_minus_direct_children():
    nest = _nest(NEST)
    assert nest.self_times().tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert dict(zip(nest.names, nest.self_by_name().tolist())) == {
        "a": 3.0, "b": 2.0, "c": 4.0, "d": 1.0, "e": 1.0
    }
    assert nest.calls_by_name().tolist() == [1, 1, 1, 1, 1]
    assert nest.root_time() == 11.0
    assert nest.children_named("d", "b") == 1 and nest.children_named("d", "a") == 0
    # self times (11) plus the unspanned remainder (2) give the wall time
    assert nest.check(wall=13.0) == []


def test_span_check_flags_broken_nests():
    outside = [row if row[0] != "d" else ("d", 1, 2.0, 4.5) for row in NEST]
    assert any("outside its parent" in p for p in _nest(outside).check(wall=13.0))
    assert any("exceed the traced wall" in p for p in _nest(NEST).check(wall=10.0))


def _toy_module():
    mod = types.ModuleType("toy")

    class Box:
        def size(self):
            return 2

    def inner(x):
        return x + Box().size()

    def outer(x):
        return mod.inner(x) * 2

    mod.Box, mod.inner, mod.outer = Box, inner, outer
    return mod


def test_tracer_records_nesting_and_restores_the_originals():
    mod = _toy_module()
    user = types.ModuleType("toy_user")
    user.inner = mod.inner          # a `from toy import inner` binding
    originals = (mod.inner, mod.outer, mod.Box.__dict__["size"])
    tracer = spans.Tracer(
        [("toy.inner", mod, "inner"), ("toy.outer", mod, "outer"), ("toy.size", mod.Box, "size")],
        [mod, user],
    )
    tracer.install()
    try:
        assert mod.outer(1) == 6 and user.inner(0) == 2
        assert user.inner is mod.inner is not originals[0]
    finally:
        tracer.uninstall()
    assert (mod.inner, mod.outer, mod.Box.__dict__["size"]) == originals
    assert user.inner is originals[0]
    recorded = tracer.spans()
    named = [recorded.names[i] for i in recorded.name_id]
    assert named == ["toy.outer", "toy.inner", "toy.size", "toy.inner", "toy.size"]
    assert recorded.parent.tolist() == [-1, 0, 1, -1, 3]
    assert mod.outer(1) == 6 and len(tracer.start) == 5, "no spans once uninstalled"


# --- output checks ---------------------------------------------------------

@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Good reports of each kind, from the command line."""
    tmp = tmp_path_factory.mktemp("reports")
    argv = {
        "zalcman1d": ["verify", "zalcman1d", "--samples", "60", "--format", "csv"],
        "ball": ["verify", "ball", "--dim", "2", "--samples", "5"],
        "search": ["search", "--m", "2", "--n", "3", "--budget", "200"],
    }
    out = {}
    for name, args in argv.items():
        path = tmp / name
        assert cli.main([*args, "--seed", "3", "--out", str(path)]) == 0
        out[name] = path.read_bytes()
    return out


EXPECT = {
    "zalcman1d": checks.Expect("zalcman1d", "csv", 60, 2.0, "bound", koebe=True),
    "ball": checks.Expect("ball", "json", 5, 2.0, "bound"),
    "search": checks.Expect("search", "json", 1, 2.0, "search", budget=200),
}


def _kinds(name, text, status=0):
    return {kind for kind, _ in checks.check_command(EXPECT[name], status, text)[1]}


def _edit_json(text, **fields):
    obj = json.loads(text)
    obj.update(fields)
    return json.dumps(obj, indent=2).encode()


def _edit_csv_row(text, row, column, token):
    lines = text.decode().splitlines()
    cells = lines[row].split(",")
    cells[column] = token
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def test_good_reports_pass_and_count_their_units(reports):
    for name, text in reports.items():
        units, problems = checks.check_command(EXPECT[name], 0, text)
        assert problems == []
        assert units == (json.loads(text)["extras"]["evaluations"] if name == "search"
                         else EXPECT[name].samples)


def test_checker_flags_each_doctored_report(reports):
    csv_text, ball, search = reports["zalcman1d"], reports["ball"], reports["search"]
    assert "exit" in _kinds("ball", ball, status="exit 1: violations")
    assert "exit" in _kinds("ball", ball, status="Traceback ...")
    assert "format" in _kinds("ball", None)
    assert "format" in _kinds("ball", ball.replace(b'"min_margin": ', b'"min_margin": NaN, "x": '))
    assert "format" in _kinds("zalcman1d", _edit_csv_row(csv_text, 2, 3, "0,extra"))
    assert "samples" in _kinds("ball", _edit_json(ball, samples=4))
    short = b"\n".join(line for k, line in enumerate(csv_text.split(b"\n")) if k != 5)
    assert "samples" in _kinds("zalcman1d", short)
    assert "nonfinite" in _kinds("ball", ball.replace(b'"max_value": ', b'"max_value": 1e999, "x": '))
    assert "nonfinite" in _kinds("zalcman1d", _edit_csv_row(csv_text, 4, 2, "nan"))
    assert "margin" in _kinds("zalcman1d", _edit_csv_row(csv_text, 4, 2, "-1e-06"))
    assert "margin" in _kinds("ball", _edit_json(ball, violations=[{"index": 0}]))
    assert "bound" in _kinds("ball", _edit_json(ball, max_value=2.1))
    assert "search" in _kinds("search", _edit_json(search, max_value=1.5))
    lines = csv_text.decode().splitlines()
    flat = [lines[0]] + [f"{k},1.0,1.0,0" for k in range(60)] + ["aggregate,1.0,1.0,0"]
    assert _kinds("zalcman1d", ("\n".join(flat) + "\n").encode()) == {"koebe"}


def test_checker_flags_wrong_scan_verdicts_and_witnesses():
    _, invalid = workloads.make_job("extremal", 5).scans
    report = workloads.mappings.starlikeness_scan(workloads.SCAN_SPACE, invalid.spec, seed=5)
    samples = workloads.SCAN_SAMPLES
    assert checks.check_scan(report, invalid.spec, False, samples, h_eval) == []
    silent = ScanReport(report.min_real, report.samples, None)
    assert {k for k, _ in checks.check_scan(silent, invalid.spec, False, samples, h_eval)} == {"scan"}
    w = report.witness
    forged = ScanReport(
        report.min_real, report.samples, ScanWitness(w.direction, w.zeta, w.h_value + 0.5)
    )
    assert {k for k, _ in checks.check_scan(forged, invalid.spec, False, samples, h_eval)} == {"witness"}
    assert {k for k, _ in checks.check_scan(report, invalid.spec, True, samples, h_eval)} == {"scan"}


def test_determinism_ignores_runtime_and_catches_other_drift(reports, tmp_path):
    ball = reports["ball"]
    slower = _edit_json(ball, runtime_ms=987654)
    assert checks.deterministic_bytes(slower) == checks.deterministic_bytes(
        _edit_json(ball, runtime_ms=0)
    )
    _, module, warmup = run._setup("lifted", 0, tmp_path)
    warmup.fingerprint[0] = checks.deterministic_bytes(_edit_json(ball, seed=99))
    bench = run.Run(module, "lifted", 0, tmp_path, warmup)
    bench.job(0, bench.make(0))
    assert bench.failed == 1
    assert [p[2] for p in bench.problems] == ["determinism"]


# --- layer predictions -----------------------------------------------------

def _traced(workload, tmp_path, seconds):
    _, module, warmup = run._setup(workload, 7, tmp_path)
    bench = run.Run(module, workload, 7, tmp_path, warmup)
    metrics = run.measure_traced(bench, seconds, tmp_path / "spans.npz")
    assert bench.failed == 0, bench.problems
    return metrics


def _calls(metrics, *layers):
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") and k.split(".")[0] in layers}


def test_scalar_calls_no_geometry_mappings_or_series(tmp_path):
    metrics = _traced("scalar", tmp_path, seconds=0.5)
    assert set(_calls(metrics, "geometry", "mappings", "series").values()) == {0}
    samples = 3 * workloads.SCALAR_SAMPLES * metrics["tracing.jobs"]
    assert metrics["rng.default_rng.calls"] == metrics["campaigns.subseed.calls"] == samples
    assert metrics["herglotz.sample_measure.calls"] == samples
    assert metrics["starlike.coeffs_from_p.calls"] == 2 * samples // 3
    assert metrics["cli.main.calls"] == 3 * metrics["tracing.jobs"]


def test_lifted_calls_no_herglotz_or_starlike(tmp_path):
    metrics = _traced("lifted", tmp_path, seconds=0.25)
    assert set(_calls(metrics, "herglotz", "starlike").values()) == {0}
    for name in ("geometry.rho", "mappings.hom_parts", "mappings.restrict_h", "series.exp",
                 "series.div", "geometry.wirtinger_fd_gradient"):
        assert metrics[f"{name}.calls"] > 0, name
    assert 0.0 < metrics["geometry.sample_direction.accept_ratio"] <= 1.0


def test_extremal_rng_calls_are_bounded_by_restarts_and_scans(tmp_path):
    from zalcman.starlike import SEARCH_RESTARTS

    metrics = _traced("extremal", tmp_path, seconds=1.0)
    jobs = metrics["tracing.jobs"]
    assert metrics["starlike.search_extremal.calls"] == jobs
    assert metrics["mappings.starlikeness_scan.calls"] == 2 * jobs
    assert 0 < metrics["rng.default_rng.calls"] <= jobs * (SEARCH_RESTARTS + 2)
    assert set(_calls(metrics, "herglotz").values()) == {0}
    assert metrics["campaigns.subseed.calls"] == 0
