"""The three workloads: the inputs one seed gives a job, and running a job.

A job is the fixed bundle of ``zalcman`` commands one seed triggers.  Every
command goes through ``zalcman.cli.main(argv)`` with ``--out`` into a scratch
file, which is read back and checked; only the starlikeness scan, which has
no command, is called as a library function.  Importing this module imports
``zalcman`` from the ``src`` directory of the checkout that holds it.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import zalcman
from zalcman import campaigns, cli, geometry, herglotz, mappings, series, starlike
from zalcman.mappings import GridSpec, LiftedMapSpec, h_eval

import checks
from checks import Expect

SRC = Path(__file__).resolve().parent.parent / "src"
if SRC not in Path(zalcman.__file__).resolve().parents:
    raise ImportError(f"zalcman was imported from {zalcman.__file__}, not from {SRC}")

WORKLOADS = ("scalar", "lifted", "extremal")

# scalar has the most samples per job; lifted samples cost about 3x more.
SCALAR_SAMPLES = 400
LIFTED_SAMPLES = 40
SEARCH_BUDGET = 20000
SEARCH_ORDERS = tuple((m, n) for m in range(2, 5) for n in range(m, 5))
# sharpness checks two fixed extremal maps whatever --samples says.
SHARPNESS_SAMPLES = 2

# Scans run on the Euclidean ball of C^2.  There |l(z0)| / ||l||_* is the
# modulus of a uniformly distributed cosine, so with a functional of dual
# norm 1.5 the 24 default directions all miss |zeta l(z0)| > 1 at zeta = 0.99
# with probability below 1e-8: the invalid lift always yields a witness.
SCAN_SPACE = geometry.euclidean(2)
INVALID_DUAL_NORM = 1.5
SCAN_GRID = GridSpec()
SCAN_SAMPLES = SCAN_GRID.directions * SCAN_GRID.radii * SCAN_GRID.angles


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: Expect


@dataclass(frozen=True)
class Scan:
    spec: LiftedMapSpec
    expect_pass: bool


@dataclass(frozen=True)
class Job:
    seed: int
    commands: tuple[Command, ...]
    scans: tuple[Scan, ...] = ()


@dataclass
class JobResult:
    """Timings and checks of one job.

    ``wall`` is the time spent inside ``zalcman`` calls, ``units`` the work
    the outputs report, ``by_label`` the same pair per campaign (and
    "scan"), ``fingerprint`` the report bytes without wall-clock fields.
    """

    wall: float = 0.0
    units: int = 0
    by_label: dict[str, list] = field(default_factory=dict)
    problems: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)

    def add(self, label: str, seconds: float, units: int) -> None:
        self.wall += seconds
        self.units += units
        entry = self.by_label.setdefault(label, [0.0, 0])
        entry[0] += seconds
        entry[1] += units


def _verify(campaign, samples, bound, kind, fmt, flags=(), koebe=False) -> Command:
    argv = ("verify", campaign, *flags, "--samples", str(samples), "--format", fmt)
    return Command(argv, Expect(campaign, fmt, samples, bound, kind, koebe))


SCALAR = (
    _verify("caratheodory", SCALAR_SAMPLES, 2.0, "bound", "csv", koebe=True),
    _verify("zalcman1d", SCALAR_SAMPLES, 2.0, "bound", "csv", ("--m", "2", "--n", "3"), koebe=True),
    _verify("zalcman1d", SCALAR_SAMPLES, 9.0, "bound", "csv", ("--m", "4", "--n", "4"), koebe=True),
)

LIFTED = (
    _verify("ball", LIFTED_SAMPLES, 2.0, "bound", "json", ("--dim", "3", "--norm", "lp:3")),
    _verify("domain", LIFTED_SAMPLES, 2.0, "bound", "json", ("--dim", "3", "--norm", "sup")),
    _verify("gradients", LIFTED_SAMPLES, 1.0, "identity", "json", ("--dim", "3", "--norm", "l1")),
    _verify("reduction", LIFTED_SAMPLES, 1.0, "identity", "json", ("--dim", "2", "--norm", "lp:1.5")),
    _verify("sharpness", SHARPNESS_SAMPLES, 2.0, "identity", "json", ("--norm", "l2")),
)


def _search(seed: int) -> Command:
    m, n = SEARCH_ORDERS[seed % len(SEARCH_ORDERS)]
    argv = ("search", "--m", str(m), "--n", str(n), "--budget", str(SEARCH_BUDGET))
    expect = Expect("search", "json", 1, float((m - 1) * (n - 1)), "search", budget=SEARCH_BUDGET)
    return Command(argv, expect)


def _scans(seed: int) -> tuple[Scan, Scan]:
    valid = mappings.sample_lifted_spec(SCAN_SPACE, np.random.default_rng(seed))
    b = valid.atoms[0][1]
    scaled = b.scale(INVALID_DUAL_NORM / geometry.dual_norm(SCAN_SPACE, b))
    return Scan(valid, True), Scan(LiftedMapSpec(((1.0, scaled),)), False)


def make_job(workload: str, seed: int) -> Job:
    """The inputs of the job with this seed; the same seed gives the same job."""
    if workload == "scalar":
        return Job(seed, SCALAR)
    if workload == "lifted":
        return Job(seed, LIFTED)
    if workload == "extremal":
        return Job(seed, (_search(seed),), _scans(seed))
    raise ValueError(f"unknown workload {workload!r}")


def _invoke(argv: list[str]):
    """Run the command line in-process; returns (status, seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:  # a job boundary: record the failure and go on
        status = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if status != 0 and not isinstance(status, str):
        status = f"exit {status}: {sink.getvalue().strip()}"
    return status, seconds


def run_job(job: Job, workdir: Path) -> JobResult:
    """Run and check one job; only the zalcman calls are timed."""
    result = JobResult()
    for k, command in enumerate(job.commands):
        out = workdir / f"{k}.{command.expect.fmt}"
        out.unlink(missing_ok=True)
        argv = [*command.argv, "--seed", str(job.seed), "--out", str(out)]
        status, seconds = _invoke(argv)
        text = out.read_bytes() if out.exists() else None
        units, problems = checks.check_command(command.expect, status, text)
        result.add(command.expect.campaign, seconds, units)
        result.problems += problems
        if text is not None:
            result.fingerprint.append(checks.deterministic_bytes(text))
    for scan in job.scans:
        start = time.perf_counter()
        try:
            report = mappings.starlikeness_scan(SCAN_SPACE, scan.spec, SCAN_GRID, seed=job.seed)
        except Exception:  # a job boundary: record the failure and go on
            result.add("scan", time.perf_counter() - start, 0)
            result.problems.append(("exit", traceback.format_exc(limit=-3)))
            continue
        result.add("scan", time.perf_counter() - start, report.samples)
        result.problems += checks.check_scan(
            report, scan.spec, scan.expect_pass, SCAN_SAMPLES, h_eval
        )
        result.fingerprint.append(repr(report).encode())
    return result


def traced_functions() -> list[tuple[str, object, str]]:
    """(span name, defining module or class, attribute) of every traced function.

    ``rng.default_rng`` is numpy's constructor as zalcman calls it, through
    the ``numpy.random`` namespace.  ``starlike.coeffs_oracle`` is left out
    on purpose: no campaign calls it.
    """
    measure, truncated = herglotz.HerglotzMeasure, series.TruncatedSeries
    return [
        ("rng.default_rng", np.random, "default_rng"),
        ("campaigns.subseed", campaigns, "subseed"),
        ("herglotz.sample_measure", herglotz, "sample_measure"),
        ("herglotz.coefficient", measure, "coefficient"),
        ("herglotz.margins", measure, "margins"),
        ("starlike.coeffs_from_p", starlike, "coeffs_from_p"),
        ("starlike.zalcman_J", starlike, "zalcman_J"),
        ("starlike.search_extremal", starlike, "search_extremal"),
        ("mappings.starlikeness_scan", mappings, "starlikeness_scan"),
        ("geometry.rho", geometry, "rho"),
        ("geometry.support_covector", geometry, "support_covector"),
        ("geometry.minkowski_gradient", geometry, "minkowski_gradient"),
        ("geometry.dual_norm", geometry, "dual_norm"),
        ("geometry.exceptional_distance", geometry, "exceptional_distance"),
        ("geometry.sample_direction", geometry, "sample_direction"),
        ("geometry.sample_point", geometry, "sample_point"),
        ("geometry.wirtinger_fd_gradient", geometry, "wirtinger_fd_gradient"),
        ("mappings.sample_lifted_spec", mappings, "sample_lifted_spec"),
        ("mappings.zalcman_nd", mappings, "zalcman_nd"),
        ("mappings.hom_parts", mappings, "hom_parts"),
        ("mappings.functional_A", mappings, "functional_A"),
        ("mappings.functional_B", mappings, "functional_B"),
        ("mappings.reduction_crosscheck", mappings, "reduction_crosscheck"),
        ("mappings.restrict_h", mappings, "restrict_h"),
        ("series.exp", truncated, "exp"),
        ("series.div", truncated, "__truediv__"),
        ("campaigns.run_campaign", campaigns, "run_campaign"),
        ("campaigns.render_report", campaigns, "render_report"),
        ("campaigns.emit_report", campaigns, "emit_report"),
        ("cli.main", cli, "main"),
    ]
