"""Benchmark of the zalcman verification campaigns.

    python3 perfbench/run.py --workload scalar --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One client in one process runs jobs in a closed loop: job i uses seed
``--seed`` + i, and the next job starts when the previous one has been run
and checked.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Every metric is printed
by name with its unit; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit status is 1
when any output check failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / ".work"
WORKLOADS = ("scalar", "lifted", "extremal")

# setup_s is the median of this many set-ups: one in this process, the rest
# in fresh interpreters, since numpy can be imported only once per process.
SETUPS = 5
SETUP_TIMEOUT_S = 120
# job_ms_p90 needs at least ten jobs beyond it.
MIN_JOBS = 100
# Traced jobs per second of --seconds, so a traced run lasts about --seconds
# and its call counts repeat exactly for one seed and length.
TRACE_JOBS_PER_S = {"scalar": 2.0, "lifted": 4.0, "extremal": 1.0}

END_TO_END = (
    ("us_per_sample", "us"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
CAMPAIGN_LABELS = (
    "caratheodory", "zalcman1d", "ball", "domain", "gradients", "reduction",
    "sharpness", "search", "scan",
)
LAYERS = ("rng", "cli", "campaigns", "herglotz", "starlike", "geometry", "mappings", "series")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def _setup(workload: str, seed: int, workdir: Path):
    """Import zalcman and run one untimed warm-up job; returns the seconds
    taken, the workloads module and the warm-up job's result."""
    start = time.perf_counter()
    src = str(HERE.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads

    result = workloads.run_job(workloads.make_job(workload, seed), workdir)
    return time.perf_counter() - start, workloads, result


def _setup_in_subprocess(workload: str, seed: int) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """Counts jobs and their failures; job 0 is checked against the warm-up."""

    def __init__(self, workloads, workload: str, seed: int, workdir: Path, warmup):
        self.workloads, self.workload, self.seed, self.workdir = workloads, workload, seed, workdir
        self.warmup = warmup
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def make(self, i: int):
        return self.workloads.make_job(self.workload, self.seed + i)

    def job(self, i: int, job, traced: bool = False):
        result = self.workloads.run_job(job, self.workdir)
        problems = list(result.problems)
        if i == 0:
            problems += self.warmup.problems
            if result.fingerprint != self.warmup.fingerprint:
                problems.append(("determinism", "job 0 report bytes differ from its first run"))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [(self.seed + i, traced, *p) for p in problems]
        return result


def measure(run: Run, seconds: float, setup_times: list[float]) -> dict[str, float]:
    """Untraced closed loop for ``seconds`` (longer if needed for MIN_JOBS)."""
    walls, wall, units = [], 0.0, 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(walls) >= MIN_JOBS or elapsed >= 3 * seconds):
            break
        result = run.job(len(walls), run.make(len(walls)))
        walls.append(result.wall)
        wall += result.wall
        units += result.units
    return {
        "us_per_sample": 1e6 * _ratio(wall, units),
        "job_ms_p50": 1e3 * statistics.median(walls),
        "job_ms_p90": 1e3 * _p90(walls) if len(walls) >= 2 else 1e3 * walls[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def measure_traced(run: Run, seconds: float, spans_path: Path) -> dict[str, float]:
    """Each job runs untraced, then traced, so both walls cover the same work."""
    import spans as spanlib  # imports numpy, so not before the set-up is timed

    tracer = spanlib.Tracer(run.workloads.traced_functions(), spanlib.package_modules("zalcman"))
    jobs = max(1, math.ceil(TRACE_JOBS_PER_S[run.workload] * seconds))
    plain = run.workloads.JobResult()
    traced_wall = 0.0
    for i in range(jobs):
        # The inputs are made before the wrappers go in, so that only the
        # program's own calls are traced.
        job = run.make(i)
        for label, (secs, units) in run.job(i, job).by_label.items():
            plain.add(label, secs, units)
        tracer.install()
        try:
            traced = run.job(i, job, traced=True)
        finally:
            tracer.uninstall()
        traced_wall += traced.wall

    recorded = tracer.spans()
    recorded.save(spans_path)
    problems = recorded.check(traced_wall)
    if problems:
        raise RuntimeError("inconsistent spans: " + "; ".join(problems))
    calls, selfs = recorded.calls_by_name(), recorded.self_by_name()
    metrics: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, n, s in zip(recorded.names, calls, selfs):
        metrics[f"{name}.calls"] = int(n)
        metrics[f"{name}.self_ms"] = 1e3 * float(s)
        layer_self[name.split(".")[0]] += float(s)
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_share"] = _ratio(s, traced_wall)
    metrics["tracing.unspanned_share"] = _ratio(traced_wall - recorded.root_time(), traced_wall)
    metrics["tracing.overhead_ratio"] = _ratio(traced_wall, plain.wall)
    accepted = metrics["geometry.sample_direction.calls"]
    tried = recorded.children_named("geometry.exceptional_distance", "geometry.sample_direction")
    metrics["geometry.sample_direction.accept_ratio"] = _ratio(accepted, tried)
    for label in CAMPAIGN_LABELS:
        secs, units = plain.by_label.get(label, (0.0, 0))
        metrics[f"campaigns.{label}.us_per_sample"] = 1e6 * _ratio(secs, units)
    metrics["tracing.jobs"] = jobs
    return metrics


def run_workload(args) -> int:
    env = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "loadavg_start": _loadavg(),
    }
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        workdir = Path(tmp)
        try:
            setup_s, workloads, warmup = _setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        import numpy

        env["numpy"] = numpy.__version__
        run = Run(workloads, args.workload, args.seed, workdir, warmup)
        if args.trace:
            spans_path = WORKDIR / f"spans-{args.workload}.npz"
            metrics = measure_traced(run, args.seconds, spans_path)
            units = {k: _layer_unit(k) for k in metrics}
        else:
            setups = [setup_s] + [
                _setup_in_subprocess(args.workload, args.seed) for _ in range(SETUPS - 1)
            ]
            metrics = measure(run, args.seconds, setups)
            units = dict(END_TO_END)
    env["loadavg_end"] = _loadavg()

    print("env " + json.dumps(env))
    for seed, traced, kind, detail in run.problems:
        print(f"FAILED seed={seed} traced={traced} {kind}: {detail}")
    print(f"workload {args.workload} seed {args.seed} jobs {run.attempted} failed {run.failed}")
    print(f"failed_ratio {_ratio(run.failed, run.attempted):.6g} ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "tracing.jobs":
        return "count"
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith(".us_per_sample"):
        return "us"
    return "ratio"


def run_all(args) -> int:
    """Every workload in its own process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
            setup_s, _, _ = _setup(args.workload, args.seed, Path(tmp))
        print(setup_s)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
