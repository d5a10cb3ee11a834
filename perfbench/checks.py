"""Output checks: a job fails unless every report it produced is right.

The checks read the report a command wrote and never trust its pass flag:
a NaN margin compares false against any threshold, so ``passed`` can hide a
violation.  Each problem is returned as (kind, detail); the kinds are

    exit         the command exited nonzero or raised
    format       the report is not strict JSON or CSV, or is inconsistent
    samples      the sample or evaluation count is wrong
    nonfinite    a value or margin is NaN or infinite
    margin       a margin is below -TOLERANCE, or a violation is listed
    bound        a bound campaign's maximum exceeds its bound
    koebe        a campaign that must reach its bound (Koebe saturation) did not
    search       the extremal search missed (m-1)(n-1)
    scan         a starlikeness scan returned the wrong verdict
    witness      a scan witness does not reproduce its h value
    determinism  a repeated job produced different report bytes
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re
from dataclasses import dataclass

TOLERANCE = 1e-9
KOEBE_SLACK = 1e-9
# A witness is replayed through the same arithmetic, so it should agree to
# the last bits; this allows for a different summation order.
WITNESS_RTOL = 1e-12

CSV_HEADER = ["index", "value", "margin", "violation"]

_RUNTIME = re.compile(rb'\n *"runtime_ms": *-?\d+,?')

Problem = tuple[str, str]


@dataclass(frozen=True)
class Expect:
    """What a correct report of one command looks like.

    ``kind`` is "bound" (the maximum must stay under ``bound``), "identity"
    (margins are normalized residual slack) or "search".  ``koebe`` demands
    that the maximum reaches the bound, as the Koebe function does.
    """

    campaign: str
    fmt: str
    samples: int
    bound: float
    kind: str
    koebe: bool = False
    budget: int = 0


def deterministic_bytes(text: bytes) -> bytes:
    """Report bytes without the wall-clock ``runtime_ms`` field."""
    return _RUNTIME.sub(b"", text)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_command(expect: Expect, status, text: bytes | None) -> tuple[int, list[Problem]]:
    """Check one command's exit status and report; returns (units, problems).

    ``status`` is the exit code, or a string describing what it raised.
    Units are the work the report says it did: samples, or evaluations for
    the search.
    """
    problems: list[Problem] = []
    if status != 0:
        problems.append(("exit", f"{expect.campaign}: {status}"))
    if text is None:
        problems.append(("format", f"{expect.campaign}: no report written"))
        return 0, problems
    try:
        if expect.fmt == "json":
            units = _check_json(expect, text, problems)
        else:
            units = _check_csv(expect, text, problems)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(("format", f"{expect.campaign}: {type(exc).__name__}: {exc}"))
        units = 0
    return units, problems


def _check_extreme(expect: Expect, max_value: float, problems: list[Problem]) -> None:
    name = expect.campaign
    if expect.kind in ("bound", "search") and max_value > expect.bound + TOLERANCE:
        problems.append(("bound", f"{name}: max {max_value!r} over bound {expect.bound}"))
    if expect.koebe and max_value < expect.bound - KOEBE_SLACK:
        problems.append(("koebe", f"{name}: max {max_value!r} never reaches {expect.bound}"))
    if expect.kind == "search" and abs(max_value - expect.bound) > TOLERANCE:
        problems.append(("search", f"{name}: found {max_value!r}, expected {expect.bound}"))


def _check_json(expect: Expect, text: bytes, problems: list[Problem]) -> int:
    name = expect.campaign
    obj = json.loads(text, parse_constant=_reject_constant)
    if obj["campaign"] != name:
        problems.append(("format", f"{name}: report is for {obj['campaign']!r}"))
    if not isinstance(obj["runtime_ms"], int):
        problems.append(("format", f"{name}: runtime_ms is not an integer"))
    if obj["samples"] != expect.samples:
        problems.append(("samples", f"{name}: {obj['samples']} samples, expected {expect.samples}"))
    values = {key: obj[key] for key in ("max_value", "bound", "min_margin")}
    bad = [key for key, v in values.items() if not _finite(v)]
    if bad:
        problems.append(("nonfinite", f"{name}: {', '.join(bad)} not finite"))
        return 0
    if values["bound"] != expect.bound:
        problems.append(("bound", f"{name}: bound {values['bound']!r}, expected {expect.bound}"))
    if values["min_margin"] < -TOLERANCE:
        problems.append(("margin", f"{name}: min margin {values['min_margin']!r}"))
    if obj["violations"]:
        problems.append(("margin", f"{name}: {len(obj['violations'])} violations listed"))
    _check_extreme(expect, values["max_value"], problems)
    if expect.kind != "search":
        return obj["samples"]
    evaluations = obj["extras"]["evaluations"]
    if not isinstance(evaluations, int) or not 0 < evaluations <= expect.budget:
        problems.append(("samples", f"{name}: {evaluations!r} evaluations, budget {expect.budget}"))
        return 0
    return evaluations


def _check_csv(expect: Expect, text: bytes, problems: list[Problem]) -> int:
    name = expect.campaign
    rows = list(csv.reader(io.StringIO(text.decode("utf-8"), newline="")))
    if rows[0] != CSV_HEADER or rows[-1][0] != "aggregate" or len(rows[-1]) != 4:
        raise ValueError("missing header or aggregate footer")
    body = rows[1:-1]
    if len(body) != expect.samples:
        problems.append(("samples", f"{name}: {len(body)} rows, expected {expect.samples}"))
    values, margins = [], []
    for k, row in enumerate(body):
        if len(row) != 4 or int(row[0]) != k:
            raise ValueError(f"row {k} is malformed: {row!r}")
        values.append(float(row[1]))
        margins.append(float(row[2]))
        if row[3] != "0":
            problems.append(("margin", f"{name}: row {k} is flagged as a violation"))
    nonfinite = sum(not math.isfinite(x) for x in values + margins)
    if nonfinite:
        problems.append(("nonfinite", f"{name}: {nonfinite} values or margins not finite"))
        return len(body)
    low = [k for k, m in enumerate(margins) if m < -TOLERANCE]
    if low:
        problems.append(("margin", f"{name}: {len(low)} rows below -tolerance, first {low[0]}"))
    footer = rows[-1]
    if body and (float(footer[1]) != max(values) or float(footer[2]) != min(margins)):
        problems.append(("format", f"{name}: aggregate footer disagrees with the rows"))
    if footer[3] != "0":
        problems.append(("margin", f"{name}: footer counts {footer[3]} violations"))
    if values:
        _check_extreme(expect, max(values), problems)
    return len(body)


def check_scan(report, spec, expect_pass: bool, samples: int, h_eval) -> list[Problem]:
    """Check a starlikeness scan of ``spec`` against the expected verdict.

    ``h_eval(spec, direction, zeta)`` is the library's transfer function; a
    witness must reproduce its h value through it.
    """
    problems: list[Problem] = []
    if report.samples != samples:
        problems.append(("samples", f"scan: {report.samples} samples, expected {samples}"))
    if not math.isfinite(report.min_real):
        problems.append(("nonfinite", f"scan: min Re h is {report.min_real!r}"))
    if report.passed != expect_pass or (expect_pass and report.min_real <= 0.0):
        verdict = "pass" if expect_pass else "a witness"
        problems.append(("scan", f"scan: expected {verdict}, min Re h {report.min_real!r}"))
    w = report.witness
    if w is not None:
        h = h_eval(spec, list(w.direction), w.zeta)
        if not cmath.isfinite(h) or abs(h - w.h_value) > WITNESS_RTOL * max(1.0, abs(h)):
            problems.append(("witness", f"scan: h_eval gives {h!r}, witness says {w.h_value!r}"))
        elif h.real > 0.0:
            problems.append(("witness", f"scan: witness has Re h = {h.real!r} > 0"))
    return problems
