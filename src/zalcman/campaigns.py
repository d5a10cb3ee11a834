"""Seeded verification campaigns with machine-readable reports.

Each campaign replays one of the package's inequality or identity suites
over a deterministic pseudo-random stream, so reports are reproducible,
order-independent, and safe to shard.  In the one-variable campaigns
(caratheodory, zalcman1d) sample i is a pure function of (seed, i) under
the counter-based stream of ``herglotz.uniforms``, and the samples go
through one vectorised kernel in blocks of ``herglotz.SAMPLE_BLOCK`` rows;
the several-variables campaigns draw sample i from
``np.random.default_rng(subseed(seed, i))``.  Bound campaigns
(caratheodory, zalcman1d, ball, domain) track the raw functional value
against its theorem bound; identity campaigns (gradients, reduction,
sharpness) track residuals normalized by their per-check tolerance, so a
margin below -tolerance always means a genuine defect regardless of
campaign kind.

A runner returns the values and margins of all its rows plus a function
that builds the witness of row i by replaying sample i.  The pass/fail
gate lives in ``run_campaign`` alone: a row is a violation when its margin
is not >= -tolerance, so a NaN margin always fails the report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    SpaceSpec,
    l1_space,
    lp_space,
    minkowski_gradient,
    rho,
    sample_direction,
    sample_point,
    sup_space,
    wirtinger_fd_gradient,
)
from .herglotz import batch_margins, sample_blocks, sample_measure
from .mappings import (
    closed_form_values,
    functional_A,
    functional_B,
    make_extremal_ball,
    make_extremal_domain,
    reduction_crosscheck,
    sample_lifted_spec,
    zalcman_nd,
)
from .starlike import ZalcmanOrder, search_extremal, zalcman_values

DEFAULT_TOLERANCE = 1e-9

# Version of the report contract.  2: the one-variable campaigns draw their
# samples from the counter-based stream, and JSON reports carry this key.
REPORT_VERSION = 2

# Per-check residual tolerances for the identity campaigns; margins are
# reported as 1 - residual/tolerance so the pass criterion is uniform.
EULER_TOL = 1e-12
GRAD_COVARIANCE_TOL = 1e-12
GRAD_FD_TOL = 1e-6
GRAD_MIN_GAP = 0.05
REDUCTION_TOL = 1e-10
DUAL_PATH_TOL = 1e-12
SHARPNESS_TOL = 1e-12

BOUND_CAMPAIGNS = ("caratheodory", "zalcman1d", "ball", "domain")
IDENTITY_CAMPAIGNS = ("gradients", "reduction", "sharpness")
CAMPAIGNS = BOUND_CAMPAIGNS + IDENTITY_CAMPAIGNS + ("search",)

_ND_CAMPAIGNS = frozenset(("ball", "domain", "gradients", "reduction", "sharpness"))


class UsageError(ValueError):
    """Inconsistent or unsupported campaign configuration."""


def subseed(seed: int, index: int) -> np.random.SeedSequence:
    """Splittable per-sample seed; independent of evaluation order."""
    return np.random.SeedSequence(entropy=(seed, index))


@dataclass(frozen=True)
class CampaignConfig:
    campaign: str
    seed: int = 0
    samples: int = 1000
    dim: int = 2
    norm: str = "l2"
    order: tuple[int, int] = (2, 3)
    budget: int = 4000
    tolerance: float = DEFAULT_TOLERANCE
    out: str | None = None
    format: str = "json"


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate outcome plus per-sample rows (index, value, margin).

    ``violations`` holds serialized witnesses; it is nonempty exactly when
    some margin is not >= -tolerance (a NaN margin included).
    ``runtime_ms`` is wall-clock and is the one field not reproducible from
    the config.
    """

    campaign: str
    seed: int
    samples: int
    max_value: float
    bound: float
    min_margin: float
    violations: tuple[dict, ...]
    runtime_ms: int
    rows: tuple[tuple[int, float, float], ...] = field(repr=False)
    extras: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        obj = {
            "version": REPORT_VERSION,
            "campaign": self.campaign,
            "seed": self.seed,
            "samples": self.samples,
            "max_value": self.max_value,
            "bound": self.bound,
            "min_margin": self.min_margin,
            "violations": list(self.violations),
            "runtime_ms": self.runtime_ms,
        }
        if self.extras is not None:
            obj["extras"] = self.extras
        return obj


def space_of(cfg: CampaignConfig) -> SpaceSpec:
    """SpaceSpec for the --norm token: l2, sup, l1, or lp:P."""
    token = cfg.norm
    if token == "l2":
        return lp_space(cfg.dim, 2.0)
    if token == "sup":
        return sup_space(cfg.dim)
    if token == "l1":
        return l1_space(cfg.dim)
    if token.startswith("lp:"):
        try:
            p = float(token[3:])
        except ValueError as exc:
            raise UsageError(f"bad norm token {token!r}") from exc
        if not 1.0 < p < float("inf"):
            raise UsageError("lp norm needs 1 < p < inf")
        return lp_space(cfg.dim, p)
    raise UsageError(f"unknown norm {token!r} (expected l2, sup, l1, or lp:P)")


def _complex_list(v) -> list[list[float]]:
    return [[c.real, c.imag] for c in np.asarray(v, dtype=complex)]


def violation_rows(margins: np.ndarray, tolerance: float) -> np.ndarray:
    """Indices of the rows whose margin is not >= -tolerance; a NaN margin
    is a violation."""
    return np.flatnonzero(~(margins >= -tolerance))


def _worst(residuals) -> float:
    """The largest residual, or NaN if any residual is NaN (``max`` would
    skip a NaN that is not first)."""
    top = -math.inf
    for r in residuals:
        if r != r:
            return math.nan
        if r > top:
            top = r
    return top


def _run_caratheodory(cfg: CampaignConfig, _space):
    margins = np.concatenate(
        [batch_margins(w, a).min(axis=1) for _, w, a in sample_blocks(cfg.seed, cfg.samples)]
    )

    def witness(i):
        mu = sample_measure(cfg.seed, i)
        return {"index": i, "measure": mu.to_json(), "margins": list(mu.margins())}

    return 2.0 - margins, margins, witness, 2.0, None


def _run_zalcman1d(cfg: CampaignConfig, _space):
    order = ZalcmanOrder(*cfg.order)
    values = np.concatenate(
        [zalcman_values(w, a, order) for _, w, a in sample_blocks(cfg.seed, cfg.samples)]
    )

    def witness(i):
        measure = sample_measure(cfg.seed, i).to_json()
        return {"index": i, "measure": measure, "value": float(values[i])}

    return values, order.bound - values, witness, order.bound, None


def _lifted_sample(cfg: CampaignConfig, space: SpaceSpec, i: int):
    """(spec, z) of sample i of a several-variables campaign."""
    rng = np.random.default_rng(subseed(cfg.seed, i))
    spec = sample_lifted_spec(space, rng)
    return spec, sample_point(space, rng)


def _run_lifted_bound(cfg: CampaignConfig, space: SpaceSpec, mode: str):
    values = [
        zalcman_nd(space, *_lifted_sample(cfg, space, i), mode=mode).zalcman
        for i in range(cfg.samples)
    ]

    def witness(i):
        spec, z = _lifted_sample(cfg, space, i)
        return {"index": i, "spec": spec.to_json(), "z": _complex_list(z), "value": values[i]}

    return values, [2.0 - v for v in values], witness, 2.0, None


def _run_ball(cfg, space):
    return _run_lifted_bound(cfg, space, "ball")


def _run_domain(cfg, space):
    return _run_lifted_bound(cfg, space, "domain")


def _gradient_sample(cfg: CampaignConfig, space: SpaceSpec, i: int):
    """(z, residuals) of sample i of the gradients campaign."""
    rng = np.random.default_rng(subseed(cfg.seed, i))
    z = sample_direction(space, rng, min_gap=GRAD_MIN_GAP)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    grad = minkowski_gradient(space, z)
    euler = abs(2.0 * grad(z) - rho(space, z))
    scaled = minkowski_gradient(space, 0.5 * z)
    scale_res = _worst(abs(a - b) for a, b in zip(scaled.entries, grad.entries))
    ph = np.exp(1j * theta)
    rotated = minkowski_gradient(space, ph * z)
    phase_res = _worst(
        abs(a - np.conj(ph) * b) for a, b in zip(rotated.entries, grad.entries)
    )
    fd = wirtinger_fd_gradient(space, z)
    scale = _worst(abs(b) for b in grad.entries)
    fd_res = _worst(abs(a - b) for a, b in zip(fd.entries, grad.entries)) / scale
    residuals = {
        "euler": euler / EULER_TOL,
        "scale": scale_res / GRAD_COVARIANCE_TOL,
        "phase": phase_res / GRAD_COVARIANCE_TOL,
        "fd": fd_res / GRAD_FD_TOL,
    }
    return z, residuals


def _run_gradients(cfg: CampaignConfig, space: SpaceSpec):
    """Euler identity, scale/phase covariance, and the finite-difference
    cross-check of the gauge gradient, on sphere points well off E (the
    FD stencil needs quantitative smoothness, not just z not in E)."""
    values = [
        _worst(_gradient_sample(cfg, space, i)[1].values()) for i in range(cfg.samples)
    ]

    def witness(i):
        z, residuals = _gradient_sample(cfg, space, i)
        return {"index": i, "z": _complex_list(z), "residuals": residuals}

    return values, [1.0 - v for v in values], witness, 1.0, None


def _reduction_residuals(space: SpaceSpec, spec, z) -> tuple[float, float]:
    """Scalar-reduction residual, and the largest disagreement of the
    closed-form functionals with their explicit pairing and gradient routes."""
    red = reduction_crosscheck(space, spec, z)
    dual = []
    for k in (2, 3, 4):
        a0 = functional_A(space, spec, z, k)
        a1 = functional_A(space, spec, z, k, method="pairing")
        b1 = functional_B(space, spec, z, k, method="gradient")
        dual += [abs(a0 - a1), abs(a0 - b1)]
    return red, _worst(dual)


def _run_reduction(cfg: CampaignConfig, space: SpaceSpec):
    values = []
    for i in range(cfg.samples):
        red, dual = _reduction_residuals(space, *_lifted_sample(cfg, space, i))
        values.append(_worst((red / REDUCTION_TOL, dual / DUAL_PATH_TOL)))

    def witness(i):
        spec, z = _lifted_sample(cfg, space, i)
        red, dual = _reduction_residuals(space, spec, z)
        return {
            "index": i,
            "spec": spec.to_json(),
            "z": _complex_list(z),
            "reduction_residual": red,
            "dual_path_residual": dual,
        }

    return values, [1.0 - v for v in values], witness, 1.0, None


def _dyadic_direction(space: SpaceSpec) -> np.ndarray:
    """Unit-gauge direction (1, 1/2, 1/4, ...) / rho: off E for every family."""
    u = np.array([2.0 ** -k for k in range(space.dim)], dtype=complex)
    return u / rho(space, u)


def _run_sharpness(cfg: CampaignConfig, space: SpaceSpec):
    """Extremal maps on their designated rays hit the bound to 1e-12.

    Ball mode uses a generic smooth direction through ``zalcman_nd``.
    Domain mode pins the first coordinate to the slice radius r = 1; for
    gauges whose sphere is not smooth along that axis (l1 and lp with
    p < 2) that point lies on E, so the functionals are evaluated by their
    continuous extension ``closed_form_values``, since the closed form
    f_{k-1}(z)/rho^{k-1} does not involve the gradient at all.
    """
    u = _dyadic_direction(space)
    fv = zalcman_nd(space, make_extremal_ball(space, u), 0.75 * u, mode="ball")
    zd = 0.75 * (u if space.kind == "sup" else np.eye(space.dim, dtype=complex)[0])
    checks = [
        ("ball", fv.values, fv.zalcman),
        ("domain", *closed_form_values(make_extremal_domain(space, 1.0), zd, rho(space, zd))),
    ]

    defects = [
        _worst((abs(vals[0] - 2.0), abs(vals[1] - 3.0), abs(vals[2] - 4.0), abs(zalc - 2.0)))
        for _, vals, zalc in checks
    ]

    def witness(i):
        return {"index": i, "mode": checks[i][0], "defect": defects[i]}

    margins = [1.0 - d / SHARPNESS_TOL for d in defects]
    return [zalc for _, _, zalc in checks], margins, witness, 2.0, None


def _run_search(cfg: CampaignConfig, _space):
    order = ZalcmanOrder(*cfg.order)
    result = search_extremal(order, cfg.budget, cfg.seed)

    def witness(i):
        return {"index": i, "measure": result.measure.to_json(), "value": result.value}

    extras = {
        "order": list(cfg.order),
        "budget": cfg.budget,
        "evaluations": result.evaluations,
        "best_measure": result.measure.to_json(),
    }
    return [result.value], [order.bound - result.value], witness, order.bound, extras


_RUNNERS = {
    "caratheodory": _run_caratheodory,
    "zalcman1d": _run_zalcman1d,
    "ball": _run_ball,
    "domain": _run_domain,
    "gradients": _run_gradients,
    "reduction": _run_reduction,
    "sharpness": _run_sharpness,
    "search": _run_search,
}


def _validate(cfg: CampaignConfig) -> SpaceSpec | None:
    if cfg.campaign not in _RUNNERS:
        raise UsageError(f"unknown campaign {cfg.campaign!r}")
    if cfg.seed < 0:
        raise UsageError("seed must be >= 0")
    if cfg.samples < 1:
        raise UsageError("samples must be >= 1")
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        raise UsageError("tolerance must be finite and positive")
    if cfg.format not in ("json", "csv"):
        raise UsageError(f"unknown format {cfg.format!r}")
    if cfg.campaign in ("zalcman1d", "search"):
        try:
            ZalcmanOrder(*cfg.order)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if cfg.campaign == "search" and cfg.budget < 0:
        raise UsageError("budget must be >= 0")
    if cfg.campaign in _ND_CAMPAIGNS:
        if cfg.dim < 2:
            raise UsageError(f"campaign {cfg.campaign!r} needs dim >= 2")
        try:
            return space_of(cfg)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return None


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute the configured campaign; the report (runtime aside) is a
    pure function of the config."""
    space = _validate(cfg)
    start = time.perf_counter()
    values, margins, witness, bound, extras = _RUNNERS[cfg.campaign](cfg, space)
    values = np.asarray(values, dtype=float)
    margins = np.asarray(margins, dtype=float)
    violations = [witness(int(i)) for i in violation_rows(margins, cfg.tolerance)]
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))
    return CampaignReport(
        campaign=cfg.campaign,
        seed=cfg.seed,
        samples=len(values),
        max_value=float(values.max()),
        bound=bound,
        min_margin=float(margins.min()),
        violations=tuple(violations),
        runtime_ms=runtime_ms,
        rows=tuple(zip(range(len(values)), values.tolist(), margins.tolist())),
        extras=extras,
    )


def _strict(obj):
    """``obj`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def render_report(report: CampaignReport, fmt: str = "json") -> str:
    """Serialize a report; identical reports produce identical bytes.

    JSON carries the aggregate structure and witnesses; it is strict JSON,
    with non-finite numbers written as null.  CSV has one row per sample
    plus an ``aggregate`` footer with the summary columns.
    """
    if fmt == "json":
        return json.dumps(_strict(report.to_json()), indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        flagged = {v["index"] for v in report.violations if "index" in v}
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["index", "value", "margin", "violation"])
        for i, value, margin in report.rows:
            w.writerow([i, repr(value), repr(margin), int(i in flagged)])
        w.writerow(
            [
                "aggregate",
                repr(report.max_value),
                repr(report.min_margin),
                len(report.violations),
            ]
        )
        return buf.getvalue()
    raise UsageError(f"unknown format {fmt!r}")


def emit_report(report: CampaignReport, fmt: str = "json", path: str | None = None) -> None:
    """Write the rendered report to a file, or stdout when path is None."""
    text = render_report(report, fmt)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
