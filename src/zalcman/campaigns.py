"""Seeded verification campaigns with machine-readable reports.

Each campaign replays one of the package's inequality or identity suites
over a deterministic pseudo-random stream, so reports are reproducible,
order-independent, and safe to shard.  In every sampled campaign
(caratheodory, zalcman1d, ball, domain, gradients, reduction) sample i is a
pure function of (seed, i) under the counter-based stream of
``herglotz.uniforms``, and ``_walk``, the one loop over a run's samples,
hands blocks of at most ``SAMPLE_BLOCK`` indices to one vectorised kernel:
``sample_batch`` and the moment kernel in one variable; ``mappings.spec_rows``,
``geometry.point_rows``/``sphere_rows``, the batched gauge and covector
kernels and ``starlike.batch_coeffs`` in several.  A block takes the
draws of its samples in one ``uniforms`` call and hands each sampler the
columns it reads.  A sample that lands near the exceptional set draws its
next attempt from further draw indices of its own stream, so it stays a
pure function of (seed, i).  Bound campaigns
(caratheodory, zalcman1d, ball, domain) track the raw functional value
against its theorem bound; identity campaigns (gradients, reduction,
sharpness) track residuals normalized by their per-check tolerance, so a
margin below -TOLERANCE always means a genuine defect regardless of
campaign kind.

A runner returns the values and margins of all its rows plus a function
that builds the witness of row i by replaying sample i.  The pass/fail
gate lives in ``run_campaign`` alone: a row is a violation when its margin
is not >= -TOLERANCE, a fixed 1e-9 that no config changes, so a NaN margin
always fails the report.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ExceptionalPoint,
    SamplingError,
    SpaceSpec,
    fd_gradient_rows,
    gradient_rows,
    l1_space,
    lp_space,
    pair,
    point_rows,
    rho,
    sphere_rows,
    sup_space,
)
from .herglotz import batch_margins, modulus, sample_batch, sample_measure, uniforms
from .mappings import (
    LiftedMapSpec,
    closed_form_values,
    make_extremal_ball,
    make_extremal_domain,
    reduction_rows,
    spec_draws,
    spec_rows,
    zalcman_rows,
)
from .starlike import MAX_BUDGET, ZalcmanOrder, search_extremal, zalcman_values

# A margin below -TOLERANCE is a violation.
TOLERANCE = 1e-9

# Version of the report contract; CHANGES.md records what each bump changed.
REPORT_VERSION = 8

# Per-check residual tolerances for the identity campaigns; margins are
# reported as 1 - residual/tolerance so the pass criterion is uniform.
EULER_TOL = 1e-12
GRAD_COVARIANCE_TOL = 1e-12
GRAD_FD_TOL = 1e-6
GRAD_MIN_GAP = 0.05
REDUCTION_TOL = 1e-10
DUAL_PATH_TOL = 1e-12
SHARPNESS_TOL = 1e-12

# Order of the normalized residuals of a gradients sample.
GRADIENT_CHECKS = ("euler", "scale", "phase", "fd")

# Rows per block when a run walks its samples, so that the batch
# temporaries stay a few MB however many samples the run has.
SAMPLE_BLOCK = 10_000

# A several-variables block holds at most this many rows x dim, so its
# atom arrays stay a few MB whatever the dimension.
LIFTED_BLOCK_ENTRIES = 50_000


class UsageError(ValueError):
    """Inconsistent or unsupported campaign configuration."""


def subseed(seed: int, index: int) -> np.random.SeedSequence:
    """Splittable per-sample seed for Generator-driven callers outside the
    package; every sampler of the package reads the counter stream."""
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


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate outcome plus the values and margins arrays: read-only
    float64 arrays with one entry per sample.

    ``config`` maps each setting the campaign read to its value.
    ``violations`` holds serialized witnesses; it is nonempty exactly when
    some margin is not >= -TOLERANCE (a NaN margin included).
    ``runtime_ms`` is wall-clock and is the one field not reproducible from
    the config.  Equality compares the aggregate fields, ``config`` and
    ``extras`` only: two reports that differ only in their values or margins are
    equal.
    """

    campaign: str
    seed: int
    config: dict
    samples: int
    max_value: float
    bound: float
    min_margin: float
    violations: tuple[dict, ...]
    runtime_ms: int
    values: np.ndarray = field(repr=False, compare=False)
    margins: np.ndarray = field(repr=False, compare=False)
    extras: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        obj = {
            "version": REPORT_VERSION,
            "campaign": self.campaign,
            "seed": self.seed,
            "config": self.config,
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
    """SpaceSpec for the --norm token: l2, sup, l1, or lp:P; SpaceSpec
    raises ValueError unless 1 < P < inf."""
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
        return lp_space(cfg.dim, p)
    raise UsageError(f"unknown norm {token!r} (expected l2, sup, l1, or lp:P)")


def _complex_list(v) -> list[list[float]]:
    return [[c.real, c.imag] for c in np.asarray(v, dtype=complex)]


def violation_rows(margins: np.ndarray) -> np.ndarray:
    """Indices of the rows whose margin is not >= -TOLERANCE; a NaN margin
    is a violation."""
    return np.flatnonzero(~(margins >= -TOLERANCE))


def _walk(cfg: CampaignConfig, space: SpaceSpec | None, rows) -> np.ndarray:
    """``rows(indices)`` of every block of the sample indices 0..samples-1,
    concatenated in sample order.  A block holds at most SAMPLE_BLOCK
    indices, and at most LIFTED_BLOCK_ENTRIES // dim in several variables
    (``space`` is None in one variable)."""
    dim = 1 if space is None else space.dim
    block = min(SAMPLE_BLOCK, max(1, LIFTED_BLOCK_ENTRIES // dim))
    starts = range(0, cfg.samples, block)
    return np.concatenate([rows(np.arange(first, min(first + block, cfg.samples))) for first in starts])


def _run_caratheodory(cfg: CampaignConfig, space):
    margins = _walk(cfg, space, lambda idx: batch_margins(*sample_batch(cfg.seed, idx)).min(axis=1))

    def witness(i):
        mu = sample_measure(cfg.seed, i)
        return {"index": i, "measure": mu.to_json(), "margins": list(mu.margins())}

    return 2.0 - margins, margins, witness, 2.0, None


def _run_zalcman1d(cfg: CampaignConfig, space):
    order = ZalcmanOrder(*cfg.order)
    values = _walk(cfg, space, lambda idx: zalcman_values(*sample_batch(cfg.seed, idx), order))

    def witness(i):
        measure = sample_measure(cfg.seed, i).to_json()
        return {"index": i, "measure": measure, "value": float(values[i])}

    return values, order.bound - values, witness, order.bound, None


def _lifted_rows(cfg: CampaignConfig, space: SpaceSpec, indices: np.ndarray):
    """(weights, covectors, points) of the given samples of ball, domain and
    reduction, from one ``uniforms`` call: the map from the first
    ``spec_draws`` draws of each sample, the point from the 1 + 2 dim draws
    after them (a rejected first direction draws its own further ones)."""
    draws = spec_draws(space)
    u = uniforms(cfg.seed, indices, draws + 1 + 2 * space.dim)
    lams, covs = spec_rows(space, u[:, :draws])
    return lams, covs, point_rows(space, u[:, draws:], cfg.seed, indices, draws)


def _lifted_sample(cfg: CampaignConfig, space: SpaceSpec, i: int):
    """(spec, z) of sample i of a several-variables campaign: its row of a
    batch of one."""
    lams, covs, z = _lifted_rows(cfg, space, np.array([i]))
    return LiftedMapSpec.from_row(lams[0], covs[0]), z[0]


def _run_lifted_bound(cfg: CampaignConfig, space: SpaceSpec):
    """|A2 A3 - A4| of sampled maps and points, for ball and domain alike:
    both normalizations reduce to the closed form of ``zalcman_rows``."""
    values = _walk(cfg, space, lambda idx: zalcman_rows(space, *_lifted_rows(cfg, space, idx))[1])

    def witness(i):
        spec, z = _lifted_sample(cfg, space, i)
        return {"index": i, "spec": spec.to_json(), "z": _complex_list(z), "value": float(values[i])}

    return values, 2.0 - values, witness, 2.0, None


def _gradient_residuals(space: SpaceSpec, z: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(rows, 4) residuals of the gauge-gradient laws at the unit-gauge
    rows of z, each over its tolerance, in GRADIENT_CHECKS order: the Euler
    identity 2 (d rho/dz) z = rho, covariance under z -> z/2 and under
    z -> e^{i theta} z, and the finite-difference cross-check relative to
    the largest gradient entry."""
    grad = gradient_rows(space, z)
    euler = modulus(2.0 * pair(grad, z) - rho(space, z))
    scale = modulus(gradient_rows(space, 0.5 * z) - grad).max(axis=1)
    ph = np.exp(1j * theta)[:, None]
    phase = modulus(gradient_rows(space, ph * z) - np.conj(ph) * grad).max(axis=1)
    fd = modulus(fd_gradient_rows(space, z) - grad).max(axis=1) / modulus(grad).max(axis=1)
    return np.stack(
        [euler / EULER_TOL, scale / GRAD_COVARIANCE_TOL, phase / GRAD_COVARIANCE_TOL, fd / GRAD_FD_TOL],
        axis=1,
    )


def _gradient_rows(cfg: CampaignConfig, space: SpaceSpec, indices: np.ndarray):
    """(z, residuals) of the given samples of the gradients campaign, from
    one ``uniforms`` call: the rotation angle from draw 0, the sphere point
    from the 2 dim draws after it (a rejected one draws its own further ones)."""
    u = uniforms(cfg.seed, indices, 1 + 2 * space.dim)
    z = sphere_rows(space, u[:, 1:], cfg.seed, indices, 1, GRAD_MIN_GAP)
    return z, _gradient_residuals(space, z, 2.0 * np.pi * u[:, 0])


def _gradient_sample(cfg: CampaignConfig, space: SpaceSpec, i: int):
    """(z, residuals) of sample i of the gradients campaign: its row of a
    batch of one."""
    z, residuals = _gradient_rows(cfg, space, np.array([i]))
    return z[0], dict(zip(GRADIENT_CHECKS, residuals[0].tolist()))


def _run_gradients(cfg: CampaignConfig, space: SpaceSpec):
    """Euler identity, scale/phase covariance, and the finite-difference
    cross-check of the gauge gradient, on sphere points well off E (the
    FD stencil needs quantitative smoothness, not just z not in E)."""
    values = _walk(cfg, space, lambda idx: _gradient_rows(cfg, space, idx)[1].max(axis=1))

    def witness(i):
        z, residuals = _gradient_sample(cfg, space, i)
        return {"index": i, "z": _complex_list(z), "residuals": residuals}

    return values, 1.0 - values, witness, 1.0, None


def _run_reduction(cfg: CampaignConfig, space: SpaceSpec):
    """The scalar-reduction identities and the agreement of the closed form
    with its pairing route (``mappings.reduction_rows``)."""

    def rows(indices):
        red, dual = reduction_rows(space, *_lifted_rows(cfg, space, indices))
        return np.maximum(red / REDUCTION_TOL, dual / DUAL_PATH_TOL)

    values = _walk(cfg, space, rows)

    def witness(i):
        spec, z = _lifted_sample(cfg, space, i)
        red, dual = reduction_rows(space, *spec.padded(), z[None])
        return {
            "index": i,
            "spec": spec.to_json(),
            "z": _complex_list(z),
            "reduction_residual": float(red[0]),
            "dual_path_residual": float(dual[0]),
        }

    return values, 1.0 - values, witness, 1.0, None


def _dyadic_direction(space: SpaceSpec) -> np.ndarray:
    """Unit-gauge direction (1, 1/2, 1/4, ...) / rho: off E for every family."""
    u = np.array([2.0 ** -k for k in range(space.dim)], dtype=complex)
    return u / rho(space, u)


def _run_sharpness(cfg: CampaignConfig, space: SpaceSpec):
    """Extremal maps on their designated rays hit the bound to 1e-12.

    Ball mode takes the map of a generic smooth direction u (a usage error
    where u is within EXC_EPS of E) at 0.75 u.  Domain mode pins the first
    coordinate to the slice radius r = 1, on E for l1 and lp with p < 2.
    Both are evaluated by the continuous extension ``closed_form_values``:
    the closed form f_{k-1}(z/rho) does not involve the gradient at all.
    """
    u = _dyadic_direction(space)
    try:
        ball = make_extremal_ball(space, u)
    except ExceptionalPoint as exc:
        raise UsageError(f"{exc} in C^{space.dim}; lower --dim") from exc
    zd = 0.75 * (u if space.kind == "sup" else np.eye(space.dim, dtype=complex)[0])
    rays = [("ball", ball, 0.75 * u), ("domain", make_extremal_domain(space), zd)]
    checks = [(mode, *closed_form_values(spec, z, rho(space, z))) for mode, spec, z in rays]

    # np.max, unlike max, returns NaN when any residual is NaN.
    defects = [
        float(np.max((abs(vals[0] - 2.0), abs(vals[1] - 3.0), abs(vals[2] - 4.0), abs(zalc - 2.0))))
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

    extras = {"evaluations": result.evaluations, "best_measure": result.measure.to_json()}
    return [result.value], [order.bound - result.value], witness, order.bound, extras


# Every campaign: its runner and the CampaignConfig settings it reads.
CAMPAIGNS = {
    "caratheodory": (_run_caratheodory, ("samples",)),
    "zalcman1d": (_run_zalcman1d, ("samples", "order")),
    "ball": (_run_lifted_bound, ("samples", "dim", "norm")),
    "domain": (_run_lifted_bound, ("samples", "dim", "norm")),
    "gradients": (_run_gradients, ("samples", "dim", "norm")),
    "reduction": (_run_reduction, ("samples", "dim", "norm")),
    "sharpness": (_run_sharpness, ("dim", "norm")),
    "search": (_run_search, ("order", "budget")),
}


def _validate(cfg: CampaignConfig) -> SpaceSpec | None:
    """Check the seed and each setting the campaign reads; the gauge when
    it reads one."""
    if cfg.campaign not in CAMPAIGNS:
        raise UsageError(f"unknown campaign {cfg.campaign!r}")
    settings = CAMPAIGNS[cfg.campaign][1]
    if cfg.seed < 0:
        raise UsageError("seed must be >= 0")
    if "samples" in settings and cfg.samples < 1:
        raise UsageError("samples must be >= 1")
    if "order" in settings:
        try:
            ZalcmanOrder(*cfg.order)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if "budget" in settings and not 0 <= cfg.budget <= MAX_BUDGET:
        raise UsageError(f"budget must be between 0 and {MAX_BUDGET}")
    if "dim" in settings and cfg.dim < 2:
        raise UsageError(f"campaign {cfg.campaign!r} needs dim >= 2")
    if "norm" not in settings:
        return None
    try:
        return space_of(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Execute the configured campaign; the report (runtime aside) is a
    pure function of the config."""
    space = _validate(cfg)
    runner, settings = CAMPAIGNS[cfg.campaign]
    start = time.perf_counter()
    try:
        values, margins, witness, bound, extras = runner(cfg, space)
    except SamplingError as exc:
        raise UsageError(f"{exc}; lower --dim") from exc
    values = np.asarray(values, dtype=float)
    margins = np.asarray(margins, dtype=float)
    values.flags.writeable = margins.flags.writeable = False
    violations = [witness(int(i)) for i in violation_rows(margins)]
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))
    return CampaignReport(
        campaign=cfg.campaign,
        seed=cfg.seed,
        config={name: getattr(cfg, name) for name in settings},
        samples=len(values),
        max_value=float(values.max()),
        bound=bound,
        min_margin=float(margins.min()),
        violations=tuple(violations),
        runtime_ms=runtime_ms,
        values=values,
        margins=margins,
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


def _csv_chunks(report: CampaignReport):
    """The CSV text of a report: the header, one string per block of at
    most SAMPLE_BLOCK rows, and the ``aggregate`` footer.  Every cell is
    the Python repr of its number, as ``csv.writer`` wrote them."""
    yield "index,value,margin,violation\n"
    n = len(report.values)
    flags = np.zeros(n, dtype=np.int8)
    flags[[v["index"] for v in report.violations]] = 1
    for first in range(0, n, SAMPLE_BLOCK):
        last = min(first + SAMPLE_BLOCK, n)
        cells = [None] * (4 * (last - first))
        cells[0::4] = range(first, last)
        cells[1::4] = report.values[first:last].tolist()
        cells[2::4] = report.margins[first:last].tolist()
        cells[3::4] = flags[first:last].tolist()
        yield ("%d,%r,%r,%d\n" * (last - first)) % tuple(cells)
    yield "aggregate,%r,%r,%d\n" % (report.max_value, report.min_margin, len(report.violations))


def _report_chunks(report: CampaignReport, fmt: str):
    """The rendered report as an iterable of strings; raises UsageError on
    an unknown format before any is produced."""
    if fmt == "json":
        return (json.dumps(_strict(report.to_json()), indent=2, allow_nan=False) + "\n",)
    if fmt == "csv":
        return _csv_chunks(report)
    raise UsageError(f"unknown format {fmt!r}")


def render_report(report: CampaignReport, fmt: str = "json") -> str:
    """Serialize a report; identical reports produce identical bytes.

    JSON carries the aggregate structure and witnesses; it is strict JSON,
    with non-finite numbers written as null.  CSV has one row per sample
    plus an ``aggregate`` footer with the summary columns; its cells are
    Python reprs, so non-finite numbers are written nan, inf and -inf.
    """
    return "".join(_report_chunks(report, fmt))


def emit_report(report: CampaignReport, fmt: str = "json", path: str | None = None) -> None:
    """Write the rendered report to a file, or stdout when path is None,
    one chunk at a time: a CSV report is never held as one string."""
    chunks = _report_chunks(report, fmt)
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
