"""Numerical verification of sharp coefficient-functional bounds for
starlike functions, and for their lifts z f(z) to balls and circular
domains in C^n.

The scalar side samples the Caratheodory class through discrete boundary
measures and checks |a_m a_n - a_{m+n-1}| <= (m-1)(n-1).  The
several-variables side evaluates the order-2..4 coefficient functionals
of lifted maps under three gauge families (ell^p, sup, ell^1) and checks
the sharp degree-4 bound |A2 A3 - A4| <= 2 together with the scalar
reduction identities that prove it.
"""

from .series import (
    DEFAULT_ORDER,
    NearSingularDivision,
    NonzeroConstantTerm,
    TruncatedSeries,
)
from .herglotz import CaratheodoryMargins, HerglotzMeasure, sample_measure
from .starlike import (
    SchlichtCoefficients,
    SearchResult,
    ZalcmanOrder,
    coeffs_from_p,
    coeffs_oracle,
    search_extremal,
    zalcman_J,
)
from .geometry import (
    Covector,
    ExceptionalPoint,
    InvalidDirection,
    SpaceSpec,
    dual_norm,
    euclidean,
    exceptional_distance,
    l1_space,
    lp_space,
    minkowski_gradient,
    rho,
    sample_direction,
    sample_point,
    sup_space,
    support_covector,
    wirtinger_fd_gradient,
)
from .mappings import (
    FunctionalValues,
    GridSpec,
    LiftedMapSpec,
    ScanReport,
    ScanWitness,
    functional_A,
    functional_B,
    hom_part_eval,
    hom_parts,
    make_extremal_ball,
    make_extremal_domain,
    reduction_crosscheck,
    restrict_h,
    sample_lifted_spec,
    starlikeness_scan,
    zalcman_nd,
)
from .campaigns import (
    CAMPAIGNS,
    CampaignConfig,
    CampaignReport,
    UsageError,
    emit_report,
    render_report,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "CAMPAIGNS",
    "CampaignConfig",
    "CampaignReport",
    "CaratheodoryMargins",
    "Covector",
    "DEFAULT_ORDER",
    "ExceptionalPoint",
    "FunctionalValues",
    "GridSpec",
    "HerglotzMeasure",
    "InvalidDirection",
    "LiftedMapSpec",
    "NearSingularDivision",
    "NonzeroConstantTerm",
    "ScanReport",
    "ScanWitness",
    "SchlichtCoefficients",
    "SearchResult",
    "SpaceSpec",
    "TruncatedSeries",
    "UsageError",
    "ZalcmanOrder",
    "coeffs_from_p",
    "coeffs_oracle",
    "dual_norm",
    "emit_report",
    "euclidean",
    "exceptional_distance",
    "functional_A",
    "functional_B",
    "hom_part_eval",
    "hom_parts",
    "l1_space",
    "lp_space",
    "make_extremal_ball",
    "make_extremal_domain",
    "minkowski_gradient",
    "reduction_crosscheck",
    "render_report",
    "restrict_h",
    "rho",
    "run_campaign",
    "sample_direction",
    "sample_lifted_spec",
    "sample_measure",
    "sample_point",
    "search_extremal",
    "starlikeness_scan",
    "sup_space",
    "support_covector",
    "wirtinger_fd_gradient",
    "zalcman_J",
    "zalcman_nd",
]
