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

from .herglotz import HerglotzMeasure, sample_measure
from .starlike import (
    ZalcmanOrder,
    coeffs_from_p,
    coeffs_oracle,
    search_extremal,
    zalcman_J,
)
from .geometry import (
    Covector,
    euclidean,
    l1_space,
    lp_space,
    rho,
    sup_space,
)
from .mappings import (
    make_extremal_ball,
    make_extremal_domain,
    sample_lifted_spec,
    starlikeness_scan,
    zalcman_nd,
)
from .campaigns import CampaignConfig, run_campaign

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "Covector",
    "HerglotzMeasure",
    "ZalcmanOrder",
    "coeffs_from_p",
    "coeffs_oracle",
    "euclidean",
    "l1_space",
    "lp_space",
    "make_extremal_ball",
    "make_extremal_domain",
    "rho",
    "run_campaign",
    "sample_lifted_spec",
    "sample_measure",
    "search_extremal",
    "starlikeness_scan",
    "sup_space",
    "zalcman_J",
    "zalcman_nd",
]
