"""Exact-arithmetic quasimap / Vafa-Witten invariants of Higgs-bundle moduli.

Genus-1 invariants are evaluated on two independent routes (closed
divisor-sum formulas and a wall-crossing pipeline over Quot-scheme
components) and assembled into generating series whose eta-product
identities can be verified to arbitrary truncation.  All arithmetic is
exact rational.
"""

from .arith import (
    BaseDegrees,
    ChernClass,
    InvariantQuery,
    canonical_u_choice,
    chi_pairing_elliptic,
    divisors,
    is_prime,
    sigma_minus_one,
    solve_base_degrees,
    torsion_order,
)
from .exactalg import (
    EquivCoeff,
    QSeries,
    laurent_residue,
    series_log_product,
)
from .invariants import (
    ROUTE_CLOSED,
    ROUTE_ORACLE,
    InvariantResult,
    SeriesIdentity,
    UnsupportedQueryError,
    degree_congruent,
    qm_degree_zero,
    qm_elliptic,
    qm_elliptic_closed,
    qm_elliptic_oracle,
    qm_moduli,
    series_identity_even,
    series_identity_odd,
    unproven_reason,
)
from .quotloc import (
    WallComponent,
    component_residue_degree,
    normal_bundle_inverse_expansion,
    quot_dimension,
    slice_euler_bruteforce,
    wall_components,
)

__version__ = "0.1.0"

__all__ = [
    "BaseDegrees",
    "ChernClass",
    "EquivCoeff",
    "InvariantQuery",
    "InvariantResult",
    "QSeries",
    "ROUTE_CLOSED",
    "ROUTE_ORACLE",
    "SeriesIdentity",
    "UnsupportedQueryError",
    "WallComponent",
    "canonical_u_choice",
    "chi_pairing_elliptic",
    "component_residue_degree",
    "degree_congruent",
    "divisors",
    "is_prime",
    "laurent_residue",
    "normal_bundle_inverse_expansion",
    "qm_degree_zero",
    "qm_elliptic",
    "qm_elliptic_closed",
    "qm_elliptic_oracle",
    "qm_moduli",
    "quot_dimension",
    "series_identity_even",
    "series_identity_odd",
    "series_log_product",
    "sigma_minus_one",
    "slice_euler_bruteforce",
    "solve_base_degrees",
    "torsion_order",
    "unproven_reason",
    "wall_components",
    "__version__",
]
