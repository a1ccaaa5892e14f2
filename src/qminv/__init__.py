"""Exact-arithmetic quasimap / Vafa-Witten invariants of Higgs-bundle moduli.

Genus-1 invariants are evaluated on two independent routes (closed
divisor-sum formulas and a wall-crossing pipeline over Quot-scheme
components) and assembled into generating series whose eta-product
identities can be verified to arbitrary truncation.  All arithmetic is
exact rational.

``__all__`` is what a caller needs: the query, the routes and their
results, the series identities, and the wall components with the types
a result holds.  The pipeline's own steps (the factorisation, the
divisor scan, the degree solve, the residue engine, the slice brute
force) stay importable from their modules.
"""

from .arith import ChernClass, InvariantQuery
from .exactalg import QSeries
from .invariants import (
    ROUTE_CLOSED,
    ROUTE_ORACLE,
    InvariantResult,
    SeriesIdentity,
    UnsupportedQueryError,
    qm_degree_zero,
    qm_elliptic,
    qm_elliptic_closed,
    qm_elliptic_oracle,
    qm_moduli,
    series_identity_even,
    series_identity_odd,
    unproven_reason,
)
from .quotloc import WallComponent, wall_components

__version__ = "0.1.0"

__all__ = [
    "ChernClass",
    "InvariantQuery",
    "InvariantResult",
    "QSeries",
    "ROUTE_CLOSED",
    "ROUTE_ORACLE",
    "SeriesIdentity",
    "UnsupportedQueryError",
    "WallComponent",
    "qm_degree_zero",
    "qm_elliptic",
    "qm_elliptic_closed",
    "qm_elliptic_oracle",
    "qm_moduli",
    "series_identity_even",
    "series_identity_odd",
    "unproven_reason",
    "wall_components",
    "__version__",
]
