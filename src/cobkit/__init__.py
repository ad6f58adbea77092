"""Exact homology cobordism invariant bounds.

Computes certified bounds on the spin-filling invariants m and mbar for
Z/2-homology spheres presented as lens spaces, plumbing boundaries, or
surgeries on knots, together with two-bridge knot invariants and
obstruction reports.  All arithmetic is exact (integers and Fractions).
"""

from .arith import is_square_mod
from .cobordism import (
    MBounds,
    OrderCertificate,
    RokhlinClass,
    infinite_order_certificate,
    merge_bounds,
    reverse_orientation,
)
from .contfrac import (
    AdmissibleCF,
    admissible_cf,
    find_admissible_cf,
    find_positive_cf,
    format_cf,
    parse_cf,
)
from .errors import DomainError, ResourceLimitError
from .lens import LensSpace, classify_order, family, m_bounds, table1
from .plumbing import (
    MontesinosInvariants,
    MpqrTriple,
    TpqrInvariants,
    montesinos_invariants,
    sigma_pqr_bounds,
    tpqr_invariants,
)
from .surgery import (
    ObstructionReport,
    ObstructionTest,
    arf_from_surgery,
    congruence_obstruction,
    obstruction_report,
    qr_obstruction,
    slice_genus_lower,
    unknotting_one_obstruction,
)
from .twobridge import GenusBound, PlatInvariants, plat_invariants

__version__ = "0.1.0"
