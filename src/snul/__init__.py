"""Exact arithmetic on quadratic non-uniform lattices: divided-difference
operators, orthogonal polynomial data and the Laguerre-Hahn equivalence."""

from .errors import (
    DegenerateLattice,
    DegreeBoundExceeded,
    DivisionNotExact,
    FreeMoment,
    Inconsistent,
    InsufficientTruncation,
    InvalidConic,
    InvalidRecurrence,
    NotLaguerreHahn,
    NotQuasiDefinite,
    ProblemFileError,
    SnulError,
    Underdetermined,
    UnsupportedLatticeClass,
)
from .fieldext import format_rational, parse_rational
from .lattice import (
    Lattice,
    LatticeClass,
    apply_D,
    apply_D_series,
    apply_E_series,
    apply_M,
    apply_M_series,
    apply_shift,
    build_lattice,
    classify_lattice,
    lattice_points,
)
from .laguerre_hahn import (
    Certificate,
    MagnusRiccatiData,
    RiccatiData,
    StructureCoeffs,
    Workspace,
    certify,
    corollary_coeffs,
    corollary_recursion,
    fit_riccati,
    gathered_relations,
    magnus_data_from_coeffs,
    magnus_step,
    reconstruct_riccati,
    riccati_nullspace,
    riccati_residual,
    solve_moments_from_riccati,
    structure_coeffs_direct,
    telescope_residuals,
    verify_second_kind_relations,
    verify_structure_relations,
)
from .orthopoly import (
    SMOPData,
    moments_from_recurrence,
    recurrence_from_moments,
    second_kind_series,
    smop_from_recurrence,
)
from .poly import Poly
from .series import LaurentSeries, sqrt_series
from .surd import SurdPoly, surd_exact_div

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
