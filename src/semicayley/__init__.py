"""Semi-Cayley graphs over finite abelian groups.

Exact character-theoretic spectra, quantum-walk transfer matrices, and
decision procedures for perfect state transfer and periodicity, cross-checked
against an independent matrix-exponential oracle.
"""

from .characters import cyclotomic_polynomial
from .errors import ConsistencyError, ValidationError
from .graphs import (
    SemiCayleySpec,
    Vertex,
    abelian_index2,
    build,
    cone,
    dicyclic_full_coset,
    dihedral_full_coset,
    dihedral_involutions,
    from_cayley_index2,
    generalized_dicyclic,
    generalized_dihedral,
    hypercube,
    join_spec,
    make_spec,
    sunlet,
)
from .groups import AbelianGroup
from .pst import PeriodReport, PstVerdict, decide_pair, find_pst, periodicity, verify_at_time
from .spectra import Spectrum, eigen_gcd, spectrum
from .transfer import oracle_column, transfer_entry, transfer_matrix, transfer_rows

__all__ = [
    "AbelianGroup",
    "ConsistencyError",
    "PeriodReport",
    "PstVerdict",
    "SemiCayleySpec",
    "Spectrum",
    "ValidationError",
    "Vertex",
    "abelian_index2",
    "build",
    "cone",
    "cyclotomic_polynomial",
    "decide_pair",
    "dicyclic_full_coset",
    "dihedral_full_coset",
    "dihedral_involutions",
    "eigen_gcd",
    "find_pst",
    "from_cayley_index2",
    "generalized_dicyclic",
    "generalized_dihedral",
    "hypercube",
    "join_spec",
    "make_spec",
    "oracle_column",
    "periodicity",
    "spectrum",
    "sunlet",
    "transfer_entry",
    "transfer_matrix",
    "transfer_rows",
    "verify_at_time",
]
