"""Semi-Cayley graphs over finite abelian groups.

Exact character-theoretic spectra, quantum-walk transfer matrices, and
decision procedures for perfect state transfer and periodicity, cross-checked
against an independent matrix-exponential oracle.
"""

from .characters import CycloValue, Root, char_sum, cyclotomic_polynomial, eval_character
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
from .pst import (
    PeriodReport,
    PstVerdict,
    decide_cross_layer,
    decide_pair,
    decide_same_layer_rl,
    find_pst,
    periodicity,
    scan_pair,
    verify_at_time,
)
from .spectra import Spectrum, eigen_gcd, spectrum
from .transfer import oracle_column, oracle_expm, transfer_entry, transfer_matrix, transfer_rows

__all__ = [
    "AbelianGroup",
    "ConsistencyError",
    "CycloValue",
    "PeriodReport",
    "PstVerdict",
    "Root",
    "SemiCayleySpec",
    "Spectrum",
    "ValidationError",
    "Vertex",
    "abelian_index2",
    "build",
    "char_sum",
    "cone",
    "cyclotomic_polynomial",
    "decide_cross_layer",
    "decide_pair",
    "decide_same_layer_rl",
    "dicyclic_full_coset",
    "dihedral_full_coset",
    "dihedral_involutions",
    "eigen_gcd",
    "eval_character",
    "find_pst",
    "from_cayley_index2",
    "generalized_dicyclic",
    "generalized_dihedral",
    "hypercube",
    "join_spec",
    "make_spec",
    "oracle_column",
    "oracle_expm",
    "periodicity",
    "scan_pair",
    "spectrum",
    "sunlet",
    "transfer_entry",
    "transfer_matrix",
    "transfer_rows",
    "verify_at_time",
]
