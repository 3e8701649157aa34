"""Exact finite-level machinery for homology gradients over group towers."""

from .groups import (
    FiniteQuotient,
    Presentation,
    fox_derivative,
    parse_word,
    push_to_quotient,
    reduce_word,
)
from .crossring import (
    Augmentation,
    MarkedModule,
    MarkedMorphism,
    marked_inclusion,
    marked_projection,
    morphism_stats,
    op_norm,
    vector_stats,
)
from .complexes import (
    MarkedComplex,
    check_chain_map,
    defect_report,
    gh_verify,
    induce_resolution,
    tensor_complex,
    witness_defect,
)
from .strictify import strictify_complex
from .discretize import (
    betti_mod_p,
    coinvariants_complex,
    coinvariants_matrix,
    homology_of_complex,
    invariant_factors,
    retract_inequality_check,
    shapiro_complex,
)
from .lognorm import (
    gabber_column_bound,
    gabber_exact,
    gabber_split_bound,
    lognorm_certificate,
    lognorm_exact,
    lognorm_upper,
)
from .constructions import (
    integers_embedding,
    resolution_by_name,
    rokhlin_partition,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteQuotient", "Presentation", "fox_derivative", "parse_word",
    "push_to_quotient", "reduce_word",
    "Augmentation", "MarkedModule", "MarkedMorphism",
    "marked_inclusion", "marked_projection", "morphism_stats", "op_norm",
    "vector_stats",
    "MarkedComplex", "check_chain_map", "defect_report", "gh_verify",
    "induce_resolution", "tensor_complex", "witness_defect",
    "strictify_complex",
    "betti_mod_p", "coinvariants_complex", "coinvariants_matrix",
    "homology_of_complex", "invariant_factors", "retract_inequality_check",
    "shapiro_complex",
    "gabber_column_bound", "gabber_exact", "gabber_split_bound",
    "lognorm_certificate", "lognorm_exact", "lognorm_upper",
    "integers_embedding", "resolution_by_name",
    "rokhlin_partition",
]
