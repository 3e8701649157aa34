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
    check_retract,
    defect_report,
    gh_verify,
    induce_resolution,
    push_complex,
    push_resolution,
    witness_defect,
)
from .strictify import strictify_complex
from .discretize import (
    betti_mod_p,
    coinvariants_complex,
    coinvariants_matrix,
    homology_of_complex,
    invariant_factors,
    retract_inequalities,
    shapiro_complex,
)
from .lognorm import (
    gabber_bounds,
    gabber_column_bound,
    lognorm_rows,
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
    "MarkedComplex", "check_chain_map", "check_retract", "defect_report",
    "gh_verify", "induce_resolution", "push_complex", "push_resolution",
    "witness_defect",
    "strictify_complex",
    "betti_mod_p", "coinvariants_complex", "coinvariants_matrix",
    "homology_of_complex", "invariant_factors", "retract_inequalities",
    "shapiro_complex",
    "gabber_bounds", "gabber_column_bound", "lognorm_rows",
    "integers_embedding", "resolution_by_name",
    "rokhlin_partition",
]
