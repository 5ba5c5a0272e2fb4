"""Exact tools for toric vector bundles given by per-ray filtrations.

Builds bundles from rational subspace filtrations indexed by fan rays, checks
the per-cone grading compatibility, computes the algebra of filtration
preserving endomorphisms, and classifies the torus-invariant co-Higgs fields
of a bundle as commuting matrix tuples.  All arithmetic is exact over Q.
"""

from .bundles import (
    BundleVerdict,
    ChernData,
    ConeGrading,
    Filtration,
    Incompatible,
    TVB,
    adapted_basis_oracle,
    cone_grading,
    direct_sum,
    equivariant_chern_data,
    is_vector_bundle,
    line_bundle,
    tangent_bundle,
    tensor_line,
)
from .cohiggs import (
    ChartExpansion,
    ClassificationReport,
    FieldVerdict,
    IntegrabilityVerdict,
    ToricCoHiggsField,
    canonical_pair,
    chart_expansion,
    classify,
    field_from_vector_field,
    validate_field,
    verify_integrability,
)
from .endalg import (
    FilteredEndAlgebra,
    TupleVarietyEqs,
    center,
    filtered_endos,
    is_commutative,
    structure_constants,
    tuple_variety_equations,
)
from .fans import (
    Character,
    Cone,
    Fan,
    FanVerdict,
    RayVec,
    dual_basis,
    fan_hirzebruch,
    fan_pn,
    fan_point,
    fan_product,
    pairing,
    validate_fan,
)
from .linalg import (
    Mat,
    Subspace,
    commutes,
    complement_within,
    intersect,
    kernel,
    preserves,
    rat_from_str,
    rat_str,
    subspace_sum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
