"""Exact derived limits and colimits of diagrams of finitely generated
abelian groups indexed by finite graded posets.

The public surface re-exported here covers poset construction, group
and homomorphism arithmetic, diagram assembly, derived functors of
colim and lim, the projectivity/injectivity classifiers, the eight
degree-filtration spectral sequences, seeded random generation, and
the JSON document layer.  Everything computes over the integers with
no floating point anywhere.
"""

from .abgroup import (
    AbHom,
    FgAbGroup,
    Subgroup,
    compose,
    cyclic_group,
    direct_sum,
    free_group,
    group_from_invariants,
    hom_is_epi,
    hom_is_mono,
    identity_hom,
    trivial_group,
    zero_hom,
)
from .classify import (
    ClassificationReport,
    ConditionVerdict,
    PseudoVerdict,
    PseudoWitness,
    classify_diagram,
    free_cover,
    is_injective,
    is_projective,
    is_pseudo_injective,
    is_pseudo_injective_at,
    is_pseudo_projective,
    is_pseudo_projective_at,
    oracle_theorem_b,
    projective_by_lifting,
    solve_lifting,
)
from .derived import (
    AcyclicityResult,
    ChainComplex,
    chain_complex,
    cochain_complex,
    colimit_direct,
    derived_functor,
    euler_characteristic,
    homology_at,
    is_acyclic,
    limit_direct,
    reduce_complex,
)
from .diagram import (
    Diagram,
    NatTransformation,
    coker_at,
    constant_diagram,
    diagrams_equal,
    direct_sum_diagrams,
    im_at,
    ker_at,
    representable_diagram,
    skyscraper_diagram,
    transpose_diagram,
    validate_functor,
)
from .errors import (
    ChainBudgetError,
    ConvergenceViolation,
    CycleError,
    DegreeError,
    DiamondError,
    EmptyPosetError,
    FamilyMismatchError,
    MismatchError,
    MissingDataError,
    OracleViolation,
    PosetlimError,
    SchemaError,
    ValidationError,
    VariantMismatchError,
)
from .jsonio import (
    canonical_bytes,
    digest,
    parse_diagram,
    serialize_diagram,
    validate_report,
)
from .poset import (
    Chain,
    GradedPoset,
    PosetObject,
    bounds,
    chain_counts,
    longest_chain_length,
    opposite,
    validate_graded,
)
from .randgen import GenConfig, gen_diagram, gen_poset
from .spectral import (
    TABLE_VARIANTS,
    FilteredComplex,
    SSPage,
    Variant,
    build_filtered,
    convergence_check,
    e_infinity,
    inner_column_ss,
    page,
    variant_by_name,
)

__version__ = "0.1.0"
