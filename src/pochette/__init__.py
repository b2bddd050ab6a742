"""Algebraic invariants of pochette surgery on homology 4-spheres.

The pipeline: a knot-group presentation with meridian and longitude
words describes an embedded pochette; a coprime slope p/q plus a mod 2
framing describes the regluing.  From these the package computes the
surgered fundamental group, the linking number, the homology table, and
a 4-sphere verdict certified by coset enumeration, with non-cyclic
permutation quotients as negative certificates where enumeration cannot
close.
"""

from .abelian import (
    AbelianInvariants,
    abelian_invariants,
    hom_to_Z,
    word_image,
)
from .budgets import Budgets
from .coset_enum import (
    EnumerationVerdict,
    certify_trivial,
    enumerate_cosets,
    subgroup_membership,
)
from .errors import InputError
from .presentations import (
    FinitePresentation,
    PermutationAssignment,
    TietzeResult,
    add_relator,
    assignment_satisfies,
    format_presentation,
    parse_presentation,
    relators_equivalent,
    tietze_simplify,
)
from .quotient_search import find_noncyclic_quotient, image_is_cyclic
from .ribbon import (
    CordVerdict,
    FusionData,
    InvalidFusionGraph,
    cord_triviality,
    format_fusion,
    load_preset,
    n_fusion_presentation,
    one_fusion_presentation,
    parse_fusion_file,
    random_embedding,
    random_fusion_data,
    spun_trefoil,
    spun_trefoil_embedding,
)
from .surgery import (
    MeridianNotGenerator,
    NotCoprime,
    PochetteEmbeddingData,
    SlopeSpec,
    SurgeryInvariants,
    UndefinedForSlopeZero,
    Verdict,
    detect_s4,
    linking_number,
    surgery_homology,
    surgery_invariants,
    surgery_pi1,
    surgery_relator_word,
)
from .words import (
    AlphabetMismatch,
    Generator,
    MalformedFactor,
    MissingImage,
    UnknownGenerator,
    Word,
    ZeroExponent,
    cyclically_reduce,
    exponent_sum,
    invert,
    parse_word,
    substitute,
    word_to_text,
)

__version__ = "0.1.0"
