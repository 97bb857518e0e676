"""Exact symbolic workbench for special 2-flags: pseudo-normal forms built
from operations over {1,2,3}, Lie-bracket flag calculus, and the decision
procedure assigning a singularity class to a flag germ at a point.
"""

from .errors import (
    BadModelName,
    BadSyntax,
    ChartMismatch,
    ConstantNotAdmitted,
    DegeneratePivot,
    GeneratorBlowup,
    IndexOutOfRange,
    NotSpecialFlag,
    RuleViolation,
    TwoflagsError,
    UnexpectedCovariantDimension,
)
from .exactalg import (
    Poly,
    RationalMatrix,
    parse_rational,
    polynomial_nullspace,
    rank_and_nullspace,
    span_includes,
)
from .geometry import (
    Chart,
    Distribution,
    OneForm,
    Subspace,
    VectorField,
    big_flag,
    cauchy_char_at,
    covariant_at,
    lie_bracket,
    lie_square,
    small_flag,
    value_at,
)
from .ekr import (
    EkrBuild,
    EkrSpec,
    Word,
    build_ekr,
    closed_form_F,
    closed_form_L,
    model,
)
from .classify import (
    ClassificationReport,
    SandwichWord,
    singularity_class_at,
    singularity_locus_equations,
)
from .atlas import (
    AtlasRecord,
    adjacencies,
    build_atlas,
    codimension,
    count_classes,
    enumerate_words,
    iter_atlas,
)

__all__ = [name for name in dir() if not name.startswith("_")]
