"""Splitting types of extended logarithmic connections on the projective
line, computed from a pair of monodromy matrices at the punctures 0 and 1.

The public surface mirrors the pipeline: eigenvalue/branch bookkeeping
(:mod:`logroots.linalg`), each rep's local spectra (computed once and
split among its sub, quotient and summand reps) and composition structure,
its parts read off one incidence matrix of its lines and planes
(:mod:`logroots.rep`), the degree of the extension (:mod:`logroots.chern`),
the splitting type itself, classifying each rep once
(:mod:`logroots.classify`), and randomized cross-checks
(:mod:`logroots.oracle`).
"""

from .chern import ChernData, chern_bound_check, chern_class, unitarity_test
from .classify import (
    SplittingResult,
    SplittingType,
    candidate_tree,
    character_root,
    classify,
    ext_splits,
)
from .config import DEFAULT, Tolerances
from .errors import (
    AmbiguousPart,
    DimensionError,
    EmptyIntersection,
    ExactModeError,
    InconsistentCertificate,
    LogrootsError,
    NonFiniteMatrix,
    NonIntegerChern,
    ProvenBoundViolated,
    RelationViolated,
    RootOutOfProvenRange,
    SchemaError,
    SingularMatrix,
)
from .io import (
    classify_document,
    classify_rep_to_json,
    load_input,
    parse_input_document,
)
from .linalg import (
    BranchedEigenvalue,
    PrincipalLog,
    eigenvalues,
    principal_log,
)
from .oracle import (
    OracleReport,
    SampleSpec,
    conjecture_scan,
    direct_sum_oracle,
    sample_and_check,
    sample_rep,
    sample_reps,
)
from .presets import PRESETS, preset
from .rep import (
    CompositionData,
    InvariantSubspace,
    LocalSpectra,
    MonodromyRep,
    analyze,
    build_from_pslz,
    character,
    common_invariant_subspaces,
    local_spectra,
    trivial,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousPart",
    "BranchedEigenvalue",
    "ChernData",
    "CompositionData",
    "DEFAULT",
    "DimensionError",
    "EmptyIntersection",
    "ExactModeError",
    "InconsistentCertificate",
    "InvariantSubspace",
    "LocalSpectra",
    "LogrootsError",
    "MonodromyRep",
    "NonFiniteMatrix",
    "NonIntegerChern",
    "OracleReport",
    "PRESETS",
    "PrincipalLog",
    "ProvenBoundViolated",
    "RelationViolated",
    "RootOutOfProvenRange",
    "SampleSpec",
    "SchemaError",
    "SingularMatrix",
    "SplittingResult",
    "SplittingType",
    "Tolerances",
    "analyze",
    "build_from_pslz",
    "candidate_tree",
    "character",
    "character_root",
    "chern_bound_check",
    "chern_class",
    "classify",
    "classify_document",
    "classify_rep_to_json",
    "common_invariant_subspaces",
    "conjecture_scan",
    "direct_sum_oracle",
    "eigenvalues",
    "ext_splits",
    "load_input",
    "local_spectra",
    "parse_input_document",
    "preset",
    "principal_log",
    "sample_and_check",
    "sample_rep",
    "sample_reps",
    "trivial",
    "unitarity_test",
]
