"""The four-element Magari algebra of provability logic.

Formula evaluation and equivalence over the algebra, relation-preservation
analysis, constructive synthesis of realizing formulas, a brute-force
expressibility oracle, and derivation of the four constants from any
twelve-member violating system.
"""

from .algebra import (
    Connective,
    Element,
    ELEMENTS,
    apply,
    delta,
    magari_identity_report,
)
from .closure import (
    ClosureFragment,
    SystemSigma,
    closure_fragment,
    expressible_constants,
)
from .constants import (
    Derivation,
    InternalProofCheckFailed,
    PreconditionViolated,
    TwelveSystem,
    derive_all_constants,
)
from .formula import (
    Binary,
    Const,
    EvaluationError,
    Formula,
    ParseError,
    Unary,
    Var,
    counterexample,
    equivalent,
    evaluate,
    format_formula,
    free_vars,
    parse,
    substitute_all,
    truth_table,
)
from .preservation import (
    RelationMatrix,
    ViolationWitness,
    builtin_relation,
    classify,
    delta_pairing_relation,
    delta_preserving_tables,
    find_violation,
    i_op,
    preserves,
    preserves_delta_pairing,
)
from .synthesis import NotRepresentable, synthesize
from .tables import FuncTable, constant_table, projection

__version__ = "0.1.0"

__all__ = [
    "Binary",
    "ClosureFragment",
    "Connective",
    "Const",
    "Derivation",
    "Element",
    "ELEMENTS",
    "EvaluationError",
    "Formula",
    "FuncTable",
    "InternalProofCheckFailed",
    "NotRepresentable",
    "ParseError",
    "PreconditionViolated",
    "RelationMatrix",
    "SystemSigma",
    "TwelveSystem",
    "Unary",
    "Var",
    "ViolationWitness",
    "apply",
    "builtin_relation",
    "classify",
    "closure_fragment",
    "constant_table",
    "counterexample",
    "delta",
    "delta_pairing_relation",
    "delta_preserving_tables",
    "derive_all_constants",
    "equivalent",
    "evaluate",
    "expressible_constants",
    "find_violation",
    "format_formula",
    "free_vars",
    "i_op",
    "magari_identity_report",
    "parse",
    "preserves",
    "preserves_delta_pairing",
    "projection",
    "substitute_all",
    "synthesize",
    "truth_table",
]
