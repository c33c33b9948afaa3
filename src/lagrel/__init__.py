"""Exact computational algebra for Lagrangian equivalence relations.

Subpackages: exact rational linear algebra, linear Lagrangian relations,
their finite closed monoids, weak generalized root systems, and graded
invariant rings, plus a JSON-reporting command line front end.
"""

from .exact_linalg import (
    BilinearForm,
    Matrix,
    QuotientSpace,
    Subspace,
    as_vector,
    format_rational,
    orth_complement,
    quotient,
    rational,
    rref,
)
from .linear_relations import (
    Isometry,
    LinearRelation,
    canonical_data,
    classify_idempotent,
    compose,
    diagonal,
    graph,
    idempotent_relation,
    inverse,
    relation_from_data,
)
from .relation_monoid import (
    ClosureBoundExceeded,
    LagrangianEquivalenceRelation,
    closure,
)
from .invariants import (
    DiscriminantPolynomial,
    Polynomial,
    Separation,
    discriminant_polynomial,
    invariant_slices,
    invariant_space,
    monomials,
    product_invariant_check,
    restriction_map,
    separate,
    weyl_invariant_space,
)
from .wgrs import RootSystem, catalog

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "ClosureBoundExceeded",
    "DiscriminantPolynomial",
    "Isometry",
    "LagrangianEquivalenceRelation",
    "LinearRelation",
    "Matrix",
    "Polynomial",
    "QuotientSpace",
    "RootSystem",
    "Separation",
    "Subspace",
    "as_vector",
    "canonical_data",
    "catalog",
    "classify_idempotent",
    "closure",
    "compose",
    "diagonal",
    "discriminant_polynomial",
    "format_rational",
    "graph",
    "idempotent_relation",
    "invariant_slices",
    "invariant_space",
    "inverse",
    "monomials",
    "orth_complement",
    "product_invariant_check",
    "quotient",
    "rational",
    "relation_from_data",
    "restriction_map",
    "rref",
    "separate",
    "weyl_invariant_space",
    "__version__",
]
