"""Hermitian self-orthogonal truncated generalised Reed-Solomon codes.

Construct truncated GRS codes over GF(q^2) from low-degree polynomials,
compute the puncture code P(C) of the Reed-Solomon code three independent
ways (the kernel of its parity-check matrix, the u-space of row-reduced
g-forms of the monomial basis of the g-space, and single g-form members),
and verify minimum-weight formulas and polynomial constructions by
exhaustive computation at small q.

GF(q^2) arithmetic is one set of tables, read alike by the ``Felt``
operators on single elements and by the ``FieldCtx`` methods on index
arrays.  The Frobenius, the norm and the trace to GF(q) are the operators
``x ** q``, ``x ** (q+1)`` and ``x + x ** q``.
"""

from .errors import (
    CapExceeded,
    HermgrsError,
    MalformedInput,
    SelfCheckFailed,
    ValidationRefused,
)
from .field import (
    Felt,
    FieldCtx,
    make_field,
    skew_element,
)
from .grscode import (
    CodeParams,
    GrsCode,
    check_mds,
    hermitian_gram,
    is_hermitian_self_orthogonal,
    min_weight,
    truncate_scale,
)
from .poly import Poly, distinct_zeros, q_power_mod
from .puncture import (
    PunctureBasis,
    PunctureVector,
    g_form_vector,
    membership,
    min_weight_formula,
    min_weight_pc,
    primal_basis,
    puncture_direct,
    u_space_basis,
    weight_distribution,
)
from .constructions import (
    ConstructionReport,
    build_custom,
    build_even_q_min,
    build_example1,
    build_example2,
    build_example3,
    build_odd_q_min,
    build_qsq_plus_one,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CodeParams",
    "ConstructionReport",
    "Felt",
    "FieldCtx",
    "GrsCode",
    "HermgrsError",
    "MalformedInput",
    "Poly",
    "PunctureBasis",
    "PunctureVector",
    "SelfCheckFailed",
    "ValidationRefused",
    "build_custom",
    "build_even_q_min",
    "build_example1",
    "build_example2",
    "build_example3",
    "build_odd_q_min",
    "build_qsq_plus_one",
    "check_mds",
    "distinct_zeros",
    "g_form_vector",
    "hermitian_gram",
    "is_hermitian_self_orthogonal",
    "make_field",
    "membership",
    "min_weight",
    "min_weight_formula",
    "min_weight_pc",
    "primal_basis",
    "puncture_direct",
    "q_power_mod",
    "skew_element",
    "truncate_scale",
    "u_space_basis",
    "weight_distribution",
]
