"""Exact construction and verification toolkit for simple Lie algebras:
split Casimir operators, characteristic identities, invariant projector
families, rational R-matrices and the universal (Vogel) parameter formulas.

Quick start::

    from splitcasimir import defining, split_casimir, verify_adjoint_identity
    alg, rep = defining("g2")
    sc = split_casimir(rep, rep)
    assert verify_adjoint_identity("g2").passed
"""

from .kernel import (  # noqa: F401
    SparseOp,
    Vec,
    apply_poly_factors,
    kron,
    trace_word,
)
from .algebras import LieAlgebra, Representation  # noqa: F401
from .catalog import adjoint_context, chevalley, defining, parse_name  # noqa: F401
from .classical import build_classical  # noqa: F401
from .chevalley import build_chevalley_adjoint  # noqa: F401
from .exceptional import (  # noqa: F401
    build_e6_defining,
    build_e7_defining,
    build_f4_defining,
    build_g2_defining,
)
from .casimir import (  # noqa: F401
    SplitCasimir,
    casimir_eigenvalue,
    e4_operator,
    invariant_set,
    q_minus,
    split_casimir,
    split_parts,
    trace_suite,
)
from .identities import (  # noqa: F401
    CharIdentity,
    VerificationReport,
    adjoint_identity,
    defining_identity,
    minimal_polynomial,
    verify_adjoint_identity,
    verify_classical_generic_identity,
    verify_defining_identity,
    verify_identity,
    verify_universal_sym_identity,
)
from .projectors import (  # noqa: F401
    ProjectorFamily,
    defining_family,
    exceptional_adjoint_family,
    lagrange_family,
    refine_family,
    universal_symmetric_family,
    x1x2_split,
)
from .yangbaxter import (  # noqa: F401
    RMatrixFamily,
    build_rmatrix,
    verify_classical_ybe,
    verify_form_equivalence,
    verify_unitarity,
    verify_ybe,
)
from .vogel import (  # noqa: F401
    VogelPoint,
    diophantine_scan,
    exceptional_line_check,
    integrality_filter,
    universal_dim_g,
    universal_dim_y2,
    vogel_point,
    vogel_table,
)

__version__ = "0.1.0"
