"""foamalg: exact computer algebra for commutative Frobenius algebras,
theta-decorated branch operations, and a small planar diagram language.

All arithmetic is exact over integer polynomial rings Z[g1, ..., gk]; there
are no tolerances anywhere.
"""

__version__ = "0.1.0"

from .coeffring import MultiPoly, parse_poly
from .frobalg import (
    AlgebraElement,
    DegenerateFormError,
    FrobeniusAlgebra,
    TensorElement,
    algebra_from_modulus,
    mv_algebra,
    truncated_algebra,
)
from .thetafoam import ThetaTable, lie_theta, mv_theta
from .branchops import BranchContext, LinearMap
from .lawsuite import (
    LawReport,
    check_antisymmetry,
    check_bialgebra,
    check_cocomul_two_sided,
    check_delta_one_resolution,
    check_jacobi,
    check_skein_identities,
    check_theta_trace,
    run_suite,
    suite_passed,
)
from .groupfoam import (
    FiniteAbelianGroup,
    GroupRingAlgebra,
    derive_bialgebra_theta,
    group_ring,
    hopf_delta,
)
from .foamlang import (
    ArityError,
    Compose,
    Generator,
    ParseError,
    Tensor,
    compile_diagram,
    eval_closed,
    parse,
    pretty,
    typecheck,
)

__all__ = [
    "MultiPoly", "parse_poly",
    "AlgebraElement", "TensorElement", "FrobeniusAlgebra",
    "DegenerateFormError", "algebra_from_modulus", "mv_algebra",
    "truncated_algebra",
    "ThetaTable", "lie_theta", "mv_theta",
    "BranchContext", "LinearMap",
    "LawReport", "check_antisymmetry", "check_jacobi",
    "check_cocomul_two_sided", "check_skein_identities", "check_theta_trace",
    "check_delta_one_resolution", "run_suite", "suite_passed",
    "FiniteAbelianGroup", "GroupRingAlgebra", "group_ring", "hopf_delta",
    "derive_bialgebra_theta", "check_bialgebra",
    "Generator", "Tensor", "Compose", "ParseError", "ArityError",
    "parse", "pretty", "typecheck", "compile_diagram", "eval_closed",
    "__version__",
]
