"""Exact symbolic computation for Heegaard quantum sphere and quantum
lens space coordinate algebras: normal-form engines, deformed-binomial
combinatorics, strong connections and associated idempotents, unit
detection, and integer-matrix K-theory with the connecting-homomorphism
certificate.
"""

from .scalars import (
    Coefficient,
    EvaluationError,
    LinComb,
    ONE,
    QPoly,
    ZERO,
    p_pow,
    q_pow,
    qbinomial,
    qint,
    qpoly_Q,
    qpoly_Qpair,
    qpoly_rescale,
    w_pow,
)
from .qalgebras import (
    DISC,
    DISC0,
    DISC_INV,
    DiscAlgebra,
    DiscElement,
    DiscMonomial,
    SPHERE,
    SPHERE0,
    SphereAlgebra,
    SphereElement,
    SphereMonomial,
    kappa_iso,
    relation_residual,
)
from .lens import (
    LensElement,
    LensMonomial,
    NonInvariantError,
    basis_window_check,
    lens_from_abstract,
    lens_gen,
    lens_generator_image,
    lens_mul,
    lens_one,
    lens_relation_suite,
    lens_to_abstract,
    subspace_classify,
)
from .units import SplitTerm, deg_extreme, is_unit, split_expansion, subspace_split, verify_inverse
from .principal import (
    CyclicHopfElement,
    LaurentHopfElement,
    ProlongElement,
    SphereMatrix,
    StrongConnection,
    TensorSquare,
    associated_idempotent,
    hopf_ops,
    idempotent_check,
    prolong_action,
    prolong_is_invariant,
    prolong_phi,
    prolong_phi_inv,
    prolong_project,
    strong_connection_algebraic,
    strong_connection_isometric,
    verify_strong_connection,
)
from .ktheory import (
    AbelianGroup,
    CrossedAlgebra,
    CrossedElement,
    PullbackElement,
    TorusAlgebra,
    TorusElement,
    bass_class_report,
    bass_idempotent,
    cokernel,
    kernel_rank,
    lens_k_data,
    lens_k_groups,
    mayer_vietoris_solve,
    project_to_torus,
    pullback_make,
    smith_normal_form,
)
from .expr import ParseError, eval_expr, eval_normal_form, parse

__version__ = "0.1.0"
