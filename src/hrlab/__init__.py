"""Exact-arithmetic laboratory for intersection forms of Schur polynomials.

Exterior algebra of (p,q)-forms, Schur and derived Schur evaluations, exact
signatures of the induced intersection forms, the one-parameter verification
machinery on the space extended by one formal direction, and positivity cones
of forms, all computed over Python ints; GaussianRational is the edge type of
the public constructors and views.
"""

from .augmentation import (
    CONSISTENT,
    DEFAULT_T_SAMPLES,
    INCONSISTENT,
    NOT_APPLICABLE,
    AugmentedSpace,
    FormFamily,
    PropertyAReport,
    PropertyBReport,
    TheoremVerdict,
    check_property_a,
    check_property_b,
    intersection_form,
    rank_drop_family,
    twist_family,
    verify_augmentation1,
    verify_augmentation2,
    verify_recursion,
)
from .bilinear import (
    Signature,
    SymBilinearForm,
    combine,
    derivative_inequality_defect,
    derivative_inequality_inertia,
    gram,
    hermitian_inertia,
    hodge_index_defect,
    hodge_index_inertia,
    is_hr,
    is_hr_wrt,
    is_psd,
    is_weak_hr_wrt,
    kernel_basis,
    primitive_restriction,
    proportionality_witness,
    signature,
)
from .exterior import (
    Form,
    HermitianMatrix,
    basis_11_real,
    conjugate,
    coords_11_real,
    form_to_hermitian,
    hermitian_to_form,
    identity_form,
    top_coefficient,
    top_ratio,
    vol_form,
    wedge,
)
from .gaussian import GaussianRational
from .positivity import (
    NOT_POSITIVE,
    POSITIVE,
    STRICTLY_POSITIVE,
    WEAKLY_POSITIVE_FALSIFIED,
    WEAKLY_POSITIVE_UNFALSIFIED,
    ConeVerdict,
    falsify_weak_positivity,
    is_positive_definite_11,
    is_positive_pp,
    simple_form,
)
from .sampling import (
    derive_seed,
    random_hermitian,
    random_positive_form,
    random_positive_hermitian,
)
from .symfunc import (
    Partition,
    derived_schur,
    derived_schur_all,
    partitions,
    schur,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
