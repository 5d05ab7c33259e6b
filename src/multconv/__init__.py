"""Exact algebra of finitely-atomic signed measures under componentwise
multiplicative convolution, on Euclidean space and on the sphere."""

from .scalars import FactorLimitError, Surd, square_free_decompose
from .subsets import (
    GeneratingPair,
    SubsetMask,
    SymmetryPair,
    all_subsets,
    gamma,
    index_set,
    j_dual,
    lift_family,
    lift_mask,
    lift_pair,
    lift_set,
    restrict_pair,
    subsets_of,
)
from .points import (
    Point,
    Ray,
    inner,
    make_point,
    reflect_point,
    zero_pattern,
)
from .measures import (
    Measure,
    delta_ej,
    delta_j,
    group_average,
    mconv,
    msym,
    munc,
    phat,
    sigma0,
    sigma0_on,
    sigma_sym,
    sigma_unc,
    symmetrize,
    tensor,
    unc_forward,
    unc_inverse,
    unit,
)
from .sphere import SphereMeasure, moment_g, radial_project, sconv
from .lifting import lift, lift_class, lift_inverse
from .universality import (
    ConditionRecord,
    UniversalityReport,
    class_pair,
    decide_special,
    decide_universal_rn,
    decide_universal_sphere,
    symmetry_obstruction,
)
from .zonoids import (
    Zonotope,
    decide_d_universal,
    generating_measure,
    k_transform,
    k_transform_direct,
    singleton_support_check,
    support_function,
)
from .harness import (
    brute_force_convolution,
    gen_measure,
    gen_pair,
    gen_sphere_measure,
    gen_subgroup,
    run_property_suite,
)

__version__ = "0.1.0"
