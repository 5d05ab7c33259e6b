"""Exact algebra of finitely-atomic signed measures under componentwise
multiplicative convolution, on Euclidean space and on the sphere.

``import multconv`` loads the core modules: ``scalars``, ``subsets``,
``points``, ``measures``, ``sphere``, ``lifting`` and ``universality``.
The zonoid layer (``zonoids``) and the seeded generators and property
suites (``harness``) load on first access to one of their names or to the
submodule, so a process that only decides or convolves never compiles
them."""

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

__version__ = "0.1.0"

# The zonoid layer and the seeded generators and property suites serve the
# `zonoid` and `verify` commands and users, not the deciders or the algebra,
# so they are imported on first access (PEP 562) and cached here.
_LAZY = {
    "zonoids": "zonoids",
    "Zonotope": "zonoids",
    "decide_d_universal": "zonoids",
    "generating_measure": "zonoids",
    "k_transform": "zonoids",
    "k_transform_direct": "zonoids",
    "singleton_support_check": "zonoids",
    "support_function": "zonoids",
    "harness": "harness",
    "brute_force_convolution": "harness",
    "gen_measure": "harness",
    "gen_pair": "harness",
    "gen_sphere_measure": "harness",
    "gen_subgroup": "harness",
    "run_property_suite": "harness",
}

# every public name, the core submodules and the lazy names included, so
# that `from multconv import *` binds what it bound before they were lazy
__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
