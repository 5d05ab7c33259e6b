"""Zonotopes, generating measures, exact support functions, and D-universality.

A zonotope is a finite sum of segments through the origin.  Its support
function is the integral of ``|<v, u>|`` against a symmetric measure on
the sphere, the generating measure; diagonal transforms of the body act
on that measure by the sphere product, so injectivity questions about the
body reduce to spherical universality of its generating measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .measures import Measure, msym
from .points import Point, inner, make_point, ray_norm_sq
from .scalars import Surd
from .subsets import SubsetMask, json_dim
from .sphere import SphereMeasure, radial_project, sconv
from .universality import UniversalityReport, _check_dim, decide_special


@dataclass(frozen=True, slots=True)
class Zonotope:
    """Sum of segments [-v, v] over the generator list; origin-symmetric."""

    dim: int
    generators: tuple[Point, ...]

    def __post_init__(self):
        gens = tuple(make_point(g) for g in self.generators)
        for g in gens:
            if len(g) != self.dim:
                raise ValueError(f"generator {g} has dimension {len(g)}, expected {self.dim}")
            if not any(g):
                raise ValueError("zero generator")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def make(cls, dim: int, generators: Iterable[Iterable]) -> "Zonotope":
        # the constructor normalises each generator through ``make_point``
        return cls(dim, tuple(generators))

    @classmethod
    def cube(cls, dim: int) -> "Zonotope":
        gens = []
        for i in range(dim):
            coords = [Fraction(0)] * dim
            coords[i] = Fraction(1)
            gens.append(tuple(coords))
        return cls(dim, tuple(gens))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "generators": [[str(c) for c in g] for g in self.generators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Zonotope":
        dim = json_dim(data)
        if "generators" not in data:
            raise ValueError("missing field 'generators'")
        return cls.make(dim, data["generators"])


def generating_measure(z: Zonotope) -> SphereMeasure:
    """Symmetric non-negative sphere measure reproducing the support function.

    Each generator v contributes half its length at the two opposite rays
    through v, so integrating ``|<., u>|`` gives exactly ``|<v, u>|``: the
    radial projection of the unit masses at the generators, symmetrised.
    """
    return radial_project(msym(Measure(z.dim, [(g, 1) for g in z.generators])))


def support_function(nu: SphereMeasure, u: Iterable) -> Surd:
    """Evaluate the support-function integral of ``nu`` at ``u`` exactly."""
    u = make_point(u)
    if len(u) != nu.dim:
        raise ValueError(f"dimension mismatch: {len(u)} vs {nu.dim}")
    total = Surd(0)
    for ray, m in nu.masses():
        total = total + m * abs(inner(ray, u))
    return total


def k_transform(nu_k: SphereMeasure, mu: SphereMeasure, u: Iterable) -> Surd:
    """Support function of the body transform at ``u`` via the sphere product.

    Collapsing the double integral through the sphere product keeps the
    evaluation exact; requires an origin-symmetric argument measure.
    """
    if not mu.is_even_under(SubsetMask.full(mu.dim)):
        raise ValueError("the transformed measure must be origin-symmetric")
    return support_function(sconv(nu_k, mu), u)


def k_transform_direct(nu_k: SphereMeasure, mu: SphereMeasure, u: Iterable) -> Surd:
    """Same value as :func:`k_transform` by the raw double sum (oracle route)."""
    if not mu.is_even_under(SubsetMask.full(mu.dim)):
        raise ValueError("the transformed measure must be origin-symmetric")
    u = make_point(u)
    if len(u) != mu.dim or nu_k.dim != mu.dim:
        raise ValueError("dimension mismatch")
    total = Surd(0)
    for d, wd in mu.atoms.items():
        scaled = tuple(Fraction(c) * x for c, x in zip(d, u))
        nd = ray_norm_sq(d)
        for e, we in nu_k.atoms.items():
            ip = inner(tuple(Fraction(c) for c in e), scaled)
            total = total + wd * we * abs(ip) * Surd.sqrt(Fraction(1, nd * ray_norm_sq(e)))
    return total


def decide_d_universal(nu: SphereMeasure, unconditional: bool = False) -> UniversalityReport:
    """Decide D-universality of the body generated by ``nu``.

    Equivalent to spherical universality of the generating measure on the
    symmetric (or unconditional) measures over all nonempty patterns.
    """
    n = nu.dim
    # before the 2**n support sets and the 2**n-member unconditional pair
    _check_dim(n)
    if not isinstance(nu, SphereMeasure):
        raise ValueError(f"generating measures are sphere measures, got {type(nu).__name__}")
    if not nu.is_even_under(SubsetMask.full(n)):
        raise ValueError("generating measures are origin-symmetric")
    return decide_special(nu, "unconditional" if unconditional else "symmetric")


def singleton_support_check(nu: SphereMeasure) -> bool:
    """Whether all coordinate-direction support sets of the body are points.

    Holds exactly when the symmetrised measure has full order or vanishes.
    """
    averaged = msym(nu)
    return averaged.is_zero() or averaged.order_of() == SubsetMask.full(nu.dim)
