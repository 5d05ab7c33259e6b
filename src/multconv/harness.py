"""Seeded generators and brute-force cross-checks.

Everything here is deterministic in its seed: the same arguments always
reproduce the same measures, the same trials, and byte-identical reports.
The property suites re-derive the package's identities from their raw
definitions wherever possible, so they stay independent of the code paths
they check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .lifting import lift, lift_class, lift_inverse
from .measures import (
    Measure,
    delta_ej,
    delta_j,
    group_average,
    mconv,
    msym,
    phat,
    sigma0_on,
    symmetrize,
    unc_forward,
    unc_inverse,
    unit,
)
from .points import Point
from .scalars import Surd
from .subsets import (
    GeneratingPair,
    SubsetMask,
    all_subsets,
    gamma,
    index_set,
    j_dual,
)
from .sphere import SphereMeasure, moment_g, radial_project, sconv
from .universality import (
    class_pair,
    decide_special,
    decide_universal_rn,
    decide_universal_sphere,
)
from .zonoids import (
    Zonotope,
    generating_measure,
    k_transform,
    k_transform_direct,
)

# zero is in the coordinate pool on purpose, so random atoms populate
# lower-order coordinate components as well
_DEFAULT_COORDS = tuple(
    Fraction(v) for v in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)
)
_DEFAULT_WEIGHTS = tuple(
    Fraction(v)
    for v in (-2, Fraction(-3, 2), -1, Fraction(-1, 2), Fraction(1, 2), 1, Fraction(3, 2), 2)
)
MAX_GENERATOR_DIM = 8


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def gen_measure(
    seed: int,
    dim: int,
    atom_count: int,
    coordinate_pool: Optional[Iterable[Fraction]] = None,
) -> Measure:
    """Deterministic pseudo-random measure with small rational data."""
    if dim > MAX_GENERATOR_DIM:
        raise ValueError(f"dimension {dim} exceeds the generator bound {MAX_GENERATOR_DIM}")
    coords = _DEFAULT_COORDS if coordinate_pool is None else tuple(coordinate_pool)
    rng = _rng("measure", seed, dim, atom_count)
    points: set[Point] = set()
    limit = len(coords) ** dim
    if atom_count > limit:
        raise ValueError(f"cannot place {atom_count} distinct atoms on a {limit}-point grid")
    while len(points) < atom_count:
        points.add(tuple(rng.choice(coords) for _ in range(dim)))
    return Measure(dim, {pt: rng.choice(_DEFAULT_WEIGHTS) for pt in sorted(points)})


_NONZERO_COORDS = tuple(Fraction(v) for v in (-2, -1, Fraction(1, 2), 1, 2))


def gen_interfering_measure(seed: int, dim: int, atom_count: int) -> Measure:
    """An origin-odd full-order part plus a Dirac mass at ``(0, 1, ..., 1)``.

    On the symmetric class (the origin reflection even) every full-order
    condition fails, and the lower-order atom keeps the bare parity basis
    measure from being annihilated, so a negative decision's witness needs
    the alternating top-order probe.
    """
    mu = gen_measure(seed, dim, atom_count, coordinate_pool=_NONZERO_COORDS)
    return mu - mu.reflect(SubsetMask.full(dim)) + Measure.dirac((0,) + (1,) * (dim - 1))


def gen_sphere_measure(seed: int, dim: int, atom_count: int) -> SphereMeasure:
    """Radial projection of a random measure (origin atoms drop out)."""
    return radial_project(gen_measure(seed, dim, atom_count))


def gen_mask(seed: int, dim: int) -> SubsetMask:
    rng = _rng("mask", seed, dim)
    return SubsetMask(rng.randrange(1 << dim), dim)


def gen_pair(seed: int, dim: int, max_members: int = 3) -> GeneratingPair:
    rng = _rng("pair", seed, dim)
    def family():
        count = rng.randrange(max_members + 1)
        return [SubsetMask(rng.randrange(1 << dim), dim) for _ in range(count)]
    return GeneratingPair.make(dim, family(), family())


def gen_proper_pair(seed: int, dim: int, max_members: int = 3) -> GeneratingPair:
    """First proper pair along a deterministic seed sequence."""
    offset = 0
    while True:
        pair = gen_pair(seed * 1009 + offset, dim, max_members)
        if gamma(pair).proper:
            return pair
        offset += 1


def gen_subgroup(seed: int, dim: int, max_generators: int = 3) -> frozenset[SubsetMask]:
    rng = _rng("subgroup", seed, dim)
    count = rng.randrange(max_generators + 1)
    drawn = [SubsetMask(rng.randrange(1 << dim), dim) for _ in range(count)]
    return gamma(GeneratingPair.make(dim, evens=drawn)).evens


def brute_force_convolution(mu: Measure, nu: Measure) -> Measure:
    """Definition-level double loop; the independence oracle for mconv."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    pairs: list[tuple[Point, Surd]] = []
    for x, wx in mu.atoms.items():
        for y, wy in nu.atoms.items():
            pairs.append((tuple(a * b for a, b in zip(x, y)), wx * wy))
    merged: dict[Point, Surd] = {}
    for pt, w in pairs:
        if pt in merged:
            merged[pt] = merged[pt] + w
        else:
            merged[pt] = w
    return Measure(mu.dim, [(pt, w) for pt, w in merged.items() if not w.is_zero()])


# -- shrinking ----------------------------------------------------------------


def _simpler_fraction(q: Fraction) -> list[Fraction]:
    out = []
    for cand in (Fraction(0), Fraction(1), Fraction(-1)):
        if cand != q:
            out.append(cand)
    return out


def shrink_measure(mu: Measure, still_fails: Callable[[Measure], bool]) -> Measure:
    """Greedy minimisation: drop atoms, then simplify coordinates and weights."""
    changed = True
    while changed:
        changed = False
        for pt in mu.support():
            smaller = Measure(mu.dim, {p: w for p, w in mu.atoms.items() if p != pt})
            if still_fails(smaller):
                mu = smaller
                changed = True
                break
    for pt in mu.support():
        w = mu.atoms[pt]
        for i, c in enumerate(pt):
            for cand in _simpler_fraction(c):
                new_pt = pt[:i] + (cand,) + pt[i + 1 :]
                atoms = {p: x for p, x in mu.atoms.items() if p != pt}
                prev = atoms.get(new_pt)
                atoms[new_pt] = w if prev is None else prev + w
                try:
                    trial = Measure(mu.dim, atoms)
                except ValueError:
                    continue
                if still_fails(trial):
                    mu = trial
                    pt = new_pt
                    break
    return mu


# -- property suites -----------------------------------------------------------


class SuiteFailure(Exception):
    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


def _expect(cond: bool, message: str, counterexample=None) -> None:
    if not cond:
        raise SuiteFailure(message, counterexample)


def _suite_field_laws(seed: int) -> None:
    rng = _rng("field", seed)
    def rand_surd():
        acc = Surd(0)
        for _ in range(rng.randrange(1, 4)):
            rad = rng.choice((1, 2, 3, 5, 6, 7, 10))
            num = rng.randrange(-4, 5)
            den = rng.choice((1, 2, 3))
            acc = acc + Fraction(num, den) * Surd.sqrt(rad)
        return acc
    a, b, c = rand_surd(), rand_surd(), rand_surd()
    _expect(a + b == b + a, "addition is not commutative")
    _expect((a + b) + c == a + (b + c), "addition is not associative")
    _expect(a * b == b * a, "multiplication is not commutative")
    _expect((a * b) * c == a * (b * c), "multiplication is not associative")
    _expect(a * (b + c) == a * b + a * c, "distributivity fails")
    _expect((a * a).sign() >= 0, "squares must be non-negative")
    _expect((a - a).sign() == 0, "self-difference must vanish")


def _suite_convolution_oracle(seed: int) -> None:
    rng = _rng("oracle", seed)
    dim = rng.choice((1, 2, 3))
    mu = gen_measure(seed * 2 + 1, dim, rng.randrange(0, 5))
    nu = gen_measure(seed * 2 + 2, dim, rng.randrange(0, 5))
    got = mconv(mu, nu)
    want = brute_force_convolution(mu, nu)
    if got != want:
        bad = shrink_measure(mu, lambda m: mconv(m, nu) != brute_force_convolution(m, nu))
        raise SuiteFailure(
            "optimised convolution disagrees with the double-loop oracle",
            {"mu": bad.to_json(), "nu": nu.to_json()},
        )
    _expect(mconv(mu, unit(dim)) == mu, "unit element fails", {"mu": mu.to_json()})


def _suite_algebra_laws(seed: int) -> None:
    rng = _rng("algebra", seed)
    dim = rng.choice((1, 2, 3))
    mu = gen_measure(seed * 3 + 1, dim, rng.randrange(1, 4))
    nu = gen_measure(seed * 3 + 2, dim, rng.randrange(1, 4))
    rho = gen_measure(seed * 3 + 3, dim, rng.randrange(1, 4))
    _expect(mconv(mu, nu) == mconv(nu, mu), "convolution is not commutative")
    _expect(
        mconv(mconv(mu, nu), rho) == mconv(mu, mconv(nu, rho)),
        "convolution is not associative",
    )
    _expect(
        mconv(mu + nu, rho) == mconv(mu, rho) + mconv(nu, rho),
        "convolution is not bilinear",
    )
    _expect(
        sconv(sconv(mu, nu), rho) == sconv(mu, sconv(nu, rho)),
        "sphere product is not associative",
    )
    _expect(sconv(mu, nu) == sconv(nu, mu), "sphere product is not commutative")
    _expect(
        mconv(mu, nu).total_mass() == mu.total_mass() * nu.total_mass(),
        "total mass is not multiplicative",
    )


def _suite_banach_norm(seed: int) -> None:
    rng = _rng("banach", seed)
    dim = rng.choice((1, 2, 3))
    mu = gen_measure(seed * 5 + 1, dim, rng.randrange(1, 5))
    nu = gen_measure(seed * 5 + 2, dim, rng.randrange(1, 5))
    _expect(
        mconv(mu, nu).tv_norm() <= mu.tv_norm() * nu.tv_norm(),
        "total-variation norm is not submultiplicative",
    )
    smu = radial_project(gen_measure(seed * 5 + 3, dim, rng.randrange(1, 5)))
    snu = radial_project(gen_measure(seed * 5 + 4, dim, rng.randrange(1, 5)))
    _expect(
        sconv(smu, snu).tv_norm() <= smu.tv_norm() * snu.tv_norm(),
        "sphere norm is not submultiplicative",
    )


def _suite_symmetry_decomposition(seed: int) -> None:
    rng = _rng("symdec", seed)
    dim = rng.choice((1, 2, 3))
    nu = gen_measure(seed * 7 + 1, dim, rng.randrange(0, 6))
    total = Measure.zero(dim)
    for k in all_subsets(dim):
        total = total + mconv(delta_j(dim, k), nu)
    _expect(total == nu, "sign decomposition does not resum", {"nu": nu.to_json()})
    comb = Measure.zero(dim)
    for j in all_subsets(dim):
        comb = comb + delta_j(dim, j)
    _expect(comb == unit(dim), "parity basis does not sum to the unit")
    for j in all_subsets(dim):
        for k in all_subsets(dim):
            prod = mconv(delta_j(dim, j), delta_j(dim, k))
            want = delta_j(dim, j) if j == k else Measure.zero(dim)
            _expect(prod == want, f"parity basis products wrong at {j}, {k}")


def _suite_projection_products(seed: int) -> None:
    rng = _rng("proj", seed)
    dim = rng.choice((1, 2, 3))
    mu = gen_measure(seed * 11 + 1, dim, rng.randrange(1, 5))
    nu = gen_measure(seed * 11 + 2, dim, rng.randrange(1, 5))
    e = gen_mask(seed * 11 + 3, dim)
    lhs = mconv(mu, nu).project(e)
    _expect(lhs == mconv(mu.project(e), nu), "projection does not slide across")
    _expect(lhs == mconv(mu.project(e), nu.project(e)), "projection does not split")
    _expect(
        phat(mu).is_zero() == mu.restrict_order(SubsetMask.full(dim)).is_zero(),
        "alternating projection sum mismatches the top-order test",
        {"mu": mu.to_json()},
    )


def _suite_radial_projection(seed: int) -> None:
    rng = _rng("radial", seed)
    dim = rng.choice((1, 2, 3))
    mu = gen_measure(seed * 13 + 1, dim, rng.randrange(1, 5))
    nu = gen_measure(seed * 13 + 2, dim, rng.randrange(1, 5))
    e = gen_mask(seed * 13 + 3, dim)
    _expect(
        sconv(mu, nu) == sconv(radial_project(mu), nu),
        "radial projection does not absorb into the product",
    )
    _expect(
        radial_project(mu).restrict_order(e) == radial_project(mu.restrict_order(e)),
        "radial projection does not commute with order restriction",
    )
    _expect(
        radial_project(mu).project(e) == radial_project(mu.project(e)).project(e),
        "subsphere projection mismatch",
    )


def _suite_sphere_projection_products(seed: int) -> None:
    rng = _rng("sproj", seed)
    dim = rng.choice((2, 3))
    mu = gen_sphere_measure(seed * 17 + 1, dim, rng.randrange(1, 5))
    nu = gen_sphere_measure(seed * 17 + 2, dim, rng.randrange(1, 5))
    e = gen_mask(seed * 17 + 3, dim)
    f = gen_mask(seed * 17 + 4, dim)
    _expect(mu.project(e).project(f) == mu.project(e & f), "subsphere projections do not compose")
    _expect(
        sconv(mu, nu).project(e) == sconv(mu.project(e), nu),
        "subsphere projection does not slide across the product",
    )


def _suite_reflection_symmetrization(seed: int) -> None:
    rng = _rng("reflsym", seed)
    dim = rng.choice((1, 2, 3))
    pair = gen_pair(seed * 19 + 1, dim)
    mu = gen_measure(seed * 19 + 2, dim, rng.randrange(1, 5))
    sym = gamma(pair)
    once = symmetrize(mu, pair)
    _expect(symmetrize(once, pair) == once, "symmetrisation is not idempotent")
    rho = symmetrize(unit(dim), pair)
    _expect(bool(rho) == sym.proper, "nonzero symmetrised unit iff proper")
    if sym.proper:
        for e in all_subsets(dim):
            _expect(rho.is_even_under(e) == (e in sym.evens), "even set mismatch")
            _expect(rho.is_odd_under(e) == (e in sym.odds), "odd set mismatch")
    group = gen_subgroup(seed * 19 + 3, dim)
    averaged = symmetrize(mu, GeneratingPair.make(dim, evens=group))
    _expect(averaged == group_average(mu, group), "factor product disagrees with group average")


def _suite_index_transformation(seed: int) -> None:
    rng = _rng("index", seed)
    dim = rng.choice((1, 2, 3, 4))
    pair = gen_pair(seed * 23 + 1, dim)
    sym = gamma(pair)
    full = SubsetMask.full(dim)
    _expect(
        index_set(full, pair) == index_set(full, sym.as_generating_pair()),
        "index family changes under closure",
    )
    _expect(
        (not sym.proper) == (len(index_set(full, pair)) == 0),
        "emptiness of the index family mismatches properness",
    )
    group = gen_subgroup(seed * 23 + 2, dim)
    _expect(j_dual(j_dual(group)) == group, "the dual transform is not an involution")


def _suite_density_convolution(seed: int) -> None:
    rng = _rng("density", seed)
    dim = rng.choice((1, 2, 3))
    mu = gen_measure(seed * 29 + 1, dim, rng.randrange(1, 5))
    nu = gen_measure(seed * 29 + 2, dim, rng.randrange(1, 5))
    j = gen_mask(seed * 29 + 3, dim)
    _expect(
        mconv(mu, nu).sign_density(j) == mconv(mu.sign_density(j), nu.sign_density(j)),
        "sign density does not distribute over the product",
    )
    _expect(
        mconv(delta_j(dim, SubsetMask.empty(dim)), mu.sign_density(j))
        == mconv(delta_j(dim, j), mu).sign_density(j),
        "sign density does not exchange with the parity basis",
    )


def _suite_unconditional_bijection(seed: int) -> None:
    rng = _rng("uncbij", seed)
    dim = rng.choice((1, 2, 3))
    raw = gen_measure(seed * 31 + 1, dim, rng.randrange(0, 5))
    positive = Measure(dim, {tuple(abs(c) for c in pt): w for pt, w in raw.atoms.items()})
    _expect(
        unc_inverse(unc_forward(positive)) == positive,
        "forward-inverse round trip fails",
        {"mu": positive.to_json()},
    )
    spread = unc_forward(positive)
    _expect(unc_forward(unc_inverse(spread)) == spread, "inverse-forward round trip fails")


def _suite_lifting(seed: int) -> None:
    rng = _rng("lifting", seed)
    dim = rng.choice((1, 2))
    mu = gen_measure(seed * 37 + 1, dim, rng.randrange(0, 4))
    nu = gen_measure(seed * 37 + 2, dim, rng.randrange(0, 4))
    _expect(lift_inverse(lift(mu)) == mu, "lift round trip fails", {"mu": mu.to_json()})
    _expect(lift(mconv(mu, nu)) == sconv(lift(mu), lift(nu)), "lift does not transport the product")
    if mu:
        _expect(lift(mu).degree() == mu.degree() + 1, "degree shift fails")
    else:
        _expect(lift(mu).is_zero(), "the lift of zero must vanish")
    pair = gen_pair(seed * 37 + 3, dim)
    support = [gen_mask(seed * 37 + 4, dim)]
    lifted_support, lifted_pair = lift_class(support, pair)
    left = decide_universal_rn(mu, support, pair).universal
    right = decide_universal_sphere(lift(mu), lifted_support, lifted_pair).universal
    _expect(left == right, "universality does not transfer along the lift", {"mu": mu.to_json()})


def _suite_universality_witness(seed: int) -> None:
    rng = _rng("universality", seed)
    dim = rng.randrange(1, 6)
    if rng.random() < 0.5:
        nu = gen_interfering_measure(seed * 41 + 1, dim, rng.randrange(1, 5))
        pair = GeneratingPair.make(dim, evens=[SubsetMask.full(dim)])
    else:
        nu = gen_measure(seed * 41 + 1, dim, rng.randrange(0, 5))
        pair = gen_pair(seed * 41 + 2, dim)
    settings = (
        (nu, decide_universal_rn, mconv),
        (radial_project(nu), decide_universal_sphere, sconv),
    )
    for mu, decide, conv in settings:
        # the sphere has no empty pattern
        support = [e for e in all_subsets(dim) if e.size or conv is mconv]
        report = decide(mu, support, pair)
        if report.universal:
            continue
        fail = report.failing()[0]
        e, j, w = fail.support, fail.index, report.witness
        context = {"nu": mu.to_json(), "pair": pair.to_json()}
        _expect(bool(w), "witness must be nonzero", context)
        _expect(conv(mu, w).is_zero(), "witness must be annihilated", context)
        _expect(
            w.component_patterns() == frozenset({e})
            and all(w.is_even_under(f) for f in pair.evens)
            and all(w.is_odd_under(f) for f in pair.odds),
            "witness must lie in the class",
            context,
        )
        # the convolution route: the parity basis measure, or its product
        # with the alternating probe when the whole measure does not kill it
        want = delta_ej(e, j)
        if conv(mu, want):
            want = mconv(want, sigma0_on(e))
        if conv is sconv:
            want = radial_project(want)
        _expect(w == want, "witness differs from the convolution route", context)
    support = list(all_subsets(dim))
    for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
        special = decide_special(nu, klass, "full")
        general = decide_universal_rn(nu, support, class_pair(klass, dim))
        _expect(
            special.universal == general.universal,
            f"special decider disagrees for class {klass}",
            {"nu": nu.to_json()},
        )


def _suite_condition_oracle(seed: int) -> None:
    rng = _rng("condition", seed)
    dim = rng.randrange(1, 6)
    pair = gen_pair(seed * 53 + 1, dim)
    settings = (
        (gen_measure(seed * 53 + 2, dim, rng.randrange(0, 7)), decide_universal_rn, mconv),
        (gen_sphere_measure(seed * 53 + 3, dim, rng.randrange(0, 7)), decide_universal_sphere, sconv),
    )
    for nu, decide, conv in settings:
        if rng.random() < 0.5:
            # an even measure makes some class sums cancel
            nu = nu + nu.reflect(gen_mask(seed * 53 + 4, dim))
        # the sphere has no empty pattern
        support = [e for e in all_subsets(dim) if (e.size or conv is mconv) and rng.random() < 0.5]
        for c in decide(nu, support, pair).conditions:
            base = nu.project(c.support).restrict_order(c.support)
            _expect(
                c.satisfied == bool(conv(delta_ej(c.support, c.index), base)),
                f"condition ({c.support}, {c.index}) disagrees with the convolution",
                {"nu": nu.to_json(), "pair": pair.to_json()},
            )


def _suite_zonoid(seed: int) -> None:
    rng = _rng("zonoid", seed)
    dim = rng.choice((2, 3))
    gens = []
    for _ in range(rng.randrange(1, 4)):
        while True:
            cand = tuple(rng.choice(_DEFAULT_COORDS) for _ in range(dim))
            if any(cand):
                gens.append(cand)
                break
    z = Zonotope.make(dim, gens)
    nu = generating_measure(z)
    mu = msym(gen_sphere_measure(seed * 43 + 1, dim, rng.randrange(1, 4)))
    u = tuple(rng.choice(_DEFAULT_COORDS) for _ in range(dim))
    _expect(
        k_transform(nu, mu, u) == k_transform_direct(nu, mu, u),
        "the two transform evaluations disagree",
        {"generators": z.to_json(), "u": [str(c) for c in u]},
    )
    e = gen_mask(seed * 43 + 2, dim)
    proj_gens = []
    for g in z.generators:
        p = tuple(c if e.bits >> i & 1 else Fraction(0) for i, c in enumerate(g))
        if any(p):
            proj_gens.append(p)
    if proj_gens:
        _expect(
            generating_measure(Zonotope.make(dim, proj_gens)) == nu.project(e),
            "projection does not commute with the generating measure",
        )
    else:
        _expect(nu.project(e).is_zero(), "a fully collapsed projection must vanish")


def _suite_moment_diagnostic(seed: int) -> None:
    rng = _rng("moment", seed)
    dim = rng.choice((1, 2, 3))
    pool = tuple(c for c in _DEFAULT_COORDS if c)
    mu = gen_measure(seed * 47 + 1, dim, rng.randrange(1, 4), coordinate_pool=pool)
    nu = gen_measure(seed * 47 + 2, dim, rng.randrange(1, 4), coordinate_pool=pool)
    alpha = [rng.uniform(0, 1.0 / dim) for _ in range(dim)]
    lhs = moment_g(mconv(mu, nu), alpha)
    rhs = moment_g(mu, alpha) * moment_g(nu, alpha)
    _expect(abs(lhs - rhs) < 1e-9, "the moment diagnostic is not multiplicative")


PROPERTY_SUITES: dict[str, tuple[str, Callable[[int], None]]] = {
    "field-laws": ("field laws and sign decisions on exact scalars", _suite_field_laws),
    "convolution-oracle": ("optimised convolution against the double-loop oracle", _suite_convolution_oracle),
    "algebra-laws": ("commutativity, associativity, bilinearity, unit", _suite_algebra_laws),
    "banach-norm": ("submultiplicativity of the total-variation norm", _suite_banach_norm),
    "symmetry-decomposition": ("sign decomposition and parity basis identities", _suite_symmetry_decomposition),
    "projection-products": ("coordinate projections against the product", _suite_projection_products),
    "radial-projection": ("radial projection identities", _suite_radial_projection),
    "sphere-projection-products": ("subsphere projections against the sphere product", _suite_sphere_projection_products),
    "reflection-symmetrization": ("reflection operators and symmetrisation", _suite_reflection_symmetrization),
    "index-transformation": ("parity index families and the dual transform", _suite_index_transformation),
    "density-convolution": ("sign densities against products", _suite_density_convolution),
    "unconditional-bijection": ("orthant spreading round trips", _suite_unconditional_bijection),
    "lifting": ("lift round trips and universality transfer", _suite_lifting),
    "universality-witness": ("witnesses against the full convolution and the convolution route; special-case agreement", _suite_universality_witness),
    "condition-oracle": ("decider conditions against the convolution they test", _suite_condition_oracle),
    "zonoid": ("support functions and transform evaluations", _suite_zonoid),
    "moment-diagnostic": ("floating moment multiplicativity", _suite_moment_diagnostic),
}


def run_property_suite(suite_id: str, seed: int, trials: int) -> dict:
    """Run a named invariant block; deterministic in all three arguments."""
    if suite_id not in PROPERTY_SUITES:
        known = ", ".join(sorted(PROPERTY_SUITES))
        raise ValueError(f"unknown suite {suite_id!r}; known suites: {known}")
    if trials < 1:
        # no trial run is no evidence: a vacuous pass would read as verified
        raise ValueError(f"trials must be >= 1, got {trials}")
    description, runner = PROPERTY_SUITES[suite_id]
    failures = []
    for trial in range(trials):
        try:
            runner(seed * 1_000_003 + trial)
        except SuiteFailure as exc:
            failures.append(
                {
                    "trial": trial,
                    "message": str(exc),
                    "counterexample": exc.counterexample,
                }
            )
    return {
        "suite": suite_id,
        "description": description,
        "seed": seed,
        "trials": trials,
        "passed": not failures,
        "failures": failures,
    }
