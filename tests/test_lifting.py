import random
import re
from fractions import Fraction

import pytest

from multconv.harness import gen_measure, gen_pair
from multconv.lifting import lift, lift_class, lift_inverse
from multconv.measures import Measure, mconv, msym, sigma0, tensor
from multconv.scalars import Surd
from multconv.sphere import SphereMeasure, radial_project, sconv
from multconv.subsets import GeneratingPair, SubsetMask, all_subsets, gamma, lift_set
from multconv.universality import decide_universal_rn, decide_universal_sphere

F = Fraction
PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def dirac(*coords):
    return Measure.dirac([F(c) for c in coords])


def test_lift_of_unit_atom():
    lifted = lift(dirac(1))
    half_sqrt2 = Fraction(1, 2) * Surd.sqrt(2)
    assert lifted == SphereMeasure(2, {(1, 1): half_sqrt2, (-1, -1): half_sqrt2})


def test_lift_inverse_of_the_example():
    lifted = lift(dirac(1))
    assert lift_inverse(lifted) == dirac(1)


def test_lift_round_trip_with_mixed_leading_entries():
    # the kept rays lead with 1, 2, 3 and 5: the inverse gathers over 30
    mu = Measure(2, {(F(1, 2), F(-3, 2)): 1, (F(2, 3), 0): Surd.sqrt(3), (F(-4, 5), F(1, 5)): -2, (3, 1): 1})
    lifted = lift(mu)
    assert {r[0] for r in lifted.atoms if r[0] > 0} == {1, 2, 3, 5}
    back = lift_inverse(lifted)
    assert back == mu and back._den == 30


def test_lift_is_origin_symmetric_and_off_equator():
    mu = gen_measure(1, 2, 4)
    lifted = lift(mu)
    assert lifted.is_even_under(SubsetMask.full(3))
    for ray in lifted.atoms:
        assert ray[0] != 0


def test_round_trips():
    for seed in range(12):
        n = 1 + seed % 2
        mu = gen_measure(seed + 100, n, seed % 5)
        assert lift_inverse(lift(mu)) == mu
    for seed in range(8):
        mu = gen_measure(seed + 200, 1, 3)
        lifted = lift(mu)
        assert lift(lift_inverse(lifted)) == lifted


def test_lift_is_linear_and_injective():
    mu = gen_measure(2, 2, 3)
    nu = gen_measure(3, 2, 3)
    assert lift(mu + nu) == lift(mu) + lift(nu)
    assert lift(Measure.zero(2)).is_zero()
    if mu != nu:
        assert lift(mu) != lift(nu)


def test_lift_transports_convolution():
    for seed in range(8):
        n = 1 + seed % 2
        mu = gen_measure(seed + 300, n, 3)
        nu = gen_measure(seed + 400, n, 3)
        assert lift(mconv(mu, nu)) == sconv(lift(mu), lift(nu))


def test_lift_transports_projections():
    mu = gen_measure(4, 2, 4)
    for e in all_subsets(2):
        assert lift(mu.project(e)) == lift(mu).project(lift_set(e))


def test_lift_transports_components():
    mu = gen_measure(5, 2, 5)
    for e in all_subsets(2):
        assert lift(mu.restrict_order(e)) == lift(mu).restrict_order(lift_set(e))


def test_degree_shifts_by_one():
    for seed in range(10):
        n = 1 + seed % 2
        mu = gen_measure(seed + 500, n, 4)
        if mu:
            assert lift(mu).degree() == mu.degree() + 1


def test_lift_commutes_with_reflections():
    from multconv.subsets import lift_mask

    mu = gen_measure(6, 2, 4)
    for e in all_subsets(2):
        assert lift(mu.reflect(e)) == lift(mu).reflect(lift_mask(e))


def test_lift_inverse_rejects_equator_mass():
    bad = SphereMeasure(2, {(0, 1): 1, (0, -1): 1})
    with pytest.raises(ValueError):
        lift_inverse(bad)


def test_lift_inverse_rejects_asymmetric_input():
    bad = SphereMeasure(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        lift_inverse(bad)


def test_lift_class_shapes():
    n = 2
    pair = GeneratingPair.make(n)
    support = [SubsetMask.full(n)]
    lifted_support, lifted_pair = lift_class(support, pair)
    assert lifted_support == {SubsetMask.full(n + 1)}
    assert lifted_pair.evens == {SubsetMask.full(n + 1)}
    assert lifted_pair.odds == frozenset()


def test_lifted_class_membership_transfers():
    for seed in range(10):
        n = 1 + seed % 2
        pair = gen_pair(seed + 600, n)
        mu = gen_measure(seed + 700, n, 3)
        lifted = lift(mu)
        _, lifted_pair = lift_class([], pair)
        in_class = all(mu.is_even_under(f) for f in pair.evens) and all(
            mu.is_odd_under(f) for f in pair.odds
        )
        lifted_in_class = all(lifted.is_even_under(f) for f in lifted_pair.evens) and all(
            lifted.is_odd_under(f) for f in lifted_pair.odds
        )
        assert in_class == lifted_in_class


def test_lifted_pair_closure_stays_proper():
    for seed in range(20):
        n = 1 + seed % 2
        pair = gen_pair(seed + 800, n)
        assert gamma(pair).proper == gamma(lift_class([], pair)[1]).proper


def test_universality_transfers_along_lift():
    for seed in range(25):
        n = 1 + seed % 2
        mu = gen_measure(seed + 900, n, seed % 4)
        pair = gen_pair(seed + 1000, n)
        support = [e for e in all_subsets(n) if (seed >> e.bits) & 1 or e.size == n]
        below = decide_universal_rn(mu, support, pair).universal
        lifted_support, lifted_pair = lift_class(support, pair)
        above = decide_universal_sphere(lift(mu), lifted_support, lifted_pair).universal
        assert below == above


def test_sigma0_lift_is_universal():
    n = 2
    mu = sigma0(n)
    support = [SubsetMask.full(n)]
    pair = GeneratingPair.make(n)
    lifted_support, lifted_pair = lift_class(support, pair)
    assert decide_universal_sphere(lift(mu), lifted_support, lifted_pair).universal


def test_lift_inverse_refuses_point_measures():
    # read as rays, these atoms invert to 2/5*sqrt(5) at the point 2
    with pytest.raises(ValueError, match="expected a sphere measure, got Measure"):
        lift_inverse(Measure(2, {(1, 2): 1, (-1, -2): 1}))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lift_inverse(SphereMeasure(1, {(1,): 1})), "lifted measures have dimension >= 2"),
        (lambda: lift(SphereMeasure(2, {(1, 1): 1})), "expected a point measure, got SphereMeasure"),
        # the equator is checked before the symmetry, its first ray in atom order
        (lambda: lift_inverse(SphereMeasure._of(2, {1: {(1, 1): 1, (0, 1): 1}, 2: {(0, -1): 1}})),
         "atom at ray (0, 1) sits on the equator of the lifted coordinate"),
        (lambda: lift_inverse(SphereMeasure._of(2, {1: {(1, 1): 1}, 2: {(0, -1): 1, (0, 1): 1}})),
         "atom at ray (0, -1) sits on the equator of the lifted coordinate"),
        # symmetric in one part, not in the other
        (lambda: lift_inverse(SphereMeasure._of(2, {1: {(1, 1): 1, (-1, -1): 1}, 2: {(1, 2): 1, (-1, -2): -1}})),
         "measure is not origin-symmetric"),
    ],
    ids=["lift-inverse-dim-1", "lift-sphere", "lift-inverse-equator-first-part", "lift-inverse-equator-second-part",
         "lift-inverse-odd-part"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def composed_lift(mu):
    """``lift`` by its definition."""
    return radial_project(msym(tensor(Measure.dirac([1]), mu)))


def stored(mu):
    """The stored form, the order of parts and keys included."""
    return mu.dim, mu._den, mu._wden, [(s, list(part.items())) for s, part in mu._parts.items()]


def distinct_primes(seed, dim, size):
    """Coordinates that are distinct signed primes over distinct prime
    denominators, no prime used twice, with rational weights."""
    rng = random.Random(seed)
    primes = iter(rng.sample(PRIMES, 2 * dim * size))
    atoms = {}
    for _ in range(size):
        point = tuple(F(rng.choice((-1, 1)) * next(primes), next(primes)) for _ in range(dim))
        atoms[point] = F(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 6))
    return Measure(dim, atoms)


LIFT_INPUTS = {
    "zero-1": Measure.zero(1),
    "zero-3": Measure.zero(3),
    "unit": dirac(1),
    # keys (2, 2) and (2, 1) over 2: one ray divides by its gcd
    "shared-gcd": Measure(1, {(F(1, 2),): 3, (1,): -1}),
    # even coefficients: the origin average's half cancels
    "even-weights": Measure(2, {(1, 2): 2, (-3, F(1, 3)): 4}),
    "radicands": Measure(2, {(1, F(-1, 2)): 1 + Surd.sqrt(2), (F(2, 3), 3): Surd.sqrt(3) - F(1, 2),
                             (0, 5): Surd.sqrt(6), (-2, 0): 1}),
    "distinct-primes-3": distinct_primes(1, 3, 30),
    "distinct-primes-5": distinct_primes(2, 5, 12),
}
LIFT_INPUTS.update({f"seeded-{seed}": gen_measure(seed, 1 + seed % 3, 1 + seed % 6) for seed in range(6)})


@pytest.mark.parametrize("mu", LIFT_INPUTS.values(), ids=LIFT_INPUTS.keys())
def test_lift_is_the_composed_definition_in_stored_order(mu, assert_trusted):
    lifted = lift(mu)
    assert stored(lifted) == stored(composed_lift(mu))
    if mu.atom_count() < 10:  # the rays of the others have norms too large to factor
        assert_trusted({"lift": lifted})
    back = lift_inverse(lifted)
    assert stored(back) == stored(mu)
