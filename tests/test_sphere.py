import json
import math
import random
from fractions import Fraction

import pytest
from conftest import stored_mass

from multconv import measures
from multconv.harness import gen_measure, gen_pair, gen_sphere_measure
from multconv.lifting import lift, lift_inverse
from multconv.measures import Measure, mconv, msym, munc, phat, symmetrize, tensor, unc_forward, unc_inverse
from multconv.points import primitive_ray
from multconv.scalars import FactorLimitError, Surd, as_surd
from multconv.sphere import SphereMeasure, moment_g, radial_project, sconv
from multconv.subsets import GeneratingPair, SubsetMask, all_subsets
from multconv.universality import _probe_product, decide_universal_sphere
from multconv.zonoids import Zonotope, generating_measure

F = Fraction


def dirac(*coords):
    return Measure.dirac([F(c) for c in coords])


def test_radial_projection_of_dirac():
    projected = radial_project(dirac(3, 4))
    assert projected == SphereMeasure(2, {(3, 4): 5})


def test_radial_projection_drops_origin():
    assert radial_project(dirac(0, 0)).is_zero()


def test_radial_projection_total_mass_is_norm_integral():
    mu = gen_measure(5, 2, 5)
    expected = Surd(0)
    for pt, w in mu.atoms.items():
        expected = expected + w * Surd.sqrt(pt[0] ** 2 + pt[1] ** 2)
    assert radial_project(mu).total_mass() == expected


def test_radial_projection_is_idempotent():
    mu = gen_measure(6, 2, 4)
    projected = radial_project(mu)
    assert radial_project(projected) is projected


def test_sphere_product_of_diracs():
    # (1,1)*(1,-2) = (1,-2): norms sqrt(2), sqrt(5), product norm sqrt(5)
    left = radial_project(dirac(1, 1))
    right = radial_project(dirac(1, -2))
    got = sconv(left, right)
    q = Surd.sqrt(F(5, 10))
    assert got == SphereMeasure(2, {(1, -2): Surd.sqrt(2) * Surd.sqrt(5) * q})
    direct = sconv(dirac(1, 1), dirac(1, -2))
    assert got == direct


def test_sphere_product_drops_orthogonal_supports():
    a = radial_project(dirac(1, 0))
    b = radial_project(dirac(0, 1))
    assert sconv(a, b).is_zero()


def test_sphere_product_matches_projected_convolution_mass():
    # the product equals the radial projection of the point convolution,
    # checked through the norm integral
    mu = gen_measure(7, 2, 4)
    nu = gen_measure(8, 2, 4)
    via_points = radial_project(mconv(mu, nu))
    via_sphere = sconv(radial_project(mu), radial_project(nu))
    assert via_points == via_sphere


def test_sphere_product_laws():
    for seed in range(5):
        a = gen_sphere_measure(seed + 10, 2, 3)
        b = gen_sphere_measure(seed + 20, 2, 3)
        c = gen_sphere_measure(seed + 30, 2, 3)
        assert sconv(a, b) == sconv(b, a)
        assert sconv(sconv(a, b), c) == sconv(a, sconv(b, c))
        assert sconv(a + b, c) == sconv(a, c) + sconv(b, c)


def test_sphere_norm_submultiplicative():
    for seed in range(8):
        a = gen_sphere_measure(seed + 40, 2, 4)
        b = gen_sphere_measure(seed + 50, 2, 4)
        assert sconv(a, b).tv_norm() <= a.tv_norm() * b.tv_norm()


def test_subsphere_projection_composition():
    for seed in range(5):
        mu = gen_sphere_measure(seed + 60, 3, 4)
        for ebits in range(8):
            for fbits in range(8):
                e = SubsetMask(ebits, 3)
                f = SubsetMask(fbits, 3)
                assert mu.project(e).project(f) == mu.project(e & f)


def test_subsphere_projection_identity():
    mu = gen_sphere_measure(9, 3, 4)
    assert mu.project(SubsetMask.full(3)) == mu


def test_subsphere_projection_slides_through_product():
    for seed in range(4):
        a = gen_sphere_measure(seed + 70, 2, 3)
        b = gen_sphere_measure(seed + 80, 2, 3)
        for bits in range(4):
            e = SubsetMask(bits, 2)
            lhs = sconv(a, b).project(e)
            assert lhs == sconv(a.project(e), b)
            assert lhs == sconv(a, b.project(e))


def test_radial_commutes_with_coordinate_projection():
    for seed in range(4):
        mu = gen_measure(seed + 90, 3, 4)
        for bits in range(8):
            e = SubsetMask(bits, 3)
            assert radial_project(mu.project(e)) == radial_project(mu).project(e)


def test_radial_commutes_with_order_restriction():
    mu = gen_measure(10, 3, 5)
    for e in all_subsets(3):
        assert radial_project(mu).restrict_order(e) == radial_project(mu.restrict_order(e))


def test_radial_commutes_with_reflections_and_symmetrization():
    mu = gen_measure(11, 2, 4)
    for f in all_subsets(2):
        assert radial_project(mu.reflect(f)) == radial_project(mu).reflect(f)
    assert radial_project(msym(mu)) == msym(radial_project(mu))
    assert radial_project(munc(mu)) == munc(radial_project(mu))


def test_sign_density_on_sphere():
    mu = gen_measure(12, 2, 4)
    for j in all_subsets(2):
        assert radial_project(mu.sign_density(j)) == radial_project(mu).sign_density(j)
    a = gen_sphere_measure(13, 2, 3)
    b = gen_sphere_measure(14, 2, 3)
    for j in all_subsets(2):
        assert sconv(a, b).sign_density(j) == sconv(a.sign_density(j), b.sign_density(j))


def test_sphere_decomposition_drops_origin_cell():
    a = gen_sphere_measure(15, 2, 4)
    b = gen_sphere_measure(16, 2, 4)
    prod = sconv(a, b)
    total = SphereMeasure.zero(2)
    for e in all_subsets(2):
        if e.size:
            total = total + prod.restrict_order(e)
    assert total == prod


def test_sphere_phat_detects_top_order():
    for seed in range(8):
        mu = gen_sphere_measure(seed + 100, 2, 4)
        top = mu.restrict_order(SubsetMask.full(2))
        assert phat(mu).is_zero() == top.is_zero()


def test_moment_of_unit_masses():
    nu = dirac(1, 1) + dirac(-1, 1)
    assert moment_g(nu, [0.3, 0.4]) == pytest.approx(2.0)
    assert moment_g(nu, [0.0, 0.0]) == pytest.approx(float(nu.total_mass()))


def test_moment_multiplicative():
    pool = tuple(F(v) for v in (-2, -1, F(1, 2), 1, 2))
    for seed in range(6):
        mu = gen_measure(seed + 120, 2, 3, coordinate_pool=pool)
        nu = gen_measure(seed + 140, 2, 3, coordinate_pool=pool)
        alpha = [0.25, 0.5]
        lhs = moment_g(mconv(mu, nu), alpha)
        rhs = moment_g(mu, alpha) * moment_g(nu, alpha)
        assert abs(lhs - rhs) < 1e-9


def test_moment_on_sphere_measure_uses_unit_vectors():
    nu = radial_project(dirac(3, 4))
    alpha = [0.5, 0.25]
    expected = 5.0 * (3 / 5) ** 0.5 * (4 / 5) ** 0.25
    assert moment_g(nu, alpha) == pytest.approx(expected)


def test_moment_matches_radial_projection_on_simplex_exponents():
    pool = tuple(F(v) for v in (-2, -1, 1, 2))
    mu = gen_measure(17, 2, 3, coordinate_pool=pool)
    alpha = [0.5, 0.5]
    assert moment_g(mu, alpha) == pytest.approx(moment_g(radial_project(mu), alpha))


def test_moment_validates_inputs():
    with pytest.raises(ValueError):
        moment_g(dirac(1, 0), [0.5, 0.5])
    with pytest.raises(ValueError):
        moment_g(dirac(1, 1), [0.8, 0.8])
    with pytest.raises(ValueError):
        moment_g(dirac(1, 1), [-0.1, 0.5])
    with pytest.raises(ValueError):
        moment_g(dirac(1, 1), [0.5])


def test_sphere_json_round_trip():
    mu = gen_sphere_measure(18, 2, 4)
    assert SphereMeasure.from_json(mu.to_json()) == mu


def test_ray_keys_are_primitive():
    mu = SphereMeasure(2, {(2, 4): 1})
    assert set(mu.atoms) == {(1, 2)}


def test_sphere_and_point_measures_stay_distinct():
    point = Measure(2, {(F(3), F(4)): 1})
    ray = SphereMeasure(2, {(3, 4): 1})
    assert point != ray and ray != point
    assert not isinstance(ray, Measure)
    assert not isinstance(point, SphereMeasure)


@pytest.mark.parametrize(
    "op", [lambda a, b: a + b, lambda a, b: a - b, mconv], ids=["add", "sub", "mconv"]
)
def test_mixed_settings_are_refused(op):
    point = Measure(2, {(F(1), F(2)): 1})
    ray = SphereMeasure(2, {(1, 2): 1})
    with pytest.raises(ValueError, match="Measure vs SphereMeasure"):
        op(point, ray)
    with pytest.raises(ValueError, match="SphereMeasure vs Measure"):
        op(ray, point)


@pytest.mark.parametrize(
    "op", [mconv, tensor, lambda a, b: unc_inverse(a)], ids=["mconv", "tensor", "unc_inverse"]
)
def test_point_products_refuse_sphere_measures(op):
    ray = SphereMeasure(2, {(1, 2): 1})
    with pytest.raises(ValueError, match="expected a point measure, got SphereMeasure"):
        op(ray, ray)


def test_unc_forward_spreads_a_sphere_measure_on_the_positive_orthant():
    # the orthant rule is the one ``restrict_positive`` of both settings
    mu = SphereMeasure(2, {(1, 2): 1, (0, 1): Surd.sqrt(2), (3, 0): -1})
    assert mu.restrict_positive() == mu
    assert unc_forward(mu) == munc(mu)
    outside = mu + SphereMeasure(2, {(1, -2): 3})
    assert outside.restrict_positive() == mu
    with pytest.raises(ValueError, match="outside the positive orthant"):
        unc_forward(outside)


def test_sphere_product_projects_mixed_settings_first():
    point = Measure(2, {(F(1), F(2)): 1})
    ray = SphereMeasure(2, {(1, 2): 1})
    assert sconv(point, ray) == sconv(ray, point) == sconv(radial_project(point), ray)


def test_repr_and_immutability_name_the_class():
    mu = SphereMeasure(2, {(1, 2): 1})
    assert repr(mu) == "SphereMeasure(dim=2, atoms=1)"
    with pytest.raises(AttributeError, match="^SphereMeasure is immutable"):
        mu.dim = 3
    nu = dirac(1, 2)
    assert repr(nu) == "Measure(dim=2, atoms=1)"
    with pytest.raises(AttributeError, match="^Measure is immutable"):
        nu.dim = 3


@pytest.mark.parametrize("seed", range(6))
def test_trusted_constructor_results_are_canonical(seed, assert_trusted):
    n = 2 + seed % 2
    mu = gen_sphere_measure(seed, n, 6)
    nu = gen_sphere_measure(seed + 100, n, 5)
    f = SubsetMask(seed % (1 << n) or 1, n)
    e = SubsetMask((seed + 1) % (1 << n) or 1, n)
    pos, neg = mu.jordan()
    assert_trusted(
        {
            "add": mu + nu,
            "sub-self": mu - mu,
            "neg": -mu,
            "mul": mu * Surd.sqrt(3),
            "mul-zero": mu * 0,
            "reflect": mu.reflect(f),
            "restrict_order": mu.restrict_order(e),
            "sign_density": mu.sign_density(f),
            "jordan+": pos,
            "jordan-": neg,
            "project": mu.project(e),
            "sconv": sconv(mu, nu),
            "sconv-points": sconv(gen_measure(seed, n, 6), gen_measure(seed + 100, n, 5)),
            "radial_project": radial_project(gen_measure(seed, n, 6)),
            "symmetrize": symmetrize(mu, gen_pair(seed, n)),
            "symmetrize-odd": symmetrize(msym(mu), GeneratingPair.make(n, odds=[SubsetMask.full(n)])),
            "lift": lift(gen_measure(seed, n, 6)),
        }
    )


# -- reference formulas: one norm-ratio square root per atom or pair ---------


def _norm_sq(x):
    return sum(c * c for c in x)


def _reference_radial(mu):
    """Weight ``w * |x|`` at the primitive ray through each nonzero point."""
    acc = {}
    for x, w in mu.atoms.items():
        if not any(x):
            continue
        scale = math.lcm(*(c.denominator for c in x))
        ray = primitive_ray([int(c * scale) for c in x])
        acc[ray] = acc.get(ray, Surd(0)) + w * Surd.sqrt(_norm_sq(x))
    return SphereMeasure(mu.dim, acc)


def _reference_project(mu, e):
    """Weight ``w * |c|/|r|`` at the primitive ray of each projection ``c``."""
    acc = {}
    for r, w in mu.atoms.items():
        c = [v if e.bits >> i & 1 else 0 for i, v in enumerate(r)]
        if not any(c):
            continue
        ray = primitive_ray(c)
        acc[ray] = acc.get(ray, Surd(0)) + w * Surd.sqrt(F(_norm_sq(c), _norm_sq(r)))
    return SphereMeasure(mu.dim, acc)


def _reference_sconv(a, b):
    """Weight ``wd * we * |d*e|/(|d| |e|)`` at the primitive ray of ``d*e``."""
    sa = a if isinstance(a, SphereMeasure) else _reference_radial(a)
    sb = b if isinstance(b, SphereMeasure) else _reference_radial(b)
    acc = {}
    for d, wd in sa.atoms.items():
        for e, we in sb.atoms.items():
            prod = [x * y for x, y in zip(d, e)]
            if not any(prod):
                continue
            ray = primitive_ray(prod)
            ratio = F(_norm_sq(prod), _norm_sq(d) * _norm_sq(e))
            acc[ray] = acc.get(ray, Surd(0)) + wd * we * Surd.sqrt(ratio)
    return SphereMeasure(sa.dim, acc)


_RATIONAL_POOL = tuple(F(v) for v in (-3, -2, F(-2, 3), F(-1, 2), 0, F(1, 3), 1, F(3, 2), 2))


def _reference_inputs(seed, n):
    """Point measures with rational coordinates, an origin atom and a scaled
    copy of one atom (which lands on the same ray), and sphere measures."""
    mu = gen_measure(seed, n, 5, coordinate_pool=_RATIONAL_POOL)
    x = next(x for x in mu.atoms if any(x))
    mu = mu + dirac(*([0] * n)) * 3 + Measure(n, {tuple(F(7, 2) * c for c in x): 1})
    return mu, gen_sphere_measure(seed + 1, n, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_layer_matches_reference_formulas(n):
    for seed in range(6):
        mu, sigma = _reference_inputs(seed + 200 * n, n)
        nu, tau = _reference_inputs(seed + 200 * n + 100, n)
        assert radial_project(mu) == _reference_radial(mu)
        assert radial_project(nu) == _reference_radial(nu)
        for a, b in ((sigma, tau), (mu, nu), (mu, tau), (sigma, nu)):
            assert sconv(a, b) == _reference_sconv(a, b)
        for e in all_subsets(n):
            assert sigma.project(e) == _reference_project(sigma, e)
            assert sconv(mu, tau).project(e) == _reference_project(_reference_sconv(mu, tau), e)


def _reference_generating(z):
    """Half the length of each generator at the two opposite rays through it."""
    acc = {}
    for g in z.generators:
        half = Surd.sqrt(_norm_sq(g)) * F(1, 2)
        scale = math.lcm(*(c.denominator for c in g))
        ray = primitive_ray([int(c * scale) for c in g])
        for r in (ray, tuple(-c for c in ray)):
            acc[r] = acc.get(r, Surd(0)) + half
    return SphereMeasure(z.dim, acc)


def test_generating_measure_matches_reference():
    cases = [
        [(1, 2), (1, 2)],  # repeated
        [(1, 2), (-1, -2)],  # opposite
        [(1, 2), (F(1, 2), 1), (3, 6)],  # scaled
        [(1, 0), (0, 1), (1, -1), (F(2, 3), F(-4, 3))],
    ]
    for gens in cases:
        z = Zonotope.make(2, gens)
        assert generating_measure(z) == _reference_generating(z)
    for n in (1, 2, 3, 4):
        for seed in range(4):
            mu = gen_measure(seed + 40 * n, n, 4, coordinate_pool=_RATIONAL_POOL)
            gens = [x for x in mu.atoms if any(x)]
            first = gens[0]
            gens += [tuple(-c for c in first), tuple(2 * c for c in first), first]
            z = Zonotope.make(n, gens)
            assert generating_measure(z) == _reference_generating(z)


def _lanes(masses):
    """Point masses given as :class:`Surd` values, as the int lanes of a
    gather (one per term, repeats kept) over one weight denominator."""
    wden = math.lcm(*(q for _, m in masses for _, _, q in m._terms))
    return [(r, [(v, p * (wden // q))]) for v, m in masses for r, p, q in m._terms], wden


def test_push_sums_each_ray_before_its_root():
    rays = [(1, 2, 0), (-1, 1, 1), (3, 0, -2)]
    masses = []
    for k, ray in enumerate(rays):
        for g in (1, 2, 3, 6):
            masses.append((tuple(g * c for c in ray), Surd(F(k + 1, g)) * Surd.sqrt(g + k)))
    # cancels on the first ray: 2 * |r| - 1 * |2r| = 0
    masses += [((1, 2, 0), Surd(2)), ((2, 4, 0), Surd(-1))]
    masses += [((0, 0, 0), Surd(5))]  # the origin spans no ray
    # per pair: mass m at v adds m * |v| at the primitive ray through v
    expected = {}
    for v, m in masses:
        if any(v):
            ray = primitive_ray(v)
            expected[ray] = expected.get(ray, Surd(0)) + m * Surd.sqrt(sum(c * c for c in v))
    lanes, wden = _lanes(masses)
    got = SphereMeasure._gather(3, lanes, 1, wden)
    assert dict(got.atoms) == {r: w for r, w in expected.items() if w}
    # each part lists its rays in the order of their first mass of its radicand
    for s, part in got._parts.items():
        first = dict.fromkeys(primitive_ray(v) for r, pairs in lanes if r == s for v, _ in pairs if any(v))
        assert list(part) == [ray for ray in first if ray in part]
    # a ray whose sum cancels to zero is dropped
    cancel = [((1, 1), Surd(1)), ((2, 2), Surd(F(-1, 2))), ((3, -1), Surd(1))]
    lanes, wden = _lanes(cancel)
    assert SphereMeasure._gather(2, lanes, 1, wden) == SphereMeasure(2, {(3, -1): Surd.sqrt(10)})


def test_project_merges_masses_sharing_one_surd():
    # one Surd object given as the weight of two atoms is read into the
    # integer form once per atom, and the projection merges the two
    w = Surd.sqrt(2)
    axis = SubsetMask.single(2, 1)
    mu = Measure(2, {(1, 2): w, (1, 3): w})
    assert mu.project(axis) == Measure(2, {(1, 0): 2 * w})
    sigma = SphereMeasure(2, {(1, 2): w, (1, 3): w})
    expected = w * Surd.sqrt(F(1, 5)) + w * Surd.sqrt(F(1, 10))
    assert sigma.project(axis) == SphereMeasure(2, {(1, 0): expected})
    # the same mass twice, at one vector and at a multiple of it
    for v, factor in (((1, 2), 2), ((2, 4), 3)):
        lanes, wden = _lanes([((1, 2), w), (v, w)])
        assert SphereMeasure._gather(2, lanes, 1, wden) == SphereMeasure(2, {(1, 2): factor * w * Surd.sqrt(5)})


def test_project_keeps_coordinate_types():
    point = Measure(3, {(F(1, 2), 2, -3): 1, (0, 4, 6): 2})
    ray = SphereMeasure(3, {(1, 2, -3): 1, (0, 4, 6): 2})
    for e in all_subsets(3):
        assert {type(c) for loc in point.project(e).atoms for c in loc} == {Fraction}
        if e.size:  # the sphere misses the origin
            assert {type(c) for loc in ray.project(e).atoms for c in loc} == {int}


def test_sphere_atom_with_prime_norm_round_trips():
    # |(2000000, 19)|**2 = 4000000000361 is prime: trial division certifies it
    # by running to its cube root, far below the bound 10**6
    mu = SphereMeasure(2, {(2000000, 19): 1})
    assert SphereMeasure.from_json(mu.to_json()) == mu
    assert mu.weight_at((2000000, 19)) == Surd(1)
    nu = sconv(Measure(2, {(2000000, 19): 1}), Measure(2, {(1, 1): 1}))
    assert SphereMeasure.from_json(nu.to_json()) == nu


def test_sphere_measure_refuses_non_integral_ray():
    with pytest.raises(ValueError, match="3/2"):
        SphereMeasure(2, {(F(3, 2), 1): 1})
    assert SphereMeasure(2, {(F(3), 6): 1}) == SphereMeasure(2, {(1, 2): 1})


# -- mass form: no root inside the sphere algebra ------------------------------


def test_sphere_algebra_takes_no_square_root(monkeypatch):
    mu, sigma = _reference_inputs(7, 3)
    nu, tau = _reference_inputs(8, 3)
    lifted = lift(gen_measure(9, 2, 6))
    pair = GeneratingPair.make(3, evens=[SubsetMask.full(3)], odds=[SubsetMask.single(3, 2)])
    e = SubsetMask.from_indices(3, [1, 3])
    j = SubsetMask.single(3, 3)
    support = [f for f in all_subsets(3) if f.size]
    # for the surface: weights of several radicands on rays of several
    # norms, the perfect square 25 among them
    rho = _irrational_sphere()[0]
    given = list(rho.atoms.items()) + [((3, 4), Surd.sqrt(2)), ((2, 2), F(1, 2))]
    data = sconv(rho, radial_project(_reference_inputs(8, 2)[0])).to_json()
    calls = []
    products = []
    root, mul = Surd.sqrt, Surd.__mul__

    def counted(cls, value, **kwargs):
        calls.append(value)
        return root(value, **kwargs)

    def counted_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Surd, "sqrt", classmethod(counted))
    sconv(mu, nu)
    sconv(sigma, tau)
    sconv(mu, tau)
    radial_project(mu)
    sigma.project(e)
    lift(mu)
    lift_inverse(lifted)
    symmetrize(sigma, pair)
    _probe_product(e, j, SphereMeasure)
    decide_universal_sphere(sigma, support, pair)
    assert calls == []
    # nor does the public surface, which reads weights on ints: no root and
    # no product
    monkeypatch.setattr(Surd, "__mul__", counted_mul)
    monkeypatch.setattr(Surd, "__rmul__", counted_mul)
    for x in (SphereMeasure.from_json(data), SphereMeasure(2, given), rho, tau):
        x.to_json()
        for ray in x.atoms:
            x.weight_at(ray)
        x.weight_at((7,) * x.dim)
        x.total_mass()
        x.tv_norm()
        x.jordan()
        moment_g(x.restrict_order(SubsetMask.full(x.dim)), [0.25] * x.dim)
    assert calls == [] and products == []
    # the surface factors the norms of the rays it reads, but not the norm 1
    factored = []
    decompose = measures.square_free_decompose

    def counted_decompose(m):
        factored.append(m)
        return decompose(m)

    monkeypatch.setattr(measures, "square_free_decompose", counted_decompose)
    rho.to_json()
    assert sorted(factored) == [2, 13, 26]
    assert sorted(_norm_sq(ray) for ray in rho.atoms) == [1, 2, 13, 26]


def _primes(count):
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


_IRRATIONAL_WEIGHTS = (Surd.sqrt(2), 1 + Surd.sqrt(3), Surd.sqrt(F(5, 7)) - F(1, 3), Surd(F(-4, 5)))


def _distinct_inputs(seed, n, count=4):
    """A point and a sphere measure of ``count`` atoms each, and their
    ``count``-atom partners, no two coordinates equal up to sign: each is
    a distinct prime, over one denominator up to 7 per point.  (Per
    coordinate, the lcm of the denominators makes ray norms too large to
    factor for a root at n = 4.)"""
    rng = random.Random(seed)
    primes = iter(_primes(4 * n * count))
    sign = lambda: rng.choice((1, -1))
    weight = lambda: rng.choice(_IRRATIONAL_WEIGHTS + (Surd(rng.randint(1, 9)), Surd(F(-1, rng.randint(2, 9)))))

    def point():
        q = rng.randint(1, 7)
        return tuple(F(sign() * next(primes), q) for _ in range(n))

    def ray():
        return tuple(sign() * next(primes) for _ in range(n))

    return (
        Measure(n, {point(): weight() for _ in range(count)}),
        SphereMeasure(n, {ray(): weight() for _ in range(count)}),
        Measure(n, {point(): weight() for _ in range(count)}),
        SphereMeasure(n, {ray(): weight() for _ in range(count)}),
    )


def _pairwise_sconv(a, b):
    """Each pair's mass pushed to the ray of its product with its own root:
    weight ``wa * wb * |x*y| / (N(x) N(y))``, where ``N`` is 1 at a point and
    the norm of a ray, read from the decoded weights."""
    def atoms(mu):
        if isinstance(mu, SphereMeasure):
            return [(loc, w, _norm_sq(loc)) for loc, w in mu.atoms.items()]
        return [(loc, w, 1) for loc, w in mu.atoms.items()]

    acc = {}
    for x, wx, nx in atoms(a):
        for y, wy, ny in atoms(b):
            prod = [p * q for p, q in zip(x, y)]
            scale = math.lcm(*(F(c).denominator for c in prod))
            ray = primitive_ray([int(c * scale) for c in prod])
            root = Surd.sqrt(_norm_sq(prod)) * Surd.sqrt(F(1, nx)) * Surd.sqrt(F(1, ny))
            acc[ray] = acc.get(ray, Surd(0)) + wx * wy * root
    return SphereMeasure(a.dim, acc)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_layer_matches_pairwise_roots_on_distinct_values(n, assert_trusted):
    for seed in range(3):
        mu, sigma, nu, tau = _distinct_inputs(100 * n + seed, n)
        assert radial_project(mu) == _reference_radial(mu)
        assert radial_project(nu) == _reference_radial(nu)
        results = {}
        for name, a, b in (("points", mu, nu), ("sphere", sigma, tau), ("mixed", mu, tau), ("mixed-r", sigma, nu)):
            results[name] = got = sconv(a, b)
            assert got == _pairwise_sconv(a, b), (seed, name)
        results["radial"] = radial_project(mu)
        assert_trusted(results)


def _irrational_sphere():
    """Weights ``sqrt(2)`` at (1, 1), and ``1 + sqrt(3)`` merged from two
    rays through (2, -3), among others: the input as given and merged."""
    given = [
        ((1, 1), Surd.sqrt(2)),
        ((2, -3), Surd(1)),
        ((4, -6), Surd.sqrt(3)),
        ((-1, 5), Surd.sqrt(F(5, 7)) - F(1, 3)),
        ((0, -7), Surd(F(-4, 5))),
    ]
    merged = {(1, 1): Surd.sqrt(2), (2, -3): 1 + Surd.sqrt(3), (-1, 5): given[3][1], (0, -1): given[4][1]}
    return SphereMeasure(2, given), merged


def test_irrational_weights_read_back_through_the_surface(assert_trusted):
    mu, weights = _irrational_sphere()
    assert dict(mu.atoms) == weights
    for ray, w in weights.items():
        assert mu.weight_at(ray) == w
        assert mu.weight_at(tuple(3 * c for c in ray)) == w
        # stored in mass form
        assert stored_mass(mu, ray) * Surd.sqrt(_norm_sq(ray)) == w
    assert mu.weight_at((1, 2)) == Surd(0)
    data = mu.to_json()
    assert data["atoms"] == [
        {"ray": [str(c) for c in r], "weight": weights[r].to_json()} for r in sorted(weights)
    ]
    back = SphereMeasure.from_json(data)
    assert back == mu and back.to_json() == data
    total = Surd(0)
    tv = Surd(0)
    for w in weights.values():
        total = total + w
        tv = tv + abs(w)
    assert mu.total_mass() == total
    assert mu.tv_norm() == tv
    pos, neg = mu.jordan()
    assert dict(pos.atoms) == {r: w for r, w in weights.items() if w.sign() > 0}
    assert dict(neg.atoms) == {r: -w for r, w in weights.items() if w.sign() < 0}
    assert pos - neg == mu
    top = mu.restrict_order(SubsetMask.full(2))
    alpha = [0.3, 0.5]
    expected = sum(
        float(w) * (abs(r[0]) / _norm_sq(r) ** 0.5) ** alpha[0] * (abs(r[1]) / _norm_sq(r) ** 0.5) ** alpha[1]
        for r, w in weights.items()
        if all(r)
    )
    assert moment_g(top, alpha) == pytest.approx(expected)
    # sums that cancel on the ray (1, 1) drop it
    added = mu + SphereMeasure(2, {(1, 1): -Surd.sqrt(2), (3, 1): 1})
    subtracted = mu - SphereMeasure(2, {(2, 2): Surd.sqrt(2)})
    rest = {r: w for r, w in weights.items() if r != (1, 1)}
    assert dict(added.atoms) == {**rest, (3, 1): Surd(1)}
    assert dict(subtracted.atoms) == rest
    assert_trusted(
        {
            "given": mu,
            "jordan+": pos,
            "jordan-": neg,
            "json": back,
            "top": top,
            "add-cancel": added,
            "sub-cancel": subtracted,
        }
    )


# -- the integer weight coding against the Surd coding ---------------------------


def _oracle_weight(m, n):
    """The weight of mass ``m`` at a ray of squared norm ``n``, by Surd roots."""
    return m * Surd.sqrt(n)


def _oracle_mass(w, n):
    """The mass of weight ``w`` at a ray of squared norm ``n``, by Surd roots."""
    return w * Surd.sqrt(F(1, n))


_CODING_CASES = {
    # sqrt(2) at (1, 1) is the mass 1, and 2 there the mass sqrt(2); sqrt(10)
    # at (1, 2) is the mass sqrt(2)
    "collapse": (2, [((1, 1), Surd.sqrt(2)), ((1, 2), Surd.sqrt(10)), ((-1, 1), Surd(2))]),
    "square-2": (2, [((3, 4), Surd(F(-3, 7))), ((4, -3), Surd.sqrt(6)), ((0, 5), 1 + Surd.sqrt(5))]),
    "square-3": (3, [((2, 3, 6), Surd.sqrt(2)), ((2, 2, 1), F(5, 3)), ((1, 1, 1), Surd.sqrt(3) - 1)]),
    # (2, 2) and (3, 3) repeat (1, 1), and cancel it; (4, 8) repeats (1, 2)
    "repeats": (2, [((1, 1), Surd.sqrt(2)), ((1, 2), 1 - Surd.sqrt(3)), ((2, 2), -Surd.sqrt(8)),
                    ((4, 8), Surd.sqrt(5)), ((3, 3), Surd.sqrt(2)), ((2, -1), Surd(F(1, 4)))]),
    "negative": (2, [((1, 2), 1 - Surd.sqrt(3)), ((-1, 1), Surd.sqrt(6) - 2), ((1, -3), -Surd.sqrt(5) - F(1, 2)),
                     ((5, 1), -Surd.sqrt(13) + Surd.sqrt(2))]),
}


def _oracle_measure(given):
    """The weights merged per primitive ray, and their rays in the order of
    ``atoms``: part by part, the parts in the order the masses make them."""
    merged = {}
    for loc, w in given:
        ray = primitive_ray(loc)
        merged[ray] = merged.get(ray, Surd(0)) + w
    weights = {ray: w for ray, w in merged.items() if w}
    parts = {}
    for ray, w in weights.items():
        for s, _ in _oracle_mass(w, _norm_sq(ray)).terms:
            parts.setdefault(s, []).append(ray)
    return weights, list(dict.fromkeys(ray for rays in parts.values() for ray in rays))


@pytest.mark.parametrize("name", sorted(_CODING_CASES))
def test_integer_weight_coding_matches_surd_roots(name, assert_trusted):
    dim, given = _CODING_CASES[name]
    mu = SphereMeasure(dim, given)
    weights, order = _oracle_measure(given)
    for ray, w in weights.items():
        assert stored_mass(mu, ray) == _oracle_mass(w, _norm_sq(ray)), ray
        assert _oracle_weight(stored_mass(mu, ray), _norm_sq(ray)) == w, ray
    assert list(mu.atoms.items()) == [(ray, weights[ray]) for ray in order]
    for ray, w in weights.items():
        assert mu.weight_at(ray) == w
        assert mu.weight_at(tuple(3 * c for c in ray)) == w
    assert mu.weight_at((7,) + (1,) * (dim - 1)) == Surd(0)
    assert mu.total_mass() == sum(weights.values(), Surd(0))
    assert mu.tv_norm() == sum((abs(w) for w in weights.values()), Surd(0))
    alpha = [0.5 / dim] * dim
    top = {ray: w for ray, w in weights.items() if all(ray)}
    expected = sum(float(w) * math.prod((abs(c) / _norm_sq(ray) ** 0.5) ** a for c, a in zip(ray, alpha))
                   for ray, w in top.items())
    assert moment_g(mu.restrict_order(SubsetMask.full(dim)), alpha) == pytest.approx(expected, rel=1e-12)
    data = {"dim": dim, "atoms": [{"ray": [str(c) for c in ray], "weight": weights[ray].to_json()}
                                  for ray in sorted(weights)]}
    assert json.dumps(mu.to_json()) == json.dumps(data)
    given_data = {"dim": dim, "atoms": [{"ray": list(loc), "weight": as_surd(w).to_json()} for loc, w in given]}
    assert SphereMeasure.from_json(given_data) == mu
    back = SphereMeasure.from_json(mu.to_json())
    assert back == mu and json.dumps(back.to_json()) == json.dumps(data)
    pos, neg = mu.jordan()
    assert dict(pos.atoms) == {r: w for r, w in weights.items() if w.sign() > 0}
    assert dict(neg.atoms) == {r: -w for r, w in weights.items() if w.sign() < 0}
    assert_trusted({"given": mu, "json": back, "jordan+": pos, "jordan-": neg})


def test_jordan_reads_masses_where_the_surface_cannot_factor():
    # |(2000000000, 7)|**2 = 4000000000000000049 is a prime above the cube
    # of the trial-division bound, held by two parts: the mass 1 - sqrt(2)
    ray = (2000000000, 7)
    mu = SphereMeasure._of(2, {1: {ray: 1}, 2: {ray: -1}})
    pos, neg = mu.jordan()
    assert pos.is_zero() and neg == -mu
    assert (-mu).jordan() == (neg, pos)
    with pytest.raises(FactorLimitError, match="radicand 4000000000000000049 exceeds the trial-division bound"):
        mu.to_json()
