import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from multconv.harness import brute_force_convolution, gen_measure, gen_pair, gen_sphere_measure
from multconv.lifting import lift, lift_inverse
from multconv.measures import (
    Measure,
    _reflection_average,
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
from multconv.points import zero_pattern
from multconv.scalars import HALF, Surd
from multconv.sphere import SphereMeasure, radial_project, sconv
from multconv.subsets import (
    GeneratingPair,
    SubsetMask,
    all_subsets,
    gamma,
    index_set,
    mask_sort_key,
    subsets_of,
)
from multconv.universality import _probe_product
from multconv.zonoids import Zonotope

F = Fraction


def dirac(*coords):
    return Measure.dirac([F(c) for c in coords])


def mask(dim, *indices):
    return SubsetMask.from_indices(dim, indices)


def test_dirac_convolution():
    assert mconv(dirac(2, -1), dirac(3, 3)) == dirac(6, -3)


def test_atom_at_origin_absorbs():
    mu = gen_measure(3, 2, 4)
    origin = dirac(0, 0)
    assert mconv(origin, mu) == origin * mu.total_mass()


def test_total_mass_multiplies():
    for seed in range(5):
        mu = gen_measure(seed, 2, 3)
        nu = gen_measure(seed + 100, 2, 3)
        assert mconv(mu, nu).total_mass() == mu.total_mass() * nu.total_mass()


def test_unit_element():
    for n in (1, 2, 3):
        mu = gen_measure(n, n, 4)
        assert mconv(mu, unit(n)) == mu


def test_parity_basis_products_exhaustive():
    for n in (1, 2, 3):
        for j in all_subsets(n):
            for k in all_subsets(n):
                prod = mconv(delta_j(n, j), delta_j(n, k))
                if j == k:
                    assert prod == delta_j(n, j)
                else:
                    assert prod.is_zero()


def test_tensor_examples():
    assert tensor(dirac(1, 2), dirac(3)) == dirac(1, 2, 3)
    assert tensor(Measure.zero(2), dirac(1)).is_zero()


def test_tensor_distributes_over_convolution():
    mu = gen_measure(11, 2, 3)
    nu = gen_measure(12, 2, 3)
    rho = gen_measure(13, 1, 3)
    sig = gen_measure(14, 1, 3)
    assert mconv(tensor(mu, rho), tensor(nu, sig)) == tensor(mconv(mu, nu), mconv(rho, sig))


def test_projection_slides_through_convolution():
    for seed in range(5):
        mu = gen_measure(seed + 20, 3, 4)
        nu = gen_measure(seed + 40, 3, 4)
        for bits in range(8):
            e = SubsetMask(bits, 3)
            lhs = mconv(mu, nu).project(e)
            assert lhs == mconv(mu.project(e), nu)
            assert lhs == mconv(mu, nu.project(e))
            assert lhs == mconv(mu.project(e), nu.project(e))


def test_sigma0_kills_proper_projections():
    for n in (1, 2, 3):
        s = sigma0(n)
        for e in all_subsets(n):
            if e.size < n:
                assert s.project(e).is_zero()
        assert s.project(SubsetMask.full(n)) == s


def test_sigma0_expansion():
    assert sigma0(1) == Measure(1, {(F(1),): -1, (F(2),): 1})


def test_sigma0_absorbs_lower_orders():
    for n in (1, 2, 3):
        for seed in range(4):
            nu = gen_measure(seed + 60, n, 4)
            top = nu.restrict_order(SubsetMask.full(n))
            assert mconv(nu, sigma0(n)) == mconv(top, sigma0(n))


def test_coordinate_decomposition_resums():
    for seed in range(5):
        mu = gen_measure(seed + 80, 3, 5)
        total = Measure.zero(3)
        for e in all_subsets(3):
            total = total + mu.restrict_order(e)
        assert total == mu


def test_restrict_order_idempotent():
    mu = gen_measure(7, 2, 5)
    for e in all_subsets(2):
        once = mu.restrict_order(e)
        assert once.restrict_order(e) == once


def test_origin_atom_has_empty_pattern():
    origin = dirac(0, 0)
    assert origin.restrict_order(SubsetMask.empty(2)) == origin


def test_convolution_decomposition_by_intersection():
    mu = gen_measure(91, 2, 4)
    nu = gen_measure(92, 2, 4)
    prod = mconv(mu, nu)
    for g in all_subsets(2):
        expected = Measure.zero(2)
        for e in all_subsets(2):
            for f in all_subsets(2):
                if e & f == g:
                    expected = expected + mconv(mu.restrict_order(e), nu.restrict_order(f))
        assert prod.restrict_order(g) == expected


def test_restrict_positive_examples():
    assert sigma_sym(1).restrict_positive() == dirac(1) * F(1, 2)
    mu = gen_measure(15, 2, 4)
    for e in all_subsets(2):
        assert mu.restrict_positive().restrict_order(e) == mu.restrict_order(e).restrict_positive()
    pos = Measure(2, {(F(1), F(2)): 1, (F(1, 2), F(3)): -2})
    assert pos.restrict_positive() == pos


def test_reflection_moves_sign_vectors():
    n = 3
    for e in all_subsets(n):
        for f in all_subsets(n):
            ones_e = tuple(F(-1) if e.bits >> i & 1 else F(1) for i in range(n))
            moved = Measure.dirac(ones_e).reflect(f)
            ones_ef = tuple(F(-1) if (e ^ f).bits >> i & 1 else F(1) for i in range(n))
            assert moved == Measure.dirac(ones_ef)


def test_reflection_sign_law_exhaustive():
    for n in (1, 2, 3):
        for e in all_subsets(n):
            for j in subsets_of(e):
                d = delta_ej(e, j)
                for f in all_subsets(n):
                    reflected = d.reflect(f)
                    if (j.bits & f.bits).bit_count() % 2:
                        assert reflected == -d
                        assert d.is_odd_under(f)
                    else:
                        assert reflected == d
                        assert d.is_even_under(f)


def test_reflect_identity():
    mu = gen_measure(16, 3, 4)
    assert mu.reflect(SubsetMask.empty(3)) == mu


def test_reflection_commutes_with_projection_and_restriction():
    mu = gen_measure(17, 3, 5)
    for e in all_subsets(3):
        for f in all_subsets(3):
            assert mu.project(e).reflect(f) == mu.reflect(f).project(e)
            assert mu.restrict_order(e).reflect(f) == mu.reflect(f).restrict_order(e)


def test_reflection_slides_through_convolution():
    mu = gen_measure(18, 2, 4)
    nu = gen_measure(19, 2, 4)
    for f in all_subsets(2):
        lhs = mconv(mu, nu).reflect(f)
        assert lhs == mconv(mu.reflect(f), nu)
        assert lhs == mconv(mu, nu.reflect(f))


def test_order_and_degree():
    for n in (1, 2, 3):
        assert sigma0(n).order_of() == SubsetMask.full(n)
    origin = dirac(0, 0)
    assert origin.degree() == 0
    assert origin.order_of() == SubsetMask.empty(2)
    mixed = origin + dirac(1, 1)
    assert mixed.order_of() is None
    assert mixed.degree() == 2
    assert Measure.zero(2).degree() == -1


def test_jordan_decomposition():
    pos, neg = sigma0(1).jordan()
    assert pos == dirac(2)
    assert neg == dirac(1)
    assert Measure.zero(1).tv_norm() == Surd(0)


def test_norm_submultiplicative():
    for seed in range(10):
        mu = gen_measure(seed + 200, 2, 4)
        nu = gen_measure(seed + 300, 2, 4)
        assert mconv(mu, nu).tv_norm() <= mu.tv_norm() * nu.tv_norm()


def test_delta_ej_expansion():
    d = delta_ej(mask(1, 1), mask(1, 1))
    assert d == Measure(1, {(F(1),): F(1, 2), (F(-1),): F(-1, 2)})


def _reference_delta_ej(e, j):
    # one choice bit per coordinate of e, the first coordinate lowest: set
    # bit means -1, and a set bit on a coordinate of j flips the parity
    n = e.dim
    idx = [i for i in range(n) if e.bits >> i & 1]
    scale = F(1, 1 << len(idx))
    atoms = {}
    for choice in range(1 << len(idx)):
        coords = [F(0)] * n
        parity = 0
        for k, i in enumerate(idx):
            if choice >> k & 1:
                coords[i] = F(-1)
                parity ^= j.bits >> i & 1
            else:
                coords[i] = F(1)
        atoms[tuple(coords)] = Surd(-scale if parity else scale)
    return atoms


def _reference_sigma0_on(e):
    # one choice bit per coordinate of e, the first coordinate lowest: the
    # coordinate is 1 plus the bit, the sign alternates with their sum
    n = e.dim
    idx = [i for i in range(n) if e.bits >> i & 1]
    atoms = {}
    for choice in range(1 << len(idx)):
        coords = [F(0)] * n
        total = 0
        for k, i in enumerate(idx):
            coords[i] = F(1 + (choice >> k & 1))
            total += 1 + (choice >> k & 1)
        atoms[tuple(coords)] = Surd(-1 if total % 2 else 1)
    return atoms


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_measures_match_choice_bit_loops(n):
    # equal atoms in the same insertion order, so float sums over them
    # (moment_g) run in the same order
    for e in all_subsets(n):
        want = _reference_sigma0_on(e)
        got = sigma0_on(e)
        assert got == Measure(n, want)
        assert list(got.atoms) == list(want)
        for j in subsets_of(e):
            want = _reference_delta_ej(e, j)
            got = delta_ej(e, j)
            assert got == Measure(n, want)
            assert list(got.atoms) == list(want)


def test_delta_ej_requires_nested_masks():
    with pytest.raises(ValueError):
        delta_ej(mask(2, 1), mask(2, 2))


def test_delta_empty_is_origin():
    n = 2
    assert delta_ej(SubsetMask.empty(n), SubsetMask.empty(n)) == dirac(0, 0)


def test_parity_basis_sums_to_unit():
    for n in (1, 2, 3, 4):
        total = Measure.zero(n)
        for j in all_subsets(n):
            total = total + delta_j(n, j)
        assert total == unit(n)


def test_projection_of_parity_basis_exhaustive():
    for n in (1, 2, 3):
        for e in all_subsets(n):
            for j in subsets_of(e):
                d = delta_ej(e, j)
                for f in subsets_of(e):
                    projected = d.project(f)
                    if j.issubset(f):
                        assert projected == delta_ej(f, j)
                    else:
                        assert projected.is_zero()


def test_sign_decomposition_resums():
    for n in (1, 2, 3):
        for seed in range(3):
            nu = gen_measure(seed + 400, n, 5)
            total = Measure.zero(n)
            for k in all_subsets(n):
                total = total + mconv(delta_j(n, k), nu)
            assert total == nu


def test_sign_density_distributes():
    mu = gen_measure(21, 2, 4)
    nu = gen_measure(22, 2, 4)
    for j in all_subsets(2):
        assert mconv(mu, nu).sign_density(j) == mconv(mu.sign_density(j), nu.sign_density(j))


def test_sign_density_exchanges_with_parity_basis():
    n = 2
    for seed in range(3):
        mu = gen_measure(seed + 500, n, 4)
        for j in all_subsets(n):
            lhs = mconv(delta_j(n, SubsetMask.empty(n)), mu.sign_density(j))
            rhs = mconv(delta_j(n, j), mu).sign_density(j)
            assert lhs == rhs


def test_trivial_sign_density():
    mu = gen_measure(23, 3, 4)
    assert mu.sign_density(SubsetMask.empty(3)) == mu


def test_reflected_sign_density():
    mu = gen_measure(24, 2, 4)
    for e in all_subsets(2):
        for j in all_subsets(2):
            lhs = mu.sign_density(j).reflect(e)
            rhs = mu.reflect(e).sign_density(j)
            if (e.bits & j.bits).bit_count() % 2:
                rhs = -rhs
            assert lhs == rhs


def test_group_average_equals_factor_product():
    from multconv.harness import gen_subgroup

    for seed in range(8):
        dim = 1 + seed % 3
        group = gen_subgroup(seed + 600, dim)
        mu = gen_measure(seed + 700, dim, 4)
        assert symmetrize(mu, GeneratingPair.make(dim, evens=group)) == group_average(mu, group)


def test_symmetrize_is_idempotent():
    for seed in range(6):
        dim = 1 + seed % 3
        pair = gen_pair(seed + 800, dim)
        mu = gen_measure(seed + 900, dim, 4)
        once = symmetrize(mu, pair)
        assert symmetrize(once, pair) == once


def test_msym_munc_via_convolution():
    for seed in range(4):
        dim = 1 + seed % 3
        mu = gen_measure(seed + 1000, dim, 4)
        assert msym(mu) == mconv(mu, sigma_sym(dim))
        assert munc(mu) == mconv(mu, sigma_unc(dim))


def test_munc_is_the_average_over_all_reflections():
    # the n one-coordinate factors give the same measure as the 2**n-term sum
    for seed in range(8):
        n = 1 + seed % 4
        for mu in (gen_measure(seed + 1100, n, 6), gen_sphere_measure(seed + 1200, n, 6)):
            got = munc(mu)
            assert type(got) is type(mu)
            assert got == group_average(mu, all_subsets(n))


def test_symmetrized_unit_characterises_properness():
    # exhaustive over n = 2 generating pairs
    n = 2
    families = [frozenset(c) for c in _family_choices(n)]
    ones = dirac(1, 1)
    for evens in families:
        for odds in families:
            pair = GeneratingPair(evens, odds, n)
            sym = gamma(pair)
            rho = symmetrize(ones, pair)
            assert bool(rho) == sym.proper
            assert (rho.weight_at((F(1), F(1))).sign() > 0) == sym.proper
            if sym.proper:
                for e in all_subsets(n):
                    assert rho.is_even_under(e) == (e in sym.evens)
                    assert rho.is_odd_under(e) == (e in sym.odds)
            for e in all_subsets(n):
                if e not in sym.group:
                    reflected = rho.reflect(e)
                    assert not (set(rho.atoms) & set(reflected.atoms))


def _family_choices(n):
    members = list(all_subsets(n))
    out = []
    for bits in range(1 << len(members)):
        out.append([m for i, m in enumerate(members) if bits >> i & 1])
    return out


def test_symmetric_kills_antisymmetric():
    for seed in range(4):
        dim = 1 + seed % 3
        full = SubsetMask.full(dim)
        sym_mu = symmetrize(gen_measure(seed + 1100, dim, 4), GeneratingPair.make(dim, evens=[full]))
        asym_nu = symmetrize(gen_measure(seed + 1200, dim, 4), GeneratingPair.make(dim, odds=[full]))
        assert mconv(sym_mu, asym_nu).is_zero()


def test_even_odd_membership_via_parity_basis():
    # exhaustive over n = 2 pairs and sampled measures
    n = 2
    full = SubsetMask.full(n)
    for seed in range(3):
        for evens in _family_choices(n):
            for odds in _family_choices(n):
                pair = GeneratingPair.make(n, evens, odds)
                mu = symmetrize(gen_measure(seed + 1300, n, 4), pair)
                js = index_set(full, pair)
                for j in all_subsets(n):
                    if j not in js:
                        assert mconv(delta_j(n, j), mu).is_zero()
                in_class = all(mu.is_even_under(f) for f in pair.evens) and all(
                    mu.is_odd_under(f) for f in pair.odds
                )
                assert in_class
                if mu:
                    outside_all_zero = all(
                        mconv(delta_j(n, j), mu).is_zero() for j in all_subsets(n) if j not in js
                    )
                    assert outside_all_zero


def test_reflected_parity_convolution_sign():
    n = 2
    nu = gen_measure(31, n, 4)
    for j in all_subsets(n):
        for f in all_subsets(n):
            term = mconv(delta_j(n, j), nu)
            reflected = term.reflect(f)
            if (j.bits & f.bits).bit_count() % 2:
                assert reflected == -term
            else:
                assert reflected == term


def test_unconditional_round_trips():
    for seed in range(6):
        dim = 1 + seed % 3
        raw = gen_measure(seed + 1400, dim, 4)
        positive = Measure(dim, {tuple(abs(c) for c in pt): w for pt, w in raw.atoms.items()})
        assert unc_inverse(unc_forward(positive)) == positive
        spread = unc_forward(positive)
        assert unc_forward(unc_inverse(spread)) == spread


def test_unc_forward_examples():
    n = 2
    assert unc_forward(dirac(1, 1)) == sigma_unc(n)
    assert unc_forward(dirac(0, 0)) == dirac(0, 0)


def test_unc_forward_rejects_negative_atoms():
    with pytest.raises(ValueError):
        unc_forward(dirac(-1, 1))


def test_unc_inverse_rejects_asymmetric():
    with pytest.raises(ValueError):
        unc_inverse(dirac(1, 1))


def test_even_and_odd_for_zero_measure():
    zero = Measure.zero(2)
    for f in all_subsets(2):
        assert zero.is_even_under(f)
        assert zero.is_odd_under(f)


def _symmetry_inputs():
    """Point and sphere measures, some even or odd under a reflection, some
    with several parts, and zero measures."""
    out = []
    for seed in range(8):
        n = 1 + seed % 3
        f = SubsetMask(seed % (1 << n), n)
        mu = gen_measure(seed + 40, n, 2 + seed % 5)
        if seed % 2:
            mu = mu + mu.reflect(f) * Surd.sqrt(2)
        out += [mu, mu + mu.reflect(f), mu - mu.reflect(f), Measure.zero(n)]
    rays = SphereMeasure(2, {(1, 2): 1, (-1, -2): 1, (1, 0): 3, (-1, 0): -3, (2, -1): F(1, 2)})
    out += [radial_project(mu) for mu in out if mu.dim > 1] + [rays, rays.reflect(SubsetMask.full(2)) + rays]
    return out


@pytest.mark.parametrize("mu", _symmetry_inputs(), ids=repr)
def test_even_and_odd_tests_are_reflection_comparisons(mu):
    for f in all_subsets(mu.dim):
        assert mu.is_even_under(f) == (mu.reflect(f) == mu)
        assert mu.is_odd_under(f) == (mu.reflect(f) == -mu)
    wrong = SubsetMask.full(mu.dim + 1)
    message = f"dimension mismatch: measure {mu.dim} vs mask {mu.dim + 1}"
    for test in (mu.is_even_under, mu.is_odd_under, mu.reflect):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            test(wrong)


@pytest.mark.parametrize(
    "parts, den, wden, expected",
    [
        # the first key and coefficient share factors with both
        # denominators, so only the others decide the reduction
        ({1: {(2, 4): 6, (3, 6): 9}}, 6, 12, (6, 4, {1: {(2, 4): 2, (3, 6): 3}})),
        ({1: {(2, 4): 6, (4, 6): 2}}, 4, 8, (2, 4, {1: {(1, 2): 3, (2, 3): 1}})),
        ({1: {(2, 4): 6}, 2: {(3, 2): 4}}, 2, 4, (2, 2, {1: {(2, 4): 3}, 2: {(3, 2): 2}})),
        ({1: {(0, 0): 4, (5, 10): 10}}, 5, 4, (1, 2, {1: {(0, 0): 2, (1, 2): 5}})),
        # a zero coefficient is dropped before the reduction
        ({1: {(1, 1): 0, (2, 4): 4}}, 2, 2, (1, 1, {1: {(1, 2): 2}})),
        ({1: {(2, 2): 0}}, 2, 2, (1, 1, {})),
    ],
)
def test_trusted_constructor_reduces_by_every_key(parts, den, wden, expected, assert_trusted):
    mu = Measure._of(2, parts, den, wden)
    assert (mu._den, mu._wden, mu._parts) == expected
    assert_trusted({"of": mu})


def test_sigma_sym_is_symmetric():
    for n in (1, 2, 3):
        assert sigma_sym(n).is_even_under(SubsetMask.full(n))
        for f in all_subsets(n):
            assert sigma_unc(n).is_even_under(f)


def test_phat_examples():
    assert phat(dirac(0, 0)).is_zero()
    for n in (1, 2, 3):
        expected = sigma0(n) if n % 2 == 0 else -sigma0(n)
        assert phat(sigma0(n)) == expected


def test_phat_detects_top_order():
    for seed in range(12):
        dim = 1 + seed % 3
        mu = gen_measure(seed + 1500, dim, 5)
        top = mu.restrict_order(SubsetMask.full(dim))
        assert phat(mu).is_zero() == top.is_zero()


def test_measure_json_round_trip():
    mu = gen_measure(41, 2, 4) * Surd.sqrt(2)
    data = mu.to_json()
    assert Measure.from_json(data) == mu
    points = [tuple(F(c) for c in entry["point"]) for entry in data["atoms"]]
    assert points == sorted(points)


def test_zero_pattern_partition():
    mu = gen_measure(42, 3, 6)
    seen = set()
    for pt in mu.atoms:
        seen.add(zero_pattern(pt))
    assert seen == set(mu.component_patterns())


@pytest.mark.parametrize("dim", [2.5, True, "2"], ids=["float", "bool", "string"])
@pytest.mark.parametrize(
    "load, payload",
    [
        (Measure.from_json, {"atoms": []}),
        (SphereMeasure.from_json, {"atoms": []}),
        (Zonotope.from_json, {"generators": []}),
        (GeneratingPair.from_json, {}),
    ],
    ids=["measure", "sphere", "zonotope", "pair"],
)
def test_json_dim_must_be_an_integer(load, payload, dim):
    with pytest.raises(ValueError, match="field 'dim' must be an integer"):
        load({"dim": dim, **payload})


@pytest.mark.parametrize("seed", range(6))
def test_trusted_constructor_results_are_canonical(seed, assert_trusted):
    n = 2 + seed % 2
    mu = gen_measure(seed, n, 6)
    nu = gen_measure(seed + 100, n, 5)
    f = SubsetMask(seed % (1 << n) or 1, n)
    e = SubsetMask((seed + 1) % (1 << n), n)
    pos, neg = mu.jordan()
    positive = mu.restrict_positive()
    assert_trusted(
        {
            "add": mu + nu,
            "sub-self": mu - mu,
            "neg": -mu,
            "mul": mu * Surd.sqrt(2),
            "mul-zero": mu * 0,
            "reflect": mu.reflect(f),
            "restrict_order": mu.restrict_order(e),
            "sign_density": mu.sign_density(f),
            "jordan+": pos,
            "jordan-": neg,
            "project": mu.project(e),
            "restrict_positive": positive,
            "mconv": mconv(mu, nu),
            "tensor": tensor(mu, nu),
            "symmetrize": symmetrize(mu, gen_pair(seed, n)),
            "symmetrize-odd": symmetrize(msym(mu), GeneratingPair.make(n, odds=[SubsetMask.full(n)])),
            "lift_inverse": lift_inverse(lift(mu)),
            "unc_inverse": unc_inverse(unc_forward(positive)),
            "delta_ej": delta_ej(e, e & f),
            "sigma0_on": sigma0_on(e),
            "probe_product": _probe_product(e, e & f),
        }
    )


def test_public_constructors_normalise():
    mu = Measure(2, [((1, 2), 1), ((F(1), F(2)), 1), ((3, 4), 0)])
    assert dict(mu.atoms) == {(F(1), F(2)): Surd(2)}
    assert all(type(c) is Fraction for c in mu.support()[0])
    nu = SphereMeasure(2, [((2, 4), 1), ((1, 2), 1)])
    assert dict(nu.atoms) == {(1, 2): Surd(2)}
    assert Measure.from_json(mu.to_json()) == mu


# -- integer keys over one common denominator -----------------------------------


def test_cancellation_shrinks_the_denominator():
    got = Measure(1, {(F(1, 2),): 1, (1,): 1}) + Measure(1, {(F(1, 2),): -1})
    want = Measure(1, {(1,): 1})
    assert got == want and hash(got) == hash(want)
    assert got._den == got._wden == 1 and got._parts == {1: {(1,): 1}}


def test_mconv_lands_on_an_integer_point():
    got = mconv(Measure.dirac([F(1, 2)]), Measure.dirac([2]))
    assert got == Measure.dirac([1]) and got._den == 1


def test_sums_and_tensors_align_coprime_denominators(assert_trusted):
    a = Measure(2, {(F(1, 2), 1): 1, (F(3, 2), F(1, 2)): 2})
    b = Measure(1, {(F(1, 3),): Surd.sqrt(2), (F(2, 3),): 1})
    c = Measure(2, {(F(1, 3), 1): 1, (F(1, 2), 1): -1})
    t, s = tensor(a, b), a + c
    assert t._den == s._den == 6
    assert dict(t.atoms) == {x + y: wx * wy for x, wx in a.atoms.items() for y, wy in b.atoms.items()}
    # the atom at (1/2, 1) cancels; the rest keep the order of the operands
    assert list(s.atoms.items()) == [((F(3, 2), F(1, 2)), Surd(2)), ((F(1, 3), F(1)), Surd(1))]
    assert s - c == a and (s - c)._den == 2
    assert_trusted({"tensor": t, "tensor-swapped": tensor(b, a), "sum": s, "difference": s - c})


def test_weight_at_decodes_over_the_denominator():
    mu = Measure(2, {(F(1, 2), 3): 2, (1, F(-3, 4)): 5})
    assert mu.weight_at((F(1, 2), 3)) == 2
    assert mu.weight_at(("1", "-3/4")) == 5
    assert mu.weight_at((F(1, 3), 3)) == 0  # 3 does not divide the denominator 4
    assert mu.weight_at((F(1, 4), 3)) == 0  # over 4, but no atom there
    # unreduced locations read in lowest terms: "2/4" is the 1/2 of the atom
    assert mu.weight_at(("2/4", "6/2")) == mu.weight_at((F(2, 4), 3)) == 2
    assert mu.weight_at(("3/3", "-6/8")) == 5
    sigma = SphereMeasure(2, {(2, 4): 1})
    assert sigma.weight_at((1, 2)) == sigma.weight_at((3, 6)) == 1
    assert sigma.weight_at((1, 3)) == 0
    # a location of the wrong dimension is refused, as the constructor refuses it
    for measure, loc in ((mu, (F(1, 2), 3, 0)), (sigma, (1, 2, 0))):
        with pytest.raises(ValueError, match="has dimension 3, expected 2"):
            measure.weight_at(loc)


# -- coded kernels against their definitions ------------------------------------

_KERNEL_WEIGHTS = (Surd(1), Surd(-1), Surd(F(1, 2)), Surd.sqrt(2), -Surd.sqrt(2), Surd(3))
_RATIONAL_WEIGHTS = (Surd(1), Surd(-1), Surd(F(1, 2)), Surd(3))


def _kernel_inputs(seed, n, weights=_KERNEL_WEIGHTS):
    """Two point measures with repeated values, zeros and negatives, plus
    atoms at ``p, 2p`` and ``2q, q`` whose products ``p*2q`` and ``2p*q``
    coincide with cancelling weights."""
    rng = random.Random(f"kernels-{seed}-{n}")
    pool = tuple(F(v) for v in (-2, -1, F(-1, 2), 0, 0, F(1, 2), 1, 1, 2))

    def measure(k):
        return Measure(n, [(tuple(rng.choice(pool) for _ in range(n)), rng.choice(weights)) for _ in range(k)])

    p = tuple(rng.choice((-1, 1, 2)) for _ in range(n))
    q = tuple(rng.choice((-2, F(1, 2), 1)) for _ in range(n))
    w = rng.choice(weights)
    a = measure(6) + Measure(n, {p: 1, tuple(2 * c for c in p): 1})
    b = measure(5) + Measure(n, {tuple(2 * c for c in q): w, q: -w})
    return a, b


def _first_products(a, b):
    """The points of the double loop in the order of their first product,
    keeping those whose weights do not cancel.  That is the order of the
    product's atoms when both factors have one radicand; otherwise the
    product lists its atoms part by part."""
    acc = {}
    for x, wx in a.atoms.items():
        for y, wy in b.atoms.items():
            pt = tuple(u * v for u, v in zip(x, y))
            acc[pt] = acc.get(pt, Surd(0)) + wx * wy
    return [pt for pt, w in acc.items() if w]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mconv_matches_the_double_loop(n, assert_trusted):
    for seed in range(8):
        for weights in (_KERNEL_WEIGHTS, _RATIONAL_WEIGHTS):
            a, b = _kernel_inputs(seed, n, weights)
            got = mconv(a, b)
            assert got == brute_force_convolution(a, b)
            if len(a._parts) == len(b._parts) == 1:
                assert list(got.atoms) == _first_products(a, b)
            else:
                assert sorted(got.atoms) == sorted(_first_products(a, b))
            assert_trusted({"mconv": got, "mconv-swapped": mconv(b, a)})
    # (x + 2x) * (2*1 - 1): the two products at 2x cancel
    x = tuple(F(1 + i) for i in range(n))
    a = Measure(n, {x: 1, tuple(2 * c for c in x): 1})
    b = Measure(n, {tuple(F(2) for _ in range(n)): 1, tuple(F(1) for _ in range(n)): -1})
    assert mconv(a, b) == Measure(n, {x: -1, tuple(4 * c for c in x): 1})


class _CountedSurd(Surd):
    """A weight that counts the products taken with it on the left."""

    products = 0

    def __mul__(self, other):
        _CountedSurd.products += 1
        return Surd.__mul__(self, other)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_mconv_takes_no_surd_product(n):
    # all coordinates distinct: every product is a new point; the weights are
    # read into int coefficients once, and the kernel multiplies those
    rng = random.Random(f"distinct-{n}")

    def distinct(k):
        return Measure(
            n,
            {
                tuple(F(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(n)): _CountedSurd(1 + i)
                for i in range(k)
            },
        )

    a, b = distinct(7), distinct(5)
    _CountedSurd.products = 0
    got = mconv(a, b)
    assert _CountedSurd.products == 0
    assert got.atom_count() == len(a.atoms) * len(b.atoms) == 7 * 5
    assert got == brute_force_convolution(a, b)
    assert list(got.atoms) == _first_products(a, b)


def _kernel_measures(seed, n):
    """A point and a sphere measure with atoms whose mirrors carry weight,
    atoms fixed by some reflections and atoms alone in their orbits."""
    mu = gen_measure(seed, n, 5) + gen_measure(seed + 1, n, 3).reflect(SubsetMask(seed % (1 << n), n))
    mu = mu + mu.reflect(SubsetMask((seed + 1) % (1 << n), n)) * Surd.sqrt(2)
    sigma = gen_sphere_measure(seed, n, 5)
    sigma = sigma + sigma.reflect(SubsetMask((seed + 3) % (1 << n), n)) * 3
    return mu, sigma


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_reflection_average_matches_sum_and_half(n):
    for seed in range(4):
        for mu in _kernel_measures(seed + 10 * n, n):
            for f in all_subsets(n):
                for sign in (1, -1):
                    got = _reflection_average(mu, f, sign)
                    expected = (mu + mu.reflect(f) * sign) * HALF
                    assert got == expected
                    assert list(got.atoms) == list(expected.atoms)


def _per_generator(mu, pair):
    """One averaging factor per listed generator, odd ones first."""
    out = mu
    for f in sorted(pair.odds, key=mask_sort_key):
        out = (out - out.reflect(f)) * HALF
    for f in sorted(pair.evens, key=mask_sort_key):
        out = (out + out.reflect(f)) * HALF
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetrize_by_basis_matches_per_generator_factors(n):
    full = SubsetMask.full(n)
    for seed in range(6):
        e = SubsetMask(seed % (1 << n), n)
        f = SubsetMask((3 * seed + 1) % (1 << n), n)
        pairs = [
            gen_pair(seed + 30 * n, n, 5),
            # dependent generators on both sides
            GeneratingPair.make(n, evens=[e, f, e ^ f, e], odds=[full, full ^ e, full ^ f]),
            GeneratingPair.make(n, odds=[e, f, e ^ f ^ full]),
            # improper: an odd generator in the span of the evens, or odd sums in it
            GeneratingPair.make(n, evens=[e, f], odds=[e ^ f]),
            GeneratingPair.make(n, odds=[e, f, e ^ f]),
            GeneratingPair.make(n, odds=[SubsetMask.empty(n)]),
        ]
        for mu in _kernel_measures(seed + 40 * n, n):
            for pair in pairs:
                got = symmetrize(mu, pair)
                assert type(got) is type(mu)
                assert got == _per_generator(mu, pair), pair
                if not gamma(pair).proper:
                    assert got.is_zero()


def test_symmetrize_by_a_whole_group_takes_its_basis():
    # every subset listed as even: the unconditional projection, at most n passes
    n = 6
    mu = gen_measure(5, n, 5)
    assert symmetrize(mu, GeneratingPair.make(n, evens=list(all_subsets(n)))) == munc(mu)


ONE_ATOM_SETTINGS = pytest.mark.parametrize(
    "cls, loc", [(Measure, (F(1), F(2))), (SphereMeasure, (1, 2))], ids=["points", "sphere"]
)


@ONE_ATOM_SETTINGS
@pytest.mark.parametrize("weight", [1.5, None], ids=["float", "none"])
def test_constructor_refuses_inexact_weights(cls, loc, weight):
    # a weight that is not an exact rational must not be stored as an atom
    with pytest.raises(TypeError):
        cls(2, {loc: weight})


@ONE_ATOM_SETTINGS
def test_constructor_parses_text_weights(cls, loc):
    mu = cls(2, {loc: "3/2"})
    assert mu.weight_at(loc) == Surd(F(3, 2))
    assert cls.from_json(mu.to_json()) == mu


# -- integer weights ----------------------------------------------------------------


def test_algebra_takes_no_surd_arithmetic_on_rational_weights(monkeypatch):
    # the operators add and multiply int coefficients; a Surd is built only
    # at the public surface
    n = 3
    a = gen_measure(11, n, 7) + gen_measure(12, n, 4).reflect(SubsetMask(5, n))
    b = gen_measure(13, n, 5)
    e = SubsetMask(6, n)
    pair = GeneratingPair.make(n, evens=[SubsetMask(3, n)], odds=[SubsetMask(4, n)])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Surd, name, counted(name, getattr(Surd, name)))
    monkeypatch.setattr(Surd, "_of", classmethod(counted("_of", Surd._of.__func__)))
    m = mconv(a, b)
    lifted = lift(a)
    results = [
        m,
        sconv(a, b),
        sconv(radial_project(a), radial_project(b)),
        tensor(a, b),
        m.project(e),
        m.restrict_order(e),
        symmetrize(m, pair),
        msym(m),
        munc(m),
        lifted,
        lift_inverse(lifted),
        a + b,
        a - b,
        radial_project(a) - radial_project(b),
    ]
    assert all(results) and not calls
    # the counters see the public surface decode the weights
    assert dict(m.atoms) and calls["_of"] > 0


_SURD_WEIGHTS = (1 + Surd.sqrt(2), Surd.sqrt(3) - HALF, Surd.sqrt(6), -Surd.sqrt(2), Surd(F(2, 3)))


def _surd_measure(seed, n, k):
    """A point measure whose weights carry several radicands."""
    rng = random.Random(f"surds-{seed}-{n}-{k}")
    pool = tuple(F(v) for v in (-2, -1, F(-1, 2), 0, F(1, 2), 1, 2))
    return Measure(n, [(tuple(rng.choice(pool) for _ in range(n)), rng.choice(_SURD_WEIGHTS)) for _ in range(k)])


def _pairwise(pairs, cls, dim):
    """Sum ``(location, Surd weight)`` pairs one by one, the public way."""
    acc = {}
    for loc, w in pairs:
        acc[loc] = acc.get(loc, Surd(0)) + w
    return cls(dim, acc)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_products_of_several_radicands_match_the_pairwise_loop(n, assert_trusted):
    for seed in range(6):
        a, b = _surd_measure(seed, n, 6), _surd_measure(seed + 50, n, 4)
        assert len(a._parts) > 1 or len(b._parts) > 1
        want = _pairwise(
            ((tuple(u * v for u, v in zip(x, y)), wx * wy) for x, wx in a.atoms.items() for y, wy in b.atoms.items()),
            Measure, n,
        )
        got = mconv(a, b)
        assert got == want
        # sphere atoms weigh ``w * |r|``: a pair's product weighs
        # ``wx * wy * |x*y| / (|x| |y|)`` at the ray of ``x*y``
        sa, sb = radial_project(a), radial_project(b)
        pushed = []
        for x, wx in sa.atoms.items():
            for y, wy in sb.atoms.items():
                prod = [u * v for u, v in zip(x, y)]
                if any(prod):
                    norms = F(sum(c * c for c in prod), sum(c * c for c in x) * sum(c * c for c in y))
                    pushed.append((tuple(prod), wx * wy * Surd.sqrt(norms)))
        assert sconv(a, b) == _pairwise(pushed, SphereMeasure, n)
        assert_trusted({"mconv": got, "sconv": sconv(a, b), "radial": sa})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetrize_of_several_radicands_matches_the_group_average(n, assert_trusted):
    for seed in range(6):
        mu = _surd_measure(seed + 100, n, 6)
        # the sphere measure on the rays of the doubled points, from the public constructor
        rays = SphereMeasure(n, [(tuple(int(2 * c) for c in loc), w) for loc, w in mu.atoms.items() if any(loc)])
        for sigma in (mu, rays):
            pair = gen_pair(seed, n)
            sym = gamma(pair)
            got = symmetrize(sigma, pair)
            if not sym.proper:
                assert not got
                continue
            # the character-weighted average over the generated group, atom by atom
            size = len(sym.evens) + len(sym.odds)
            pairs = [
                (tuple(-c if f.bits >> i & 1 else c for i, c in enumerate(loc)), w * F(sign, size))
                for loc, w in sigma.atoms.items()
                for family, sign in ((sym.evens, 1), (sym.odds, -1))
                for f in family
            ]
            assert got == _pairwise(pairs, type(sigma), n)
            assert_trusted({"symmetrize": got})


_MU2 = Measure(2, {(1, 2): 1})


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: _MU2.project(SubsetMask(1, 3)), ValueError, "dimension mismatch: measure 2 vs mask 3"),
        (lambda: symmetrize(_MU2, GeneratingPair.make(3)), ValueError, "dimension mismatch: measure 2 vs pair 3"),
        (lambda: group_average(_MU2, []), ValueError, "expected a nonempty reflection group"),
        (lambda: _MU2 * 0.5, TypeError, "unsupported operand"),
    ],
    ids=["project", "symmetrize", "group_average", "float-scalar"],
)
def test_refusals(call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call()
