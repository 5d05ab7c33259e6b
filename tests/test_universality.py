import dataclasses
import json
import math
import random
import re
from fractions import Fraction

import pytest

from multconv import universality
from multconv.harness import (
    gen_measure,
    gen_pair,
    gen_proper_pair,
    gen_sphere_measure,
    run_property_suite,
)
from multconv.measures import (
    Measure,
    delta_ej,
    delta_j,
    mconv,
    msym,
    munc,
    sigma0,
    sigma0_on,
    sigma_sym,
    symmetrize,
    unit,
)
from multconv.scalars import Surd
from multconv.sphere import SphereMeasure, radial_project, sconv
from multconv.subsets import GeneratingPair, SubsetMask, all_subsets, index_set, mask_sort_key, subsets_of
from multconv.universality import (
    MAX_DECIDER_DIM,
    ConditionRecord,
    UniversalityReport,
    _probe_product,
    class_pair,
    decide_special,
    decide_universal_rn,
    decide_universal_sphere,
    symmetry_obstruction,
)

F = Fraction


def dirac(*coords):
    return Measure.dirac([F(c) for c in coords])


def full_support(n, sphere=False):
    return [e for e in all_subsets(n) if e.size or not sphere]


def verify_rn_report(nu, pair, report):
    assert report.universal == all(c.satisfied for c in report.conditions)
    if report.universal:
        assert report.witness is None
        return
    w = report.witness
    assert w is not None and bool(w)
    assert mconv(nu, w).is_zero()
    for f in pair.evens:
        assert w.is_even_under(f)
    for f in pair.odds:
        assert w.is_odd_under(f)
    assert len(w.component_patterns()) == 1


def verify_sphere_report(nu, pair, report):
    assert report.universal == all(c.satisfied for c in report.conditions)
    if report.universal:
        assert report.witness is None
        return
    w = report.witness
    assert w is not None and bool(w)
    assert sconv(nu, w).is_zero()
    for f in pair.evens:
        assert w.is_even_under(f)
    for f in pair.odds:
        assert w.is_odd_under(f)


def test_plus_minus_pair_without_symmetry():
    nu = dirac(1) + dirac(-1)
    full = SubsetMask.full(1)
    report = decide_universal_rn(nu, [full], GeneratingPair.make(1))
    assert not report.universal
    # the sign atom at {1} annihilates
    expected = delta_ej(full, full)
    assert report.witness == expected
    assert mconv(nu, expected).is_zero()


def test_plus_minus_pair_with_even_symmetry():
    nu = dirac(1) + dirac(-1)
    full = SubsetMask.full(1)
    pair = GeneratingPair.make(1, evens=[full])
    report = decide_universal_rn(nu, [full], pair)
    assert report.universal
    assert [c.index for c in report.conditions] == [SubsetMask.empty(1)]


def test_sigma0_universal_on_top_order():
    for n in (1, 2, 3):
        report = decide_universal_rn(
            sigma0(n), [SubsetMask.full(n)], GeneratingPair.make(n)
        )
        assert report.universal
        assert len(report.conditions) == 1 << n


def test_atom_at_origin_is_not_universal():
    # lower-order terms make the bare sign-atom witness fail; the decider
    # must fall back to an annihilating one
    nu = dirac(0)
    report = decide_universal_rn(nu, [SubsetMask.full(1)], GeneratingPair.make(1))
    assert not report.universal
    verify_rn_report(nu, GeneratingPair.make(1), report)


def test_non_proper_support_sets_are_skipped():
    n = 2
    nu = gen_measure(1, n, 4)
    pair = GeneratingPair.make(n, odds=[SubsetMask.from_indices(n, [2])])
    support = list(all_subsets(n))
    report = decide_universal_rn(nu, support, pair)
    # restricting to {1} or the empty set kills the odd generator
    skipped = set(report.skipped_non_proper)
    assert SubsetMask.empty(n) in skipped
    assert SubsetMask.from_indices(n, [1]) in skipped
    for e in skipped:
        assert not index_set(e, pair)


def test_empty_support_family_is_vacuously_universal():
    nu = gen_measure(2, 2, 3)
    report = decide_universal_rn(nu, [], GeneratingPair.make(2))
    assert report.universal and not report.conditions


def test_empty_pattern_condition_is_total_mass():
    n = 2
    empty = SubsetMask.empty(n)
    heavy = dirac(1, 1)                      # mass 1
    balanced = dirac(1, 1) - dirac(2, 1)     # mass 0
    ok = decide_universal_rn(heavy, [empty], GeneratingPair.make(n))
    assert ok.universal
    bad = decide_universal_rn(balanced, [empty], GeneratingPair.make(n))
    assert not bad.universal
    assert bad.witness == dirac(0, 0)


def test_random_reports_are_sound():
    for seed in range(25):
        n = 1 + seed % 3
        nu = gen_measure(seed + 3000, n, seed % 5)
        pair = gen_pair(seed + 4000, n)
        report = decide_universal_rn(nu, full_support(n), pair)
        verify_rn_report(nu, pair, report)


def test_condition_ordering_is_deterministic():
    n = 2
    nu = gen_measure(5, n, 4)
    report = decide_universal_rn(nu, full_support(n), GeneratingPair.make(n))
    sizes = [c.support.size for c in report.conditions]
    assert sizes == sorted(sizes, reverse=True)


def test_sphere_sigma0_universal():
    for n in (1, 2, 3):
        nu = radial_project(sigma0(n))
        report = decide_universal_sphere(nu, [SubsetMask.full(n)], GeneratingPair.make(n))
        assert report.universal


def test_sphere_rejects_empty_pattern_in_support():
    # the refusal follows the measure's type, whichever name is called
    nu = gen_sphere_measure(6, 2, 3)
    for decide in (decide_universal_sphere, decide_universal_rn):
        with pytest.raises(ValueError, match="empty pattern"):
            decide(nu, [SubsetMask.empty(2)], GeneratingPair.make(2))


def test_sphere_negative_decision_with_witness():
    n = 2
    nu = radial_project(dirac(1, 1) + dirac(-1, -1))
    report = decide_universal_sphere(nu, [SubsetMask.full(n)], GeneratingPair.make(n))
    assert not report.universal
    verify_sphere_report(nu, GeneratingPair.make(n), report)
    failing = report.failing()
    assert failing
    # the odd single-sign condition fails: nu is symmetric
    assert any(c.index.size % 2 == 1 for c in failing)
    assert report.witness == radial_project(delta_j(n, SubsetMask.from_indices(n, [1])))


def test_sphere_witness_fallback_under_lower_order_interference():
    # the symmetric full-order pair kills the bare sign-atom condition, but
    # the extra axis atom stops that candidate from being annihilated; the
    # decider must fall back to the alternating-probe witness
    nu = radial_project(dirac(1, 1) + dirac(-1, -1) + dirac(1, 0))
    pair = GeneratingPair.make(2)
    direct = radial_project(delta_j(2, SubsetMask.from_indices(2, [1])))
    assert not sconv(nu, direct).is_zero()
    report = decide_universal_sphere(nu, full_support(2, sphere=True), pair)
    assert not report.universal
    assert report.witness != direct
    verify_sphere_report(nu, pair, report)


def test_conditions_match_the_convolution_oracle():
    # every trial decides a point measure and a sphere measure, n = 1..5
    report = run_property_suite("condition-oracle", 0, 60)
    assert report["passed"], report["failures"]


def test_witnesses_match_the_full_convolution():
    # half the trials take the interfering construction, whose witness is
    # the parity basis measure times the alternating probe; every witness is
    # convolved with the whole measure and compared with the mconv route
    report = run_property_suite("universality-witness", 0, 40)
    assert report["passed"], report["failures"]


def test_probe_product_equals_its_convolution():
    for n in (1, 2, 3):
        for e in all_subsets(n):
            for j in subsets_of(e):
                assert _probe_product(e, j) == mconv(delta_ej(e, j), sigma0_on(e))


def test_sphere_random_reports_are_sound():
    for seed in range(20):
        n = 1 + seed % 3
        nu = gen_sphere_measure(seed + 5000, n, seed % 5)
        pair = gen_pair(seed + 6000, n)
        report = decide_universal_sphere(nu, full_support(n, sphere=True), pair)
        verify_sphere_report(nu, pair, report)


def test_unconditional_degree_shortcut_on_sphere():
    # with the all-even pair and top-order support the decision matches the
    # degree criterion on the orthant average
    for seed in range(12):
        n = 1 + seed % 2
        nu = gen_sphere_measure(seed + 7000, n, 3)
        pair = class_pair("unconditional", n)
        report = decide_universal_sphere(nu, [SubsetMask.full(n)], pair)
        assert report.universal == (munc(nu).degree() == n)


def test_special_matches_general_full_scope():
    for seed in range(20):
        n = 1 + seed % 3
        nu = gen_measure(seed + 8000, n, 1 + seed % 4)
        for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
            special = decide_special(nu, klass, "full")
            general = decide_universal_rn(nu, full_support(n), class_pair(klass, n))
            assert special.universal == general.universal
            verify_rn_report(nu, class_pair(klass, n), special)


def test_special_matches_general_full_scope_sphere():
    for seed in range(16):
        n = 1 + seed % 3
        nu = gen_sphere_measure(seed + 9000, n, 1 + seed % 4)
        for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
            special = decide_special(nu, klass, "full")
            general = decide_universal_sphere(
                nu, full_support(n, sphere=True), class_pair(klass, n)
            )
            assert special.universal == general.universal
            verify_sphere_report(nu, class_pair(klass, n), special)


def _top_order_measure(seed, n):
    pool = tuple(F(v) for v in (-2, -1, F(1, 2), 1, 2))
    return gen_measure(seed, n, 3, coordinate_pool=pool)


def test_special_top_order_scope():
    for seed in range(16):
        n = 1 + seed % 3
        nu = _top_order_measure(seed + 10_000, n)
        assert nu.order_of() == SubsetMask.full(n)
        for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
            special = decide_special(nu, klass, "top-order")
            general = decide_universal_rn(nu, full_support(n), class_pair(klass, n))
            assert special.universal == general.universal


def test_special_top_order_scope_sphere():
    for seed in range(12):
        n = 1 + seed % 2
        nu = radial_project(_top_order_measure(seed + 11_000, n))
        if nu.order_of() != SubsetMask.full(n):
            continue
        for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
            special = decide_special(nu, klass, "top-order")
            general = decide_universal_sphere(
                nu, full_support(n, sphere=True), class_pair(klass, n)
            )
            assert special.universal == general.universal


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_special_top_order_conditions_are_general_conditions(n):
    # each top-order condition is one of the general decider's conditions
    # over all supports, with the same outcome
    full = SubsetMask.full(n)
    checked = failed = 0
    for seed in range(6):
        base = _top_order_measure(seed + 21_000 + 100 * n, n)
        for mu in (base, base - base.reflect(full), base + base.reflect(SubsetMask.single(n, 1))):
            settings = ((mu, decide_universal_rn), (radial_project(mu), decide_universal_sphere))
            for nu, decide in settings:
                if nu.order_of() != full:
                    continue
                sphere = isinstance(nu, SphereMeasure)
                for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
                    special = decide_special(nu, klass, "top-order")
                    general = decide(nu, full_support(n, sphere), class_pair(klass, n))
                    outcome = {(c.support, c.index): c.satisfied for c in general.conditions}
                    for c in special.conditions:
                        assert outcome[(c.support, c.index)] == c.satisfied
                        checked += 1
                        failed += not c.satisfied
    assert checked and failed and failed < checked


def test_top_order_scope_rejects_mixed_order():
    nu = dirac(1, 0) + dirac(1, 1)
    with pytest.raises(ValueError):
        decide_special(nu, "none", "top-order")


def test_unconditional_mass_criterion():
    # a full-order measure is universal on the unconditional class over the
    # whole space exactly when its total mass does not vanish
    n = 2
    nu = dirac(1, 1) + dirac(2, -1)
    assert decide_special(nu, "unconditional", "top-order").universal
    nu0 = dirac(1, 1) - dirac(2, 1)
    report = decide_special(nu0, "unconditional", "top-order")
    assert not report.universal
    assert mconv(nu0, report.witness).is_zero()


def test_positive_orthant_scope():
    nu = sigma0(2)
    report = decide_special(nu, "unconditional", "positive-orthant")
    assert report.universal == decide_special(nu, "unconditional", "full").universal
    with pytest.raises(ValueError):
        decide_special(nu, "symmetric", "positive-orthant")
    with pytest.raises(ValueError):
        decide_special(radial_project(nu), "unconditional", "positive-orthant")


def test_nonnegative_degree_criterion():
    # non-negative full-degree measures are universal on the unconditional class
    for seed in range(10):
        n = 1 + seed % 3
        raw = gen_measure(seed + 12_000, n, 4)
        nu = raw.jordan()[0]
        report = decide_special(nu, "unconditional", "full")
        assert report.universal == (munc(nu).degree() == n)


def test_parity_atom_universality_characterisation():
    # a sign atom is universal on the even-class top-order family only for
    # the full support, empty index, all-even pair
    n = 2
    full = SubsetMask.full(n)
    for e in all_subsets(n):
        for j in all_subsets(n):
            if not j.issubset(e):
                continue
            nu = delta_ej(e, j)
            report = decide_universal_rn(nu, [full], class_pair("unconditional", n))
            expected = e == full and j.size == 0
            assert report.universal == expected


def test_deltaj_product_iff_property():
    # the parity component of a product of top-order measures survives
    # exactly when it survives in both factors
    pool = tuple(F(v) for v in (-2, -1, 1, 2))
    for seed in range(12):
        n = 1 + seed % 2
        mu = gen_measure(seed + 13_000, n, 2, coordinate_pool=pool)
        nu = gen_measure(seed + 14_000, n, 2, coordinate_pool=pool)
        for j in all_subsets(n):
            dj = delta_j(n, j)
            lhs = bool(mconv(dj, mconv(mu, nu)))
            rhs = bool(mconv(dj, mu)) and bool(mconv(dj, nu))
            assert lhs == rhs


def test_top_order_decision_atomized():
    # with support {full} the decision is literally the non-vanishing of
    # every parity component of the top-order part
    for seed in range(15):
        n = 1 + seed % 3
        nu = gen_measure(seed + 17_000, n, 3, coordinate_pool=tuple(F(v) for v in (-2, -1, 1, 2)))
        pair = gen_pair(seed + 18_000, n)
        full = SubsetMask.full(n)
        report = decide_universal_rn(nu, [full], pair)
        js = index_set(full, pair)
        expected = all(bool(mconv(delta_j(n, j), nu)) for j in js)
        assert report.universal == expected


def test_universality_restricts_to_top_order_part():
    # a universal measure keeps its universality after dropping all
    # lower-order components
    for seed in range(20):
        n = 1 + seed % 3
        nu = gen_measure(seed + 19_000, n, 4)
        pair = gen_pair(seed + 20_000, n)
        full = SubsetMask.full(n)
        before = decide_universal_rn(nu, [full], pair).universal
        top = nu.restrict_order(full)
        after = decide_universal_rn(top, [full], pair).universal
        if before:
            assert after


def test_obstruction_for_symmetric_measure():
    n = 2
    nu = sigma_sym(n)
    obstructions = symmetry_obstruction(nu, GeneratingPair.make(n))
    assert (SubsetMask.full(n), "even") in obstructions


def test_obstruction_for_origin_odd_measure():
    nu = dirac(1, 2) - dirac(-1, -2)
    obstructions = symmetry_obstruction(nu, GeneratingPair.make(2))
    assert obstructions == [(SubsetMask.full(2), "odd")]
    # once the origin reflection is an odd generator, nothing obstructs
    assert symmetry_obstruction(nu, GeneratingPair.make(2, odds=[SubsetMask.full(2)])) == []


def test_no_obstruction_for_own_pair():
    for seed in range(10):
        n = 1 + seed % 3
        pair = gen_proper_pair(seed + 15_000, n)
        rho = symmetrize(unit(n), pair)
        assert rho
        assert symmetry_obstruction(rho, pair) == []


def test_generic_measure_has_no_obstruction():
    nu = dirac(1, 2) + dirac(2, -1) * 2
    assert symmetry_obstruction(nu, GeneratingPair.make(2)) == []


def test_obstruction_requires_proper_pair():
    nu = dirac(1)
    bad = GeneratingPair.make(1, odds=[SubsetMask.empty(1)])
    with pytest.raises(ValueError):
        symmetry_obstruction(nu, bad)


def test_obstructed_measures_are_not_universal():
    for seed in range(10):
        n = 1 + seed % 2
        nu = msym(gen_measure(seed + 16_000, n, 3))
        if not nu:
            continue
        pair = GeneratingPair.make(n)
        if symmetry_obstruction(nu, pair):
            report = decide_universal_rn(nu, full_support(n), pair)
            assert not report.universal


def test_report_json_shape():
    nu = dirac(1) + dirac(-1)
    report = decide_universal_rn(nu, [SubsetMask.full(1)], GeneratingPair.make(1))
    data = report.to_json()
    assert set(data) == {"universal", "conditions", "witness", "skipped"}
    assert data["universal"] is False
    assert data["conditions"][0]["E"] == [1]
    assert data["witness"]["dim"] == 1


def test_dimension_bound_enforced():
    big = Measure.dirac([F(1)] * 9)
    with pytest.raises(ValueError):
        decide_universal_rn(big, [SubsetMask.full(9)], GeneratingPair.make(9))


def _axis_balanced(seed, n):
    """Two full-order sphere atoms whose masses cancel on the projection onto
    one axis: the sum of ``w * |r_i| / |r|`` over that axis is zero."""
    rng = random.Random(seed)
    i = rng.randrange(n)
    rays = set()
    while len(rays) < 2:
        rays.add(tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)))
    atoms = {}
    for sign, r in zip((1, -1), sorted(rays)):
        atoms[r] = Surd.sqrt(sum(c * c for c in r)) * F(sign, abs(r[i]))
    return SphereMeasure(n, atoms)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_special_top_order_sphere_axis_conditions(n):
    # each empty-index condition of the top-order scope on the sphere is the
    # nonvanishing of the symmetrised projection onto its axis
    full = SubsetMask.full(n)
    checked = failed = 0
    for seed in range(8):
        base = radial_project(_top_order_measure(seed + 12_000 + 100 * n, n))
        balanced = _axis_balanced(seed + 13_000 + 100 * n, n)
        for nu in (base, base - base.reflect(full), balanced, base + balanced):
            if nu.order_of() != full:
                continue
            for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
                report = decide_special(nu, klass, "top-order")
                axes = [c for c in report.conditions if c.index.size == 0]
                has_empty = SubsetMask.empty(n) in index_set(full, class_pair(klass, n))
                assert [c.support for c in axes] == (
                    [SubsetMask.single(n, i) for i in range(1, n + 1)] if has_empty else []
                )
                for c in axes:
                    assert c.satisfied == bool(msym(nu.project(c.support)))
                    checked += 1
                    failed += not c.satisfied
    assert checked and failed and failed < checked


@pytest.mark.parametrize("sphere", [False, True])
def test_condition_pass_groups_each_support_once(monkeypatch, sphere):
    # each support set is grouped at most once, and not at all when a lone
    # atom on a smaller set already proves its conditions; the sphere's
    # top-order scope lists (axis, {}) before (J, J), so a support set can
    # come back after another one
    grouped = []
    classes = universality._classes

    def counting(code, bits, on_sphere):
        grouped.append(bits)
        return classes(code, bits, on_sphere)

    def check(report):
        supports = {c.support.bits for c in report.conditions}
        assert len(grouped) == len(set(grouped))
        assert set(grouped) <= supports
        assert all(c.satisfied for c in report.conditions if c.support.bits not in grouped)
        return len(grouped), len(supports)

    monkeypatch.setattr(universality, "_classes", counting)
    n = 3
    nu = _top_order_measure(14_000, n)
    nu = radial_project(nu) if sphere else nu
    assert nu.order_of() == SubsetMask.full(n)
    counts = []
    for klass in CLASSES:
        for scope in ("full", "top-order"):
            grouped.clear()
            counts.append(check(decide_special(nu, klass, scope)))
    assert sum(g for g, _ in counts) < sum(s for _, s in counts)
    # the atom at 3 (on the sphere the one atom off the plane x_1 = 0) is
    # alone on {1} and has full pattern, so no strict superset of {1} is
    # grouped; the other atoms share their absolute coordinates on {2}, {3}
    # and {2, 3} (sphere weights times each ray's norm keep one radicand)
    if sphere:
        r2, r3 = Surd.sqrt(2), Surd.sqrt(3)
        lone = SphereMeasure(n, {(1, 1, 1): r3, (0, 1, 1): r2, (0, -1, 1): 2 * r2, (0, 1, -1): -r2})
        assert len(lone._parts) == 1
    else:
        lone = Measure(n, {(3, 1, 1): 1, (1, 1, 1): 1, (-1, -1, -1): 2, (1, -1, 1): -1})
    e = SubsetMask.single(n, 1)
    for klass in CLASSES:
        grouped.clear()
        groupings, supports = check(decide_special(lone, klass))
        assert e.bits in grouped and SubsetMask.from_indices(n, [2, 3]).bits in grouped
        assert not [bits for bits in grouped if bits != e.bits and bits & e.bits == e.bits]
        assert groupings < supports


def _reference_pass(nu, groups):
    """The condition pass grouping every support set: atoms nonzero on all
    of E sharing their radicand and absolute coordinates there (on the
    sphere, their primitive ray, the coefficient times the gcd) form a
    class; a class of one atom proves every (E, J), and otherwise J holds
    when some class has a nonzero sum of coefficients signed by the parity
    of their negative coordinates inside J."""
    sphere = isinstance(nu, SphereMeasure)
    out = bytearray()
    for e, js in groups:
        on_e = [i for i in range(nu.dim) if e.bits >> i & 1]
        classes = {}
        for s, part in nu._parts.items():
            for loc, c in part.items():
                if not all(loc[i] for i in on_e):
                    continue
                key = [abs(loc[i]) for i in on_e]
                if sphere:
                    g = math.gcd(*key)
                    key, c = [v // g for v in key], c * g
                negative = sum(1 << i for i in on_e if loc[i] < 0)
                classes.setdefault((s, tuple(key)), []).append((negative, c))
        if any(len(members) == 1 for members in classes.values()):
            out += b"\1" * len(js)
            continue
        for j in js:
            out.append(any(
                sum(-c if (negative & j).bit_count() % 2 else c for negative, c in members)
                for members in classes.values()
            ))
    return bytes(out)


_PRIMES = [p for p in range(2, 4000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _reference_measures(n):
    """Seeded point measures of 0-60 atoms and their radial projections:
    zero coordinates with probability 0.1-0.6; coordinates from a pool of
    one or three absolute values or distinct signed primes; some weights
    carrying sqrt(2) or sqrt(3); one in three made even under a reflection,
    so conditions fail.  Then small sphere measures on colliding rays."""
    rng = random.Random(f"condition-pass:{n}")
    pools = ((F(-1), F(1)), (F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)), None)
    weights = (F(1), F(-2), F(3, 2), 1 + Surd.sqrt(2), Surd.sqrt(3), 1 - Surd.sqrt(2))
    for trial in range(12):
        size = (0, 1, 4, 10, 25, 60)[trial % 6]
        zero = rng.choice((0.1, 0.25, 0.4, 0.6))
        pool = pools[trial % 3]
        primes = iter(rng.sample(_PRIMES, n * size))
        atoms = {}
        for _ in range(size):
            point = tuple(
                F(0) if rng.random() < zero
                else rng.choice(pool) if pool else F(rng.choice((-1, 1)) * next(primes))
                for _ in range(n)
            )
            atoms[point] = rng.choice(weights[:3] if trial % 4 else weights)
        nu = Measure(n, atoms)
        if trial % 3 == 1:
            nu = nu + nu.reflect(SubsetMask(rng.randrange(1, 1 << n), n))
        yield nu
        yield radial_project(nu)
    # sphere masses +-1 at rays of entries +-1, +-2, whose restrictions
    # share primitive rays at different gcds
    for trial in range(12):
        rays = {tuple(rng.choice((0, 0, 1, -1, 2, -2)) for _ in range(n)) for _ in range(2 + trial % 5)}
        rays.discard((0,) * n)
        yield SphereMeasure(n, {r: rng.choice((1, -1)) * Surd.sqrt(sum(x * x for x in r)) for r in rays})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_condition_pass_matches_the_per_support_reference(n):
    pairs = [class_pair(klass, n) for klass in CLASSES] + [gen_pair(seed, n, 4) for seed in range(3)]
    full = SubsetMask.full(n)
    rng = random.Random(n)
    held = failed = 0
    for nu in _reference_measures(n):
        everything = full_support(n, isinstance(nu, SphereMeasure))
        families = (everything, rng.sample(everything, min(5, len(everything))))
        for pair in pairs:
            for support in families:
                report = decide_universal_rn(nu, support, pair)
                expected = _reference_pass(nu, report.groups)
                assert report.outcomes == expected
                held += expected.count(1)
                failed += expected.count(0)
        # the top-order scope on the part of full order, and its groups on the whole measure
        top = nu.restrict_order(full)
        if not top:
            continue
        for klass in CLASSES:
            report = decide_special(top, klass, "top-order")
            assert report.outcomes == _reference_pass(top, report.groups)
            assert universality._evaluate(nu, report.groups) == _reference_pass(nu, report.groups)
    assert held and failed


def _index_set_by_definition(e, pair):
    """The index set of (E, pair) by its definition: the subsets of E, one
    parity test per generator, in lex order."""
    return sorted(
        (
            j
            for j in subsets_of(e)
            if all((j.bits & f.bits).bit_count() % 2 == 0 for f in pair.evens)
            and all((j.bits & f.bits).bit_count() % 2 == 1 for f in pair.odds)
        ),
        key=mask_sort_key,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_index_sets_match_the_definition(n):
    pairs = [gen_pair(seed, n, m) for seed in range(12) for m in (3, 5)]
    pairs += [class_pair(klass, n) for klass in ("unconditional", "symmetric", "antisymmetric", "none")]
    everything = list(all_subsets(n))
    sparse = random.Random(n).sample(everything, min(3, len(everything)))
    supports = (full_support(n), full_support(n, sphere=True), sparse + sparse[:1])
    for pair in pairs:
        by_definition = {e: _index_set_by_definition(e, pair) for e in everything}
        for e, indices in by_definition.items():
            assert index_set(e, pair) == frozenset(indices)
        for support in supports:
            ordered = sorted(set(support), key=lambda m: (-m.size, mask_sort_key(m)))
            expected = [(e, by_definition[e]) for e in ordered]
            assert universality._index_sets(support, pair) == expected


CLASSES = ("unconditional", "symmetric", "antisymmetric", "none")


def assert_readers_agree(nu, pair, report):
    """The report's readers of its codes give what its records give."""
    records = report.conditions
    expected = {
        "universal": all(c.satisfied for c in records),
        "conditions": [{"E": c.support.to_json(), "J": c.index.to_json(), "ok": c.satisfied} for c in records],
        "witness": None if report.witness is None else report.witness.to_json(),
        "skipped": [e.to_json() for e in report.skipped_non_proper],
    }
    assert report.universal == expected["universal"]
    assert report.to_json() == expected
    assert report.to_json_text() == json.dumps(expected, separators=(",", ":"))
    assert report.failing() == [c for c in records if not c.satisfied]
    fail = next((c for c in records if not c.satisfied), None)
    if fail is not None:
        assert report.witness == universality._witness(nu, pair, fail.support, fail.index)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_plan_cache_leaves_every_report_unchanged(n):
    # a report made on a cached plan and parity factor equals the one made
    # after clearing both caches
    plan = universality._plan
    pairs = [gen_pair(seed, n, m) for seed in range(12) for m in (3, 5)]
    pairs += [class_pair(klass, n) for klass in CLASSES]
    rng = random.Random(n)
    negative = 0
    for sphere in (False, True):
        base = gen_sphere_measure(n + 20, n, 6) if sphere else gen_measure(n + 20, n, 6)
        everything = full_support(n, sphere)
        supports = (everything, rng.sample(everything, min(3, len(everything))))
        calls = []
        # an even measure fails on the classes that do not allow its symmetry
        for nu in (base, base + base.reflect(SubsetMask.full(n))):
            calls += [(nu, pair, lambda nu=nu, pair=pair, support=support: decide_universal_rn(nu, support, pair))
                      for pair in pairs for support in supports]
            calls += [(nu, class_pair(klass, n), lambda nu=nu, klass=klass: decide_special(nu, klass))
                      for klass in CLASSES]
        for nu, pair, call in calls:
            call()
            hits = plan.cache_info().hits
            warm = call()
            assert plan.cache_info().hits == hits + 1
            plan.cache_clear()
            universality._parity_factor.cache_clear()
            cold = call()
            assert warm.conditions == cold.conditions
            assert warm.to_json() == cold.to_json()
            assert_readers_agree(nu, pair, cold)
            negative += not cold.universal
    assert negative


def test_decisions_and_writers_build_no_condition_record(monkeypatch):
    # a decision and its writers read the int codes; records are built only
    # when a caller reads them
    built = []
    init = ConditionRecord.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ConditionRecord, "__init__", counting)
    reports = []
    for n in (1, 2, 3):
        full = SubsetMask.full(n)
        pair = gen_proper_pair(n, n)
        point = _top_order_measure(15_000 + n, n)
        for nu in (point, radial_project(point)):
            sphere = isinstance(nu, SphereMeasure)
            # the odd part of a measure of full order fails the classes that allow no odd symmetry
            for mu in (nu, nu - nu.reflect(full)):
                assert mu.order_of() == full
                reports.append(decide_universal_rn(mu, full_support(n, sphere), pair))
                reports += [decide_special(mu, klass, scope) for klass in CLASSES for scope in ("full", "top-order")]
                if not sphere:
                    reports.append(decide_special(mu, "unconditional", "positive-orthant"))
    for report in reports:
        report.to_json()
        report.to_json_text()
    assert not built
    assert any(r.universal for r in reports) and any(not r.universal for r in reports)
    for report in reports:
        assert len(report.conditions) == len(built) == len(report.outcomes) > 0
        built.clear()
    with pytest.raises(AttributeError):
        reports[0].conditions = []


def test_reports_of_one_plan_keep_their_own_lists():
    n = 3
    nu = gen_measure(3, n, 5)
    # the odd generator {1} leaves no index set on the support sets missing 1
    pair = GeneratingPair.make(n, odds=[SubsetMask.single(n, 1)])
    first = decide_universal_rn(nu, full_support(n), pair)
    assert first.skipped_non_proper
    expected = (list(first.conditions), list(first.skipped_non_proper), first.to_json())
    first.conditions.append(first.conditions[0])
    first.skipped_non_proper.append(first.skipped_non_proper[0])
    hits = universality._plan.cache_info().hits
    second = decide_universal_rn(nu, full_support(n), pair)
    assert universality._plan.cache_info().hits == hits + 1
    assert (second.conditions, second.skipped_non_proper, second.to_json()) == expected


def test_plan_cache_stays_bounded():
    n = 4
    plan = universality._plan
    maxsize = plan.cache_info().maxsize
    pairs, seed = [], 0
    while len(pairs) < maxsize + 8:
        pair = gen_pair(seed, n, 5)
        seed += 1
        if pair not in pairs:
            pairs.append(pair)
    nu = gen_measure(4, n, 6)
    for pair in pairs:
        decide_universal_rn(nu, full_support(n), pair)
        assert plan.cache_info().currsize <= maxsize
    assert plan.cache_info().currsize == maxsize
    # the cached plans hold the table's masks and J bits, no record
    family = sum(1 << e.bits for e in full_support(n))
    hits = plan.cache_info().hits
    cached = [plan(family, pair) for pair in pairs[-maxsize:]]
    assert plan.cache_info().hits == hits + maxsize
    for skipped, groups in cached:
        assert all(type(e) is SubsetMask for e in skipped)
        assert all(type(e) is SubsetMask and all(type(j) is int for j in js) for e, js in groups)


def test_parity_factor_cache_stays_bounded():
    factor = universality._parity_factor
    factor.cache_clear()
    n = 4
    pair = class_pair("none", n)
    keys = [(e, j) for e in all_subsets(n) for j in subsets_of(e)]
    assert len(keys) > factor.cache_info().maxsize == 64
    for e, j in keys:
        assert factor(e, j, pair, Measure) == delta_ej(e, j)
        assert factor.cache_info().currsize <= 64
    assert factor.cache_info().currsize == 64
    e, j = keys[-1]
    assert factor(e, j, pair, Measure) is factor(e, j, pair, Measure)
    # a setting is part of the key
    assert type(factor(e, j, pair, SphereMeasure)) is SphereMeasure


def test_parity_factor_is_checked_once_per_key_and_refused_when_cold(monkeypatch):
    n = 3
    full = SubsetMask.full(n)
    base = gen_measure(7, n, 5)
    nu = base + base.reflect(full)
    pair = class_pair("none", n)
    checks = []
    in_class = universality._in_class

    def counting(*args):
        checks.append(args)
        return in_class(*args)

    monkeypatch.setattr(universality, "_in_class", counting)
    universality._parity_factor.cache_clear()
    first = decide_universal_rn(nu, full_support(n), pair)
    assert not first.universal and len(checks) == 1
    assert decide_universal_rn(nu, full_support(n), pair).to_json() == first.to_json()
    assert len(checks) == 1
    # on a cold cache a factor outside the class is refused, and not cached
    universality._parity_factor.cache_clear()
    monkeypatch.setattr(universality, "_in_class", lambda *args: False)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="witness construction left the symmetry class"):
            decide_universal_rn(nu, full_support(n), pair)
    assert universality._parity_factor.cache_info().currsize == 0


def test_condition_records_stay_frozen():
    nu = gen_measure(5, 3, 5)
    record = decide_universal_rn(nu, full_support(3), GeneratingPair.make(3)).conditions[0]
    for field, value in (("satisfied", not record.satisfied), ("index", record.support), ("support", record.index)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)


def test_class_pairs_and_whole_spaces_are_shared_masks():
    for n in range(1, MAX_DECIDER_DIM + 1):
        for klass in CLASSES:
            assert class_pair(klass, n) is class_pair(klass, n)
        for sphere in (False, True):
            whole = universality._whole_space(n, sphere)
            assert whole == full_support(n, sphere)
            assert whole is not universality._whole_space(n, sphere)
            assert all(a is b for a, b in zip(whole, universality._whole_space(n, sphere)))
    with pytest.raises(ValueError, match=re.escape("unknown symmetry class 'foo'")):
        class_pair("foo", 2)


@pytest.mark.parametrize("sphere", [False, True])
def test_support_set_of_another_dimension_is_refused(sphere):
    nu = gen_sphere_measure(3, 3, 4) if sphere else gen_measure(3, 3, 4)
    pair = GeneratingPair.make(3)
    # one mask beyond the dimension-3 table's bits, one inside them
    for other in (SubsetMask.from_indices(4, [1, 2, 4]), SubsetMask.from_indices(4, [1])):
        with pytest.raises(ValueError, match=re.escape(f"support set {other} has dimension 4, expected 3")):
            decide_universal_rn(nu, [SubsetMask.full(3), other], pair)


def _by_convolution(nu, record):
    """The (E, J) condition by its definition: the parity basis measure of J
    does not annihilate the top-order part of the projection onto E."""
    conv = sconv if isinstance(nu, SphereMeasure) else mconv
    return bool(conv(nu.project(record.support).restrict_order(record.support), delta_ej(record.support, record.index)))


def test_condition_holds_on_one_radicand_while_another_cancels():
    r2 = Surd.sqrt(2)
    full = SubsetMask.full(1)
    # the class at |x| = 1: under J = {} the rational parts add and the sqrt(2)
    # parts cancel; under J = {1} the reverse
    nu = Measure(1, {(1,): 1 + r2, (-1,): 1 - r2})
    report = decide_universal_rn(nu, [full], GeneratingPair.make(1))
    assert [(c.index.bits, c.satisfied) for c in report.conditions] == [(0, True), (1, True)]
    # both parts cancel under J = {1}
    even = Measure(1, {(1,): 1 + r2, (-1,): 1 + r2})
    report = decide_universal_rn(even, [full], GeneratingPair.make(1))
    assert [(c.index.bits, c.satisfied) for c in report.conditions] == [(0, True), (1, False)]
    assert report.witness is not None
    # on the sphere the masses (1 +- sqrt(2))/sqrt(2) at the rays (1, +-1)
    # split the same way, and the axis adds a third radicand
    sigma = SphereMeasure(2, {(1, 1): 1 + r2, (1, -1): 1 - r2, (1, 0): Surd.sqrt(3)})
    assert len(sigma._parts) == 3
    for nu in (nu, even, sigma, radial_project(nu)):
        supports = [e for e in all_subsets(nu.dim) if e.size]
        for klass in ("none", "symmetric", "antisymmetric"):
            report = decide_universal_rn(nu, supports, class_pair(klass, nu.dim))
            for record in report.conditions:
                assert record.satisfied == _by_convolution(nu, record), (klass, record)
    full = SubsetMask.full(2)
    report = decide_universal_rn(sigma, [full], GeneratingPair.make(2))
    assert all(c.satisfied for c in report.conditions)


_NU2 = Measure(2, {(1, 2): 1})
_E2 = SubsetMask.full(2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: decide_universal_rn(_NU2, full_support(2), GeneratingPair.make(3)), "dimension mismatch: measure 2 vs pair 3"),
        (lambda: symmetry_obstruction(_NU2, GeneratingPair.make(3)), "dimension mismatch: measure 2 vs pair 3"),
        (lambda: class_pair("foo", 2), "unknown symmetry class 'foo'"),
        (lambda: decide_special(_NU2, "unconditional", scope="bar"), "unknown scope 'bar'"),
        (
            lambda: UniversalityReport(2, ((_E2, (_E2.bits,)),), b"\1\1", None),
            "decision inconsistent with the condition list",
        ),
        (
            lambda: UniversalityReport(2, ((_E2, (_E2.bits,)),), b"\2", None),
            "decision inconsistent with the condition list",
        ),
        (
            lambda: UniversalityReport(2, ((_E2, (_E2.bits,)),), b"\0", None),
            "negative decision without a witness",
        ),
    ],
    ids=[
        "decide-pair-dim", "obstruction-pair-dim", "class-name", "scope",
        "report-inconsistent", "report-bad-outcome", "report-no-witness",
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
