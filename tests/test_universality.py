import random
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
from multconv.subsets import GeneratingPair, SubsetMask, all_subsets, index_set, subsets_of
from multconv.universality import (
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
    # the sphere's top-order scope lists (axis, {}) before (J, J), so a
    # support set can come back after another one
    grouped = []
    classes = universality._classes

    def counting(code, e, on_sphere):
        grouped.append(e)
        return classes(code, e, on_sphere)

    monkeypatch.setattr(universality, "_classes", counting)
    n = 3
    nu = _top_order_measure(14_000, n)
    nu = radial_project(nu) if sphere else nu
    assert nu.order_of() == SubsetMask.full(n)
    for klass in ("unconditional", "symmetric", "antisymmetric", "none"):
        for scope in ("full", "top-order"):
            grouped.clear()
            report = decide_special(nu, klass, scope)
            assert len(grouped) == len(set(grouped))
            assert set(grouped) == {c.support for c in report.conditions}
