"""Acceptance battery: every criterion prints one PASS/FAIL line.

All equalities are exact (structural surd equality); no tolerances appear
anywhere except the single floating-point moment diagnostic, which is not
part of this battery.  Run with ``pytest -s tests/test_acceptance.py`` to
see the lines as they print.
"""

import random
from fractions import Fraction

from multconv.harness import (
    gen_measure,
    gen_pair,
    gen_sphere_measure,
    gen_subgroup,
)
from multconv.lifting import lift, lift_class, lift_inverse
from multconv.measures import (
    Measure,
    delta_ej,
    delta_j,
    group_average,
    mconv,
    msym,
    phat,
    sigma0,
    symmetrize,
    unit,
)
from multconv.scalars import Surd
from multconv.sphere import radial_project, sconv
from multconv.subsets import (
    GeneratingPair,
    SubsetMask,
    all_subsets,
    gamma,
    index_set,
    is_group,
    j_dual,
    subsets_of,
)
from multconv.universality import (
    class_pair,
    decide_special,
    decide_universal_rn,
    decide_universal_sphere,
)
from multconv.zonoids import Zonotope, decide_d_universal, generating_measure, k_transform, k_transform_direct

F = Fraction
CLASSES = ("unconditional", "symmetric", "antisymmetric", "none")
NONZERO_POOL = tuple(F(v) for v in (-2, -1, F(1, 2), 1, 2))


def report(cid, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} - {description}")
    assert not failures, f"criterion {cid}: {failures[:3]}"


def full_support(n, sphere=False):
    return [e for e in all_subsets(n) if e.size or not sphere]


def test_criterion_01_algebra_laws():
    failures = []
    for trial in range(200):
        n = 1 + trial % 3
        a = gen_measure(trial * 3 + 1, n, 2)
        b = gen_measure(trial * 3 + 2, n, 2)
        c = gen_measure(trial * 3 + 3, n, 2)
        if mconv(a, b) != mconv(b, a):
            failures.append(("rn-commutative", trial))
        if mconv(mconv(a, b), c) != mconv(a, mconv(b, c)):
            failures.append(("rn-associative", trial))
        if mconv(a + b, c) != mconv(a, c) + mconv(b, c):
            failures.append(("rn-bilinear", trial))
        if mconv(a, unit(n)) != a:
            failures.append(("rn-unit", trial))
        sa, sb, sc = radial_project(a), radial_project(b), radial_project(c)
        if sconv(sa, sb) != sconv(sb, sa):
            failures.append(("sphere-commutative", trial))
        if sconv(sconv(sa, sb), sc) != sconv(sa, sconv(sb, sc)):
            failures.append(("sphere-associative", trial))
        if sconv(sa + sb, sc) != sconv(sa, sc) + sconv(sb, sc):
            failures.append(("sphere-bilinear", trial))
    report(1, "algebra laws for both products, 200 random triples", failures)


def test_criterion_02_banach_inequalities():
    failures = []
    for trial in range(100):
        n = 1 + trial % 3
        mu = gen_measure(trial * 5 + 1, n, 3)
        nu = gen_measure(trial * 5 + 2, n, 3)
        if not mconv(mu, nu).tv_norm() <= mu.tv_norm() * nu.tv_norm():
            failures.append(("rn", trial))
        smu, snu = radial_project(mu), radial_project(nu)
        if not sconv(smu, snu).tv_norm() <= smu.tv_norm() * snu.tv_norm():
            failures.append(("sphere", trial))
    report(2, "norm submultiplicativity, 100 random pairs", failures)


def test_criterion_03_symmetry_decomposition():
    failures = []
    wide_pool = tuple(F(v) for v in (-3, -2, -1, F(-1, 2), 0, F(1, 2), 1, 2, 3))
    for n in (1, 2, 3):
        for seed in range(4):
            nu = gen_measure(seed + n * 31, n, 8, coordinate_pool=wide_pool)
            total = Measure.zero(n)
            for k in all_subsets(n):
                total = total + mconv(delta_j(n, k), nu)
            if total != nu:
                failures.append(("resummation", n, seed))
        comb = Measure.zero(n)
        for j in all_subsets(n):
            comb = comb + delta_j(n, j)
        if comb != unit(n):
            failures.append(("unit-sum", n))
        for j in all_subsets(n):
            for k in all_subsets(n):
                prod = mconv(delta_j(n, j), delta_j(n, k))
                want = delta_j(n, j) if j == k else Measure.zero(n)
                if prod != want:
                    failures.append(("orthogonality", n, j.bits, k.bits))
    report(3, "symmetry-decomposition identities, exhaustive n <= 3", failures)


def test_criterion_04_projection_radial_identities():
    failures = []
    for trial in range(100):
        n = 1 + trial % 3
        mu = gen_measure(trial * 7 + 1, n, 3)
        nu = gen_measure(trial * 7 + 2, n, 3)
        e = SubsetMask(random.Random(f"c4:{trial}").randrange(1 << n), n)
        lhs = mconv(mu, nu).project(e)
        if lhs != mconv(mu.project(e), nu) or lhs != mconv(mu.project(e), nu.project(e)):
            failures.append(("projection-product", trial))
        if radial_project(mu.project(e)) != radial_project(radial_project(mu).project(e)):
            failures.append(("radial-coordinate", trial))
        if sconv(mu, nu) != sconv(radial_project(mu), nu):
            failures.append(("radial-absorb", trial))
        smu = radial_project(mu)
        snu = radial_project(nu)
        if sconv(smu, snu).project(e) != sconv(smu.project(e), snu):
            failures.append(("subsphere-product", trial))
        if radial_project(mu).restrict_order(e) != radial_project(mu.restrict_order(e)):
            failures.append(("radial-component", trial))
    report(4, "projection and radial-projection identities, 100 random instances", failures)


def _symmetrisation_items(pair, failures, tag):
    n = pair.dim
    sym = gamma(pair)
    ones = unit(n)
    rho = symmetrize(ones, pair)
    if symmetrize(rho, pair) != rho:
        failures.append((tag, "idempotence"))
    # atoms sit on sign vectors: full order or zero
    if rho and rho.order_of() != SubsetMask.full(n):
        failures.append((tag, "order"))
    if bool(rho) != sym.proper:
        failures.append((tag, "properness"))
    if (rho.weight_at(tuple(F(1) for _ in range(n))).sign() > 0) != sym.proper:
        failures.append((tag, "unit-coefficient"))
    for e in all_subsets(n):
        if e not in sym.group:
            if set(rho.atoms) & set(rho.reflect(e).atoms):
                failures.append((tag, "singular", e.bits))
        if sym.proper:
            if rho.is_even_under(e) != (e in sym.evens):
                failures.append((tag, "even", e.bits))
            if rho.is_odd_under(e) != (e in sym.odds):
                failures.append((tag, "odd", e.bits))


def test_criterion_05_reflection_symmetrization():
    failures = []
    for n in (1, 2, 3):
        for e in all_subsets(n):
            for j in subsets_of(e):
                d = delta_ej(e, j)
                for f in all_subsets(n):
                    want = -d if (j.bits & f.bits).bit_count() % 2 else d
                    if d.reflect(f) != want:
                        failures.append(("sign-law", n, e.bits, j.bits, f.bits))
    for seed in range(20):
        n = 1 + seed % 3
        group = gen_subgroup(seed + 900, n)
        mu = gen_measure(seed + 950, n, 4)
        if symmetrize(mu, GeneratingPair.make(n, evens=group)) != group_average(mu, group):
            failures.append(("group-average", seed))
    # all generating pairs for n <= 2, 500 random pairs for n = 3
    for n in (1, 2):
        members = list(all_subsets(n))
        for ebits in range(1 << len(members)):
            for obits in range(1 << len(members)):
                pair = GeneratingPair.make(
                    n,
                    [m for i, m in enumerate(members) if ebits >> i & 1],
                    [m for i, m in enumerate(members) if obits >> i & 1],
                )
                _symmetrisation_items(pair, failures, f"n{n}")
    for seed in range(500):
        _symmetrisation_items(gen_pair(seed, 3), failures, f"rand{seed}")
    report(5, "reflection sign laws and symmetrisation, exhaustive n <= 2 plus 500 pairs n = 3", failures)


def test_criterion_06_index_transformation():
    failures = []
    for seed in range(300):
        n = 1 + seed % 4
        pair = gen_pair(seed + 5000, n)
        sym = gamma(pair)
        full = SubsetMask.full(n)
        if index_set(full, pair) != index_set(full, sym.as_generating_pair()):
            failures.append(("closure-invariance", seed))
        if (len(index_set(full, pair)) == 0) != (not sym.proper):
            failures.append(("empty-iff-nonproper", seed))
    for seed in range(100):
        n = 1 + seed % 4
        group = gen_subgroup(seed + 6000, n)
        dual = j_dual(group)
        if not is_group(dual) or j_dual(dual) != group:
            failures.append(("involution", seed))
    report(6, "index-transformation identities and dual involution", failures)


def _witness_ok_rn(nu, pair, rep):
    if rep.universal:
        return rep.witness is None
    w = rep.witness
    if w is None or not w or not mconv(nu, w).is_zero():
        return False
    if not all(w.is_even_under(f) for f in pair.evens):
        return False
    return all(w.is_odd_under(f) for f in pair.odds)


def _witness_ok_sphere(nu, pair, rep):
    if rep.universal:
        return rep.witness is None
    w = rep.witness
    if w is None or not w or not sconv(nu, w).is_zero():
        return False
    if not all(w.is_even_under(f) for f in pair.evens):
        return False
    return all(w.is_odd_under(f) for f in pair.odds)


def test_criterion_07_universality_rn():
    failures = []
    # (a) witnesses verified on random negative decisions
    for seed in range(60):
        n = 1 + seed % 3
        nu = gen_measure(seed + 7000, n, seed % 5)
        pair = gen_pair(seed + 7100, n)
        rep = decide_universal_rn(nu, full_support(n), pair)
        if not _witness_ok_rn(nu, pair, rep):
            failures.append(("witness", seed))
    # (b) the alternating grid is universal on the top-order class
    for n in (1, 2, 3):
        if not decide_universal_rn(sigma0(n), [SubsetMask.full(n)], GeneratingPair.make(n)).universal:
            failures.append(("sigma0", n))
    # (c) special deciders agree with the general one, 100 per class
    for klass in CLASSES:
        for trial in range(100):
            n = 1 + trial % 3
            nu = gen_measure(trial * 13 + CLASSES.index(klass) * 97, n, 1 + trial % 4)
            special = decide_special(nu, klass, "full")
            general = decide_universal_rn(nu, full_support(n), class_pair(klass, n))
            if special.universal != general.universal:
                failures.append(("special-vs-general", klass, trial))
    # (d) parity components of products on the top-order cell
    for trial in range(100):
        n = 1 + trial % 3
        mu = gen_measure(trial * 17 + 1, n, 2, coordinate_pool=NONZERO_POOL)
        nu = gen_measure(trial * 17 + 2, n, 2, coordinate_pool=NONZERO_POOL)
        for j in all_subsets(n):
            dj = delta_j(n, j)
            lhs = bool(mconv(dj, mconv(mu, nu)))
            rhs = bool(mconv(dj, mu)) and bool(mconv(dj, nu))
            if lhs != rhs:
                failures.append(("parity-product", trial, j.bits))
    report(7, "universality deciders on point measures", failures)


def test_criterion_08_universality_sphere():
    failures = []
    for seed in range(50):
        n = 1 + seed % 3
        nu = gen_sphere_measure(seed + 8000, n, seed % 5)
        pair = gen_pair(seed + 8100, n)
        rep = decide_universal_sphere(nu, full_support(n, sphere=True), pair)
        if not _witness_ok_sphere(nu, pair, rep):
            failures.append(("witness", seed))
    for n in (1, 2, 3):
        nu = radial_project(sigma0(n))
        if not decide_universal_sphere(nu, [SubsetMask.full(n)], GeneratingPair.make(n)).universal:
            failures.append(("sigma0", n))
    for klass in CLASSES:
        for trial in range(100):
            n = 1 + trial % 3
            nu = gen_sphere_measure(trial * 19 + CLASSES.index(klass) * 89, n, 1 + trial % 4)
            special = decide_special(nu, klass, "full")
            general = decide_universal_sphere(nu, full_support(n, sphere=True), class_pair(klass, n))
            if special.universal != general.universal:
                failures.append(("special-vs-general", klass, trial))
    # dimension-one conditions for full-order measures
    for trial in range(60):
        n = 1 + trial % 3
        nu = radial_project(gen_measure(trial * 23 + 5, n, 3, coordinate_pool=NONZERO_POOL))
        if nu.order_of() != SubsetMask.full(n):
            continue
        axis_ok = all(bool(msym(nu.project(SubsetMask.single(n, i)))) for i in range(1, n + 1))
        tail_ok = all(
            bool(sconv(delta_ej(j, j), nu))
            for j in all_subsets(n)
            if j.size
        )
        general = decide_universal_sphere(
            nu, full_support(n, sphere=True), class_pair("none", n)
        )
        if (axis_ok and tail_ok) != general.universal:
            failures.append(("dimension-one", trial))
        special = decide_special(nu, "unconditional", "top-order")
        general_unc = decide_universal_sphere(
            nu, full_support(n, sphere=True), class_pair("unconditional", n)
        )
        if special.universal != general_unc.universal:
            failures.append(("dimension-one-unconditional", trial))
    report(8, "universality deciders on sphere measures", failures)


def test_criterion_09_lifting():
    failures = []
    for seed in range(100):
        n = 1 + seed % 2
        mu = gen_measure(seed + 9000, n, seed % 5)
        if lift_inverse(lift(mu)) != mu:
            failures.append(("round-trip", seed))
    for seed in range(50):
        n = 1 + seed % 2
        mu = gen_measure(seed + 9200, n, 3)
        nu = gen_measure(seed + 9300, n, 3)
        if lift(mconv(mu, nu)) != sconv(lift(mu), lift(nu)):
            failures.append(("product", seed))
        if mu and lift(mu).degree() != mu.degree() + 1:
            failures.append(("degree", seed))
    for seed in range(50):
        n = 1 + seed % 2
        nu = gen_measure(seed + 9400, n, seed % 4)
        pair = gen_pair(seed + 9500, n)
        rng = random.Random(f"c9:{seed}")
        support = [e for e in all_subsets(n) if rng.random() < 0.6]
        below = decide_universal_rn(nu, support, pair).universal
        lifted_support, lifted_pair = lift_class(support, pair)
        above = decide_universal_sphere(lift(nu), lifted_support, lifted_pair).universal
        if below != above:
            failures.append(("transfer", seed))
    report(9, "lifting round trips, product transport, universality transfer", failures)


def test_criterion_10_degree_criterion():
    failures = []
    for trial in range(200):
        n = 1 + trial % 3
        mu = gen_measure(trial + 10_000, n, trial % 6)
        top = mu.restrict_order(SubsetMask.full(n))
        if phat(mu).is_zero() != top.is_zero():
            failures.append(("rn", trial))
        smu = radial_project(mu)
        stop = smu.restrict_order(SubsetMask.full(n))
        if phat(smu).is_zero() != stop.is_zero():
            failures.append(("sphere", trial))
    report(10, "alternating projection sum detects the top-order part", failures)


def test_criterion_11_zonoid():
    failures = []
    for n in (2, 3):
        if decide_d_universal(generating_measure(Zonotope.cube(n))).universal:
            failures.append(("cube", n))
    rng = random.Random("c11")
    found_full_order = 0
    for trial in range(60):
        n = 2 + trial % 2
        gens = []
        for _ in range(rng.randrange(1, 4)):
            while True:
                cand = tuple(F(rng.choice((-2, -1, 0, 1, 2))) for _ in range(n))
                if any(cand):
                    gens.append(cand)
                    break
        nu = generating_measure(Zonotope.make(n, gens))
        if nu.order_of() == SubsetMask.full(n):
            found_full_order += 1
            if not decide_d_universal(nu, unconditional=True).universal:
                failures.append(("full-order", trial))
    if found_full_order == 0:
        failures.append(("no-full-order-samples",))
    for trial in range(50):
        n = 2 + trial % 2
        z_gens = []
        for _ in range(1 + trial % 3):
            while True:
                cand = tuple(F(rng.choice((-2, -1, 1, 2))) for _ in range(n))
                if any(cand):
                    z_gens.append(cand)
                    break
        nu = generating_measure(Zonotope.make(n, z_gens))
        mu = msym(gen_sphere_measure(trial + 11_000, n, 1 + trial % 3))
        u = tuple(F(rng.choice((-2, -1, 0, 1, 2))) for _ in range(n))
        if k_transform(nu, mu, u) != k_transform_direct(nu, mu, u):
            failures.append(("transform", trial))
    report(11, "zonoid decisions and transform evaluations", failures)


def test_criterion_12_exact_scalars():
    failures = []
    rng = random.Random("c12")
    radicands = (1, 2, 3, 5, 6, 7, 10, 11, 13)

    def rand_surd():
        acc = Surd(0)
        for _ in range(rng.randrange(1, 4)):
            coeff = F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4)))
            acc = acc + coeff * Surd.sqrt(rng.choice(radicands))
        return acc

    values = [rand_surd() for _ in range(1000)]
    for i in range(0, 999, 3):
        a, b, c = values[i], values[i + 1], values[i + 2]
        if a + b != b + a or a * b != b * a:
            failures.append(("commutativity", i))
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            failures.append(("associativity", i))
        if a * (b + c) != a * b + a * c:
            failures.append(("distributivity", i))
    for i, a in enumerate(values):
        if (a.sign() == 0) != (a.terms == ()):
            failures.append(("sign-zero", i))
        if (a * a).sign() < 0:
            failures.append(("square-sign", i))
        b = rand_surd()
        if ((a - b).sign() == 0) != (a == b):
            failures.append(("canonical", i))
    for i in range(1000):
        q = F(rng.randrange(0, 400), rng.randrange(1, 40))
        s = Surd.sqrt(q)
        if s * s != Surd(q):
            failures.append(("sqrt-round-trip", i))
    report(12, "exact-scalar field laws, signs, square roots, 1000 random surds", failures)
