import json
import re

import pytest

import multconv.harness as harness
from multconv.harness import (
    PROPERTY_SUITES,
    brute_force_convolution,
    gen_measure,
    gen_pair,
    gen_subgroup,
    run_property_suite,
    shrink_measure,
)
from multconv.measures import Measure, mconv, symmetrize, unit
from multconv.subsets import gamma


def test_gen_measure_is_deterministic():
    a = gen_measure(42, 3, 5)
    b = gen_measure(42, 3, 5)
    assert a == b
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_gen_measure_zero_atoms():
    assert gen_measure(1, 2, 0).is_zero()


def test_gen_measure_respects_atom_count():
    assert gen_measure(7, 2, 6).atom_count() == 6


def test_gen_measure_distinct_seeds_differ():
    assert gen_measure(1, 2, 5) != gen_measure(2, 2, 5)


def test_symmetrized_random_measure_lands_in_class():
    for seed in range(8):
        dim = 1 + seed % 3
        pair = gen_pair(seed, dim)
        mu = symmetrize(gen_measure(seed + 50, dim, 4), pair)
        sym = gamma(pair)
        for f in sym.evens:
            assert mu.is_even_under(f)
        for f in sym.odds:
            assert mu.is_odd_under(f)


def test_gen_subgroup_is_group():
    from multconv.subsets import is_group

    for seed in range(10):
        assert is_group(gen_subgroup(seed, 3))


def test_brute_force_agrees_with_mconv():
    for seed in range(50):
        dim = 1 + seed % 3
        mu = gen_measure(seed + 100, dim, seed % 5)
        nu = gen_measure(seed + 200, dim, (seed + 2) % 5)
        assert brute_force_convolution(mu, nu) == mconv(mu, nu)


def test_brute_force_unit_and_zero():
    mu = gen_measure(3, 2, 4)
    assert brute_force_convolution(mu, unit(2)) == mu
    assert brute_force_convolution(mu, Measure.zero(2)).is_zero()


def test_suite_reports_are_deterministic():
    a = run_property_suite("algebra-laws", seed=5, trials=10)
    b = run_property_suite("algebra-laws", seed=5, trials=10)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_every_registered_suite_passes():
    for suite_id in PROPERTY_SUITES:
        report = run_property_suite(suite_id, seed=1, trials=5)
        assert report["passed"], report["failures"][:1]


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_property_suite("no-such-suite", seed=0, trials=1)


def test_injected_sign_bug_is_caught(monkeypatch):
    good = harness.mconv

    def buggy(a, b):
        result = good(a, b)
        return -result if result else result

    monkeypatch.setattr(harness, "mconv", buggy)
    report = run_property_suite("convolution-oracle", seed=3, trials=10)
    assert not report["passed"]
    failure = report["failures"][0]
    assert "counterexample" in failure


def test_shrinking_minimises_counterexamples():
    mu = gen_measure(9, 2, 6)
    target = mu.support()[0]

    def still_fails(m):
        return target in m.atoms

    small = shrink_measure(mu, still_fails)
    assert small.atom_count() == 1
    assert target in small.atoms


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gen_measure(0, 9, 1), "dimension 9 exceeds the generator bound 8"),
        (lambda: gen_measure(0, 1, 8), "cannot place 8 distinct atoms on a 7-point grid"),
        (
            lambda: brute_force_convolution(Measure(2, {(1, 2): 1}), Measure(3, {(1, 2, 3): 1})),
            "dimension mismatch: 2 vs 3",
        ),
    ],
    ids=["generator-dim", "grid-too-small", "brute-force-dims"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
