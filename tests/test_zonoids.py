import re
from fractions import Fraction

import pytest

from multconv.harness import gen_sphere_measure
from multconv.measures import Measure, msym, sigma0
from multconv.scalars import Surd
from multconv.sphere import SphereMeasure, radial_project
from multconv.subsets import SubsetMask
from multconv.zonoids import (
    Zonotope,
    decide_d_universal,
    generating_measure,
    k_transform,
    k_transform_direct,
    singleton_support_check,
    support_function,
)

F = Fraction


def test_generating_measure_of_a_segment():
    z = Zonotope.make(2, [(1, 0)])
    nu = generating_measure(z)
    assert nu == SphereMeasure(2, {(1, 0): F(1, 2), (-1, 0): F(1, 2)})


def test_generating_measure_of_the_cube():
    for n in (2, 3):
        nu = generating_measure(Zonotope.cube(n))
        assert nu.degree() == 1
        assert nu.total_mass() == Surd(n)
        assert nu.is_even_under(SubsetMask.full(n))
        pos, neg = nu.jordan()
        assert neg.is_zero()


def test_trivial_zonotope():
    z = Zonotope.make(2, [])
    assert generating_measure(z).is_zero()


def test_zero_generator_rejected():
    with pytest.raises(ValueError):
        Zonotope.make(2, [(0, 0)])


def test_support_function_reproduces_segments():
    # h(sum [-v,v], u) = sum |<v,u>|
    z = Zonotope.make(2, [(1, 0), (1, 2), (F(1, 2), F(-1, 2))])
    nu = generating_measure(z)
    for u in [(1, 0), (0, 1), (1, 1), (F(-1, 2), F(3))]:
        expected = Surd(0)
        for v in z.generators:
            ip = sum((a * F(b) for a, b in zip(v, u)), F(0))
            expected = expected + abs(Surd(ip))
        assert support_function(nu, u) == expected


def test_support_function_cube_value():
    nu = generating_measure(Zonotope.cube(2))
    assert support_function(nu, (1, 0)) == Surd(1)
    assert support_function(nu, (0, 0)) == Surd(0)


def test_support_function_positively_homogeneous():
    nu = generating_measure(Zonotope.make(2, [(1, 2), (3, -1)]))
    u = (F(1), F(-2))
    for a in (F(2), F(1, 3), F(7, 2)):
        scaled = tuple(a * c for c in u)
        assert support_function(nu, scaled) == a * support_function(nu, u)


def test_support_function_of_projection():
    z = Zonotope.make(2, [(1, 2), (2, -1)])
    nu = generating_measure(z)
    e = SubsetMask.from_indices(2, [1])
    projected = nu.project(e)
    for u in [(1, 0), (-2, 0), (F(1, 2), 0)]:
        assert support_function(projected, u) == support_function(nu, u)


def test_k_transform_two_routes_agree():
    z = Zonotope.cube(2)
    nu = generating_measure(z)
    mu = msym(gen_sphere_measure(1, 2, 3))
    for u in [(1, 0), (1, 1), (F(1, 2), F(-3, 2))]:
        assert k_transform(nu, mu, u) == k_transform_direct(nu, mu, u)


def test_k_transform_trivial_cases():
    nu = generating_measure(Zonotope.cube(2))
    zero = SphereMeasure.zero(2)
    assert k_transform(nu, zero, (1, 1)) == Surd(0)
    mu = msym(gen_sphere_measure(2, 2, 3))
    assert k_transform(nu, mu, (0, 0)) == Surd(0)


def test_k_transform_requires_symmetric_argument():
    nu = generating_measure(Zonotope.cube(2))
    lopsided = SphereMeasure(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        k_transform(nu, lopsided, (1, 0))


def test_cube_is_not_d_universal():
    for n in (2, 3):
        nu = generating_measure(Zonotope.cube(n))
        report = decide_d_universal(nu)
        assert not report.universal
        # the full-support condition fails: the measure lives on the axes
        assert any(c.support.size == n and not c.satisfied for c in report.conditions)


def test_full_order_nonnegative_zonotope_is_unconditionally_d_universal():
    z = Zonotope.make(2, [(1, 2), (2, 1), (1, -1)])
    nu = generating_measure(z)
    assert munc_degree_is_full(nu)
    assert decide_d_universal(nu, unconditional=True).universal


def munc_degree_is_full(nu):
    from multconv.measures import munc

    return munc(nu).degree() == nu.dim


def test_trivial_zonoid_is_not_d_universal():
    nu = SphereMeasure.zero(2)
    report = decide_d_universal(nu)
    assert not report.universal


def test_d_universal_requires_symmetric_measure():
    with pytest.raises(ValueError):
        decide_d_universal(SphereMeasure(2, {(1, 1): 1}))


def test_d_universal_refuses_point_measure():
    # a point measure would gain the empty-pattern conditions of R^n
    mu = msym(Measure(2, [((1, 1), 1), ((1, -2), 1)]))
    with pytest.raises(ValueError, match="sphere measures, got Measure"):
        decide_d_universal(mu)


def test_singleton_support_check():
    assert not singleton_support_check(generating_measure(Zonotope.cube(2)))
    assert singleton_support_check(radial_project(msym(sigma0(2))))
    assert singleton_support_check(SphereMeasure.zero(2))


def test_zonotope_json_round_trip():
    z = Zonotope.make(2, [(1, 2), (F(1, 2), F(-3, 4))])
    assert Zonotope.from_json(z.to_json()) == z



def test_zonotope_generators_key_is_required_in_json_only():
    assert Zonotope.make(2, []).generators == ()
    with pytest.raises(ValueError, match="generators"):
        Zonotope.from_json({"dim": 2, "atoms": []})


_RAYS2 = SphereMeasure(2, {(1, 0): 1, (-1, 0): 1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Zonotope(2, [(1, 2, 3)]), "has dimension 3, expected 2"),
        (lambda: support_function(_RAYS2, (1, 2, 3)), "dimension mismatch: 3 vs 2"),
        (
            lambda: k_transform_direct(_RAYS2, SphereMeasure(2, {(1, 0): 1}), (1, 0)),
            "the transformed measure must be origin-symmetric",
        ),
        (lambda: k_transform_direct(_RAYS2, _RAYS2, (1, 2, 3)), "dimension mismatch"),
    ],
    ids=["generator-dim", "support-function-dims", "k-transform-direct-asymmetric", "k-transform-direct-dims"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
