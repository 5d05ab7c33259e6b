import pytest
from hypothesis import given, settings, strategies as st

from multconv.subsets import (
    GeneratingPair,
    SubsetMask,
    SymmetryPair,
    all_subsets,
    gamma,
    index_set,
    is_group,
    j_dual,
    lift_family,
    lift_mask,
    lift_pair,
    lift_set,
    restrict_pair,
    subsets_of,
    symdiff,
)


def mask(dim, *indices):
    return SubsetMask.from_indices(dim, indices)


@st.composite
def masks(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 4))
    return SubsetMask(draw(st.integers(0, (1 << d) - 1)), d)


@st.composite
def pairs(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 4))
    members = st.lists(masks(dim=d), max_size=3)
    return GeneratingPair.make(d, draw(members), draw(members))


def test_symdiff_examples():
    assert symdiff(mask(3, 1, 2), mask(3, 2, 3)) == mask(3, 1, 3)
    e = mask(3, 1, 3)
    assert symdiff(e, e) == SubsetMask.empty(3)
    assert symdiff(e, SubsetMask.empty(3)) == e


def test_symdiff_dim_mismatch():
    with pytest.raises(ValueError):
        symdiff(mask(2, 1), mask(3, 1))


def test_boolean_group_laws_exhaustive():
    for n in (1, 2, 3, 4):
        members = list(all_subsets(n))
        empty = SubsetMask.empty(n)
        for a in members:
            assert a ^ empty == a
            assert a ^ a == empty
            for b in members:
                assert a ^ b == b ^ a
        # associativity on a sample triple per pair is already covered by xor


def test_distribution_law_exhaustive():
    for n in (1, 2, 3):
        for a in all_subsets(n):
            for b in all_subsets(n):
                for c in all_subsets(n):
                    assert (a ^ b) & c == (a & c) ^ (b & c)


def test_gamma_example_dim2():
    pair = GeneratingPair.make(2, evens=[mask(2, 1)], odds=[mask(2, 2)])
    sym = gamma(pair)
    assert sym.evens == {SubsetMask.empty(2), mask(2, 1)}
    assert sym.odds == {mask(2, 2), mask(2, 1, 2)}
    assert sym.proper


def test_gamma_empty_pair():
    sym = gamma(GeneratingPair.make(3))
    assert sym.evens == {SubsetMask.empty(3)}
    assert sym.odds == frozenset()
    assert sym.proper


def test_gamma_odd_empty_set_is_not_proper():
    sym = gamma(GeneratingPair.make(2, odds=[SubsetMask.empty(2)]))
    assert not sym.proper


def test_gamma_dim14_coordinate_reflections():
    # 2**14 group members: the closure checks stay linear in the group size
    n = 14
    evens = [SubsetMask.single(n, i) for i in range(1, n)]
    sym = gamma(GeneratingPair.make(n, evens=evens, odds=[SubsetMask.single(n, n)]))
    assert len(sym.evens) == len(sym.odds) == 1 << (n - 1)
    assert sym.evens == {m for m in all_subsets(n) if not m.bits >> (n - 1)}
    assert sym.proper


@pytest.mark.parametrize(
    "evens, odds, proper, rule",
    [
        ([(1,)], [], True, "must contain the empty set"),
        ([(), (1,), (2,)], [], True, "not a subgroup"),
        ([(), (1,), (2,), (1, 2), (3,)], [], True, "not a subgroup"),
        ([()], [(1,), (2,)], True, "not a coset"),
        ([(), (1,)], [(2,)], True, "not a coset"),
        ([(), (1,)], [(2,), (1, 2)], False, "proper flag"),
        ([(), (1,)], [(), (1,)], True, "proper flag"),
    ],
)
def test_symmetry_pair_refuses_each_broken_rule(evens, odds, proper, rule):
    family = lambda members: frozenset(mask(3, *m) for m in members)  # noqa: E731
    with pytest.raises(ValueError, match=rule):
        SymmetryPair(family(evens), family(odds), proper, 3)


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_gamma_idempotent(p):
    sym = gamma(p)
    again = gamma(sym.as_generating_pair())
    assert (again.evens, again.odds, again.proper) == (sym.evens, sym.odds, sym.proper)


def test_restrict_example():
    pair = GeneratingPair.make(2, evens=[mask(2, 1)], odds=[mask(2, 2)])
    restricted = restrict_pair(pair, mask(2, 1))
    assert restricted.evens == {mask(2, 1)}
    assert restricted.odds == {SubsetMask.empty(2)}
    assert not gamma(restricted).proper


@given(pairs(), masks())
@settings(max_examples=150, deadline=None)
def test_restrict_commutes_with_gamma(p, e):
    if e.dim != p.dim:
        e = SubsetMask(e.bits & ((1 << p.dim) - 1), p.dim)
    left = gamma(restrict_pair(p, e))
    sym = gamma(p)
    right = gamma(restrict_pair(sym.as_generating_pair(), e))
    assert left.evens == right.evens and left.odds == right.odds


@given(pairs())
@settings(max_examples=100, deadline=None)
def test_restrict_to_full_is_identity(p):
    assert restrict_pair(p, SubsetMask.full(p.dim)) == p


def test_index_set_closed_forms():
    for n in (1, 2, 3):
        e = SubsetMask.full(n)
        assert index_set(e, GeneratingPair.make(n)) == frozenset(all_subsets(n))
        everything = list(all_subsets(n))
        assert index_set(e, GeneratingPair.make(n, evens=everything)) == {
            SubsetMask.empty(n)
        }
        evens_only = index_set(e, GeneratingPair.make(n, evens=[e]))
        assert evens_only == frozenset(j for j in all_subsets(n) if j.size % 2 == 0)
        odds_only = index_set(e, GeneratingPair.make(n, odds=[e]))
        assert odds_only == frozenset(j for j in all_subsets(n) if j.size % 2 == 1)


@given(pairs(), masks())
@settings(max_examples=150, deadline=None)
def test_index_set_invariant_under_closure(p, e):
    if e.dim != p.dim:
        e = SubsetMask(e.bits & ((1 << p.dim) - 1), p.dim)
    sym = gamma(p)
    assert index_set(e, p) == index_set(e, sym.as_generating_pair())


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_empty_index_set_iff_not_proper(p):
    full = SubsetMask.full(p.dim)
    assert (len(index_set(full, p)) == 0) == (not gamma(p).proper)


@given(pairs())
@settings(max_examples=100, deadline=None)
def test_empty_member_iff_no_odds(p):
    full = SubsetMask.full(p.dim)
    js = index_set(full, p)
    empty = SubsetMask.empty(p.dim)
    if js:
        assert (empty in js) == (not p.odds)


def test_j_dual_trivial_group():
    n = 3
    assert j_dual({SubsetMask.empty(n)}) == frozenset(all_subsets(n))
    assert j_dual(frozenset(all_subsets(n))) == {SubsetMask.empty(n)}


def test_j_dual_requires_group():
    with pytest.raises(ValueError):
        j_dual({mask(2, 1)})


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_j_dual_involution(seed, dim):
    from multconv.harness import gen_subgroup

    group = gen_subgroup(seed, dim)
    dual = j_dual(group)
    assert is_group(dual)
    assert j_dual(dual) == group


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_membership_via_index_inclusion(p):
    # a proper symmetry pair is recovered from its index family
    sym = gamma(p)
    if not sym.proper:
        return
    n = p.dim
    full = SubsetMask.full(n)
    js = index_set(full, sym.as_generating_pair())
    for e in all_subsets(n):
        even_side = index_set(full, GeneratingPair.make(n, evens=[e]))
        odd_side = index_set(full, GeneratingPair.make(n, odds=[e]))
        assert (e in sym.evens) == js.issubset(even_side)
        assert (e in sym.odds) == js.issubset(odd_side)


def test_lift_of_empty_pair():
    lifted = lift_pair(GeneratingPair.make(2))
    assert lifted.dim == 3
    assert lifted.evens == {SubsetMask.full(3)}
    assert lifted.odds == frozenset()


def test_lift_set_prepends_new_coordinate():
    e = mask(2, 2)
    assert lift_set(e) == mask(3, 1, 3)
    assert lift_mask(e) == mask(3, 3)


@given(pairs(), masks())
@settings(max_examples=150, deadline=None)
def test_proper_restriction_transfers_along_lift(p, e):
    if e.dim != p.dim:
        e = SubsetMask(e.bits & ((1 << p.dim) - 1), p.dim)
    below = gamma(restrict_pair(p, e)).proper
    lifted = lift_pair(p)
    above = gamma(restrict_pair(lifted, lift_set(e))).proper
    assert below == above


@given(st.lists(masks(dim=3), max_size=4), masks(dim=3))
@settings(max_examples=150, deadline=None)
def test_lift_family_commutes_with_restriction(family, e):
    restricted = frozenset(f & e for f in family)
    left = lift_family(restricted, e)
    whole = lift_family(family, SubsetMask.full(3))
    el = lift_set(e)
    right = frozenset(SubsetMask(f.bits & el.bits, 4) for f in whole)
    assert left == right


def test_subsets_of_enumerates_all():
    e = mask(3, 1, 3)
    got = list(subsets_of(e))
    assert len(got) == 4
    assert set(got) == {SubsetMask.empty(3), mask(3, 1), mask(3, 3), e}


def test_json_round_trip():
    p = GeneratingPair.make(3, evens=[mask(3, 1, 2)], odds=[SubsetMask.empty(3)])
    assert GeneratingPair.from_json(p.to_json()) == p
    assert p.to_json()["odds"] == [[]]
