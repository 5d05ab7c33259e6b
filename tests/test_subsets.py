import re

import pytest
from hypothesis import given, settings, strategies as st

from multconv.subsets import (
    MAX_GROUP_RANK,
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
)


def mask(dim, *indices):
    return SubsetMask.from_indices(dim, indices)


@st.composite
def masks(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 4))
    return SubsetMask(draw(st.integers(0, (1 << d) - 1)), d)


@st.composite
def pairs(draw, dim=None, max_members=3):
    d = dim if dim is not None else draw(st.integers(1, 4))
    members = st.lists(masks(dim=d), max_size=max_members)
    return GeneratingPair.make(d, draw(members), draw(members))


def test_symdiff_examples():
    assert mask(3, 1, 2) ^ mask(3, 2, 3) == mask(3, 1, 3)
    e = mask(3, 1, 3)
    assert e ^ e == SubsetMask.empty(3)
    assert e ^ SubsetMask.empty(3) == e


def test_symdiff_dim_mismatch():
    with pytest.raises(ValueError):
        mask(2, 1) ^ mask(3, 1)


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


def test_gamma_refuses_rank_beyond_bound():
    # 2**17 even members: refused before any member is listed
    n = MAX_GROUP_RANK + 1
    singletons = [SubsetMask.single(n, i) for i in range(1, n + 1)]
    with pytest.raises(ValueError, match=f"rank {n} exceeds the enumeration bound {MAX_GROUP_RANK}"):
        gamma(GeneratingPair.make(n, evens=singletons))
    # the odd generator adds a coset, not a basis member
    sym = gamma(GeneratingPair.make(n, evens=singletons[1:], odds=singletons[:1]))
    assert len(sym.evens) == 1 << MAX_GROUP_RANK


def bfs_closure(pair):
    """Breadth-first closure over (subset, parity) states: evens, odds, proper."""
    gens = [(f.bits, 0) for f in pair.evens] + [(f.bits, 1) for f in pair.odds]
    seen = frontier = {(0, 0)}
    while frontier:
        frontier = {(b ^ gb, p ^ gp) for b, p in frontier for gb, gp in gens} - seen
        seen = seen | frontier
    part = lambda parity: {SubsetMask(b, pair.dim) for b, p in seen if p == parity}  # noqa: E731
    return part(0), part(1), (0, 1) not in seen


def pairwise_is_group(masks):
    fam = set(masks)
    if not fam or len({m.dim for m in fam}) != 1:
        return False
    return SubsetMask.empty(next(iter(fam)).dim) in fam and all(a ^ b in fam for a in fam for b in fam)


def assert_gamma_matches_bfs(pair):
    sym = gamma(pair)
    assert (sym.evens, sym.odds, sym.proper) == bfs_closure(pair)


@pytest.mark.parametrize(
    "evens, odds",
    [
        ([], []),
        ([], [()]),
        ([(1,)], [(1,)]),
        ([(1,), (2,)], [(1, 2)]),
        ([(1,), (2,), (1, 2)], []),
        ([], [(1,), (2,), (1, 2)]),
        ([], [(1,), (2,), (3,), (1, 2, 3)]),
        ([()], [(3,)]),
        ([(1, 2), (2, 3)], [(1, 3), (2,)]),
    ],
    ids=[
        "empty-pair",
        "odd-empty-set",
        "same-set-both-parities",
        "odd-in-even-span",
        "dependent-evens",
        "dependent-odds",
        "odd-product-is-odd",
        "even-empty-set",
        "mixed",
    ],
)
def test_gamma_matches_bfs_closure(evens, odds):
    family = lambda members: [mask(3, *m) for m in members]  # noqa: E731
    assert_gamma_matches_bfs(GeneratingPair.make(3, family(evens), family(odds)))


@given(st.integers(1, 6).flatmap(lambda d: pairs(dim=d, max_members=5)))
@settings(max_examples=300, deadline=None)
def test_gamma_matches_bfs_closure_random(p):
    assert_gamma_matches_bfs(p)


@pytest.mark.parametrize(
    "members",
    [
        [],
        [()],
        [(1,), (2,), (1, 2)],
        [(), (1,), (2,), (1, 2)],
        [(), (1,), (2,)],
        [(), (1,), (2,), (1, 2), (3,)],
        [(), (1, 2), (2, 3), (1, 3)],
    ],
    ids=[
        "empty-family",
        "trivial-group",
        "closed-but-no-empty-set",
        "group",
        "missing-one-member",
        "one-member-too-many",
        "even-sized-sets",
    ],
)
def test_is_group_matches_pairwise_test(members):
    family = [mask(3, *m) for m in members]
    assert is_group(family) == pairwise_is_group(family)


def test_is_group_refuses_mixed_dimensions():
    family = [SubsetMask.empty(2), SubsetMask.empty(3)]
    assert not is_group(family) and not pairwise_is_group(family)


@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(0, 63), st.sampled_from(["drop", "add", "keep"]))
@settings(max_examples=300, deadline=None)
def test_is_group_matches_pairwise_test_near_groups(seed, dim, bits, edit):
    # a subgroup, the same less one member, or plus one
    from multconv.harness import gen_subgroup

    family = set(gen_subgroup(seed, dim, max_generators=4))
    member = SubsetMask(bits % (1 << dim), dim)
    if edit == "drop":
        family.discard(member)
    elif edit == "add":
        family.add(member)
    assert is_group(family) == pairwise_is_group(family)


@given(st.integers(1, 6).flatmap(lambda d: st.lists(masks(dim=d), min_size=1, max_size=8)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_is_group_matches_pairwise_test_random(family, with_empty):
    if with_empty:
        family.append(SubsetMask.empty(family[0].dim))
    assert is_group(family) == pairwise_is_group(family)


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


@pytest.mark.parametrize("index", [1.9, 2.0, True, "2"], ids=["float", "integral-float", "bool", "str"])
def test_from_indices_refuses_non_integer_index(index):
    # 1.9 and True used to load as {1}, and "2" as {2}
    with pytest.raises(ValueError, match=f"index must be an integer, got {index!r}"):
        SubsetMask.from_indices(3, [index])
    with pytest.raises(ValueError, match="index must be an integer"):
        GeneratingPair.from_json({"dim": 3, "evens": [[index, 2]], "odds": []})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SubsetMask(0, 0), "dimension must be in 1..63, got 0"),
        (lambda: SubsetMask(4, 2), "bits 0x4 outside dimension 2"),
        (lambda: SubsetMask.single(2, 3), "index 3 outside 1..2"),
        (lambda: SubsetMask(1, 2) | SubsetMask(1, 3), "dimension mismatch: 2 vs 3"),
        (lambda: GeneratingPair.make(2, evens=[SubsetMask(1, 3)]), "member {1} has dimension 3, expected 2"),
        (lambda: index_set(SubsetMask(1, 2), GeneratingPair.make(3)), "dimension mismatch: 2 vs 3"),
        (lambda: lift_family([SubsetMask(2, 2)], SubsetMask(1, 2)), "family member {2} is not a subset of {1}"),
    ],
    ids=["dim-0", "bits-outside", "single-index", "or-dims", "pair-member-dim", "index-set-dims", "lift-family-member"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
