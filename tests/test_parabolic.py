import copy
import gc
import pickle
import time
import weakref
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, strategies as st

from aql.halfint import CharMultiset, Weight, exact_int
from aql.parabolic import (
    MAX_CONE,
    MAX_FRAME,
    MAX_PACKET,
    AlignmentError,
    DominanceError,
    LambdaCharacter,
    ThetaStableAlgebra,
    algebra_from_pair,
    blocks_from_dominant,
    cohomological_degree,
    degree_twice,
    delta_u_p,
    enumerate_packet,
    enumerate_standard,
    inf_char_aq,
    lowest_k_type,
    packet_size,
    partitions_from_blocks,
    recentred,
    two_rho_up,
    _rows,
    _standard,
    _standard_count,
)
from aql.partitions import (
    EMPTY,
    FrameError,
    FramedPair,
    Partition,
    conjugate,
    enumerate_compatible,
)
from aql.convergence import atlas, predecessor
from aql.thetalift import DEFAULT_BOUND, _source_algebra, build_source

from oracles import (
    add_weights, alg, all_standard, dense_cone, dense_root_sum, k_types_bounded, root_of
)


def rho_gl(n):
    return CharMultiset(twice=(n + 1 - 2 * t for t in range(1, n + 1)))


def test_block_validation():
    with pytest.raises(ValueError):
        ThetaStableAlgebra([(0, 0)])
    with pytest.raises(ValueError):
        ThetaStableAlgebra([(1, -1)])
    assert ThetaStableAlgebra(()).signature == (0, 0)


BAD_BLOCKS = [(True, 1), (1, False), (1.0, 1), (1, 0.5), (-1, 2), (2, -1), (0, 0)]


@pytest.mark.parametrize("block", BAD_BLOCKS, ids=repr)
def test_every_public_entry_checks_the_blocks(block):
    """The constructor, `from_json`, unpickling and copying refuse a bad
    block anywhere in the list; `parse` reads none of them as a block."""
    blocks = [(1, 1), block]
    error = TypeError if any(type(v) is not int for v in block) else ValueError
    with pytest.raises(error):
        ThetaStableAlgebra(blocks)
    with pytest.raises(error):
        ThetaStableAlgebra.from_json({"blocks": [list(b) for b in blocks]})
    unchecked = ThetaStableAlgebra._trusted(tuple(blocks), (0, 0))
    with pytest.raises(error):
        pickle.loads(pickle.dumps(unchecked))
    with pytest.raises(error):
        copy.deepcopy(unchecked)
    with pytest.raises(ValueError):
        ThetaStableAlgebra.parse(f"1,1;{block[0]},{block[1]}")


def test_unparse_joins_the_blocks_and_parses_back():
    """`unparse` reads blocks with both sides up to MAX_FRAME from a table
    and formats larger ones; either way it is the plain join, and `parse`
    reads it back, for every generated algebra with a+b <= 10 and for
    lists with a block above the table."""

    def plain(q):
        return ";".join(f"{a},{b}" for a, b in q.blocks)

    count = 0
    for n in range(11):
        for a in range(n + 1):
            for q, _, _ in _standard(a, n - a):
                count += 1
                assert q.unparse() == plain(q), q
                assert ThetaStableAlgebra.parse(q.unparse()) == q
                assert str(q) == f"({plain(q)})"
    assert count == 32_504
    for text in ("500,499;0,1", "0,1;14,0;1,13", f"{MAX_FRAME},{MAX_FRAME};{MAX_FRAME + 1},0", ""):
        q = ThetaStableAlgebra.parse(text)
        assert q.unparse() == plain(q) == text
        assert ThetaStableAlgebra.parse(q.unparse()) == q


def test_canonical_form():
    assert alg((1, 0), (1, 0)).canonicalize() == alg((2, 0))
    assert alg((0, 1), (0, 2)).canonicalize() == alg((0, 3))
    assert alg((1, 0), (0, 1), (1, 0)).is_canonical
    assert not alg((1, 0), (1, 0)).is_canonical
    # mixed blocks never merge
    assert alg((1, 1), (1, 1)).canonicalize() == alg((1, 1), (1, 1))


def test_blocks_from_dominant_examples():
    assert blocks_from_dominant(Weight.of([1, 0], [1, 0])) == alg((1, 1), (1, 1))
    assert blocks_from_dominant(Weight.of([0, 0, 0], [0, 0])) == alg((3, 2))
    assert blocks_from_dominant(Weight.of([1, 0], [])) == alg((2, 0))
    with pytest.raises(DominanceError):
        blocks_from_dominant(Weight.of([0, 1], []))


def test_partitions_from_blocks_examples():
    assert partitions_from_blocks(alg((1, 1), (1, 1))) == FramedPair(
        2, 2, Partition([1]), Partition([2, 1])
    )
    assert partitions_from_blocks(alg((1, 0), (1, 1), (0, 1))) == FramedPair(
        2, 2, Partition([2, 1]), Partition([2, 2])
    )
    assert partitions_from_blocks(alg((3, 2))) == FramedPair(
        3, 2, EMPTY, Partition([2, 2, 2])
    )


def test_algebra_from_pair_examples():
    assert algebra_from_pair(
        FramedPair(2, 2, Partition([1]), Partition([2, 1]))
    ) == alg((1, 1), (1, 1))
    assert algebra_from_pair(FramedPair(3, 2, EMPTY, Partition([2, 2, 2]))) == alg((3, 2))
    assert algebra_from_pair(
        FramedPair(2, 2, Partition([2, 1]), Partition([2, 2]))
    ) == alg((1, 0), (1, 1), (0, 1))


def test_round_trip_all_small_algebras():
    for q in all_standard(6):
        assert algebra_from_pair(partitions_from_blocks(q)) == q


def test_round_trip_from_pairs():
    for a in range(4):
        for b in range(4):
            for pair in enumerate_compatible(a, b):
                assert partitions_from_blocks(algebra_from_pair(pair)) == pair


def test_standard_enumeration_matches_direct_block_enumeration():
    # oracle: build every canonical block list by brute force
    def brute(a, b):
        found = set()

        def rec(prefix, a_left, b_left):
            if a_left == 0 and b_left == 0:
                if prefix:
                    found.add(tuple(prefix))
                return
            for da in range(a_left + 1):
                for db in range(b_left + 1):
                    if da == db == 0:
                        continue
                    if prefix:
                        pa, pb = prefix[-1]
                        if (db == 0 and pb == 0) or (da == 0 and pa == 0):
                            continue
                    prefix.append((da, db))
                    rec(prefix, a_left - da, b_left - db)
                    prefix.pop()

        rec([], a, b)
        if a == 0 and b == 0:
            found.add(())
        return found

    for a in range(4):
        for b in range(4):
            assert {q.blocks for q in enumerate_standard(a, b)} == brute(a, b)


def test_the_count_dp_counts_the_enumerated_algebras():
    """`_standard_count` equals the length of the enumeration for every
    frame with a+b <= 11, and counts frames past MAX_FRAME too."""
    for n in range(12):
        for a in range(n + 1):
            assert _standard_count(a, n - a) == len(enumerate_standard(a, n - a)), (a, n - a)
    assert _standard_count(7, 6) == 116_742
    assert _standard_count(20, 20) == 121_308_311_024_220_006


def test_enumerate_standard_rejects_negative_sides():
    with pytest.raises(FrameError):
        enumerate_standard(2, -1)


def test_enumerate_standard_refuses_large_frames():
    assert MAX_FRAME == 13
    with pytest.raises(FrameError, match="a\\+b must be at most 13"):
        enumerate_standard(7, 7)
    with pytest.raises(FrameError):
        enumerate_compatible(0, 14)


def test_the_generator_checks_the_frame_when_called():
    """The frame is refused at the call, before anything is iterated."""
    for a, b in ((-1, 2), (2, -1), (7, 7), (0, 14)):
        with pytest.raises(FrameError):
            _standard(a, b)
        with pytest.raises(FrameError):
            enumerate_standard(a, b)
    with pytest.raises(FrameError):
        atlas(7, 7)


def oracle_standard(a, b):
    """Slow oracle: every canonical block list by depth-first search, then
    sorted by the (beta, alpha) of its rows."""
    if exact_int(a) < 0 or exact_int(b) < 0:
        raise FrameError("frame sides must be non-negative")
    if a + b > MAX_FRAME:
        raise FrameError(f"frame {a}x{b} is too large: a+b must be at most {MAX_FRAME}")
    # each (ai, bi) is made once, so equal blocks of the found lists share it
    pairs = [[(ai, bi) for bi in range(b + 1)] for ai in range(a + 1)]
    found, stack = [], [((), a, b)]
    while stack:
        blocks, a_left, b_left = stack.pop()
        if a_left == b_left == 0:
            found.append(ThetaStableAlgebra(blocks))
        pa, pb = blocks[-1] if blocks else (1, 1)  # (1, 1): nothing to merge with
        for ai in range(a_left + 1):
            for bi in range(b_left + 1):
                if (ai, bi) == (0, 0) or (ai == 0 and pa == 0) or (bi == 0 and pb == 0):
                    continue
                stack.append((blocks + (pairs[ai][bi],), a_left - ai, b_left - bi))

    def key(q: ThetaStableAlgebra):
        alpha, beta = _rows(q)
        return beta, alpha

    return sorted(found, key=key)


def test_generated_algebras_match_the_search_and_sort_oracle():
    """Same algebras in the same order, each with the rows of `_rows`."""
    for n in range(11):
        for a in range(n + 1):
            got = list(_standard(a, n - a))
            assert [q for q, _, _ in got] == oracle_standard(a, n - a), (a, n - a)
            for q, alpha, beta in got:
                assert (list(alpha), list(beta)) == _rows(q), q


def test_delta_u_p_counts():
    assert delta_u_p(alg((2, 3))) == ()
    assert len(delta_u_p(alg((1, 1), (1, 1)))) == 2
    cells = delta_u_p(alg((1, 0), (1, 1), (0, 1)))
    assert len(cells) == 3
    assert all(sign == 1 for sign, _, _ in cells)


def test_cohomological_degree_examples():
    assert cohomological_degree(alg((4, 2))) == (0, 0, 0)
    assert cohomological_degree(alg((1, 0), (1, 1), (0, 1))) == (3, 3, 0)
    assert cohomological_degree(alg((1, 1), (1, 1))) == (2, 1, 1)


def test_two_rho_up_examples():
    assert two_rho_up(alg((3, 2))) == Weight.of([0, 0, 0], [0, 0])
    assert two_rho_up(alg((1, 0), (1, 1), (0, 1))) == Weight.of([2, 1], [-1, -2])


def test_dense_root_oracles_by_hand():
    """The test oracles' dense roots, worked out by hand: a cell inside alpha
    is x_i - y_{b+1-j}, a cell outside beta its negative."""
    q = alg((1, 0), (1, 1), (0, 1))
    assert delta_u_p(q) == ((1, 1, 1), (1, 1, 2), (1, 2, 1))
    assert [root_of(cell, 2, 2) for cell in delta_u_p(q)] == [
        Weight.of([1, 0], [0, -1]), Weight.of([1, 0], [-1, 0]), Weight.of([0, 1], [0, -1])
    ]
    assert dense_root_sum(q) == Weight.of([2, 1], [-1, -2])
    y_first = alg((0, 1), (1, 0))
    assert delta_u_p(y_first) == ((-1, 1, 1),)
    assert dense_root_sum(y_first) == Weight.of([-1], [1])
    assert dense_cone(y_first, Weight.of([0], [0]), 2) == {Weight.of([-k], [k]) for k in range(3)}


def test_structural_identities_small():
    """R = |delta(u cap p)| and 2rho(u cap p) = sum of its roots."""
    for q in all_standard(6):
        cells = delta_u_p(q)
        R, R_plus, R_minus = cohomological_degree(q)
        assert R == len(cells)
        assert R_plus == sum(1 for s, _, _ in cells if s == 1)
        assert dense_root_sum(q) == two_rho_up(q)


# Slow oracles: the nested pair read slot by slot, and the invariants built
# from it through the partition calculus (row lengths, conjugate diagrams).


def oracle_pair(q):
    """alpha_i (beta_i) counts the y-slots in a strictly (weakly) later
    block than x-slot i."""
    a, b = q.signature
    x_block = [t for t, (ai, _) in enumerate(q.blocks) for _ in range(ai)]
    y_block = [t for t, (_, bi) in enumerate(q.blocks) for _ in range(bi)]
    alpha = Partition(sum(1 for u in y_block if u > t) for t in x_block)
    beta = Partition(sum(1 for u in y_block if u >= t) for t in x_block)
    return FramedPair(a, b, alpha, beta)


def oracle_delta_u_p(q):
    pair = oracle_pair(q)
    a, b = q.signature
    cells = []
    for i in range(1, a + 1):
        for j in range(1, pair.alpha.part(i) + 1):
            cells.append((1, i, j))
    for i in range(1, a + 1):
        for j in range(pair.beta.part(i) + 1, b + 1):
            cells.append((-1, i, j))
    return tuple(cells)


def oracle_cohomological_degree(q):
    pair = oracle_pair(q)
    a, b = q.signature
    r_plus = pair.alpha.size()
    r_minus = a * b - pair.beta.size()
    return (r_plus + r_minus, r_plus, r_minus)


def oracle_two_rho_up(q):
    pair = oracle_pair(q)
    a, b = q.signature
    alpha_t = conjugate(pair.alpha)
    beta_t = conjugate(pair.beta)
    xs = (2 * (pair.alpha.part(i) + pair.beta.part(i) - b) for i in range(1, a + 1))
    ys = (2 * (a - alpha_t.part(b + 1 - j) - beta_t.part(b + 1 - j)) for j in range(1, b + 1))
    return Weight(tuple(xs), tuple(ys))


def oracle_standard_key(q):
    pair = oracle_pair(q)
    return pair.beta.rows, pair.alpha.rows


def check_against_oracles(q):
    assert partitions_from_blocks(q) == oracle_pair(q), q
    assert delta_u_p(q) == oracle_delta_u_p(q), q
    assert cohomological_degree(q) == oracle_cohomological_degree(q), q
    assert two_rho_up(q) == oracle_two_rho_up(q), q


def test_invariants_match_the_partition_oracles_on_standard_algebras():
    for n in range(9):
        for a in range(n + 1):
            found = enumerate_standard(a, n - a)
            assert found == sorted(found, key=oracle_standard_key)
            for q in found:
                check_against_oracles(q)


def test_invariants_match_the_partition_oracles_on_packet_members():
    """Raw members keep split pure blocks."""
    for q in all_standard(6):
        for member, _ in enumerate_packet(q):
            check_against_oracles(member)


def test_enumerated_algebras_are_not_retained():
    """Nothing holds an algebra once its caller drops it."""
    found = enumerate_standard(3, 3)
    for q in found:
        partitions_from_blocks(q), delta_u_p(q), cohomological_degree(q), two_rho_up(q)
        inf_char_aq(q), k_types_bounded(q, None, 1)
    ref = weakref.ref(found[-1])
    del found, q
    gc.collect()
    assert ref() is None


def test_one_enumeration_shares_equal_blocks():
    first = {}
    for q in enumerate_standard(4, 3):
        for block in q.blocks:
            assert first.setdefault(block, block) is block
    built = ThetaStableAlgebra([[1, 0], [0, 1]])
    assert built.blocks == ((1, 0), (0, 1))
    assert type(built.blocks) is tuple and all(type(block) is tuple for block in built.blocks)


def test_algebra_identity_is_its_block_list():
    for q in all_standard(4):
        twin = ThetaStableAlgebra(list(q.blocks))
        assert twin == q and hash(twin) == hash(q)
        assert repr(twin) == f"ThetaStableAlgebra(blocks={q.blocks!r})"
        assert q.signature == (sum(a for a, _ in q.blocks), sum(b for _, b in q.blocks))
        assert q.levi_sizes == tuple(a + b for a, b in q.blocks)
        assert q.total == sum(q.signature)
    assert repr(alg((1, 0), (1, 1))) == "ThetaStableAlgebra(blocks=((1, 0), (1, 1)))"
    for name in ("blocks", "signature", "levi_sizes", "total"):
        before = getattr(q, name)
        with pytest.raises(AttributeError):
            setattr(q, name, None)
        assert getattr(q, name) == before


def assert_equals_checked_twin(q):
    """Equality reads the blocks alone, so the stored signature and the
    computed sizes are compared one by one."""
    twin = ThetaStableAlgebra(list(q.blocks))
    assert twin == q, q
    assert twin.signature == q.signature, q
    assert twin.levi_sizes == q.levi_sizes, q
    assert twin.total == q.total, q


def test_unchecked_algebras_equal_their_checked_twins():
    """Slow oracle for the algebras the library builds without block
    checks: the 32,504 generated ones with a+b <= 10, the canonical form,
    every unmerged lift source and every predecessor of each, and every
    packet member with a+b <= 8
    (50,834 members; a+b <= 10 means 1,028,678 and about 16 s)."""
    start = time.perf_counter()
    count = 0
    for n in range(11):
        for a in range(n + 1):
            for q, _, _ in _standard(a, n - a):
                count += 1
                assert_equals_checked_twin(q)
                assert_equals_checked_twin(q.canonicalize())
                for r0 in range(1, q.r + 1):
                    assert_equals_checked_twin(_source_algebra(q, r0))
                    assert_equals_checked_twin(predecessor(q, r0))
                if n <= 8:
                    for member, _ in enumerate_packet(q):
                        assert_equals_checked_twin(member)
    assert count == 32_504
    print(f"checked-twin oracle: {time.perf_counter() - start:.2f} s")


def test_generated_algebras_skip_the_block_checks(monkeypatch):
    """`_standard`, `canonicalize`, `enumerate_packet`, `predecessor` and
    `build_source` never call the checking constructor, and every algebra
    of one frame shares one signature tuple."""
    split = alg((1, 0), (2, 0), (1, 1))

    def refuse(self, blocks=()):
        raise AssertionError(f"checked constructor called on {blocks!r}")

    monkeypatch.setattr(ThetaStableAlgebra, "__init__", refuse)
    found = [q for q, _, _ in _standard(4, 3)]
    assert len({id(q.signature) for q in found}) == 1
    assert split.canonicalize().blocks == ((3, 0), (1, 1))
    for q in found:
        for member, _ in enumerate_packet(q):
            assert member.signature is q.signature
        for r0 in range(1, q.r + 1):
            predecessor(q, r0)
            build_source(q, r0=r0)


def test_inf_char_examples():
    assert inf_char_aq(alg((1, 0), (1, 1), (0, 1)), (2, 1, 0)) == CharMultiset(
        ["7/2", "3/2", "1/2", "-3/2"]
    )
    assert inf_char_aq(alg((3, 2)), (0,)) == rho_gl(5)
    # U(2,1), blocks ((1,0),(1,1)): {lambda1+1, lambda2, lambda2-1}
    assert inf_char_aq(alg((1, 0), (1, 1)), (4, 2)) == CharMultiset([5, 2, 1])
    with pytest.raises(AlignmentError):
        inf_char_aq(alg((1, 1)), (1, 0))


def test_lowest_k_type_examples():
    assert lowest_k_type(alg((2, 2)), (0,)) == Weight.of([0, 0], [0, 0])
    assert lowest_k_type(alg((1, 0), (1, 1)), (4, 2)) == Weight.of([5, 2], [1])
    # 2rho(u cap p) = (2, 1 | -1, -2) plus lambda per slot (2, 1 | 1, 0)
    assert lowest_k_type(alg((1, 0), (1, 1), (0, 1)), (2, 1, 0)) == Weight.of([4, 2], [0, -2])


def test_lowest_k_type_is_lambda_plus_the_dense_root_sum():
    """Oracle at lambda != 0: 2*lambda_i on every slot of block i plus the sum
    of the dense roots over `delta_u_p`, for every standard
    algebra with a+b <= 6, every unmerged lift source of one, and every
    weakly decreasing lambda with entries in [-2, 2]."""
    algebras = set()
    for q in all_standard(6):
        algebras.add(q)
        algebras.update(_source_algebra(q, r0) for r0 in range(1, q.r + 1))
    for q in algebras:
        roots = dense_root_sum(q)
        for lam in combinations_with_replacement(range(2, -3, -1), q.r):
            xs = tuple(2 * v for (ai, _), v in zip(q.blocks, lam) for _ in range(ai))
            ys = tuple(2 * v for (_, bi), v in zip(q.blocks, lam) for _ in range(bi))
            assert lowest_k_type(q, lam) == add_weights(Weight(xs, ys), roots), (q, lam)


def test_k_types_bounded_counts():
    q = alg((1, 1), (1, 1))
    lam = (0, 0)
    assert k_types_bounded(q, lam, 0) == [lowest_k_type(q, lam)]
    assert len(k_types_bounded(q, lam, 1)) == 3  # |delta| = 2
    # stars-and-bars upper bound; equality when root sums do not collide
    d = len(delta_u_p(q))
    from math import comb

    for bound in range(4):
        expected = sum(comb(s + d - 1, d - 1) for s in range(bound + 1))
        assert len(k_types_bounded(q, lam, bound)) <= expected
    assert len(k_types_bounded(q, lam, 2)) == 6  # exact here: x1-y2 and y1-x2 are independent


def test_k_types_bounded_refuses_oversized_cones():
    q = ThetaStableAlgebra(((3, 0), (0, 3), (3, 0), (0, 3)))
    roots = len(delta_u_p(q))
    assert comb(4 + roots, roots) <= MAX_CONE < comb(5 + roots, roots)
    with pytest.raises(ValueError, match="cone at bound 5"):
        k_types_bounded(q, None, 5)
    # the default bound is never refused on a supported frame: |roots| <= a*b
    most = max(a * (MAX_FRAME - a) for a in range(MAX_FRAME + 1))
    assert comb(DEFAULT_BOUND + most, most) <= MAX_CONE


def test_cone_budget_admits_every_cone_under_the_point_cap(monkeypatch):
    """For sources with a+b <= 12 the coordinate budget refuses no cone that
    the MAX_CONE point cap admits: at the largest such bound the cone runs
    (its roots are stubbed out, so nothing is built) and one more refuses
    on points."""
    monkeypatch.setattr("aql.parabolic.delta_u_p", lambda q: ())
    for blocks in (
        ((1, 0), (0, 1)), ((1, 0), (10, 1)), ((2, 0), (9, 1)), ((3, 3), (3, 3)), ((6, 0), (0, 6))
    ):
        q = ThetaStableAlgebra(blocks)
        roots = cohomological_degree(q)[0]
        bound = 0
        while comb(bound + 1 + roots, min(bound + 1, roots)) <= MAX_CONE:
            bound += 1
        assert k_types_bounded(q, None, bound) == [lowest_k_type(q)], blocks
        with pytest.raises(ValueError, match=f"more than {MAX_CONE} points"):
            k_types_bounded(q, None, bound + 1)


def test_k_types_bounded_matches_root_multisets():
    """The cone, order included, is base + the sum of every multiset of at
    most `bound` radical roots."""
    for q in all_standard(5):
        base = lowest_k_type(q)
        for bound in range(4):
            expected = sorted(dense_cone(q, base, bound), key=lambda w: w.x + w.y)
            assert k_types_bounded(q, None, bound) == expected, (q, bound)


def test_k_types_contain_lowest_and_grow():
    for q in all_standard(4):
        lam = LambdaCharacter.zero(q)
        low = lowest_k_type(q, lam)
        cone = k_types_bounded(q, lam, 2)
        assert low in cone


def test_enumerate_packet_examples():
    packet = enumerate_packet(alg((1, 0), (0, 1)))
    assert [m.blocks for m, _ in packet] == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    assert len(enumerate_packet(alg((3, 1)))) == 1
    members = enumerate_packet(alg((1, 1), (1, 1)))
    assert [m.blocks for m, _ in members] == [
        ((0, 2), (2, 0)),
        ((1, 1), (1, 1)),
        ((2, 0), (0, 2)),
    ]


def test_packet_size_counts_members():
    for q in all_standard(7):
        for m, _ in enumerate_packet(q):
            assert packet_size(m) == len(enumerate_packet(m)), m


def test_packet_size_closed_form():
    assert packet_size(alg()) == 1
    assert packet_size(alg(*[(1, 0), (0, 1)] * 600)) == comb(1200, 600)


def test_oversized_packet_is_refused():
    q = alg(*[(1, 0), (0, 1)] * 10)  # C(20, 10) members
    assert packet_size(q) > MAX_PACKET
    with pytest.raises(ValueError, match=f"more than {MAX_PACKET} members"):
        enumerate_packet(q)


def test_packet_invariants():
    for q in all_standard(5):
        lam_values = tuple(range(q.r, 0, -1))
        packet = enumerate_packet(q, lam_values)
        assert (q, LambdaCharacter(lam_values)) in packet
        chars = {inf_char_aq(m, l) for m, l in packet}
        assert len(chars) == 1
        assert inf_char_aq(q, lam_values) in chars


def test_packets_at_zero_have_trivial_inf_char():
    for q in all_standard(5):
        for m, l in enumerate_packet(q):
            assert inf_char_aq(m, l) == rho_gl(q.total)


def test_degree_examples():
    # centered weight has degree zero
    w = Weight((1 + 2, 1 + 2), (1 - 2,))  # chi1=1, frame (3,1)
    assert degree_twice(w, 1, (3, 1)) == 0
    # worked chain: source U(1,0) against target U(2,1), lambda = (1,0)
    assert degree_twice(Weight.of([3], []), 1, (2, 1)) == 4
    # permutation invariance within each part
    assert degree_twice(Weight.of([2, -1], [0]), 0, (2, 1)) == degree_twice(
        Weight.of([-1, 2], [0]), 0, (2, 1)
    )


coords = st.lists(st.integers(min_value=-60, max_value=60), max_size=8).map(tuple)


@given(
    coords,
    coords,
    st.integers(min_value=-30, max_value=30),
    st.tuples(st.integers(0, MAX_FRAME), st.integers(0, MAX_FRAME)),
)
def test_degree_twice_sums_the_recentred_coordinates(xs, ys, chi1, frame):
    """`degree_twice` reads the degree off the coordinates; it equals the
    sum of the absolute `recentred` coordinates."""
    w = Weight(xs, ys)
    rx, ry = recentred(w, chi1, frame)
    assert degree_twice(w, chi1, frame) == sum(map(abs, rx)) + sum(map(abs, ry))
