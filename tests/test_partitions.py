from itertools import combinations_with_replacement

import pytest

from aql.parabolic import ThetaStableAlgebra, algebra_from_pair, partitions_from_blocks
from aql.partitions import (
    EMPTY,
    FrameError,
    FramedPair,
    IncompatiblePairError,
    Partition,
    complement,
    conjugate,
    enumerate_compatible,
    is_compatible,
    skew_cells,
)


def partitions_in_frame(a, b):
    """All partitions with at most a rows and parts at most b."""
    return [Partition(r) for r in combinations_with_replacement(range(b, -1, -1), a)]


def candidate_pairs(a, b):
    """Every nested pair alpha <= beta in the a x b frame."""
    frame = partitions_in_frame(a, b)
    return [
        FramedPair(a, b, alpha, beta)
        for beta in frame
        for alpha in frame
        if beta.contains(alpha)
    ]


def test_partition_normalization():
    assert Partition([3, 2, 1, 0, 0]).rows == (3, 2, 1)
    assert Partition([]).rows == ()
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_conjugate_examples():
    assert conjugate(Partition([3, 2, 1])) == Partition([3, 2, 1])
    assert conjugate(EMPTY) == EMPTY
    assert conjugate(Partition([2, 2])) == Partition([2, 2])
    assert conjugate(Partition([3, 1])) == Partition([2, 1, 1])


def test_conjugate_involution():
    for p in partitions_in_frame(8, 8):
        assert conjugate(conjugate(p)) == p


def test_complement_examples():
    assert complement(Partition([3, 2, 1]), 3, 3) == Partition([2, 1])
    assert complement(EMPTY, 2, 3) == Partition([3, 3])
    with pytest.raises(FrameError):
        complement(Partition([4]), 2, 3)


def test_complement_refuses_frame_sides_that_are_not_ints():
    for a, b in ((True, 2), (1, False), (1.0, 2), (1, 2.0)):
        with pytest.raises(TypeError, match="expected an int"):
            complement(Partition([1]), a, b)


def test_complement_involution():
    for a in range(5):
        for b in range(5):
            for p in partitions_in_frame(a, b):
                assert complement(complement(p, a, b), a, b) == p


def test_hat_tilde_commute():
    for a in range(1, 6):
        for b in range(1, 6):
            for p in partitions_in_frame(a, b):
                assert conjugate(complement(p, a, b)) == complement(conjugate(p), b, a)


def test_skew_cells_examples():
    assert skew_cells(FramedPair(1, 1, EMPTY, Partition([1]))) == {(1, 1)}
    assert skew_cells(FramedPair(2, 2, Partition([1]), Partition([2, 1]))) == {
        (1, 2),
        (2, 1),
    }
    p = Partition([2, 1])
    assert skew_cells(FramedPair(2, 2, p, p)) == set()


def test_skew_cell_count_is_size_difference():
    for pair in enumerate_compatible(3, 3):
        assert len(skew_cells(pair)) == pair.beta.size() - pair.alpha.size()


def test_framed_pair_validation():
    with pytest.raises(FrameError):
        FramedPair(2, 2, Partition([2, 1]), Partition([2]))  # alpha not inside beta
    with pytest.raises(FrameError):
        FramedPair(1, 2, EMPTY, Partition([1, 1]))  # too many rows
    with pytest.raises(FrameError, match="^frame sides must be non-negative$"):
        FramedPair(-1, 2, EMPTY, EMPTY)


def test_is_compatible_examples():
    assert not is_compatible(FramedPair(2, 2, EMPTY, Partition([2, 1])))
    assert is_compatible(FramedPair(2, 2, Partition([1]), Partition([2, 1])))
    p = Partition([2, 1])
    assert is_compatible(FramedPair(3, 3, p, p))


def _round_trip_compatible(pair):
    """Oracle: build the blocks of each group of equal rows, with the
    pure-y lead, gaps and tail between them (a negative gap fails), and
    keep the pair when the checked algebra of those blocks gives it back."""
    groups = []  # [alpha_t, beta_t, row count]
    for al, be in pair.row_pairs():
        if groups and groups[-1][:2] == [al, be]:
            groups[-1][2] += 1
        else:
            groups.append([al, be, 1])
    if not groups:
        return pair.alpha == pair.beta == EMPTY
    blocks = [(0, pair.b - groups[0][1])]
    for t, (al, be, count) in enumerate(groups):
        gap = al - (groups[t + 1][1] if t + 1 < len(groups) else 0)
        if gap < 0:
            return False
        blocks += [(count, be - al), (0, gap)]
    q = ThetaStableAlgebra([blk for blk in blocks if blk != (0, 0)])
    return partitions_from_blocks(q) == pair


def nested_pairs(max_total):
    return [p for n in range(max_total + 1) for a in range(n + 1) for p in candidate_pairs(a, n - a)]


def test_is_compatible_agrees_with_the_round_trip_oracle():
    pairs = nested_pairs(8)
    verdicts = [is_compatible(p) for p in pairs]
    assert verdicts == [_round_trip_compatible(p) for p in pairs]
    assert 0 < sum(verdicts) < len(pairs)


def test_algebra_from_pair_raises_exactly_on_the_incompatible_pairs():
    for pair in nested_pairs(8):
        if not is_compatible(pair):
            with pytest.raises(IncompatiblePairError):
                algebra_from_pair(pair)
            continue
        q = algebra_from_pair(pair)
        assert q.is_canonical and partitions_from_blocks(q) == pair, pair


def test_is_compatible_builds_no_algebra(monkeypatch):
    """The decision reads the rows alone: with both ways to make an
    algebra broken it still answers, for every nested pair with a+b <= 6."""
    pairs = nested_pairs(6)
    want = [_round_trip_compatible(p) for p in pairs]

    def broken(*args, **kwargs):
        raise AssertionError("is_compatible built an algebra")

    monkeypatch.setattr(ThetaStableAlgebra, "__init__", broken)
    monkeypatch.setattr(ThetaStableAlgebra, "_trusted", broken)
    assert [is_compatible(p) for p in pairs] == want


def test_enumerate_compatible_small_frames():
    pairs = enumerate_compatible(1, 1)
    as_rows = {(p.alpha.rows, p.beta.rows) for p in pairs}
    assert as_rows == {((), ()), ((), (1,)), ((1,), (1,))}
    assert len(enumerate_compatible(2, 2)) == 18
    assert len(enumerate_compatible(0, 5)) == 1
    assert len(enumerate_compatible(0, 0)) == 1


def test_enumerate_compatible_matches_candidate_filter():
    # oracle: keep the compatible pairs among all nested pairs, then sort
    for n in range(9):
        for a in range(n + 1):
            b = n - a
            survivors = [p for p in candidate_pairs(a, b) if is_compatible(p)]
            survivors.sort(key=lambda p: (p.beta.rows, p.alpha.rows))
            assert enumerate_compatible(a, b) == survivors, (a, b)


def test_enumerate_compatible_rejects_negative_sides():
    with pytest.raises(FrameError):
        enumerate_compatible(-1, 2)


def test_enumerate_compatible_is_sorted_and_deterministic():
    pairs = enumerate_compatible(2, 2)
    keys = [(p.beta.rows, p.alpha.rows) for p in pairs]
    assert keys == sorted(keys)
    assert pairs == enumerate_compatible(2, 2)


def test_transpose_symmetry():
    for a in range(5):
        for b in range(5):
            assert len(enumerate_compatible(a, b)) == len(enumerate_compatible(b, a))


def _components(cells):
    """Edge-connected components of a cell set."""
    remaining = set(cells)
    comps = []
    while remaining:
        stack = [remaining.pop()]
        comp = set(stack)
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps


def _geometric_compatible(pair):
    """Cross-check predicate: each skew component is a full rectangle and
    successive components descend strictly to the south-west."""
    comps = _components(skew_cells(pair))
    boxes = []
    for comp in comps:
        rows = {i for i, _ in comp}
        cols = {j for _, j in comp}
        if len(comp) != len(rows) * len(cols):
            return False
        boxes.append((min(rows), max(rows), min(cols), max(cols)))
    boxes.sort()
    for (_, r2, c1, _), (r3, _, _, c4) in zip(boxes, boxes[1:]):
        if r3 <= r2 or c4 >= c1:
            return False
    return True


def test_geometric_cross_check():
    for a in range(5):
        for b in range(5):
            for pair in candidate_pairs(a, b):
                assert is_compatible(pair) == _geometric_compatible(pair), pair
