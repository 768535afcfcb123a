import pytest
from hypothesis import given, strategies as st

from aql.halfint import CharMultiset, HalfInt, Weight, half

from oracles import add_weights, multiset_of, shift, shifted

halfints = st.integers(min_value=-200, max_value=200).map(HalfInt.from_twice)


def plus(p, q):
    return HalfInt.from_twice(p.twice + q.twice)


def test_integer_construction_and_display():
    assert str(HalfInt(3)) == "3"
    assert str(HalfInt(-2)) == "-2"
    assert str(half(7)) == "7/2"
    assert str(half(-3)) == "-3/2"
    assert HalfInt(5).twice == 10


def test_parse_round_trip():
    for text in ["0", "7/2", "-3/2", "12", "-40"]:
        assert str(HalfInt.parse(text)) == text


def test_parse_rejects_other_denominators():
    with pytest.raises(ValueError):
        HalfInt.parse("4/3")
    with pytest.raises(ValueError):
        HalfInt.parse("4/2")  # not in lowest terms


def test_floats_rejected():
    with pytest.raises(TypeError):
        HalfInt(1.5)
    with pytest.raises(TypeError):
        HalfInt(True)


def test_hash_beyond_float_range():
    big = HalfInt.from_twice(10**400 + 1)
    assert hash(big) == hash(HalfInt.from_twice(10**400 + 1))
    assert hash(HalfInt(10**400)) == hash(10**400)
    assert hash(HalfInt(-3)) == hash(-3)


def test_mixed_arithmetic_with_ints():
    assert shifted(CharMultiset([half(7)]), 1) == CharMultiset([half(9)])
    assert shifted(CharMultiset([1]), half(7)) == CharMultiset([half(9)])
    assert shifted(CharMultiset([half(7)]), -4) == CharMultiset([half(-1)])
    assert shifted(CharMultiset([4]), half(-7)) == CharMultiset([half(1)])
    assert shift(Weight.of([half(3)], []), half(3)) == Weight.of([3], [])
    assert shift(Weight.of([0], [half(3)]), half(-3)) == Weight.of([half(-3)], [0])


@given(halfints, halfints, halfints)
def test_addition_associative_commutative(p, q, r):
    one = CharMultiset([p])
    assert shifted(shifted(one, q), r) == shifted(one, plus(q, r))
    assert shifted(one, q) == shifted(CharMultiset([q]), p)
    assert shifted(shifted(one, q), HalfInt.from_twice(-q.twice)) == one


def test_weight_signature_and_dominance():
    w = Weight.of([1, 0], [0])
    assert w.signature == (2, 1)
    assert w.is_dominant
    assert not Weight.of([0, 1], []).is_dominant


def test_weights_add_only_within_one_signature():
    w = Weight.of([1, 0], [0])
    assert add_weights(w, Weight.of([1, 1], [half(-1)])) == Weight.of([2, 1], [half(-1)])
    # the same number of coordinates split otherwise, or one side shorter
    for other in (Weight.of([1], [0, 0]), Weight.of([1, 0], []), Weight.of([1, 0, 0], [0])):
        with pytest.raises(ValueError, match="^signature mismatch$"):
            add_weights(w, other)
        with pytest.raises(ValueError, match="^signature mismatch$"):
            add_weights(other, w)


def test_shift_examples():
    w = Weight.of([1, 0], [0])
    assert shift(w, 0) == w
    assert shift(Weight.of([2, 1], [-1]), half(1)) == Weight.of(
        [half(5), half(3)], [half(-1)]
    )


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_shift_inverse(a, c):
    w = Weight.of([a, a - 1], [a + 2])
    assert shift(shift(w, HalfInt.from_twice(c)), HalfInt.from_twice(-c)) == w


def test_multiset_of_examples():
    assert multiset_of(Weight.of([1, 0], [0])) == CharMultiset([1, 0, 0])
    assert multiset_of(Weight.of([half(7)], [])) == CharMultiset([half(7)])
    assert multiset_of(Weight.of([2, 1], [-1, -2])) == multiset_of(
        Weight.of([-2, 2], [1, -1])
    )


@given(st.lists(halfints, max_size=6), halfints)
def test_multiset_commutes_with_shift(values, c):
    w = Weight.of(values[: len(values) // 2], values[len(values) // 2 :])
    assert multiset_of(shift(w, c)) == CharMultiset(plus(v, c) for v in values)


def test_weight_json_round_trip():
    w = Weight.of([half(5), 1], [0])
    doc = w.to_json()
    assert doc == {"a": 2, "b": 1, "x": ["5/2", "1"], "y": ["0"]}
    assert Weight.from_json(doc) == w
    with pytest.raises(ValueError, match="^signature does not match coordinate lists$"):
        Weight.from_json({**doc, "a": 1, "b": 2})


def test_char_multiset_is_order_insensitive():
    assert CharMultiset([1, 2, 2]) == CharMultiset([2, 1, 2])
    assert CharMultiset([1, 2, 2]) != CharMultiset([1, 1, 2])
    assert CharMultiset([1, 2]) != CharMultiset([1, 2, 2])


def test_halfint_does_no_arithmetic():
    for op in ("__add__", "__sub__", "__mul__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert op not in vars(HalfInt)
    with pytest.raises(TypeError):
        half(1) < half(3)
