import pytest
from hypothesis import given, strategies as st

from aql.halfint import CharMultiset, Weight, format_twice, twice_of

from oracles import add_weights, multiset_of, shift, shifted

doubled = st.integers(min_value=-200, max_value=200)


def test_integer_construction_and_display():
    assert format_twice(6) == "3"
    assert format_twice(-4) == "-2"
    assert format_twice(7) == "7/2"
    assert format_twice(-3) == "-3/2"
    assert twice_of(5) == 10
    assert twice_of("7/2") == 7 and twice_of(" -3/2 ") == -3


def test_parse_round_trip():
    for text in ["0", "7/2", "-3/2", "12", "-40"]:
        assert format_twice(twice_of(text)) == text


@given(doubled)
def test_print_round_trip(twice):
    assert twice_of(format_twice(twice)) == twice


def test_parse_rejects_other_denominators():
    with pytest.raises(ValueError):
        twice_of("4/3")
    with pytest.raises(ValueError):
        twice_of("4/2")  # not in lowest terms


def test_floats_rejected():
    with pytest.raises(TypeError):
        twice_of(1.5)
    with pytest.raises(TypeError):
        twice_of(True)


def test_mixed_arithmetic_with_ints():
    assert shifted(CharMultiset(["7/2"]), 2) == CharMultiset(["9/2"])
    assert shifted(CharMultiset([1]), 7) == CharMultiset(["9/2"])
    assert shifted(CharMultiset(["7/2"]), -8) == CharMultiset(["-1/2"])
    assert shifted(CharMultiset([4]), -7) == CharMultiset(["1/2"])
    assert shift(Weight.of(["3/2"], []), 3) == Weight.of([3], [])
    assert shift(Weight.of([0], ["3/2"]), -3) == Weight.of(["-3/2"], [0])


@given(doubled, doubled, doubled)
def test_addition_associative_commutative(p, q, r):
    one = CharMultiset(twice=[p])
    assert shifted(shifted(one, q), r) == shifted(one, q + r)
    assert shifted(one, q) == shifted(CharMultiset(twice=[q]), p)
    assert shifted(shifted(one, q), -q) == one


def test_weight_signature_and_dominance():
    w = Weight.of([1, 0], [0])
    assert w.signature == (2, 1)
    assert w.is_dominant
    assert not Weight.of([0, 1], []).is_dominant


def test_weights_add_only_within_one_signature():
    w = Weight.of([1, 0], [0])
    assert add_weights(w, Weight.of([1, 1], ["-1/2"])) == Weight.of([2, 1], ["-1/2"])
    # the same number of coordinates split otherwise, or one side shorter
    for other in (Weight.of([1], [0, 0]), Weight.of([1, 0], []), Weight.of([1, 0, 0], [0])):
        with pytest.raises(ValueError, match="^signature mismatch$"):
            add_weights(w, other)
        with pytest.raises(ValueError, match="^signature mismatch$"):
            add_weights(other, w)


def test_shift_examples():
    w = Weight.of([1, 0], [0])
    assert shift(w, 0) == w
    assert shift(Weight.of([2, 1], [-1]), 1) == Weight.of(["5/2", "3/2"], ["-1/2"])


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_shift_inverse(a, c):
    w = Weight.of([a, a - 1], [a + 2])
    assert shift(shift(w, c), -c) == w


def test_multiset_of_examples():
    assert multiset_of(Weight.of([1, 0], [0])) == CharMultiset([1, 0, 0])
    assert multiset_of(Weight.of(["7/2"], [])) == CharMultiset(["7/2"])
    assert multiset_of(Weight.of([2, 1], [-1, -2])) == multiset_of(
        Weight.of([-2, 2], [1, -1])
    )


@given(st.lists(doubled, max_size=6), doubled)
def test_multiset_commutes_with_shift(values, c):
    w = Weight(tuple(values[: len(values) // 2]), tuple(values[len(values) // 2 :]))
    assert multiset_of(shift(w, c)) == CharMultiset(twice=(v + c for v in values))


def test_weight_json_round_trip():
    w = Weight.of(["5/2", 1], [0])
    doc = w.to_json()
    assert doc == {"a": 2, "b": 1, "x": ["5/2", "1"], "y": ["0"]}
    assert Weight.from_json(doc) == w
    with pytest.raises(ValueError, match="^signature does not match coordinate lists$"):
        Weight.from_json({**doc, "a": 1, "b": 2})


def test_char_multiset_is_order_insensitive():
    assert CharMultiset([1, 2, 2]) == CharMultiset([2, 1, 2])
    assert CharMultiset([1, 2, 2]) != CharMultiset([1, 1, 2])
    assert CharMultiset([1, 2]) != CharMultiset([1, 2, 2])
