"""Exact half-integer scalars and split weight vectors.

Every quantity in this library lives in (1/2)Z.  A half-integer is stored
as its doubled value, so all arithmetic stays in exact integer arithmetic
and nothing is ever rounded.  Weights are coordinate vectors split into an
x-part of length a and a y-part of length b, matching the diagonal Cartan
of U(a) x U(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union


def exact_int(value) -> int:
    """Return value unchanged if it is an int; floats and bools raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an int, got {value!r}")
    return value


class HalfInt:
    """An exact element of (1/2)Z.

    ``HalfInt(k)`` builds the integer k; non-integral values come from
    :meth:`from_twice`, :meth:`parse` or arithmetic.  Denominators other
    than 1 and 2 do not exist here and floats are rejected outright.
    """

    __slots__ = ("twice",)

    def __init__(self, value: Union["HalfInt", int]):
        if isinstance(value, HalfInt):
            self.twice = value.twice
        else:
            self.twice = 2 * exact_int(value)

    @classmethod
    def from_twice(cls, twice: int) -> "HalfInt":
        """Build k from the integer 2k."""
        h = cls.__new__(cls)
        h.twice = twice
        return h

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "p" or "p/2" with p/2 in lowest terms."""
        s = text.strip()
        if s.endswith("/2"):
            num = int(s[:-2])
            if num % 2 == 0:
                raise ValueError(f"{text!r} is not in lowest terms")
            return cls.from_twice(num)
        if "/" in s:
            raise ValueError(f"unsupported denominator in {text!r}")
        return cls(int(s))

    @property
    def is_integral(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt.from_twice(self.twice + other.twice)
        if isinstance(other, int):
            return HalfInt.from_twice(self.twice + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt.from_twice(self.twice - other.twice)
        if isinstance(other, int):
            return HalfInt.from_twice(self.twice - 2 * other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return HalfInt.from_twice(2 * other - self.twice)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return HalfInt.from_twice(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return HalfInt.from_twice(-self.twice)

    def __abs__(self):
        return HalfInt.from_twice(abs(self.twice))

    def _twice_of(self, other) -> int:
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int) and not isinstance(other, bool):
            return 2 * other
        raise TypeError(f"cannot compare half-integer with {other!r}")

    def __eq__(self, other):
        try:
            return self.twice == self._twice_of(other)
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.twice < self._twice_of(other)

    def __le__(self, other):
        return self.twice <= self._twice_of(other)

    def __gt__(self, other):
        return self.twice > self._twice_of(other)

    def __ge__(self, other):
        return self.twice >= self._twice_of(other)

    def __hash__(self):
        # integral values hash like the equal int; a float would overflow
        if self.twice % 2 == 0:
            return hash(self.twice // 2)
        return hash((self.twice, 2))

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"


def half(twice: int) -> HalfInt:
    """Shorthand for HalfInt.from_twice."""
    return HalfInt.from_twice(twice)


HalfIntLike = Union[HalfInt, int, str]


def as_halfint(value: HalfIntLike) -> HalfInt:
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, str):
        return HalfInt.parse(value)
    return HalfInt(value)


@dataclass(frozen=True)
class Weight:
    """A weight of U(a) x U(b), split into its x- and y-coordinates."""

    x: tuple
    y: tuple

    @classmethod
    def of(cls, xs: Iterable[HalfIntLike], ys: Iterable[HalfIntLike]) -> "Weight":
        return cls(tuple(as_halfint(v) for v in xs), tuple(as_halfint(v) for v in ys))

    @property
    def signature(self) -> tuple:
        return (len(self.x), len(self.y))

    @property
    def is_dominant(self) -> bool:
        """Both coordinate groups weakly decreasing."""
        return all(p >= q for p, q in zip(self.x, self.x[1:])) and all(
            p >= q for p, q in zip(self.y, self.y[1:])
        )

    def __add__(self, other: "Weight") -> "Weight":
        if self.signature != other.signature:
            raise ValueError("signature mismatch")
        return Weight(
            tuple(p + q for p, q in zip(self.x, other.x)),
            tuple(p + q for p, q in zip(self.y, other.y)),
        )

    def to_json(self) -> dict:
        return {
            "a": len(self.x),
            "b": len(self.y),
            "x": [str(v) for v in self.x],
            "y": [str(v) for v in self.y],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Weight":
        w = cls.of(doc["x"], doc["y"])
        if w.signature != (doc["a"], doc["b"]):
            raise ValueError("signature does not match coordinate lists")
        return w


def shift(w: Weight, c: HalfIntLike) -> Weight:
    """Add the same constant to every coordinate (a det-power twist)."""
    c = as_halfint(c)
    return Weight(tuple(v + c for v in w.x), tuple(v + c for v in w.y))


@dataclass(frozen=True, init=False)
class CharMultiset:
    """A multiset of half-integers, compared up to permutation.

    Infinitesimal characters live here: a+b coordinates with multiplicity,
    order irrelevant.  Entries are kept sorted decreasing.
    """

    entries: tuple

    def __init__(self, entries: Iterable[HalfIntLike]):
        items = sorted((as_halfint(v) for v in entries), key=lambda h: -h.twice)
        object.__setattr__(self, "entries", tuple(items))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def shifted(self, c: HalfIntLike) -> "CharMultiset":
        c = as_halfint(c)
        return CharMultiset(v + c for v in self.entries)

    def to_json(self) -> list:
        return [str(v) for v in self.entries]


def multiset_of(w: Weight) -> CharMultiset:
    """Flatten a weight to its coordinate multiset."""
    return CharMultiset(w.x + w.y)
