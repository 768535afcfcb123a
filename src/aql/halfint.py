"""Half-integers as doubled ints, and the weight and multiset types built on them.

Every quantity in this library lives in (1/2)Z.  Inside the code a
half-integer k is the plain int 2k, so every formula runs in exact integer
arithmetic and nothing is ever rounded.  The conversions happen only at the
boundary: `twice_of` reads an int k or a "p" / "p/2" string into a doubled
int, and `format_twice` prints one as "p" / "p/2" text.  Weights are
coordinate vectors split into an x-part of length a and a y-part of length
b, matching the diagonal Cartan of U(a) x U(b).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Tuple, Union


def exact_int(value) -> int:
    """Return value unchanged if it is an int; floats and bools raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an int, got {value!r}")
    return value


def format_twice(twice: int) -> str:
    """Print the half-integer twice/2 as "k" or "p/2"."""
    if twice % 2 == 0:
        return str(twice // 2)
    return f"{twice}/2"


class Frozen:
    """Base of the immutable value classes.  The constructor declares the
    fields: its positional parameters, in order, become `_fields`, and it
    sets each once, one `object.__setattr__` call per field (a shared loop
    slowed the lift and atlas paths).  Keyword-only parameters are not
    fields.  Equality (same class only) and hash read `_compared` (all
    fields unless narrowed), repr reads `_fields`; assignment and deletion
    raise AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        names = vars(cls).get("_compared", cls._fields)
        get = attrgetter(*names)
        cls._values = property(get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


HalfIntLike = Union[int, str]


def twice_of(value: HalfIntLike) -> int:
    """The doubled value 2k of an int k or of a "p" / "p/2" string with p/2
    in lowest terms."""
    if not isinstance(value, str):
        return 2 * exact_int(value)
    s = value.strip()
    if s.endswith("/2"):
        num = int(s[:-2])
        if num % 2 == 0:
            raise ValueError(f"{value!r} is not in lowest terms")
        return num
    if "/" in s:
        raise ValueError(f"unsupported denominator in {value!r}")
    return 2 * int(s)


class Weight(Frozen):
    """A weight of U(a) x U(b), split into its x- and y-coordinates, each
    held as a tuple of doubled ints."""

    def __init__(self, x: Tuple[int, ...], y: Tuple[int, ...]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    # the cone walk hashes and compares weights: spelled out, as the base's
    # `_values` cost lift about 7%
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))

    @classmethod
    def of(cls, xs: Iterable[HalfIntLike], ys: Iterable[HalfIntLike]) -> "Weight":
        return cls(tuple(map(twice_of, xs)), tuple(map(twice_of, ys)))

    @property
    def signature(self) -> tuple:
        return (len(self.x), len(self.y))

    @property
    def is_dominant(self) -> bool:
        """Both coordinate groups weakly decreasing."""
        return all(p >= q for p, q in zip(self.x, self.x[1:])) and all(
            p >= q for p, q in zip(self.y, self.y[1:])
        )

    def to_json(self) -> dict:
        return {
            "a": len(self.x),
            "b": len(self.y),
            "x": [format_twice(v) for v in self.x],
            "y": [format_twice(v) for v in self.y],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Weight":
        w = cls.of(doc["x"], doc["y"])
        if w.signature != (doc["a"], doc["b"]):
            raise ValueError("signature does not match coordinate lists")
        return w


class CharMultiset(Frozen):
    """A multiset of half-integers, compared up to permutation.

    Infinitesimal characters live here: a+b coordinates with multiplicity,
    order irrelevant.  Entries are doubled ints kept sorted decreasing;
    they come as half-integers through `entries` or already doubled
    through `twice`.
    """

    def __init__(self, entries: Iterable[HalfIntLike] = (), *, twice: Iterable[int] = ()):
        items = sorted([*map(twice_of, entries), *twice], reverse=True)
        object.__setattr__(self, "entries", tuple(items))

    def to_json(self) -> list:
        return [format_twice(v) for v in self.entries]
