"""Young diagram calculus inside an a x b frame.

Partitions classify the modules attached to standard theta-stable
parabolic subalgebras of u(a,b): a nested pair alpha <= beta inside the
a x b rectangle.  The operations here are the conjugate (column-count)
diagram, the rotated complement inside a frame, skew cells, and the
compatibility predicate deciding which nested pairs arise from a block
decomposition.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, List, Set, Tuple

from .halfint import Frozen, exact_int


class FrameError(ValueError):
    """A diagram does not fit in the requested frame."""


class IncompatiblePairError(ValueError):
    """A nested pair admits no block decomposition."""


class Partition(Frozen):
    """A weakly decreasing tuple of non-negative parts, trailing zeros stripped."""

    def __init__(self, rows: Iterable[int] = ()):
        parts = [exact_int(p) for p in rows]
        if any(p < 0 for p in parts):
            raise ValueError(f"parts must be non-negative integers: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts.pop()
        object.__setattr__(self, "rows", tuple(parts))

    def size(self) -> int:
        return sum(self.rows)

    def length(self) -> int:
        return len(self.rows)

    def part(self, i: int) -> int:
        """Row length at 1-based index i, 0 beyond the last row."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(1, other.length() + 1))

    def fits(self, a: int, b: int) -> bool:
        return self.length() <= a and (not self.rows or self.rows[0] <= b)

    def to_json(self) -> list:
        return list(self.rows)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.rows) + ")"


EMPTY = Partition()


def conjugate(p: Partition) -> Partition:
    """Transpose the diagram: row j of the result counts parts >= j+1."""
    if not p.rows:
        return EMPTY
    return Partition(sum(1 for r in p.rows if r >= j) for j in range(1, p.rows[0] + 1))


def complement(p: Partition, a: int, b: int) -> Partition:
    """Complement of p inside a x b, read rotated by half a turn.  Frame
    sides that are not ints (bools and floats too) raise TypeError."""
    if not p.fits(exact_int(a), exact_int(b)):
        raise FrameError(f"{p} not contained in frame {a}x{b}")
    return Partition(b - p.part(a - i) for i in range(a))


class FramedPair(Frozen):
    """A nested pair alpha <= beta of diagrams inside the a x b frame."""

    def __init__(self, a: int, b: int, alpha: Partition, beta: Partition):
        if exact_int(a) < 0 or exact_int(b) < 0:
            raise FrameError("frame sides must be non-negative")
        if not beta.fits(a, b):
            raise FrameError(f"beta {beta} not contained in frame {a}x{b}")
        if not beta.contains(alpha):
            raise FrameError(f"alpha {alpha} not contained in beta {beta}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def row_pairs(self) -> List[Tuple[int, int]]:
        """(alpha_i, beta_i) for every row of the frame, zero-padded."""
        return [(self.alpha.part(i), self.beta.part(i)) for i in range(1, self.a + 1)]

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FramedPair":
        return cls(doc["a"], doc["b"], Partition(doc["alpha"]), Partition(doc["beta"]))


def skew_cells(pair: FramedPair) -> Set[Tuple[int, int]]:
    """Cells of beta outside alpha, as 1-based (row, col) pairs."""
    return {
        (i, j)
        for i in range(1, pair.beta.length() + 1)
        for j in range(pair.alpha.part(i) + 1, pair.beta.part(i) + 1)
    }


def is_compatible(pair: FramedPair) -> bool:
    """Whether the pair arises from a block decomposition: grouping equal
    (alpha_i, beta_i) rows, each group's alpha is at least the next group's
    beta.  That suffices: with every gap alpha_t - beta_{t+1} >= 0, the
    blocks (count_t, beta_t - alpha_t), the pure-y gaps, a lead of
    b - beta_1 and a tail of alpha_last y-slots reproduce the rows (the
    y-slots after group t telescope to alpha_t), and no two adjacent blocks
    merge (pure-y blocks sit between group blocks, which hold x-slots, and
    two pure-x group blocks with no gap between them would be one group)."""
    rows = [key for key, _ in groupby(pair.row_pairs())]
    return all(al >= be for (al, _), (_, be) in zip(rows, rows[1:]))


def enumerate_compatible(a: int, b: int) -> List[FramedPair]:
    """All compatible pairs in the a x b frame, ordered by (beta, alpha):
    the rows of the canonical block lists."""
    from .parabolic import _standard

    return [FramedPair(a, b, Partition(al), Partition(be)) for _, al, be in _standard(a, b)]
