"""Helpers that only the tests use: shorthands for building inputs, and the
dense constructions that the library's sparse, doubled-int code is checked
against.  Nothing in `aql` calls them."""

from functools import reduce
from itertools import combinations_with_replacement
from operator import add

from aql.halfint import CharMultiset, Weight
from aql.parabolic import ThetaStableAlgebra, _cone, delta_u_p, enumerate_standard, lowest_k_type


def alg(*blocks):
    return ThetaStableAlgebra(blocks)


def all_standard(max_total, min_total=0):
    """The canonical standard algebras of every U(a,b) with
    min_total <= a+b <= max_total, by a+b, then a, then enumeration order."""
    for n in range(min_total, max_total + 1):
        for a in range(n + 1):
            yield from enumerate_standard(a, n - a)


def add_weights(v: Weight, w: Weight) -> Weight:
    """The coordinatewise sum of two weights of one signature."""
    if v.signature != w.signature:
        raise ValueError("signature mismatch")
    return Weight(tuple(map(add, v.x, w.x)), tuple(map(add, v.y, w.y)))


def shift(w: Weight, c: int) -> Weight:
    """Add the half-integer c/2 to every coordinate (a det-power twist), c doubled."""
    return Weight(tuple(v + c for v in w.x), tuple(v + c for v in w.y))


def shifted(m: CharMultiset, c: int) -> CharMultiset:
    """Add the half-integer c/2 to every entry, c doubled."""
    return CharMultiset(twice=(v + c for v in m.entries))


def multiset_of(w: Weight) -> CharMultiset:
    """Flatten a weight to its coordinate multiset."""
    return CharMultiset(twice=w.x + w.y)


def root_of(cell, a: int, b: int) -> Weight:
    """The dense weight of a signed cell (sign, i, j) of `delta_u_p`:
    sign * (x_i - y_{b+1-j})."""
    sign, i, j = cell
    xs = [0] * a
    ys = [0] * b
    xs[i - 1] = 2 * sign
    ys[b - j] = -2 * sign
    return Weight(tuple(xs), tuple(ys))


def dense_root_sum(q: ThetaStableAlgebra) -> Weight:
    """2rho(u cap p) as the sum of the dense roots over `delta_u_p(q)`."""
    a, b = q.signature
    return reduce(add_weights, (root_of(c, a, b) for c in delta_u_p(q)), Weight((0,) * a, (0,) * b))


def dense_cone(q: ThetaStableAlgebra, base: Weight, bound: int) -> set:
    """base plus the sum of every multiset of at most `bound` dense roots of
    `delta_u_p(q)`: the points of the bounded K-type cone."""
    roots = [root_of(c, *q.signature) for c in delta_u_p(q)]
    return {
        reduce(add_weights, combo, base)
        for size in range(bound + 1)
        for combo in combinations_with_replacement(roots, size)
    }


def k_types_bounded(q: ThetaStableAlgebra, lam=None, bound: int = 0) -> list:
    """The points of `_cone` from the lowest K-type of (q, lambda), sorted by
    their coordinates; the degrees it carries are dropped."""
    return sorted(_cone(q, lowest_k_type(q, lam), bound, 0, q.signature), key=lambda w: (w.x, w.y))
