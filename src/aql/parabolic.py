"""Standard theta-stable parabolic subalgebras of u(a,b) as block lists.

A dominant diagonal element with r distinct values splits the signature
into an ordered list of blocks (a_i, b_i); the Levi factor is the product
of the U(a_i, b_i).  Everything computed downstream (the nested partition
pair, the noncompact radical roots, cohomological bidegree, infinitesimal
characters, lowest K-types, packets) depends only on the block order and
sizes, so the actual diagonal values are never stored.
"""

from __future__ import annotations

from itertools import accumulate, combinations_with_replacement, groupby
from math import comb
from typing import Iterable, List, Sequence, Tuple

from .halfint import CharMultiset, Frozen, Weight, exact_int
from .partitions import FrameError, FramedPair, IncompatiblePairError, Partition, is_compatible


class DominanceError(ValueError):
    """A construction requires a dominant element."""


class AlignmentError(ValueError):
    """A per-block character does not match the block list."""


def _merge_pure(blocks: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    out: List[Tuple[int, int]] = []
    for ai, bi in blocks:
        if out:
            pa, pb = out[-1]
            if bi == 0 and pb == 0:
                out[-1] = (pa + ai, 0)
                continue
            if ai == 0 and pa == 0:
                out[-1] = (0, pb + bi)
                continue
        out.append((ai, bi))
    return tuple(out)


class ThetaStableAlgebra(Frozen):
    """An ordered block decomposition ((a_1,b_1),...,(a_r,b_r)).

    Standard constructions (from a dominant element or from a compatible
    partition pair) produce the canonical form, in which adjacent blocks
    of the same pure type are merged.  Raw lists are also accepted: packet
    members and lift sources must keep split pure blocks so that per-block
    characters stay aligned.  `blocks` and `signature` are stored and
    `levi_sizes` (n_i = a_i + b_i) and `total` computed; equality, hash
    and repr use the blocks.  The constructor (behind `parse`, `from_json`
    and unpickling) checks every block; `_trusted` checks none.
    """

    __slots__ = ("blocks", "signature", "__weakref__")

    def __init__(self, blocks: Iterable[Sequence[int]] = ()):
        norm = []
        for block in blocks:
            ai, bi = block
            if type(ai) is not int or type(bi) is not int:
                raise TypeError(f"block sizes must be ints, got ({ai!r},{bi!r})")
            if ai < 0 or bi < 0 or (ai == 0 and bi == 0):
                raise ValueError(f"invalid block ({ai},{bi})")
            norm.append(block if type(block) is tuple else (ai, bi))  # shared, not copied
        self._set(tuple(norm), (sum(ai for ai, _ in norm), sum(bi for _, bi in norm)))

    @classmethod
    def _trusted(cls, blocks: Tuple[Tuple[int, int], ...], signature: Tuple[int, int]):
        """The algebra of valid blocks with their (a, b) sums, unchecked."""
        return object.__new__(cls)._set(blocks, signature)

    def _set(self, blocks, signature) -> "ThetaStableAlgebra":
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "signature", signature)
        return self

    @property
    def levi_sizes(self) -> Tuple[int, ...]:
        return tuple([ai + bi for ai, bi in self.blocks])

    @property
    def total(self) -> int:
        return sum(self.signature)

    def __reduce__(self):  # slotted and immutable: rebuild through __init__
        return type(self), (self.blocks,)

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def is_canonical(self) -> bool:
        return self.blocks == _merge_pure(self.blocks)

    @property
    def has_compact_levi(self) -> bool:
        """Every block pure; the attached module is then a discrete series."""
        return all(a == 0 or b == 0 for a, b in self.blocks)

    def canonicalize(self) -> "ThetaStableAlgebra":
        """The merged block list; self when nothing merges."""
        merged = _merge_pure(self.blocks)
        return self if merged == self.blocks else self._trusted(merged, self.signature)

    @classmethod
    def parse(cls, text: str) -> "ThetaStableAlgebra":
        """Parse the flag grammar "a1,b1;a2,b2;...". Empty string = empty algebra.
        Lists with more than MAX_SLOTS slots raise ValueError."""
        text = text.strip()
        if not text:
            return cls(())
        blocks = []
        for i, chunk in enumerate(text.split(";")):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ValueError(f"block {i + 1}: expected 'a,b', got {chunk!r}")
            try:
                blocks.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise ValueError(f"block {i + 1}: non-integer in {chunk!r}") from None
        slots = sum(ai + bi for ai, bi in blocks)
        if slots > MAX_SLOTS:
            raise ValueError(f"block list has {slots} slots: at most {MAX_SLOTS} are allowed")
        return cls(blocks)

    def unparse(self) -> str:
        """The flag grammar "a1,b1;a2,b2;..." that `parse` reads."""
        return _pairs_text(self.blocks, ";")

    def to_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, doc: dict) -> "ThetaStableAlgebra":
        return cls(doc["blocks"])

    def __str__(self):
        return f"({self.unparse()})"


def _source_algebra(q: ThetaStableAlgebra, r0: int) -> ThetaStableAlgebra:
    """The lift source's blocks: block r0 removed, later ones reflected, unmerged."""
    if not 1 <= exact_int(r0) <= q.r:
        raise ValueError(f"r0={r0} out of range 1..{q.r}")
    blocks = q.blocks[: r0 - 1] + tuple([(bi, ai) for ai, bi in q.blocks[r0:]])
    signature = (sum(ai for ai, _ in blocks), sum(bi for _, bi in blocks))
    return ThetaStableAlgebra._trusted(blocks, signature)


class LambdaCharacter(Frozen):
    """Differential of a unitary character of the Levi: one integer per block."""

    def __init__(self, values: Iterable[int] = ()):
        vals = tuple(exact_int(v) for v in values)
        if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError(f"character values must be weakly decreasing: {vals}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, q: ThetaStableAlgebra) -> "LambdaCharacter":
        return cls((0,) * q.r)

    @classmethod
    def parse(cls, text: str) -> "LambdaCharacter":
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(v) for v in text.split(","))

    def to_json(self) -> list:
        return list(self.values)


def _as_lambda(q: ThetaStableAlgebra, lam) -> LambdaCharacter:
    if lam is None:
        return LambdaCharacter.zero(q)
    if not isinstance(lam, LambdaCharacter):
        lam = LambdaCharacter(lam)
    if len(lam.values) != q.r:
        raise AlignmentError(
            f"character has {len(lam.values)} values for {q.r} blocks"
        )
    return lam


def blocks_from_dominant(H: Weight) -> ThetaStableAlgebra:
    """Read the canonical block list off a dominant element."""
    if not H.is_dominant:
        raise DominanceError(f"element is not dominant: {H.to_json()}")
    levels = sorted(set(H.x) | set(H.y), reverse=True)
    blocks = [(H.x.count(z), H.y.count(z)) for z in levels]
    return ThetaStableAlgebra(_merge_pure(blocks))


def _rows(q: ThetaStableAlgebra) -> Tuple[List[int], List[int]]:
    """The unstripped (alpha, beta) rows, one per x-slot: alpha_i counts
    the y-slots in later blocks and beta_i adds those of the row's own
    block."""
    alpha: List[int] = []
    beta: List[int] = []
    below = q.signature[1]
    for ai, bi in q.blocks:
        below -= bi
        alpha += [below] * ai
        beta += [below + bi] * ai
    return alpha, beta


def partitions_from_blocks(q: ThetaStableAlgebra) -> FramedPair:
    """The nested pair (alpha, beta) of the block list."""
    alpha, beta = _rows(q)
    a, b = q.signature
    return FramedPair(a, b, Partition(alpha), Partition(beta))


def algebra_from_pair(pair: FramedPair) -> ThetaStableAlgebra:
    """Canonical block list realizing a compatible pair; IncompatiblePairError
    for the others.  Each group of equal (alpha_i, beta_i) rows is one block,
    after a pure-y block of the y-slots left above its beta (b before the
    first group); the last group's alpha is the pure-y tail."""
    if not is_compatible(pair):
        raise IncompatiblePairError(f"no block decomposition for {pair.to_json()}")
    blocks: List[Tuple[int, int]] = []
    left = pair.b  # y-slots not yet placed
    for (al, be), rows in groupby(pair.row_pairs()):
        blocks += [(0, left - be), (len(list(rows)), be - al)]
        left = al
    blocks.append((0, left))
    return ThetaStableAlgebra([blk for blk in blocks if any(blk)])


def delta_u_p(q: ThetaStableAlgebra) -> Tuple[Tuple[int, int, int], ...]:
    """Noncompact roots of the nilradical, as signed cells (sign, i, j).

    A cell (i,j) inside alpha carries the root x_i - y_{b+1-j} with sign +1;
    a cell outside beta carries its negative.
    """
    alpha, beta = _rows(q)
    b = q.signature[1]
    plus = [(1, i, j) for i, al in enumerate(alpha, 1) for j in range(1, al + 1)]
    minus = [(-1, i, j) for i, be in enumerate(beta, 1) for j in range(be + 1, b + 1)]
    return tuple(plus + minus)


def cohomological_degree(q: ThetaStableAlgebra) -> Tuple[int, int, int]:
    """(R, R+, R-): dim of the noncompact nilradical and its split.  R+
    counts the cells of alpha and R- the cells of the a x b frame outside
    beta."""
    alpha, beta = _rows(q)
    a, b = q.signature
    r_plus = sum(alpha)
    r_minus = a * b - sum(beta)
    return (r_plus + r_minus, r_plus, r_minus)


def two_rho_up(q: ThetaStableAlgebra) -> Weight:
    """Sum of the noncompact nilradical roots; highest weight of V(q).

    A root x_i - y_j lies in u cap p, up to sign, exactly when its two
    slots sit in different blocks, and it is positive when the x-slot's
    block comes first.  So every slot, x or y, gains 2 for each slot of the
    other kind in a later block and loses 2 for each one in an earlier
    block.
    """
    return lowest_k_type(q)


def m_coeffs(q: ThetaStableAlgebra) -> Tuple[int, ...]:
    """m_i = -(n_1+...+n_{i-1}) + (n_{i+1}+...+n_r) for each block."""
    return tuple([m_i for m_i, _ in _summands(q.blocks, (0,) * q.r)])


def _summands(blocks: Sequence[Tuple[int, int]], values: Sequence[int]) -> List[Tuple[int, int]]:
    """The doubled summands (2k, n) of (blocks, lambda), in block order: block i
    gives (2*lambda_i + m_i, n_i), m_i the slots after it less those before it."""
    after = before = 0
    for ai, bi in blocks:  # a loop: a comprehension costs a frame per call
        after += ai + bi
    out = []
    for (ai, bi), lam_i in zip(blocks, values):
        n_i = ai + bi
        after -= n_i
        out.append((2 * lam_i + after - before, n_i))
        before += n_i
    return out


def centred_string(center: int, n: int) -> range:
    """The n values centred at center/2 in steps of 1, decreasing, all
    doubled: center + n - 1, center + n - 3, ..., center - n + 1."""
    return range(center + n - 1, center - n, -2)


def inf_char_aq(q: ThetaStableAlgebra, lam=None) -> CharMultiset:
    """Infinitesimal character attached to (q, lambda), as a multiset.

    Block i contributes the string of n_i values centered at
    lambda_i + m_i/2, where m_i is the signed count of slots in the other
    blocks.  This closed form already incorporates the half-sum for the
    Levi, so no positive system is ever chosen.
    """
    return CharMultiset(twice=_inf_char_twice(_summands(q.blocks, _as_lambda(q, lam).values)))


def _inf_char_twice(summands: Iterable[Tuple[int, int]]) -> List[int]:
    """The doubled entries of the infinitesimal character of the doubled
    summands (2k, n), unsorted: each summand's n-term `centred_string` about k.
    `inf_char_aq`, `inf_char_param` and the lift's check all read it."""
    entries: List[int] = []
    for k, n in summands:
        entries += centred_string(k, n)
    return entries


def lowest_k_type(q: ThetaStableAlgebra, lam=None) -> Weight:
    """Highest weight of the K-type generating the module: lambda + 2rho(u cap p),
    in one pass: each slot of block i holds 2*lambda_i plus its `two_rho_up` entry."""
    xs, ys = _lowest_k_type_twice(q.blocks, q.signature, _as_lambda(q, lam).values)
    return Weight(tuple(xs), tuple(ys))


def _lowest_k_type_twice(
    blocks: Sequence[Tuple[int, int]], signature: Tuple[int, int], values: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """The doubled x- and y-coordinates of `lowest_k_type`."""
    a, b = signature
    xs: List[int] = []
    ys: List[int] = []
    a_before = b_before = 0
    for (ai, bi), lam_i in zip(blocks, values):
        xs += [2 * (lam_i + b - bi - 2 * b_before)] * ai
        ys += [2 * (lam_i + a - ai - 2 * a_before)] * bi
        a_before += ai
        b_before += bi
    return xs, ys


MAX_CONE = 200_000


def _cone(q: ThetaStableAlgebra, base: Weight, bound: int, chi1_alpha: int, frame: tuple) -> dict:
    """The K-type candidates base + sum n_tau tau (tau in `delta_u_p(q)`, total
    coefficient <= bound) from the lowest K-type `base`, unordered, each mapped
    to `degree_twice(point, chi1_alpha, frame)`: root (sign, i, j) is
    the step 2*sign at x_i, -2*sign at y_{b+1-j}, so a point's degree is its parent's
    plus two changes of |coordinate - centre|.  A cone over MAX_CONE points or
    MAX_CONE * MAX_FRAME coordinates raises ValueError before any root is listed."""
    if exact_int(bound) < 0:
        raise ValueError("bound must be non-negative")
    n_roots = cohomological_degree(q)[0] if bound else 0
    k = min(bound, n_roots)
    # C(bound + n_roots, k) >= C(2k, k) >= 2^k, so a large k is refused unformed
    points = MAX_CONE + 1 if k >= MAX_CONE.bit_length() else comb(bound + n_roots, k)
    if points > MAX_CONE or (points + n_roots) * q.total > MAX_CONE * MAX_FRAME:
        limit = f"{MAX_CONE} points" if points > MAX_CONE else f"{MAX_CONE * MAX_FRAME} coordinates"
        raise ValueError(
            f"cone at bound {bound} over {n_roots} roots has more than {limit}; lower the bound"
        )
    b = q.signature[1]
    moves = [(i - 1, b - j, 2 * sign) for sign, i, j in delta_u_p(q)] if bound else []
    cx, cy = _frame_centres(chi1_alpha, frame)
    seen = {base: degree_twice(base, chi1_alpha, frame)}
    frontier = list(seen.items())
    for _ in range(bound if moves else 0):  # no roots: the base point is the cone
        nxt = []
        for w, deg in frontier:
            for i, j, d in moves:
                xs, ys = list(w.x), list(w.y)
                xi, yj = xs[i], ys[j]
                xs[i], ys[j] = xi + d, yj - d
                cand = Weight(tuple(xs), tuple(ys))
                if cand not in seen:
                    c_deg = deg + abs(xi + d - cx) - abs(xi - cx) + abs(yj - d - cy) - abs(yj - cy)
                    seen[cand] = c_deg
                    nxt.append((cand, c_deg))
        frontier = nxt
    return seen


MAX_PACKET = 50_000


def packet_size(q: ThetaStableAlgebra) -> int:
    """Packet size without building the packet: the coefficient of x^a in
    prod (1 + x + ... + x^{n_i}), one prefix-sum pass per block."""
    a, _ = q.signature
    coeffs = [1] + [0] * a
    for n in q.levi_sizes:
        # n + 1 leading zeros: padded[k + n + 1] - padded[k] sums coeffs[k-n..k]
        padded = [0] * (n + 1) + list(accumulate(coeffs))
        coeffs = [hi - lo for lo, hi in zip(padded, padded[n + 1 :])]
    return coeffs[a]


def enumerate_packet(q: ThetaStableAlgebra, lam=None):
    """All redistributions of each block's signature, with the same character.

    Members represent the K-conjugacy classes in the packet of (q, lambda);
    block lists are kept as-is (no pure-block merging) so the per-block
    character stays aligned.  Members come in lexicographic order of their
    x-sizes.  Packets above MAX_PACKET members raise ValueError.
    """
    lam = _as_lambda(q, lam)
    if packet_size(q) > MAX_PACKET:
        raise ValueError(f"packet has more than {MAX_PACKET} members")
    sizes, sig = q.levi_sizes, q.signature
    tail = q.total
    # (x-sizes chosen so far, x-slots left); every prefix can be completed
    prefixes = [((), sig[0])]
    for n in sizes:
        tail -= n
        prefixes = [
            (chosen + (ai,), left - ai)
            for chosen, left in prefixes
            for ai in range(max(0, left - tail), min(n, left) + 1)
        ]
    return [
        (ThetaStableAlgebra._trusted(tuple((ai, n - ai) for ai, n in zip(chosen, sizes)), sig), lam)
        for chosen, _ in prefixes
    ]


def recentred(w: Weight, chi1_alpha: int, frame: Tuple[int, int]) -> Tuple[List[int], List[int]]:
    """Doubled coordinates of w relative to a dual-pair partner.

    Coordinates are recentred by chi1_alpha/2 plus (a-b)/2 on the x-part
    and (b-a)/2 on the y-part, where (a, b) is the partner signature
    (`frame`).
    """
    cx, cy = _frame_centres(chi1_alpha, frame)
    return [v - cx for v in w.x], [v - cy for v in w.y]


def _frame_centres(alpha: int, frame: Tuple[int, int]) -> Tuple[int, int]:
    """The doubled centres alpha + (a - b) and alpha + (b - a) of the frame (a, b):
    what `recentred` subtracts from a weight's x- and y-coordinates."""
    fa, fb = frame
    return alpha + (fa - fb), alpha + (fb - fa)


def degree_twice(w: Weight, chi1_alpha: int, frame: Tuple[int, int]) -> int:
    """Twice the Fock-space degree of a weight relative to a dual-pair
    partner of signature `frame`: the sum of the absolute recentred coordinates."""
    cx, cy = _frame_centres(chi1_alpha, frame)
    return sum([abs(v - cx) for v in w.x]) + sum([abs(v - cy) for v in w.y])


MAX_FRAME = 13
MAX_SLOTS = 1_000
# the text "a,b" of every pair with both sides in [0, MAX_FRAME], as [a][b];
# dicts, not lists, so that a negative side misses instead of counting back
_BLOCK_TEXT = {ai: {bi: f"{ai},{bi}" for bi in range(MAX_FRAME + 1)} for ai in range(MAX_FRAME + 1)}


def _pairs_text(pairs: Iterable[Tuple[int, int]], sep: str) -> str:
    """The pairs as "a,b" joined by sep, read from _BLOCK_TEXT and formatted
    only when a side is outside it (which only `parse` and hand-built
    values admit)."""
    try:
        return sep.join([_BLOCK_TEXT[ai][bi] for ai, bi in pairs])
    except KeyError:
        return sep.join([f"{ai},{bi}" for ai, bi in pairs])


def _check_frame(a: int, b: int, capped: bool = True) -> None:
    """Raise FrameError for a negative side or, when capped, for a+b above
    MAX_FRAME."""
    if exact_int(a) < 0 or exact_int(b) < 0:
        raise FrameError("frame sides must be non-negative")
    if capped and a + b > MAX_FRAME:
        raise FrameError(f"frame {a}x{b} is too large: a+b must be at most {MAX_FRAME}")


def _standard_count(a: int, b: int) -> int:
    """len(enumerate_standard(a, b)) for any frame, with no algebra built:
    a DP over the block lists of each frame (i, j) <= (a, b), split by the
    kind of their last block.  A pure-x block may follow any list not
    ending pure x, a pure-y block any list not ending pure y, and a mixed
    block any list."""
    counts = {}  # (i, j): lists ending pure x, ending pure y, and the others
    for i in range(a + 1):
        for j in range(b + 1):
            counts[i, j] = (
                sum([sum(counts[i - k, j][1:]) for k in range(1, i + 1)]),
                sum([counts[i, j - k][0] + counts[i, j - k][2] for k in range(1, j + 1)]),
                sum([sum(counts[i - k, j - m]) for k in range(1, i + 1) for m in range(1, j + 1)])
                + (i == j == 0),  # the empty list at (0, 0), which any block may follow
            )
    return sum(counts[a, b])


def _standard(a: int, b: int):
    """The canonical standard algebras of U(a,b) with their unstripped rows,
    as (q, alpha, beta) in (beta, alpha) order, built without a search.

    beta runs over the weakly decreasing a-tuples over [0, b].  Of two
    blocks with one beta the first is pure x, so a run of L rows with
    beta = v, followed by the run with beta = w (0 after the last), holds
    k pure x-rows (alpha = v), then L - k rows with alpha = u in [w, v),
    then u - w pure y-slots; k = L stands for u = v.  The run's alpha
    grows with (k, u).  A lead of b - beta_1 pure y-slots comes first.
    Negative sides or a+b above MAX_FRAME raise FrameError at the call."""
    _check_frame(a, b)
    # each (ai, bi) is made once, so equal blocks and signatures of one enumeration share it
    pairs = [[(ai, bi) for bi in range(b + 1)] for ai in range(a + 1)]

    def fills(v: int, length: int, w: int):
        """(alpha segment, nonzero blocks) of each way to fill one run, in order."""
        ways = [(k, u) for k in range(length) for u in range(w, v)] + [(length, v)]
        return [
            (
                (v,) * k + (u,) * (length - k),
                tuple(filter(any, (pairs[k][0], pairs[length - k][v - u], pairs[0][u - w]))),
            )
            for k, u in ways
        ]

    def generate():
        # combinations over b, ..., 0 come in decreasing lexicographic order
        for beta in reversed(list(combinations_with_replacement(range(b, -1, -1), a))):
            runs = [(v, len(list(group))) for v, group in groupby(beta)]
            top = beta[0] if beta else 0
            # (alpha, blocks) prefixes, extended run by run in order
            prefixes = [((), (pairs[0][b - top],) if top < b else ())]
            for (v, length), w in zip(runs, [v for v, _ in runs[1:]] + [0]):
                choices = fills(v, length, w)
                prefixes = [(al + seg, bl + blk) for al, bl in prefixes for seg, blk in choices]
            for alpha, blocks in prefixes:
                yield ThetaStableAlgebra._trusted(blocks, pairs[a][b]), alpha, beta

    return generate()


def enumerate_standard(a: int, b: int) -> List[ThetaStableAlgebra]:
    """All canonical standard algebras of U(a,b), one per compatible pair,
    ordered by (beta, alpha): the nonzero blocks summing to (a, b) with no
    two adjacent pure blocks of the same kind.  Frames with a+b above
    MAX_FRAME raise FrameError."""
    return [q for q, _, _ in _standard(a, b)]
