"""Convergence certificates: backward chains of theta predecessors.

A block list is convergent when it is reachable from a compact-Levi (or
empty) base by repeated lifts whose sizes strictly more than double at
every step and whose intermediate pairs stay in the stable range.
Stepping back at the distinguished block r0 leaves the n - n_r0 slots of
the other blocks, so the growth condition n > 2(n - n_r0) holds exactly
when block r0 holds more than half of the n slots.  At most one block
can, so the backward walk has no choices: each step takes that block,
and chains have at most floor(log2 n) + 1 steps.  Certificates are
therefore reproducible byte for byte.  Inverting the walk generates the
convergent algebras of a frame forward from those of smaller frames, with
no search (`enumerate_convergent`, and the convergence columns of
`atlas`).  A `lax` flag that is not a bool raises TypeError at the call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .halfint import Frozen, exact_int
from .parabolic import (
    ThetaStableAlgebra, _check_frame, _merge_pure, _pairs_text, _source_algebra, _standard,
    packet_size,
)


def predecessor(q: ThetaStableAlgebra, r0: int) -> ThetaStableAlgebra:
    """The lift source's block list at r0, canonicalized."""
    return _source_algebra(q, r0).canonicalize()


class ChainStep(Frozen):
    """One node of a certificate chain; r0 is the index used to step back
    from this node (None at the base).  Its signature is its blocks'."""

    def __init__(self, blocks: ThetaStableAlgebra, r0: Optional[int]):
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "r0", r0)

    @property
    def signature(self) -> Tuple[int, int]:
        return self.blocks.signature

    def to_json(self) -> dict:
        return {
            "signature": {"a": self.signature[0], "b": self.signature[1]},
            "blocks": [list(b) for b in self.blocks.blocks],
            "r0": self.r0,
        }


class ConvergenceCertificate(Frozen):
    """A replayable chain from a compact-Levi base up to the input."""

    def __init__(self, steps: Tuple[ChainStep, ...], lax: bool):
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "lax", lax)

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def signature_chain(self) -> List[Tuple[int, int]]:
        return [s.signature for s in self.steps]

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "lax": self.lax,
            "steps": [s.to_json() for s in self.steps],
        }


def _growth_ok(lower: Tuple[int, int], upper: Tuple[int, int]) -> bool:
    return sum(upper) > 2 * sum(lower)


def _stable_ok(lower: Tuple[int, int], upper: Tuple[int, int]) -> bool:
    return sum(lower) <= min(upper)


def _check_lax(lax) -> None:
    if type(lax) is not bool:
        raise TypeError(f"lax must be a bool, got {lax!r}")


def is_convergent(
    q: ThetaStableAlgebra, lax: bool = False
) -> Tuple[bool, Optional[ConvergenceCertificate]]:
    """Decide convergence; on success return the certificate.  The input is
    canonicalized first.  The walk steps back at the one block holding
    more than half the slots, the only one that passes the growth
    condition, until it reaches a compact Levi.  In lax mode the stable
    range is waived on the final step and on the step out of the base.
    Each step finds in one pass over the blocks whether the Levi is
    compact and which block, if any, holds more than half the slots."""
    _check_lax(lax)
    q = q.canonicalize()
    steps = []
    while True:
        half = q.total // 2  # a block holds more than half the slots when ai + bi > half
        big = None
        compact = True
        for ai, bi in q.blocks:
            if ai + bi > half:
                big = ai, bi
            if ai and bi:
                compact = False
        if compact:
            break
        if big is None:
            return False, None
        r0 = q.blocks.index(big) + 1  # big is unique: a copy would hold over half too
        pred = predecessor(q, r0)
        waived = lax and (not steps or pred.has_compact_levi)
        if not waived and not _stable_ok(pred.signature, q.signature):
            return False, None
        steps.append(ChainStep(q, r0))
        q = pred
    steps.append(ChainStep(q, None))
    return True, ConvergenceCertificate(steps=tuple(reversed(steps)), lax=lax)


def _compact_bases(a: int, b: int, last: Optional[int] = None):
    """The all-pure canonical block lists of U(a, b), one per word of a
    x's and b y's (its runs are the blocks), so C(a+b, a) of them.  They
    come in order of the first block, (1,0), ..., (a,0), then (0,1), ...,
    (0,b), then of the rest in the same order; `last` is the side (0 for
    x, 1 for y) the next block may not take."""
    if a == b == 0:
        yield ()
        return
    if last != 0:
        for k in range(1, a + 1):
            for rest in _compact_bases(a - k, b, 0):
                yield ((k, 0),) + rest
    if last != 1:
        for k in range(1, b + 1):
            for rest in _compact_bases(a, b - k, 1):
                yield ((0, k),) + rest


def _cuts(blocks: Tuple[Tuple[int, int], ...]):
    """Each way to write blocks as prefix + suffix, left to right: at every
    block boundary, and inside every pure block split in two; with the
    prefix's signature."""
    ca = cb = 0
    for i, (ai, bi) in enumerate(blocks):
        yield blocks[:i], blocks[i:], ca, cb
        if not (ai and bi):
            for j in range(1, ai + bi):
                head, tail = ((j, 0), (ai - j, 0)) if ai else ((0, j), (0, bi - j))
                yield blocks[:i] + (head,), (tail,) + blocks[i + 1:], ca + head[0], cb + head[1]
        ca += ai
        cb += bi
    yield blocks, (), ca, cb


def _lift_tables(a: int, b: int, lax: bool) -> dict:
    """The noncompact convergent algebras of U(a, b), generated forward
    from their predecessors with no search: a dict from the blocks of each,
    in construction order, to its signature chain.

    The walk back from q cuts out the block r0 holding more than half the
    slots and reflects the blocks after it; so q comes back from its
    predecessor p, for every frame (a', b') that passes the growth test
    and every convergent p of it, compact bases included, by cutting p at
    a block boundary or inside one pure block, reflecting the suffix back
    and putting between the parts the block that fills (a, b).  A result
    is kept when it is canonical and not all-pure; each q arises once.  Strict
    mode never fails the canonical test (92,689 candidates, a+b <= 18), but lax mode
    can make the filling block pure beside a pure block of its kind (7,232 of 255,541).
    A smaller frame is one dict, its compact bases (one-element chains)
    first; lax mode waives the stable range for those and on the top step."""
    frames = {}

    def table(a: int, b: int, top: bool) -> dict:
        out = {}
        n = a + b
        for n1 in range(n):
            for a1 in range(n1 + 1):
                lower = (a1, n1 - a1)
                stable = _stable_ok(lower, (a, b))
                if not _growth_ok(lower, (a, b)) or not (stable or lax):
                    continue
                if lower not in frames:
                    frames[lower] = frame = dict.fromkeys(_compact_bases(*lower), (lower,))
                    frame.update(table(*lower, False))
                for p, p_chain in frames[lower].items():
                    compact = len(p_chain) == 1
                    if not (compact or stable or top):
                        break  # past the compact bases, off the top, lax mode waives nothing
                    chain = p_chain + ((a, b),)
                    for head, tail, ca, cb in _cuts(p):
                        # the suffix reflected back holds (b1 - cb, a1 - ca) of p's slots
                        x, y = a - ca - (n1 - a1 - cb), b - cb - (a1 - ca)
                        if x < 0 or y < 0 or (compact and not (x and y)):
                            continue
                        q = head + ((x, y),) + tuple([(bi, ai) for ai, bi in tail])
                        if _merge_pure(q) == q:
                            out[q] = chain
        return out

    return table(a, b, True)


def enumerate_convergent(a: int, b: int, lax: bool = False):
    """Every convergent canonical algebra of U(a, b) with its certificate,
    as (q, certificate), generated forward and not by filtering: first the
    compact bases (in `_compact_bases` order), then the others by
    predecessor frame (a'+b', then a'), by predecessor (the frame's compact
    bases, then its other convergent algebras in this order) and by cut,
    left to right, with the certificate of `is_convergent`.  Frames above
    MAX_FRAME are allowed; negative sides raise FrameError at the call."""
    _check_lax(lax)
    _check_frame(a, b, capped=False)
    table = _lift_tables(a, b, lax)

    def generate():
        signature = (a, b)
        for blocks in _compact_bases(a, b):
            q = ThetaStableAlgebra._trusted(blocks, signature)
            yield q, ConvergenceCertificate(steps=(ChainStep(q, None),), lax=lax)
        for blocks in table:
            q = ThetaStableAlgebra._trusted(blocks, signature)
            yield q, is_convergent(q, lax)[1]

    return generate()


def validate_certificate(
    cert: ConvergenceCertificate, q: ThetaStableAlgebra
) -> List[str]:
    """Independent replay of a certificate; returns the list of violations."""
    problems = []
    steps = cert.steps
    if not steps:
        return ["certificate has no steps"]
    if steps[-1].blocks != q.canonicalize():
        problems.append("chain does not end at the input algebra")
    base = steps[0]
    if not base.blocks.has_compact_levi:
        problems.append("base Levi is not compact")
    if base.r0 is not None:
        problems.append("base step must not carry an r0")
    for i in range(1, len(steps)):
        prev, cur = steps[i - 1], steps[i]
        if cur.r0 is None:
            problems.append(f"step {i}: missing r0")
            continue
        if type(cur.r0) is not int or not 1 <= cur.r0 <= cur.blocks.r:  # a bool is no index
            problems.append(f"step {i}: r0 {cur.r0!r} out of range 1..{cur.blocks.r}")
            continue
        if predecessor(cur.blocks, cur.r0) != prev.blocks:
            problems.append(f"step {i}: predecessor does not replay")
        if not _growth_ok(prev.signature, cur.signature):
            problems.append(f"step {i}: growth condition fails")
        waived = cert.lax and (i == len(steps) - 1 or i == 1)
        if not waived and not _stable_ok(prev.signature, cur.signature):
            problems.append(f"step {i}: stable range fails")
    return problems


class AtlasRow(Frozen):
    """One classified module of U(a,b) with its invariants."""

    __slots__ = ("pair_alpha", "pair_beta", "blocks", "R", "R_plus", "R_minus", "packet_size",
                 "convergent", "chain")

    def __init__(
        self, pair_alpha: Tuple[int, ...], pair_beta: Tuple[int, ...],
        blocks: ThetaStableAlgebra, R: int, R_plus: int, R_minus: int, packet_size: int,
        convergent: bool, chain: Tuple[Tuple[int, int], ...],
    ):
        object.__setattr__(self, "pair_alpha", pair_alpha)
        object.__setattr__(self, "pair_beta", pair_beta)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "R_plus", R_plus)
        object.__setattr__(self, "R_minus", R_minus)
        object.__setattr__(self, "packet_size", packet_size)
        object.__setattr__(self, "convergent", convergent)
        object.__setattr__(self, "chain", chain)

    def __reduce__(self):  # slotted and immutable: rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def to_json(self) -> dict:
        return {
            "alpha": list(self.pair_alpha),
            "beta": list(self.pair_beta),
            "blocks": [list(b) for b in self.blocks.blocks],
            "R": self.R,
            "R_plus": self.R_plus,
            "R_minus": self.R_minus,
            "packet_size": self.packet_size,
            "convergent": self.convergent,
            "chain": [{"a": a, "b": b} for a, b in self.chain],
        }

    def to_tsv(self) -> str:
        return "\t".join(
            (
                ",".join(map(str, self.pair_alpha)),
                ",".join(map(str, self.pair_beta)),
                self.blocks.unparse(),
                str(self.R),
                str(self.R_plus),
                str(self.R_minus),
                str(self.packet_size),
                "true" if self.convergent else "false",
                _pairs_text(self.chain, ">") if self.chain else "",
            )
        )


ATLAS_TSV_HEADER = "alpha\tbeta\tblocks\tR\tR+\tR-\tpacket_size\tconvergent\tchain"


def atlas(a: int, b: int, lax: bool = False) -> List[AtlasRow]:
    """One row per compatible pair in the a x b frame, in enumeration order.

    The degenerate (0,0) frame yields an empty table.
    """
    _check_lax(lax)
    if exact_int(a) == exact_int(b) == 0:
        return []
    standard = _standard(a, b)  # checks the frame before anything is built
    lifted = _lift_tables(a, b, lax)
    compact = ((a, b),)  # the chain of every compact row
    rows = []
    packets = {}  # the packet size depends only on the multiset of block sizes
    alphas = {}  # each distinct alpha row: stripped, with R+ = |alpha|
    beta = None
    # rows weakly decrease, so their nonzero parts are the stripped partition;
    # R+ counts the cells of alpha and R- those of the frame outside beta
    for q, alpha, q_beta in standard:
        if q_beta != beta:  # the algebras of one beta come one after another
            beta = q_beta
            beta_t = tuple(filter(None, beta))
            R_minus = a * b - sum(beta)
        if alpha not in alphas:
            alphas[alpha] = tuple(filter(None, alpha)), sum(alpha)
        alpha_t, R_plus = alphas[alpha]
        sizes = tuple(sorted(q.levi_sizes))
        if sizes not in packets:
            packets[sizes] = packet_size(q)
        # alpha == beta: no x-row's block has a y-slot, so the Levi is compact
        chain = compact if alpha == q_beta else lifted.get(q.blocks, ())
        rows.append(AtlasRow(
            alpha_t, beta_t, q, R_plus + R_minus, R_plus, R_minus, packets[sizes], bool(chain), chain
        ))
    return rows
