"""Construction of theta-lift sources and exact verification of the
identities relating a cohomological module of U(a,b) to the lift of a
smaller one.

Given a standard block list, a distinguished block index r0 and a pair of
splitting characters, the source datum consists of the block list with the
r0-th block removed and the later blocks reflected, a shifted integral
character, and a det-power twist.  Four independent checks are exposed:

* parameter identity: the lifted parameter equals the twisted target
  parameter as a multiset;
* infinitesimal character: the lift-composition rule lands on the target
  infinitesimal character;
* K-type correspondence: the source lowest K-type decomposes with the
  predicted tail sizes and its image under the type map, after the det
  twist, is the target lowest K-type;
* minimal degree: no K-type candidate of the source in a bounded cone has
  strictly smaller Fock-space degree than the lowest one.

All verdicts are exact; nothing is ever compared approximately.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .halfint import CharMultiset, Frozen, Weight, exact_int, format_twice
from .arthur import ChiPair, ParameterRestriction, _lifted, _twisted
from .parabolic import (
    LambdaCharacter,
    ThetaStableAlgebra,
    _as_lambda,
    _cone,
    _frame_centres,
    _inf_char_twice,
    _lowest_k_type_twice,
    _source_algebra,
    _summands,
    lowest_k_type,
    recentred,
)


class HoweBoundError(ValueError):
    """A weight decomposition exceeds the tail bounds of the type map."""


DEFAULT_BOUND = 3


class LiftDatum(Frozen):
    """Everything defining one instance of the lift construction.  The det
    twist c is held doubled: `det_shift` is the int 2c."""

    def __init__(
        self, target_q: ThetaStableAlgebra, target_lambda: LambdaCharacter, r0: int,
        chi: ChiPair, source_q: ThetaStableAlgebra, source_lambda: LambdaCharacter,
        det_shift: int, mslk: Tuple[int, int, int, int],
    ):
        object.__setattr__(self, "target_q", target_q)
        object.__setattr__(self, "target_lambda", target_lambda)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "source_q", source_q)
        object.__setattr__(self, "source_lambda", source_lambda)
        object.__setattr__(self, "det_shift", exact_int(det_shift))
        object.__setattr__(self, "mslk", mslk)

    def to_json(self) -> dict:
        m, s, k, l = self.mslk
        return {
            "target": _side_json(self.target_q, self.target_lambda),
            "r0": self.r0,
            "chi": self.chi.to_json(),
            "source": _side_json(self.source_q, self.source_lambda),
            "det_shift": format_twice(self.det_shift),
            "mslk": {"m": m, "s": s, "k": k, "l": l},
        }


def _side_json(q: ThetaStableAlgebra, lam: LambdaCharacter) -> dict:
    """One side of `LiftDatum.to_json`: blocks, character and signature."""
    return {
        "blocks": [list(b) for b in q.blocks],
        "lambda": list(lam.values),
        "signature": dict(zip(("a", "b"), q.signature)),
    }


class LiftReport(Frozen):
    """Verdicts of the four checks, with the computed intermediates.
    Equality and hash leave out `details`."""

    _compared = ("datum", "parameter_ok", "infchar_ok", "ktype_ok", "mindegree_ok", "bound")

    def __init__(
        self, datum: LiftDatum, parameter_ok: bool, infchar_ok: bool, ktype_ok: bool,
        mindegree_ok: bool, bound: int, details: dict,
    ):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "parameter_ok", parameter_ok)
        object.__setattr__(self, "infchar_ok", infchar_ok)
        object.__setattr__(self, "ktype_ok", ktype_ok)
        object.__setattr__(self, "mindegree_ok", mindegree_ok)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "details", details)

    @property
    def checks(self) -> dict:
        """The four verdicts by name, in report order."""
        return {
            "parameter_ok": self.parameter_ok,
            "infchar_ok": self.infchar_ok,
            "ktype_ok": self.ktype_ok,
            "mindegree_ok": self.mindegree_ok,
        }

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "checks": self.checks,
            "bound": self.bound,
            "datum": self.datum.to_json(),
            "details": self.details,
        }


def select_r0(q: ThetaStableAlgebra) -> List[int]:
    """All 1-based indices of blocks of maximal size, smallest first."""
    sizes = q.levi_sizes
    top = max(sizes, default=0)
    return [i + 1 for i, n in enumerate(sizes) if n == top]


def _resolve_chi(chi, n: int, n_prime: int) -> ChiPair:
    if chi is None:
        return ChiPair.default(n, n_prime)
    if isinstance(chi, ChiPair):
        if (chi.n, chi.n_prime) != (n, n_prime):
            raise ValueError(
                f"chi context {(chi.n, chi.n_prime)} does not match pair {(n, n_prime)}"
            )
        return chi
    a1, a2 = chi
    return ChiPair(a1, a2, n, n_prime)


def build_source(
    q: ThetaStableAlgebra,
    lam=None,
    r0: Optional[int] = None,
    chi=None,
) -> LiftDatum:
    """Build the source datum for (q, lambda) at the distinguished block r0.

    The source keeps the blocks before r0 and reflects the ones after it;
    its character is shifted by one amount on each side of r0 so that the
    lifted parameter matches the target up to one det twist.  The source
    block list is kept unmerged so the shifted character stays aligned.
    """
    lam = _as_lambda(q, lam)
    if r0 is None:
        choices = select_r0(q)
        if not choices:
            raise ValueError("empty algebra has no distinguished block")
        r0 = choices[0]
    source_q = _source_algebra(q, r0)
    n = q.total
    n_prime = source_q.total
    n_r0 = n - n_prime
    chi = _resolve_chi(chi, n, n_prime)
    # k x-slots and m y-slots come before block r0; the reflected tail holds s and l
    k = m = 0
    for ai, bi in q.blocks[: r0 - 1]:
        k += ai
        m += bi
    s, l = source_q.signature[0] - k, source_q.signature[1] - m
    m_r0 = n_prime - 2 * (k + m)
    values = lam.values
    lam_r0 = values[r0 - 1]
    # ChiPair pins alpha1 = n (mod 2) and m_r0 = n' (mod 2), so each side's
    # offset alpha1 - m_r0 +- n_r0 is even and the source character integral
    after = (chi.alpha1 - m_r0 - n_r0) // 2 - lam_r0
    lam_prime = [v + after + n_r0 for v in values[: r0 - 1]] + [v + after for v in values[r0:]]

    return LiftDatum(
        target_q=q,
        target_lambda=lam,
        r0=r0,
        chi=chi,
        source_q=source_q,
        source_lambda=LambdaCharacter(lam_prime),
        det_shift=2 * lam_r0 + m_r0 - chi.alpha2,
        mslk=(m, s, k, l),
    )


def _parameter_check(d: LiftDatum):
    """(verdict, lifted source summands, det-twisted target summands), each a
    sorted list of doubled (2k, n) pairs."""
    source, target = d.source_q, d.target_q
    lifted = _lifted(
        _summands(source.blocks, _as_lambda(source, d.source_lambda).values),
        d.chi.alpha1, d.chi.alpha2, target.total,
    )
    twisted = _twisted(
        _summands(target.blocks, _as_lambda(target, d.target_lambda).values), -d.det_shift
    )
    lifted.sort()
    twisted.sort()
    return lifted == twisted, lifted, twisted


def verify_parameter_identity(d: LiftDatum) -> bool:
    """Lifted source parameter == det-twisted target parameter, exactly."""
    return _parameter_check(d)[0]


def _inf_char_check(d: LiftDatum):
    """(verdict, lifted source infinitesimal character, target one), each a
    sorted list of doubled entries; the lifted one is the strings of the
    lifted source parameter after the det twist.  The removed block has
    n - n' slots, so a datum with n' >= n is False."""
    source, target, chi = d.source_q, d.target_q, d.chi
    n_r0 = target.total - source.total
    summands = _lifted(
        _summands(source.blocks, _as_lambda(source, d.source_lambda).values),
        chi.alpha1, chi.alpha2, target.total,
    )  # the adjoined summand gives no string at all when n_r0 <= 0
    lifted = _inf_char_twice(_twisted(summands, d.det_shift))
    entries = _inf_char_twice(_summands(target.blocks, _as_lambda(target, d.target_lambda).values))
    lifted.sort()
    entries.sort()
    return n_r0 > 0 and lifted == entries, lifted, entries


def verify_inf_char(d: LiftDatum) -> bool:
    """Composition rule for infinitesimal characters lands on the target."""
    return _inf_char_check(d)[0]


def _split_tails(res: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Split a weakly decreasing residual list into its strictly positive
    head and strictly negative tail (doubled values)."""
    if any(res[i] < res[i + 1] for i in range(len(res) - 1)):
        raise HoweBoundError("residual coordinates are not weakly decreasing")
    pos = [v for v in res if v > 0]
    neg = [v for v in res if v < 0]
    return pos, neg


def howe_type_map(mu_prime: Weight, target_sig: Tuple[int, int], chi: ChiPair) -> Weight:
    """Image of a minimal-degree source K-type on the target side.

    The source weight is recentered by chi1/2 and half the target signature
    difference; its strictly positive tails stay on their own factor while
    the strictly negative tails swap factors.  The result is recentered by
    chi2/2 and half the source signature difference.
    """
    rx, ry = recentred(mu_prime, chi.alpha1, target_sig)
    out_x, out_y = _howe_image(rx, ry, target_sig, _frame_centres(chi.alpha2, mu_prime.signature))
    return Weight(tuple(out_x), tuple(out_y))


def _howe_image(
    rx: Sequence[int], ry: Sequence[int], target_sig: Tuple[int, int], centres: Tuple[int, int]
) -> Tuple[List[int], List[int]]:
    """`howe_type_map` on the recentred doubled coordinates: the image's x- and
    y-coordinates about the doubled output centres."""
    a, b = target_sig
    pos_x, neg_x = _split_tails(rx)
    pos_y, neg_y = _split_tails(ry)
    t, u, v, w = len(pos_x), len(neg_x), len(pos_y), len(neg_y)
    if t + w > a or v + u > b:
        raise HoweBoundError(
            f"Howe bound violated: tails ({t},{u},{v},{w}) do not fit in {a}x{b}"
        )
    cx, cy = centres
    out_x = [cx + r for r in pos_x] + [cx] * (a - t - w) + [cx + r for r in neg_y]
    out_y = [cy + r for r in pos_y] + [cy] * (b - v - u) + [cy + r for r in neg_x]
    return out_x, out_y


def _k_type_check(d: LiftDatum):
    """(verdict, source lowest K-type, its twisted image or None, target
    lowest K-type), each K-type an (x, y) pair of doubled coordinate lists.
    The source lowest K-type must decompose with tail groups sized (k,s,m,l):
    k non-negative then s non-positive x-residuals, m non-negative then l
    non-positive y-residuals.  The sizes are counts, and what they leave of
    the target signature (a,b), the removed block (a-k-l, b-m-s), is a block
    of n - n' > 0 slots."""
    m, s, k, l = d.mslk
    source, target, chi, det = d.source_q, d.target_q, d.chi, d.det_shift
    low = _lowest_k_type_twice(
        source.blocks, source.signature, _as_lambda(source, d.source_lambda).values
    )
    target_low = _lowest_k_type_twice(
        target.blocks, target.signature, _as_lambda(target, d.target_lambda).values
    )
    xs, ys = low
    cx, cy = _frame_centres(chi.alpha1, target.signature)
    rx, ry = [v - cx for v in xs], [v - cy for v in ys]
    a, b = target.signature
    removed = (a - k - l, b - m - s)
    zones_ok = (
        min(m, s, k, l, *removed) >= 0
        and sum(removed) > 0
        and len(rx) == k + s
        and len(ry) == m + l
        and all(v >= 0 for v in rx[:k])
        and all(v <= 0 for v in rx[k:])
        and all(v >= 0 for v in ry[:m])
        and all(v <= 0 for v in ry[m:])
    )
    # the det twist moves both output centres
    centres = _frame_centres(chi.alpha2 + det, source.signature)
    try:
        mapped = _howe_image(rx, ry, target.signature, centres)
    except HoweBoundError:
        mapped = None
    return zones_ok and mapped == target_low, low, mapped, target_low


def verify_k_type(d: LiftDatum) -> bool:
    """Decomposition sizes match (k,s,m,l), which leave a nonempty removed
    block, and the mapped lowest K-type, after the det twist, equals the
    target lowest K-type."""
    return _k_type_check(d)[0]


def _min_degree_check(d: LiftDatum, bound: int):
    """(verdict, doubled degree of the source lowest K-type, doubled degrees
    of the cone in no stated order), each carried by `_cone` from its step."""
    low = lowest_k_type(d.source_q, d.source_lambda)
    cone = _cone(d.source_q, low, bound, d.chi.alpha1, d.target_q.signature)
    base, degrees = cone[low], list(cone.values())
    return all(v >= base for v in degrees), base, degrees


def verify_min_degree(d: LiftDatum, bound: int = DEFAULT_BOUND) -> bool:
    """No source K-type candidate within the bounded cone has strictly
    smaller degree than the lowest K-type."""
    return _min_degree_check(d, bound)[0]


def full_report(
    q: ThetaStableAlgebra,
    lam=None,
    r0: Optional[int] = None,
    chi=None,
    bound: int = DEFAULT_BOUND,
) -> LiftReport:
    """Build the source datum and run all four checks."""
    d = build_source(q, lam, r0, chi)
    parameter_ok, lifted_param, twisted_param = _parameter_check(d)
    infchar_ok, lifted_inf, target_inf = _inf_char_check(d)
    ktype_ok, src_low, mapped, tgt_low = _k_type_check(d)
    mindegree_ok, base_degree, degrees = _min_degree_check(d, bound)
    details = {
        "lifted_parameter": ParameterRestriction(twice=lifted_param).to_json(),
        "twisted_target_parameter": ParameterRestriction(twice=twisted_param).to_json(),
        "lifted_inf_char": CharMultiset(twice=lifted_inf).to_json(),
        "target_inf_char": CharMultiset(twice=target_inf).to_json(),
        "source_lowest_k_type": Weight(*map(tuple, src_low)).to_json(),
        "mapped_k_type": None if mapped is None else Weight(*map(tuple, mapped)).to_json(),
        "target_lowest_k_type": Weight(*map(tuple, tgt_low)).to_json(),
        "min_degree": {
            "lowest_k_type_degree": format_twice(base_degree),
            "cone_minimum": format_twice(min(degrees, default=base_degree)),
            "cone_size": len(degrees),
        },
    }
    return LiftReport(
        datum=d,
        parameter_ok=parameter_ok,
        infchar_ok=infchar_ok,
        ktype_ok=ktype_ok,
        mindegree_ok=mindegree_ok,
        bound=bound,
        details=details,
    )
