"""Arthur-parameter restrictions as formal sums mu^k (x) sigma_n.

Only the restriction to the connected part of the Weil group times
SL(2,C) is modeled: a multiset of summands (k, n) with k a half-integer
exponent and n the dimension of the irreducible SL(2) factor.  The
extension over the disconnected part is represented solely by the parity
condition on the exponents, which is exactly the computable content of
well-definedness.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .halfint import CharMultiset, Frozen, HalfIntLike, exact_int, format_twice, twice_of
from .parabolic import ThetaStableAlgebra, _as_lambda, _inf_char_twice, _summands, m_coeffs


class ParityError(ValueError):
    """A character or exponent violates its parity constraint."""


class ParameterRestriction(Frozen):
    """A formal sum of summands mu^k (x) sigma_n, with multiset semantics.

    Summands (k, n) hold the exponent doubled, as 2k, and are kept in
    canonical order: decreasing exponent, then decreasing dimension.  They
    come with half-integer exponents through `summands` or with doubled
    ones through `twice`.
    """

    def __init__(self, summands: Iterable[Tuple[HalfIntLike, int]] = (), *, twice=()):
        items = [*((twice_of(k), n) for k, n in summands), *twice]
        for _, n in items:
            if exact_int(n) <= 0:
                raise ValueError(f"summand dimension must be positive, got {n}")
        items.sort(reverse=True)
        object.__setattr__(self, "summands", tuple(items))

    @property
    def dimension(self) -> int:
        return sum(n for _, n in self.summands)

    def to_json(self) -> dict:
        return {"summands": [{"k": format_twice(k), "n": n} for k, n in self.summands]}

    @classmethod
    def from_json(cls, doc: dict) -> "ParameterRestriction":
        return cls((s["k"], s["n"]) for s in doc["summands"])


class ChiPair(Frozen):
    """The pair of splitting characters, recorded by their circle exponents.

    For a dual pair with source rank n' and target rank n, the first
    character restricts to sign^n on the reals and the second to sign^n',
    so alpha1 = n (mod 2) and alpha2 = n' (mod 2).
    """

    def __init__(self, alpha1: int, alpha2: int, n: int, n_prime: int):
        alpha1, alpha2, n, n_prime = map(exact_int, (alpha1, alpha2, n, n_prime))
        if (alpha1 - n) % 2 != 0:
            raise ParityError(f"alpha(chi1)={alpha1} must have the parity of n={n}")
        if (alpha2 - n_prime) % 2 != 0:
            raise ParityError(f"alpha(chi2)={alpha2} must have the parity of n'={n_prime}")
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "n_prime", n_prime)

    @classmethod
    def default(cls, n: int, n_prime: int) -> "ChiPair":
        """Smallest non-negative exponents of the correct parity."""
        return cls(n % 2, n_prime % 2, n, n_prime)

    def to_json(self) -> dict:
        return {"alpha1": self.alpha1, "alpha2": self.alpha2}


def inf_char_param(psi: ParameterRestriction) -> CharMultiset:
    """Infinitesimal character of a parameter: each summand (k, n)
    contributes the n-term string k + (n-1)/2, ..., k - (n-1)/2."""
    return CharMultiset(twice=_inf_char_twice(psi.summands))


def parity_check(ks: Sequence[HalfIntLike], q: ThetaStableAlgebra) -> bool:
    """Whether per-block exponents extend over the full Weil group:
    2*k_i must have the parity of n - n_i for every block."""
    ks = [twice_of(k) for k in ks]
    if len(ks) != q.r:
        raise ValueError(f"{len(ks)} exponents for {q.r} blocks")
    n = q.total
    return all((k - (n - n_i)) % 2 == 0 for k, n_i in zip(ks, q.levi_sizes))


def psi_lambda_q(q: ThetaStableAlgebra, lam=None) -> ParameterRestriction:
    """The parameter attached to (q, lambda): block i contributes
    mu^(lambda_i + m_i/2) (x) sigma_{n_i}."""
    return ParameterRestriction(twice=_summands(q.blocks, _as_lambda(q, lam).values))


def twist_twice(psi: ParameterRestriction, c: int) -> ParameterRestriction:
    """Tensor with mu^(c/2): add c to every doubled exponent."""
    return ParameterRestriction(twice=_twisted(psi.summands, c))


def _twisted(summands: Iterable[Tuple[int, int]], c: int) -> List[Tuple[int, int]]:
    """The doubled summands of `twist_twice`, in the given order."""
    return [(k + c, n) for k, n in summands]


def twist(psi: ParameterRestriction, c: HalfIntLike) -> ParameterRestriction:
    """Tensor with mu^c: add c to every exponent."""
    return twist_twice(psi, twice_of(c))


def theta_lift_param(
    psi_prime: ParameterRestriction, chi: ChiPair, n: int
) -> ParameterRestriction:
    """Lift a rank-n' parameter to rank n: twist the old summands by
    (alpha2 - alpha1)/2 and adjoin mu^(alpha2/2) (x) sigma_{n-n'}."""
    if psi_prime.dimension >= n:
        raise ValueError("target must be strictly larger")
    return ParameterRestriction(twice=_lifted(psi_prime.summands, chi.alpha1, chi.alpha2, n))


def _lifted(
    summands: Sequence[Tuple[int, int]], alpha1: int, alpha2: int, n: int
) -> List[Tuple[int, int]]:
    """The doubled summands of `theta_lift_param`, unsorted; for n' >= n the
    adjoined summand has dimension n - n' <= 0, which no check accepts."""
    out = _twisted(summands, alpha2 - alpha1)
    out.append((alpha2, n - sum([n_i for _, n_i in summands])))
    return out
