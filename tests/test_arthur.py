import pytest

from aql.arthur import (
    ChiPair,
    ParameterRestriction,
    ParityError,
    inf_char_param,
    m_coeffs,
    parity_check,
    psi_lambda_q,
    theta_lift_param,
    twist,
    twist_twice,
)
from aql.halfint import CharMultiset, format_twice
from aql.parabolic import inf_char_aq

from oracles import alg, all_standard, shifted


def psi(*summands):
    return ParameterRestriction(summands)


def test_parameter_multiset_semantics():
    p = psi(("1/2", 2), ("7/2", 1), ("1/2", 2))
    assert p.dimension == 5
    assert p == psi(("7/2", 1), ("1/2", 2), ("1/2", 2))
    assert p != psi(("7/2", 1), ("1/2", 2))
    assert [s for s in p.to_json()["summands"]] == [
        {"k": "7/2", "n": 1},
        {"k": "1/2", "n": 2},
        {"k": "1/2", "n": 2},
    ]
    with pytest.raises(ValueError):
        psi(("1/2", 0))


def test_parameter_json_round_trip():
    p = psi(("7/2", 1), (1, 2), ("-3/2", 1))
    assert ParameterRestriction.from_json(p.to_json()) == p


def test_inf_char_param_examples():
    assert inf_char_param(psi(("1/2", 2))) == CharMultiset([1, 0])
    assert inf_char_param(psi((0, 1))) == CharMultiset([0])
    assert inf_char_param(
        psi(("7/2", 1), (1, 2), ("-3/2", 1))
    ) == CharMultiset(["7/2", "3/2", "1/2", "-3/2"])


def test_m_coeffs_examples():
    assert m_coeffs(alg((1, 0), (1, 1))) == (2, -1)
    assert m_coeffs(alg((1, 0), (1, 1), (0, 1))) == (3, 0, -3)
    assert m_coeffs(alg((2, 2))) == (0,)


def test_parity_check_examples():
    q = alg((1, 0), (0, 1))
    assert parity_check(["1/2", "1/2"], q)
    assert not parity_check([1, 0], q)
    with pytest.raises(ValueError):
        parity_check([1], q)


def test_parity_of_half_m_coeffs():
    for q in all_standard(6, 1):
        ks = [format_twice(m) for m in m_coeffs(q)]
        assert parity_check(ks, q)


def test_psi_lambda_q_examples():
    assert psi_lambda_q(alg((1, 0), (1, 1), (0, 1)), (2, 1, 0)) == psi(
        ("7/2", 1), (1, 2), ("-3/2", 1)
    )
    # single block: parameter of a det power
    assert psi_lambda_q(alg((2, 1)), (5,)) == psi((5, 3))
    assert psi_lambda_q(alg((1, 0), (1, 1)), (4, 2)) == psi((5, 1), ("3/2", 2))


def test_twist_examples():
    p = psi(("1/2", 2), (0, 1))
    assert twist(p, 0) == p
    assert twist(psi(("1/2", 2)), "-1/2") == psi((0, 2))
    assert inf_char_param(twist(p, 3)) == shifted(inf_char_param(p), 6)


def test_chi_pair_parities():
    ChiPair(1, 0, 3, 2)
    with pytest.raises(ParityError):
        ChiPair(0, 0, 3, 2)
    with pytest.raises(ParityError):
        ChiPair(1, 1, 3, 2)
    assert ChiPair.default(4, 1) == ChiPair(0, 1, 4, 1)


def test_theta_lift_param_examples():
    chi = ChiPair(1, 1, 3, 1)
    lifted = theta_lift_param(psi((0, 1)), chi, 3)
    assert lifted == psi((0, 1), ("1/2", 2))
    # empty source: a single sigma summand
    chi2 = ChiPair.default(4, 0)
    assert theta_lift_param(psi(), chi2, 4) == psi((0, 4))
    with pytest.raises(ValueError, match="^target must be strictly larger$"):
        theta_lift_param(psi((0, 1), (1, 2)), ChiPair.default(3, 3), 3)


def test_theta_lift_preserves_shifted_summands():
    chi = ChiPair(1, 0, 5, 2)
    base = psi(("3/2", 1), ("-1/2", 1))
    lifted = theta_lift_param(base, chi, 5)
    kept = ParameterRestriction(twice=[(k, n) for k, n in lifted.summands if n != 3])
    assert twist_twice(kept, chi.alpha1 - chi.alpha2) == base
    assert lifted.dimension == 5


def test_inf_char_consistency_lemma_small():
    """Parameter route and block route give the same infinitesimal character."""
    for q in all_standard(4, 1):
        for top in (0, 2):
            lam = tuple(range(top + q.r - 1, top - 1, -1))
            assert inf_char_param(psi_lambda_q(q, lam)) == inf_char_aq(q, lam)
