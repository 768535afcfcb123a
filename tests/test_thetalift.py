import hashlib
import json
import time
from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, strategies as st

from aql.arthur import (
    ChiPair,
    ParameterRestriction,
    ParityError,
    psi_lambda_q,
    theta_lift_param,
    twist_twice,
)
from aql.convergence import atlas, predecessor
from aql.halfint import CharMultiset, Weight, format_twice
from aql.parabolic import (
    LambdaCharacter,
    ThetaStableAlgebra,
    _cone,
    centred_string,
    degree_twice,
    enumerate_standard,
    inf_char_aq,
    lowest_k_type,
    recentred,
)
from aql.partitions import FramedPair, Partition, enumerate_compatible
from aql.thetalift import (
    HoweBoundError,
    LiftDatum,
    _min_degree_check,
    build_source,
    full_report,
    howe_type_map,
    select_r0,
    verify_inf_char,
    verify_k_type,
    verify_min_degree,
    verify_parameter_identity,
)

from oracles import alg, all_standard, dense_cone, k_types_bounded, shift, shifted


def tampered(d, **changes):
    """The datum rebuilt through its constructor, by keyword, with some
    fields changed."""
    fields = dict(
        target_q=d.target_q,
        target_lambda=d.target_lambda,
        r0=d.r0,
        chi=d.chi,
        source_q=d.source_q,
        source_lambda=d.source_lambda,
        det_shift=d.det_shift,
        mslk=d.mslk,
    )
    fields.update(changes)
    return LiftDatum(**fields)


def test_select_r0():
    assert select_r0(alg((1, 0), (1, 1), (0, 1))) == [2]
    assert select_r0(alg((1, 1), (1, 1))) == [1, 2]
    assert select_r0(alg((3, 2))) == [1]
    assert select_r0(ThetaStableAlgebra(())) == []


def test_build_source_worked_chain():
    # U(2,1), blocks ((1,0),(1,1)), r0 = 2, chi = (1,1)
    d = build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1))
    assert d.source_q == alg((1, 0))
    assert d.source_lambda == LambdaCharacter([3])  # lambda1 - lambda2 + 2
    assert d.det_shift == -2  # twice lambda2 - 1
    assert d.mslk == (0, 0, 1, 0)
    assert d.source_q.signature == (1, 0)
    # a ChiPair must carry the pair's (n, n') = (3, 1)
    assert build_source(alg((1, 0), (1, 1)), (1, 0), 2, ChiPair(1, 1, 3, 1)) == d
    with pytest.raises(ValueError, match=r"^chi context \(3, 2\) does not match pair \(3, 1\)$"):
        build_source(alg((1, 0), (1, 1)), (1, 0), 2, ChiPair(1, 0, 3, 2))


def test_build_source_keeps_source_blocks_split():
    # U(3,3): the two pure-x source blocks carry different character values,
    # so they must not be merged.
    d = build_source(alg((1, 0), (2, 2), (0, 1)), None, 2, None)
    assert d.source_q == alg((1, 0), (1, 0))
    assert d.source_q.signature == (2, 0)
    assert d.source_lambda == LambdaCharacter([2, -2])
    assert d.det_shift == 0


def test_build_source_single_block():
    d = build_source(alg((2, 1)), (3,), 1, None)
    assert d.source_q == ThetaStableAlgebra(())
    assert d.source_lambda == LambdaCharacter(())
    assert d.mslk == (0, 0, 0, 0)


def test_build_source_m_prime_relations():
    from aql.arthur import m_coeffs

    q = alg((1, 0), (2, 2), (0, 1))
    for r0 in (1, 2, 3):
        d = build_source(q, None, r0, None)
        ms = m_coeffs(q)
        ms_prime = m_coeffs(d.source_q)
        n_r0 = q.levi_sizes[r0 - 1]
        others = [i for i in range(q.r) if i != r0 - 1]
        for j_src, j_tgt in enumerate(others):
            expected = n_r0 if j_tgt < r0 - 1 else -n_r0
            assert ms[j_tgt] - ms_prime[j_src] == expected


def test_build_source_at_every_r0_matches_the_block_sums():
    """Every standard algebra with a+b <= 6, every r0, lambda in [-1, 1] and
    alpha1 = n mod 2 and n mod 2 + 2: (m, s, k, l) are the y- and x-sums
    before and after block r0, the det shift reads m_coeffs(q)[r0 - 1], and
    the source signature sums the reflected block list."""
    from aql.arthur import m_coeffs

    def ys(blocks):
        return sum(bi for _, bi in blocks)

    def xs(blocks):
        return sum(ai for ai, _ in blocks)

    for q in all_standard(6):
        n = q.total
        for r0 in range(1, q.r + 1):
            before, after = q.blocks[: r0 - 1], q.blocks[r0:]
            reflected = before + tuple((bi, ai) for ai, bi in after)
            n_r0 = sum(q.blocks[r0 - 1])
            m_r0 = m_coeffs(q)[r0 - 1]
            for lam in combinations_with_replacement((1, 0, -1), q.r):
                for alpha1 in (n % 2, n % 2 + 2):
                    chi = (alpha1, (n - n_r0) % 2)
                    d = build_source(q, lam, r0, chi)
                    assert d.mslk == (ys(before), ys(after), xs(before), xs(after))
                    assert d.det_shift == 2 * lam[r0 - 1] + m_r0 - chi[1]
                    assert d.source_q.signature == (xs(reflected), ys(reflected))
                    assert d.source_lambda.values == tuple(
                        lam_i - lam[r0 - 1] + ((n_r0 if i < r0 else -n_r0) - m_r0 + alpha1) // 2
                        for i, lam_i in enumerate(lam, start=1)
                        if i != r0
                    )


def test_build_source_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_source(alg((1, 1)), None, 5, None)
    with pytest.raises(ParityError):
        build_source(alg((1, 0), (1, 1)), (1, 0), 2, (0, 1))  # alpha1 must be odd


@pytest.mark.parametrize(
    "build",
    [
        lambda: ThetaStableAlgebra([(1.5, 0.9)]),
        lambda: ThetaStableAlgebra([(True, 0)]),
        lambda: LambdaCharacter([1.7, 0.2]),
        lambda: ChiPair(1.0, 1, 1, 1),
        lambda: ParameterRestriction([(0, 2.0)]),
        lambda: build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1.0, 1)),
        lambda: Partition([True, 1]),
        lambda: FramedPair(2.0, 1, Partition(), Partition()),
        # bools are ints to Python: an r0 or bound of True would reach the
        # report's JSON as true, where schema.json wants an integer
        lambda: full_report(alg((1, 0), (1, 1)), (1, 0), True, (1, 0)),
        lambda: predecessor(alg((1, 0), (1, 1)), True),
        lambda: full_report(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1), bound=True),
        lambda: verify_min_degree(build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1)), True),
        lambda: atlas(True, 1),
        lambda: atlas(False, False),
        lambda: enumerate_standard(1, True),
        lambda: enumerate_compatible(1, False),
        # det_shift holds the doubled twist 2c as an int; nothing is coerced
        lambda: tampered(build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1)), det_shift=-2.0),
        lambda: tampered(build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1)), det_shift=True),
        lambda: tampered(build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1)), det_shift="-1"),
    ],
    ids=[
        "blocks", "bool-block", "lambda", "chi-pair", "summand", "chi-tuple",
        "bool-part", "float-side", "bool-r0", "bool-predecessor-r0", "bool-bound",
        "bool-min-degree-bound", "bool-atlas-side", "bool-atlas-empty", "bool-standard-side",
        "bool-compatible-side", "float-det-shift", "bool-det-shift", "str-det-shift",
    ],
)
def test_non_int_inputs_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_verify_parameter_identity_worked_chain():
    d = build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1))
    assert verify_parameter_identity(d)
    # corrupt the source character by one: identity must fail
    bad = tampered(d, source_lambda=LambdaCharacter([4]))
    assert not verify_parameter_identity(bad)


def test_verify_inf_char_worked_chain():
    d = build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1))
    assert verify_inf_char(d)
    from aql.parabolic import inf_char_aq

    assert inf_char_aq(d.target_q, d.target_lambda) == CharMultiset([2, 0, -1])
    # a parity-consistent but wrong chi2 breaks the composition
    bad_chi = ChiPair(1, 3, 3, 1)
    bad = tampered(d, chi=bad_chi)
    assert not verify_inf_char(bad)


def test_verify_k_type_worked_chain():
    d = build_source(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1))
    assert verify_k_type(d)


def test_verify_k_type_single_block():
    d = build_source(alg((2, 2)), (3,), 1, None)
    assert verify_k_type(d)
    assert verify_parameter_identity(d)
    assert verify_inf_char(d)
    assert verify_min_degree(d, 3)


def test_howe_type_map_centered_weight():
    # all-zero tails: chi1/2-centered maps to chi2/2-centered
    chi = ChiPair(1, 1, 3, 1)
    mu = Weight((1 + 1,), ())  # chi1/2 + (a-b)/2 with (a,b)=(2,1)
    out = howe_type_map(mu, (2, 1), chi)
    # chi2/2 + (a'-b')/2 = 1/2 + 1/2 = 1 on x, 1/2 - 1/2 = 0 on y
    assert out == Weight.of([1, 1], [0])


def test_howe_type_map_worked_chain():
    chi = ChiPair(1, 1, 3, 1)
    out = howe_type_map(Weight.of([3], []), (2, 1), chi)
    assert out == Weight.of([3, 1], [0])


def test_howe_type_map_negative_tail_swap():
    # U(2,1) with r0 = 1: the source y-coordinate is a negative tail and
    # lands on the target x-factor.
    d = build_source(alg((1, 1), (1, 0)), None, 1, None)
    assert d.source_q == alg((0, 1))
    low = lowest_k_type(d.source_q, d.source_lambda)
    assert low == Weight.of([], [-1])
    out = howe_type_map(low, (2, 1), d.chi)
    assert out == Weight.of([0, -1], [1])
    assert verify_k_type(d)


def test_howe_type_map_bound_violation():
    chi = ChiPair(0, 0, 2, 2)
    # two strictly positive x-tails cannot fit a target with a = 1
    mu = Weight.of([5, 4], [0, -3])
    with pytest.raises(HoweBoundError):
        howe_type_map(mu, (1, 1), chi)


def test_howe_type_map_rejects_non_dominant():
    chi = ChiPair(0, 0, 2, 2)
    with pytest.raises(HoweBoundError):
        howe_type_map(Weight.of([0, 1], [0, 0]), (1, 1), chi)


def test_verify_min_degree_nontrivial_source():
    # target U(2,2), source ((0,1),(1,0)) has one nilradical root; adding it
    # keeps the degree constant at first, then grows.
    d = build_source(alg((1, 1), (1, 0), (0, 1)), None, 1, None)
    assert d.source_q == alg((0, 1), (1, 0))
    assert verify_min_degree(d, 5)


def oracle_min_degree(d, bound):
    """The check as it read before it walked the unordered cone: the sorted
    `k_types_bounded`, each degree summed over `recentred`."""
    def twice(w):
        rx, ry = recentred(w, d.chi.alpha1, d.target_q.signature)
        return sum(map(abs, rx)) + sum(map(abs, ry))

    base = twice(lowest_k_type(d.source_q, d.source_lambda))
    degrees = [twice(w) for w in k_types_bounded(d.source_q, d.source_lambda, bound)]
    return all(v >= base for v in degrees), base, degrees


def lift_data(max_total):
    """(q, lambda, r0, chi) for every datum of the a+b <= max_total family:
    lambda in [-2, 2], every maximal r0 and both alpha1 parities."""
    for q in all_standard(max_total, 1):
        n = q.total
        for lam in combinations_with_replacement(range(2, -3, -1), q.r):
            for r0 in select_r0(q):
                n_prime = n - q.levi_sizes[r0 - 1]
                for alpha1 in (n % 2, n % 2 + 2):
                    yield q, lam, r0, (alpha1, n_prime % 2)


def test_min_degree_check_matches_the_sorted_oracle():
    """Every datum of the a+b <= 5 family at bounds 0-3: the same verdict,
    base degree and degree multiset as the oracle, and the same
    `min_degree` report block.  About 17-20 s on 2 CPUs."""
    data = 0
    for q, lam, r0, chi in lift_data(5):
        d = build_source(q, lam, r0, chi)
        data += 1
        for bound in range(4):
            ok, base, degrees = _min_degree_check(d, bound)
            want_ok, want_base, want = oracle_min_degree(d, bound)
            assert (ok, base, sorted(degrees)) == (want_ok, want_base, sorted(want))
            assert full_report(q, lam, r0, chi, bound).to_json()["details"]["min_degree"] == {
                "lowest_k_type_degree": format_twice(want_base),
                "cone_minimum": format_twice(min(want, default=want_base)),
                "cone_size": len(want),
            }
    assert data == 15_720


def test_min_degree_check_matches_the_oracle_where_it_fails():
    """The failing branch: every datum of the a+b <= 4 family with its
    target frame moved to U(6,0) or U(0,6), which recentres the degree so
    that some cone point lies below the base.  At bounds 0-3 the verdict,
    base degree and degree multiset equal the oracle's, and 700 of the 7,600
    verdicts at bound 3 are False.  About 1.5 s on 2 CPUs."""
    verdicts = {False: 0, True: 0}
    for q, lam, r0, chi in lift_data(4):
        d = build_source(q, lam, r0, chi)
        for frame in ([(6, 0)], [(0, 6)]):
            moved = tampered(d, target_q=ThetaStableAlgebra(frame))
            for bound in range(4):
                ok, base, degrees = _min_degree_check(moved, bound)
                want_ok, want_base, want = oracle_min_degree(moved, bound)
                assert (ok, base, sorted(degrees)) == (want_ok, want_base, sorted(want))
                verdicts[ok] += bound == 3
    assert verdicts == {False: 700, True: 6900}


@pytest.mark.parametrize(
    "blocks, r0, bound",
    [(((3, 0), (0, 3), (3, 0), (0, 3), (1, 1)), 5, 5), (((200, 0), (0, 200), (1, 1)), 3, 1)],
)
def test_min_degree_check_caps_the_cone_before_walking(monkeypatch, blocks, r0, bound):
    """A cone over MAX_CONE points (the first source) or over the coordinate
    budget (the second) is refused by `verify_min_degree` with the message
    of `k_types_bounded`, before any root is listed."""
    def untouchable(q):
        raise AssertionError("delta_u_p called past the cone cap")

    monkeypatch.setattr("aql.parabolic.delta_u_p", untouchable)
    d = build_source(ThetaStableAlgebra(blocks), None, r0, None)
    with pytest.raises(ValueError) as sorted_error:
        k_types_bounded(d.source_q, d.source_lambda, bound)
    with pytest.raises(ValueError) as check_error:
        verify_min_degree(d, bound)
    assert str(check_error.value) == str(sorted_error.value)
    assert str(check_error.value).startswith(f"cone at bound {bound} over")


def test_cone_of_every_unmerged_source_matches_dense_root_sums():
    """The sparse steps of `_cone` index x- and y-coordinates on the split
    block lists that `build_source` makes too: for every source of the
    a+b <= 6 family (lambda in [-1, 1], every maximal r0) and bounds 0-3,
    the cone's points are the base plus the sum of every multiset of at
    most `bound` dense roots (`dense_cone`), and the degree
    each point carries from its step is `degree_twice` of the point, at two
    centre pairs.  About 1 s on 2 CPUs."""
    sources = set()
    for q in all_standard(6, 1):
        for lam in combinations_with_replacement(range(1, -2, -1), q.r):
            for r0 in select_r0(q):
                d = build_source(q, lam, r0)
                sources.add((d.source_q, d.source_lambda))
    split = 0
    for source_q, source_lambda in sources:
        a, b = source_q.signature
        split += not source_q.is_canonical
        base = lowest_k_type(source_q, source_lambda)
        for bound in range(4):
            dense = dense_cone(source_q, base, bound)
            for chi1_alpha, frame in ((0, (a, b)), (3, (a + 2, b + 1))):
                cone = _cone(source_q, base, bound, chi1_alpha, frame)
                assert cone.keys() == dense, (source_q, source_lambda, bound)
                assert all(
                    v == degree_twice(w, chi1_alpha, frame) for w, v in cone.items()
                ), (source_q, source_lambda, bound, chi1_alpha, frame)
    assert (len(sources), split) == (2039, 386)


def test_full_report_all_true_examples():
    rep = full_report(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1), 3)
    assert rep.all_ok
    assert rep.bound == 3
    rep2 = full_report(alg((1, 0), (2, 2), (0, 1)), None, 2, None)
    assert rep2.all_ok
    assert rep2.datum.source_q == alg((1, 0), (1, 0))


def test_full_report_negative_control():
    rep = full_report(alg((1, 0), (1, 1)), (1, 0), 2, (1, 1))
    shuffled = tampered(rep.datum, source_lambda=LambdaCharacter([4]))
    assert not verify_parameter_identity(shuffled)
    assert not verify_inf_char(shuffled)
    assert not verify_k_type(shuffled)


def test_full_report_is_deterministic():
    a = full_report(alg((1, 0), (2, 2), (0, 1)), None, 2, None)
    b = full_report(alg((1, 0), (2, 2), (0, 1)), None, 2, None)
    assert a.to_json() == b.to_json()


def every_r0_data(max_total, lambda_values):
    """(q, lambda, r0, chi) for the a+b <= max_total family at every r0, not
    only the maximal ones, both alpha1 parities and alpha2 = n' mod 2."""
    for q in all_standard(max_total, 1):
        n = q.total
        for r0 in range(1, q.r + 1):
            n_prime = n - q.levi_sizes[r0 - 1]
            for lam in combinations_with_replacement(lambda_values, q.r):
                for alpha1 in (n % 2, n % 2 + 2):
                    yield q, lam, r0, (alpha1, n_prime % 2)


def test_full_report_bytes_are_pinned():
    """The sha256 of the sorted-key `full_report` JSON lines of the 1,980 data
    of the a+b <= 4 family (every r0, lambda in [-1, 1], both alpha1
    parities, bound 2): the report's bytes do not depend on how the checks
    compute.  No check reads the paper's hypotheses: every datum passes all
    four checks, also the 1,656 whose block r0 holds at most half the n
    slots and the 1,376 outside the stable range n' <= min(a, b).  About
    0.5 s on 2 CPUs."""
    digest, count = hashlib.sha256(), Counter()
    for q, lam, r0, chi in every_r0_data(4, range(1, -2, -1)):
        report = full_report(q, lam, r0, chi, 2)
        digest.update((json.dumps(report.to_json(), sort_keys=True) + "\n").encode())
        n, n_prime = q.total, report.datum.source_q.total
        count["data"] += 1
        count["all_ok"] += report.all_ok
        count["r0 at most half"] += 2 * (n - n_prime) <= n
        count["unstable"] += n_prime > min(q.signature)
    assert count == {"data": 1980, "all_ok": 1980, "r0 at most half": 1656, "unstable": 1376}
    assert digest.hexdigest() == "5c0ceedb31e318cea1001c7dc51e76e0dff1e9969eb9fdf4fca145311ffb13e4"


def oracle_parameter(d):
    """The parameter check on `ParameterRestriction`s: the oracle of
    `verify_parameter_identity`.  The lift adds a summand of dimension
    n - n', so a datum with n' >= n is no lift; a misaligned lambda raises
    first, the source's before the target's."""
    source = psi_lambda_q(d.source_q, d.source_lambda)
    twisted = twist_twice(psi_lambda_q(d.target_q, d.target_lambda), -d.det_shift)
    n = d.target_q.total
    return source.dimension < n and theta_lift_param(source, d.chi, n) == twisted


def oracle_inf_char(d):
    """The infinitesimal-character check on `CharMultiset`s: the oracle of
    `verify_inf_char`.  The lift adds a string of n - n' entries, so a
    datum with n' >= n is no lift."""
    n_r0 = d.target_q.total - d.source_q.total
    chi_jump = d.chi.alpha2 - d.chi.alpha1
    entries = [v + chi_jump for v in inf_char_aq(d.source_q, d.source_lambda).entries]
    entries.extend(centred_string(d.chi.alpha2, n_r0))
    lifted = shifted(CharMultiset(twice=entries), d.det_shift)
    target = inf_char_aq(d.target_q, d.target_lambda)  # a misaligned target raises first
    return n_r0 > 0 and lifted == target


def oracle_k_type(d):
    """(verdict, whether the type map raised HoweBoundError): the K-type
    check on `Weight`s, the oracle of `verify_k_type`.  (m, s, k, l) are
    counts that leave a removed block (a-k-l, b-m-s) of at least one slot."""
    m, s, k, l = d.mslk
    a, b = d.target_q.signature
    low = lowest_k_type(d.source_q, d.source_lambda)
    rx, ry = recentred(low, d.chi.alpha1, d.target_q.signature)
    zones_ok = (
        all(v >= 0 for v in (m, s, k, l, a - k - l, b - m - s))
        and k + l + m + s < a + b
        and len(rx) == k + s
        and len(ry) == m + l
        and all(v >= 0 for v in rx[:k])
        and all(v <= 0 for v in rx[k:])
        and all(v >= 0 for v in ry[:m])
        and all(v <= 0 for v in ry[m:])
    )
    try:
        mapped = shift(howe_type_map(low, d.target_q.signature, d.chi), d.det_shift)
    except HoweBoundError:
        mapped = None
    target = lowest_k_type(d.target_q, d.target_lambda)
    return zones_ok and mapped == target, mapped is None


def tamperings(d):
    """Copies of d with one field changed: one source lambda entry +-1
    (where the values stay weakly decreasing), alpha1 +-2, det_shift +-1,
    mslk in every other order and with one slot moved across the k|s or
    the m|l zone boundary, target_q moved to U(6,0), to U(1,0) and
    to its mirror image, every block (a_i, b_i) read as (b_i, a_i), and the
    target replaced by the source itself (n' = n with an aligned lambda),
    once as it is and once with the det shift that cancels the chi jump."""
    values = d.source_lambda.values
    for i in range(len(values)):
        for step in (1, -1):
            moved = values[:i] + (values[i] + step,) + values[i + 1 :]
            if all(x >= y for x, y in zip(moved, moved[1:])):
                yield tampered(d, source_lambda=LambdaCharacter(moved))
    chi = d.chi
    for step in (2, -2):
        yield tampered(d, chi=ChiPair(chi.alpha1 + step, chi.alpha2, chi.n, chi.n_prime))
        yield tampered(d, det_shift=d.det_shift + step)
    m, s, k, l = d.mslk
    moved = {(m, s - 1, k + 1, l), (m, s + 1, k - 1, l), (m + 1, s, k, l - 1), (m - 1, s, k, l + 1)}
    for order in sorted(set(permutations(d.mslk)) - {d.mslk} | moved):
        yield tampered(d, mslk=order)
    yield tampered(d, target_q=ThetaStableAlgebra([(6, 0)]))
    yield tampered(d, target_q=ThetaStableAlgebra([(1, 0)]))
    yield tampered(d, target_q=ThetaStableAlgebra([(b, a) for a, b in d.target_q.blocks]))
    itself = dict(target_q=d.source_q, target_lambda=d.source_lambda)
    yield tampered(d, **itself)
    yield tampered(d, **itself, det_shift=chi.alpha1 - chi.alpha2)


def outcome(check, d):
    """The check's verdict, or the type and message of what it raised."""
    try:
        return check(d)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_checks_on_doubled_ints_match_the_value_object_oracles():
    """`verify_parameter_identity`, `verify_inf_char` and `verify_k_type`
    give the verdict of their value-object oracles, or raise what those
    raise, on the 32,800 data of the a+b <= 5 family (every
    r0, lambda in [-2, 2], both alpha1 parities) and on every tampering of
    the 1,980 data of its a+b <= 4, lambda in [-1, 1] part.  Each check
    meets both verdicts and a raised exception, the parameter and the
    infinitesimal-character checks each read False on some data with
    n' >= n that raise nothing, and the type map's HoweBoundError reads as
    False.  No tampering that changes (m, s, k, l) or has n' >= n passes
    the K-type check.  About 11 s on 2 CPUs."""
    start = time.perf_counter()
    pairs = (
        ("parameter", verify_parameter_identity, oracle_parameter),
        ("inf_char", verify_inf_char, oracle_inf_char),
        ("k_type", verify_k_type, lambda d: oracle_k_type(d)[0]),
    )
    tally, unlifted, howe_false, data = Counter(), Counter(), 0, 0

    def compare(d):
        """Each check's outcome by name, once all three match their oracles."""
        nonlocal howe_false
        outcomes = {}
        for name, check, oracle in pairs:
            got = outcomes[name] = outcome(check, d)
            assert got == outcome(oracle, d), (name, d)
            tally[name, str(got) if isinstance(got, bool) else got[0]] += 1
            unlifted[name] += d.source_q.total >= d.target_q.total and got is False
        howe = outcome(oracle_k_type, d)
        howe_false += howe == (False, True)
        return outcomes

    for q, lam, r0, chi in every_r0_data(5, range(2, -3, -1)):
        compare(build_source(q, lam, r0, chi))
        data += 1
    refused = 0
    for q, lam, r0, chi in every_r0_data(4, range(1, -2, -1)):
        original = build_source(q, lam, r0, chi)
        for d in tamperings(original):
            k_type = compare(d)["k_type"]
            data += 1
            if d.mslk != original.mslk or d.source_q.total >= d.target_q.total:
                assert k_type is not True, d
                refused += 1
    elapsed = time.perf_counter() - start
    print(f"{data} data, {elapsed:.1f}s: {sorted(tally.items())}, HoweBoundError {howe_false}, "
          f"n' >= n False {sorted(unlifted.items())}")
    for name, _, _ in pairs:
        assert tally[name, "True"] and tally[name, "False"] and tally[name, "AlignmentError"], name
    assert unlifted["parameter"] and unlifted["inf_char"] and howe_false and refused


class Untouchable:
    """An r0 that raises on any use: arithmetic, comparison, indexing,
    hashing, truth and printing."""

    def _refuse(self, *args):
        raise AssertionError("a check read r0")

    __index__ = __int__ = __bool__ = __hash__ = __eq__ = __ne__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = __neg__ = __str__ = __format__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse


def test_no_check_reads_r0():
    """r0 is a label: the removed block's size is n - n'.  The r0 = 2 data
    of (1,0);(2,2);(0,1) relabelled to r0 = 0, 1, 3, 4 or -1 still pass the
    infinitesimal-character check, and with an r0 that raises on any use
    all four checks give the r0 = 2 verdicts."""
    q = alg((1, 0), (2, 2), (0, 1))
    checks = (verify_parameter_identity, verify_inf_char, verify_k_type, verify_min_degree)
    for lam in [(0, 0, 0), (3, 1, -2), (2, 2, 0)]:
        d = build_source(q, lam, 2, None)
        verdicts = [check(d) for check in checks]
        assert verdicts[1], lam
        for r0 in (0, 1, 3, 4, -1):
            assert verify_inf_char(tampered(d, r0=r0)), (lam, r0)
        assert [check(tampered(d, r0=Untouchable())) for check in checks] == verdicts


def test_inf_char_check_refuses_a_source_as_large_as_its_target():
    """A datum whose source is its own target (n' = n) removes no block, so
    it is no lift, even with a det shift that cancels the chi jump and so
    makes the two entry lists equal: the infinitesimal-character and the
    parameter check both read False, and neither raises."""
    d = build_source(alg((1, 0), (2, 2), (0, 1)), (3, 1, -2), 2, None)
    same = tampered(
        d,
        source_q=d.target_q,
        source_lambda=d.target_lambda,
        det_shift=d.chi.alpha1 - d.chi.alpha2,
    )
    assert verify_inf_char(same) is False
    assert verify_parameter_identity(same) is False


@st.composite
def raw_lift_inputs(draw):
    """(blocks, lambda, r0, chi) for a raw block list with a+b <= 10 (split
    pure blocks allowed), any r0, alpha1 in {n mod 2, n mod 2 +- 2}, alpha2 =
    n' mod 2 and lambda in [-3, 3]."""
    blocks, left = [], 10
    while left and (not blocks or draw(st.booleans())):
        ai = draw(st.integers(0, left))
        bi = draw(st.integers(0 if ai else 1, left - ai))
        blocks.append((ai, bi))
        left -= ai + bi
    r0 = draw(st.integers(1, len(blocks)))
    lam = sorted(draw(st.lists(st.integers(-3, 3), min_size=len(blocks), max_size=len(blocks))))
    n = 10 - left
    n_prime = n - sum(blocks[r0 - 1])
    alpha1 = n % 2 + draw(st.sampled_from((0, 2, -2)))
    return blocks, lam[::-1], r0, (alpha1, n_prime % 2)


@given(raw_lift_inputs())
def test_build_source_shifts_lambda_to_an_integral_dominant_character(inputs):
    """ChiPair pins alpha1 = n (mod 2), so each side's offset in
    `build_source` is even: the source character is integral and weakly
    decreasing, and no ParityError is raised, whatever the block list and r0."""
    blocks, lam, r0, chi = inputs
    d = build_source(ThetaStableAlgebra(blocks), lam, r0, chi)
    values = d.source_lambda.values
    assert len(values) == len(blocks) - 1
    assert all(type(v) is int for v in values)
    assert all(x >= y for x, y in zip(values, values[1:]))


def test_stable_range_criterion():
    # when the non-distinguished blocks fit inside min(a,b), the source is
    # in the stable range
    for blocks, r0 in [(((1, 0), (2, 2), (0, 1)), 2), (((1, 1), (1, 1)), 1)]:
        q = alg(*blocks)
        d = build_source(q, None, r0, None)
        a, b = q.signature
        others = sum(n for i, n in enumerate(q.levi_sizes) if i != r0 - 1)
        if others <= min(a, b):
            assert sum(d.source_q.signature) <= min(a, b)


def test_build_source_inverts_exactly():
    """Given (r0, chi), the target character is recoverable from the source
    character and the det shift, so the construction is injective."""
    from aql.arthur import m_coeffs

    q = alg((1, 0), (2, 2), (0, 1))
    for lam in [(0, 0, 0), (3, 1, -2), (2, 2, 0)]:
        for r0 in (1, 2, 3):
            d = build_source(q, lam, r0, None)
            ms = m_coeffs(q)
            n_r0 = q.levi_sizes[r0 - 1]
            lam_r0 = (d.det_shift + d.chi.alpha2 - ms[r0 - 1]) // 2
            recovered = []
            others = [i for i in range(1, q.r + 1) if i != r0]
            for value, i in zip(d.source_lambda.values, others):
                offset = (n_r0 if i < r0 else -n_r0) - ms[r0 - 1] + d.chi.alpha1
                recovered.append(value + lam_r0 - offset // 2)
            recovered.insert(r0 - 1, lam_r0)
            assert tuple(recovered) == lam


def test_corollary_gate_integral_lambda():
    # max block size >= max(a,b) forces the stable range; lambda' integral
    for q in [alg((1, 0), (2, 2), (0, 1)), alg((2, 3)), alg((1, 1), (2, 1))]:
        a, b = q.signature
        if max(q.levi_sizes) >= max(a, b):
            r0 = select_r0(q)[0]
            d = build_source(q, None, r0, None)
            assert sum(d.source_q.signature) <= min(a, b)
            assert all(isinstance(v, int) for v in d.source_lambda.values)
