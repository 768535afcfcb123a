"""Acceptance suite.

Each test covers one numbered criterion, prints one PASS/FAIL line
(visible with ``pytest -s``), and asserts exactness at the stated scale.
The expensive lift-identity family (criteria 2-6) is computed once and
shared.
"""

import os
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from aql.arthur import inf_char_param, psi_lambda_q
from aql.convergence import is_convergent, validate_certificate
from aql.halfint import CharMultiset
from aql.parabolic import (
    LambdaCharacter,
    ThetaStableAlgebra,
    algebra_from_pair,
    cohomological_degree,
    delta_u_p,
    enumerate_packet,
    inf_char_aq,
    partitions_from_blocks,
    two_rho_up,
)
from aql.partitions import enumerate_compatible
from aql.thetalift import (
    build_source,
    select_r0,
    verify_inf_char,
    verify_k_type,
    verify_min_degree,
    verify_parameter_identity,
)

from oracles import all_standard, dense_root_sum

GOLDEN = Path(__file__).parent / "golden"
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
MAX_TOTAL = 6
LAMBDA_RANGE = range(3, -4, -1)  # every weakly decreasing tuple in [-3, 3]


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def lift_family():
    """Run every lift check over the exhaustive a+b <= 6 family once, with
    the in-process seconds of the parameter, infinitesimal-character and
    K-type checks."""
    stats = {
        "instances": 0,
        "lemma_pairs": 0,
        "param_fails": 0,
        "lemma_fails": 0,
        "infchar_fails": 0,
        "ktype_fails": 0,
        "mindeg_instances": 0,
        "mindeg_fails": 0,
        "core_elapsed": 0.0,
        "mindeg_elapsed": 0.0,
        "param_elapsed": 0.0,
        "infchar_elapsed": 0.0,
        "ktype_elapsed": 0.0,
    }
    lam_choices = {}
    t_start = time.perf_counter()
    mindeg_total = 0.0
    for q in all_standard(MAX_TOTAL, 1):
        r = q.r
        lams = lam_choices.get(r)
        if lams is None:
            lams = [tuple(c) for c in combinations_with_replacement(LAMBDA_RANGE, r)]
            lam_choices[r] = lams
        n = q.total
        sizes = q.levi_sizes
        r0s = select_r0(q)
        for lam in lams:
            stats["lemma_pairs"] += 1
            if inf_char_param(psi_lambda_q(q, lam)) != inf_char_aq(q, lam):
                stats["lemma_fails"] += 1
            for r0 in r0s:
                n_prime = n - sizes[r0 - 1]
                for alpha1 in (n % 2, n % 2 + 2):
                    datum = build_source(q, lam, r0, (alpha1, n_prime % 2))
                    stats["instances"] += 1
                    t0 = time.perf_counter()
                    param_ok = verify_parameter_identity(datum)
                    t1 = time.perf_counter()
                    infchar_ok = verify_inf_char(datum)
                    t2 = time.perf_counter()
                    ktype_ok = verify_k_type(datum)
                    t3 = time.perf_counter()
                    stats["param_elapsed"] += t1 - t0
                    stats["infchar_elapsed"] += t2 - t1
                    stats["ktype_elapsed"] += t3 - t2
                    stats["param_fails"] += not param_ok
                    stats["infchar_fails"] += not infchar_ok
                    stats["ktype_fails"] += not ktype_ok
                    if n_prime <= 4:
                        stats["mindeg_instances"] += 1
                        t0 = time.perf_counter()
                        if not verify_min_degree(datum, 3):
                            stats["mindeg_fails"] += 1
                        mindeg_total += time.perf_counter() - t0
    stats["mindeg_elapsed"] = mindeg_total
    stats["core_elapsed"] = time.perf_counter() - t_start - mindeg_total
    return stats


def test_criterion_1_classification_oracle():
    t0 = time.perf_counter()

    def strip(t):
        t = list(t)
        while t and t[-1] == 0:
            t.pop()
        return tuple(t)

    counts = {}
    for a in range(5):
        for b in range(5):
            oracle = set()
            vals = tuple(range(a + b)) or (0,)
            for x in combinations_with_replacement(sorted(vals, reverse=True), a):
                for y in combinations_with_replacement(sorted(vals, reverse=True), b):
                    al = strip(tuple(sum(1 for yy in y if yy < xi) for xi in x))
                    be = strip(tuple(sum(1 for yy in y if yy <= xi) for xi in x))
                    oracle.add((al, be))
            compatible = {
                (p.alpha.rows, p.beta.rows) for p in enumerate_compatible(a, b)
            }
            round_trip = {
                (p.alpha.rows, p.beta.rows)
                for p in enumerate_compatible(a, b)
                if partitions_from_blocks(algebra_from_pair(p)) == p
            }
            assert oracle == compatible == round_trip, (a, b)
            counts[(a, b)] = len(compatible)
    elapsed = time.perf_counter() - t0
    ok = counts[(1, 1)] == 3 and counts[(2, 2)] == 18 and elapsed < 10
    report(
        1,
        "classification oracle",
        ok,
        f"frames a,b<=4 agree; (1,1)={counts[(1, 1)]}, (2,2)={counts[(2, 2)]}, {elapsed:.1f}s",
    )


def test_criterion_2_parameter_identity(lift_family):
    s = lift_family
    ok = s["param_fails"] == 0 and s["core_elapsed"] < 60
    report(
        2,
        "theta-lift parameter identity",
        ok,
        f"{s['instances']} instances, {s['param_fails']} failures, {s['core_elapsed']:.1f}s; "
        f"parameter check {s['param_elapsed']:.1f}s",
    )


def test_criterion_3_inf_char_cross_check(lift_family):
    s = lift_family
    report(
        3,
        "parameter/block infinitesimal character",
        s["lemma_fails"] == 0,
        f"{s['lemma_pairs']} (q, lambda) pairs, {s['lemma_fails']} failures",
    )


def test_criterion_4_inf_char_composition(lift_family):
    s = lift_family
    report(
        4,
        "lift composition of infinitesimal characters",
        s["infchar_fails"] == 0,
        f"{s['instances']} instances, {s['infchar_fails']} failures, "
        f"{s['infchar_elapsed']:.1f}s",
    )


def test_criterion_5_k_type_lemma(lift_family):
    s = lift_family
    report(
        5,
        "lowest K-type decomposition and type map",
        s["ktype_fails"] == 0,
        f"{s['instances']} instances, {s['ktype_fails']} failures, {s['ktype_elapsed']:.1f}s",
    )


def test_criterion_6_minimal_degree(lift_family):
    s = lift_family
    ok = s["mindeg_fails"] == 0 and s["mindeg_elapsed"] < 120
    report(
        6,
        "bounded minimal-degree search",
        ok,
        f"{s['mindeg_instances']} instances with source rank <= 4, "
        f"{s['mindeg_fails']} failures, {s['mindeg_elapsed']:.1f}s",
    )


def test_criterion_7_structural_identities():
    checked = 0
    for q in all_standard(MAX_TOTAL, 1):
        a, b = q.signature
        pair = partitions_from_blocks(q)
        cells = delta_u_p(q)
        R, R_plus, R_minus = cohomological_degree(q)
        assert R == len(cells)
        assert R == pair.alpha.size() + a * b - pair.beta.size()
        assert dense_root_sum(q) == two_rho_up(q)
        checked += 1
    report(7, "structural identities", True, f"{checked} algebras, exact")


def test_criterion_8_packets():
    rho = {
        n: CharMultiset(twice=(n + 1 - 2 * t for t in range(1, n + 1)))
        for n in range(1, MAX_TOTAL + 1)
    }
    checked = 0
    for q in all_standard(5, 1):
        for lam in (LambdaCharacter.zero(q), LambdaCharacter(range(q.r, 0, -1))):
            packet = enumerate_packet(q, lam)
            assert (q, lam) in packet
            chars = {inf_char_aq(m, l) for m, l in packet}
            assert chars == {inf_char_aq(q, lam)}
            checked += len(packet)
        for member, l in enumerate_packet(q):
            assert inf_char_aq(member, l) == rho[q.total]
    u11 = enumerate_packet(ThetaStableAlgebra([(1, 0), (0, 1)]))
    assert len(u11) == 2
    report(8, "packets", True, f"{checked} members checked; U(1,1) packet size 2")


def test_criterion_9_convergence():
    q33 = ThetaStableAlgebra([(1, 0), (2, 2), (0, 1)])
    ok33, cert33 = is_convergent(q33)
    assert ok33 and cert33.signature_chain() == [(2, 0), (3, 3)]
    assert validate_certificate(cert33, q33) == []

    compact_checked = 0
    replayed = 0
    for q in all_standard(MAX_TOTAL, 1):
        if q.has_compact_levi:
            ok, cert = is_convergent(q)
            assert ok and cert.length == 0
            compact_checked += 1
        for lax in (False, True):
            ok, cert = is_convergent(q, lax)
            if ok:
                assert validate_certificate(cert, q) == []
                replayed += 1

    ok22, cert22 = is_convergent(ThetaStableAlgebra([(1, 1), (1, 1)]))
    assert not ok22 and cert22 is None
    report(
        9,
        "convergence certificates",
        True,
        f"U(3,3) chain (2,0)->(3,3); {compact_checked} compact bases; "
        f"{replayed} certificates replayed; U(2,2) square not convergent",
    )


def test_criterion_10_cli_golden():
    cases = [
        (
            ["aq", "--blocks", "1,0;1,1;0,1", "--lambda", "2,1,0"],
            GOLDEN / "aq_u22.json",
            0,
        ),
        (
            ["lift", "verify", "--blocks", "1,0;1,1", "--lambda", "1,0",
             "--r0", "2", "--chi", "1,1"],
            GOLDEN / "lift_verify_u21.txt",
            0,
        ),
        (
            ["partitions", "enumerate", "--a", "2", "--b", "2", "--count"],
            GOLDEN / "enumerate_22_count.txt",
            0,
        ),
    ]
    for argv, golden, expected_code in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "aql.cli", *argv],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == expected_code, argv
        assert proc.stdout == golden.read_text(), argv

    failing = subprocess.run(
        [sys.executable, "-m", "aql.cli", "convergence", "check", "--blocks", "1,1;1,1"],
        capture_output=True,
        env=SRC_ENV,
    )
    assert failing.returncode == 1
    invalid = subprocess.run(
        [sys.executable, "-m", "aql.cli", "aq", "--blocks", "oops"],
        capture_output=True,
        env=SRC_ENV,
    )
    assert invalid.returncode == 2
    report(10, "CLI golden files", True, "3 byte-identical outputs; exit codes 0/1/2")
