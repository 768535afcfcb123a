import gc
import tracemalloc
from functools import lru_cache

import pytest

from aql.convergence import (
    AtlasRow,
    ChainStep,
    ConvergenceCertificate,
    _lift_tables,
    atlas,
    enumerate_convergent,
    is_convergent,
    predecessor,
    validate_certificate,
)
from aql.parabolic import (
    ThetaStableAlgebra,
    _standard,
    cohomological_degree,
    enumerate_packet,
    enumerate_standard,
    packet_size,
    partitions_from_blocks,
)
from aql.partitions import FrameError
from aql.thetalift import build_source

from oracles import alg, all_standard


@lru_cache(maxsize=None)
def _oracle_search(blocks, is_last, lax):
    """Slow oracle: depth-first over every r0 in ascending order, memoised
    on canonical block lists; the stable range is waived in lax mode on the
    final step and on the step out of the base."""
    q = ThetaStableAlgebra(blocks)
    if q.has_compact_levi:
        return (ChainStep(q, None),)
    for r0 in range(1, q.r + 1):
        pred = predecessor(q, r0)
        if not sum(q.signature) > 2 * sum(pred.signature):
            continue
        waived = lax and (is_last or pred.has_compact_levi)
        if not waived and not sum(pred.signature) <= min(q.signature):
            continue
        sub = _oracle_search(pred.blocks, False, lax)
        if sub is None:
            continue
        return sub + (ChainStep(q, r0),)
    return None


def oracle_is_convergent(q, lax=False):
    chain = _oracle_search(q.canonicalize().blocks, True, lax)
    if chain is None:
        return False, None
    return True, ConvergenceCertificate(steps=chain, lax=lax)


def assert_matches_oracle(q):
    for lax in (False, True):
        ok, cert = is_convergent(q, lax)
        want_ok, want_cert = oracle_is_convergent(q, lax)
        assert (ok, cert and cert.to_json()) == (want_ok, want_cert and want_cert.to_json()), (q, lax)


def test_matches_oracle_on_standard_algebras():
    for q in all_standard(9):
        assert_matches_oracle(q)


def test_matches_oracle_on_raw_packet_members():
    raw = 0
    for q in all_standard(6):
        for member, _ in enumerate_packet(q):
            raw += not member.is_canonical
            assert_matches_oracle(member)
    assert raw > 100


@pytest.mark.parametrize("blocks", ["0,6;1,2;0,2", "0,2;1,2;0,6", "0,2;1,2;1,5"])
def test_lax_waives_the_step_out_of_the_base(blocks):
    """The smallest frames (a+b = 11) where a lax chain needs the waiver on
    the step out of a compact base that is not the final step."""
    q = ThetaStableAlgebra.parse(blocks)
    assert_matches_oracle(q)
    assert is_convergent(q) == (False, None)
    ok, cert = is_convergent(q, lax=True)
    assert ok and cert.length == 2 and cert.steps[0].blocks == alg((0, 2))
    assert validate_certificate(cert, q) == []


def test_canonicalize_returns_self_only_when_already_canonical():
    q = alg((1, 0), (2, 2), (0, 1))
    assert q.canonicalize() is q
    raw = alg((1, 0), (2, 0), (1, 1), (0, 1), (0, 2))
    merged = raw.canonicalize()
    assert merged is not raw
    assert merged == alg((3, 0), (1, 1), (0, 3))
    assert merged.canonicalize() is merged


def test_predecessor_examples():
    assert predecessor(alg((1, 0), (2, 2), (0, 1)), 2) == alg((2, 0))
    assert predecessor(alg((3, 2)), 1) == ThetaStableAlgebra(())
    assert predecessor(alg((1, 0), (1, 1)), 2) == alg((1, 0))
    with pytest.raises(ValueError):
        predecessor(alg((1, 1)), 2)


def test_predecessor_matches_build_source():
    for q in all_standard(5, 1):
        for r0 in range(1, q.r + 1):
            d = build_source(q, None, r0, None)
            assert d.source_q.canonicalize() == predecessor(q, r0)


def test_compact_levi_is_convergent_with_empty_chain():
    for q in [alg((3, 0)), alg((0, 2)), alg((2, 0), (0, 3)), ThetaStableAlgebra(())]:
        ok, cert = is_convergent(q)
        assert ok
        assert cert.length == 0
        assert cert.steps[0].blocks == q.canonicalize()
        assert validate_certificate(cert, q) == []


def test_u33_example_is_convergent():
    q = alg((1, 0), (2, 2), (0, 1))
    ok, cert = is_convergent(q)
    assert ok
    assert cert.signature_chain() == [(2, 0), (3, 3)]
    assert cert.steps[1].r0 == 2
    assert cert.steps[0].blocks == alg((2, 0))
    assert validate_certificate(cert, q) == []


def test_u22_square_is_not_convergent():
    ok, cert = is_convergent(alg((1, 1), (1, 1)))
    assert not ok and cert is None


def test_trivial_representation_chain_from_empty_base():
    ok, cert = is_convergent(alg((1, 1)))
    assert ok
    assert cert.signature_chain() == [(0, 0), (1, 1)]
    assert validate_certificate(cert, alg((1, 1))) == []


def test_certificates_replay_everywhere():
    for q in all_standard(6):
        for lax in (False, True):
            ok, cert = is_convergent(q, lax)
            if ok:
                assert validate_certificate(cert, q) == []


def test_lax_is_weaker_than_strict():
    for q in all_standard(6):
        strict_ok, _ = is_convergent(q)
        lax_ok, _ = is_convergent(q, lax=True)
        if strict_ok:
            assert lax_ok


def test_validate_rejects_tampered_certificate():
    """One tampering per rule of `validate_certificate`, each reported
    alone and by its exact message, except the stable range, which fails
    at both steps of the lax chain of 0,6;1,2;0,2 replayed strictly.  An
    r0 that is no block index of its step (out of range, a bool, a string)
    is reported, not raised."""
    q = alg((1, 0), (2, 2), (0, 1))
    _, cert = is_convergent(q)
    base, top = cert.steps
    assert (base.blocks, top.r0) == (alg((2, 0)), 2)
    # block 1 holds exactly half the slots; the predecessor 0,1;1,0 is compact
    halved = alg((1, 1), (1, 0), (0, 1))
    halved_base = ChainStep(alg((0, 1), (1, 0)), None)
    lax_q = ThetaStableAlgebra.parse("0,6;1,2;0,2")
    _, lax_cert = is_convergent(lax_q, lax=True)
    cases = [
        ((), q, ["certificate has no steps"]),
        (cert.steps, alg((1, 1)), ["chain does not end at the input algebra"]),
        ((ChainStep(alg((1, 1)), None),), alg((1, 1)), ["base Levi is not compact"]),
        ((ChainStep(base.blocks, 1), top), q, ["base step must not carry an r0"]),
        ((base, ChainStep(q, None)), q, ["step 1: missing r0"]),
        ((base, ChainStep(q, 1)), q, ["step 1: predecessor does not replay"]),
        *(((base, ChainStep(q, r0)), q, [f"step 1: r0 {r0!r} out of range 1..3"])
          for r0 in (7, 0, True, "2")),
        ((halved_base, ChainStep(halved, 1)), halved, ["step 1: growth condition fails"]),
        (lax_cert.steps, lax_q, ["step 1: stable range fails", "step 2: stable range fails"]),
    ]
    for steps, target, problems in cases:
        assert validate_certificate(ConvergenceCertificate(steps, lax=False), target) == problems
    assert validate_certificate(lax_cert, lax_q) == []


def test_chain_length_is_logarithmic():
    """Backward sizes strictly more than halve, so chains stay short."""
    import math

    for q in all_standard(6, 1):
        ok, cert = is_convergent(q)
        if ok and cert.length:
            assert cert.length <= math.log2(q.total) + 1
            sizes = [sum(sig) for sig in cert.signature_chain()]
            for lower, upper in zip(sizes, sizes[1:]):
                assert upper > 2 * lower


def test_li_family_one_step_chains():
    """A single mixed block surrounded by pure blocks, with more than half
    the total size and the rest inside min(a,b), lifts from a compact base
    in one step."""
    found = 0
    for q in all_standard(6, 2):
        mixed = [i for i, (ai, bi) in enumerate(q.blocks) if ai and bi]
        if len(mixed) != 1:
            continue
        i = mixed[0]
        x, y = q.blocks[i]
        others = q.total - (x + y)
        if 2 * (x + y) <= q.total or others > min(q.signature):
            continue
        found += 1
        ok, cert = is_convergent(q)
        assert ok, q
        pred = predecessor(q, i + 1)
        assert pred.has_compact_levi
        assert sum(pred.signature) * 2 < q.total
    assert found > 10


@pytest.mark.parametrize("lax", [False, True], ids=["strict", "lax"])
def test_enumerate_convergent_matches_the_filtered_standard(lax):
    """The forward generation yields, once each, exactly the algebras of
    `_standard` that `is_convergent` accepts, with the same certificate,
    for every frame with a+b <= 12 (262,031 algebras filtered); the forward
    table holds exactly the noncompact ones, each with its certificate's
    signature chain."""
    filtered = 0
    for n in range(13):
        for a in range(n + 1):
            got = [(q.blocks, cert.to_json()) for q, cert in enumerate_convergent(a, n - a, lax)]
            want = []
            chains = {}
            for q, _, _ in _standard(a, n - a):
                filtered += n > 0
                ok, cert = is_convergent(q, lax)
                if ok:
                    want.append((q.blocks, cert.to_json()))
                    if not q.has_compact_levi:
                        chains[q.blocks] = tuple(cert.signature_chain())
            assert len(got) == len(dict(got)), (a, n - a)
            assert dict(got) == dict(want), (a, n - a)
            assert _lift_tables(a, n - a, lax) == chains, (a, n - a)
    assert filtered == 262_031


@pytest.mark.parametrize("lax", [False, True], ids=["strict", "lax"])
def test_enumerate_convergent_certificates_replay(lax):
    for n in range(11):
        for a in range(n + 1):
            for q, cert in enumerate_convergent(a, n - a, lax):
                assert q.signature == (a, n - a) and q.is_canonical
                assert cert.lax == lax and cert.steps[-1].blocks == q
                assert validate_certificate(cert, q) == [], q


def test_enumerate_convergent_order_is_reproducible():
    """Compact bases first, then the lifted algebras in construction
    order, the same on every call."""
    for a, b, lax in ((6, 5, False), (6, 5, True), (8, 8, True)):
        first = [(q, cert) for q, cert in enumerate_convergent(a, b, lax)]
        assert first == list(enumerate_convergent(a, b, lax))
        compact = [q.has_compact_levi for q, _ in first]
        assert compact == sorted(compact, reverse=True)
    assert [q.blocks for q, _ in enumerate_convergent(1, 1)] == [
        ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1),),
    ]


def test_enumerate_convergent_runs_past_max_frame():
    """Counts past MAX_FRAME, compact bases (C(a+b, a) of them) included."""
    assert sum(1 for _ in enumerate_convergent(8, 8)) == 15_699
    assert sum(1 for _ in enumerate_convergent(8, 8, lax=True)) == 15_971
    assert sum(1 for _ in enumerate_convergent(10, 10)) == 198_329
    assert [q.blocks for q, _ in enumerate_convergent(0, 0)] == [()]
    for a, b in ((-1, 2), (2, -1)):
        with pytest.raises(FrameError, match="non-negative"):
            enumerate_convergent(a, b)


NOT_BOOLS = [0, 1, "no", None, 1.0]


@pytest.mark.parametrize("lax", NOT_BOOLS)
def test_is_convergent_rejects_a_lax_that_is_not_a_bool(lax):
    for q in (alg((1, 0), (0, 1)), alg((1, 1), (1, 0))):
        with pytest.raises(TypeError, match="lax must be a bool"):
            is_convergent(q, lax)


def untouchable(*args):
    raise AssertionError("work started before the lax check")


@pytest.mark.parametrize("lax", NOT_BOOLS)
def test_enumerate_convergent_rejects_a_lax_that_is_not_a_bool(monkeypatch, lax):
    monkeypatch.setattr("aql.convergence._lift_tables", untouchable)
    for a, b in ((0, 0), (1, 1), (-1, 2)):
        with pytest.raises(TypeError, match="lax must be a bool"):
            enumerate_convergent(a, b, lax)


@pytest.mark.parametrize("lax", NOT_BOOLS)
def test_atlas_rejects_a_lax_that_is_not_a_bool(monkeypatch, lax):
    monkeypatch.setattr("aql.convergence._standard", untouchable)
    for a, b in ((0, 0), (1, 1)):
        with pytest.raises(TypeError, match="lax must be a bool"):
            atlas(a, b, lax)


def test_atlas_examples():
    rows = atlas(1, 1)
    assert len(rows) == 3
    by_blocks = {r.blocks.blocks: r for r in rows}
    assert by_blocks[((0, 1), (1, 0))].convergent
    assert by_blocks[((1, 0), (0, 1))].convergent
    assert by_blocks[((0, 1), (1, 0))].chain == ((1, 1),)
    trivial = by_blocks[((1, 1),)]
    assert trivial.convergent and trivial.chain == ((0, 0), (1, 1))
    assert trivial.packet_size == 1
    assert by_blocks[((1, 0), (0, 1))].packet_size == 2

    assert atlas(0, 0) == []
    assert len(atlas(2, 2)) == 18


def test_atlas_row_invariants():
    for row in atlas(2, 2):
        assert row.R == row.R_plus + row.R_minus
        if row.convergent:
            assert row.chain[-1] == (2, 2)


def test_atlas_tsv_shape():
    from aql.convergence import ATLAS_TSV_HEADER

    rows = atlas(2, 1)
    header_cols = ATLAS_TSV_HEADER.split("\t")
    assert header_cols == [
        "alpha", "beta", "blocks", "R", "R+", "R-",
        "packet_size", "convergent", "chain",
    ]
    for row in rows:
        assert len(row.to_tsv().split("\t")) == len(header_cols)


def test_atlas_tsv_formats_a_chain_outside_the_text_table():
    """Chain sides above MAX_FRAME or below 0, which only a hand-built row
    can hold, are formatted instead of read from the table."""
    q = alg((20, 0))
    row = AtlasRow((), (), q, 0, 0, 0, 1, True, ((20, 0),))
    assert row.to_tsv() == "\t\t20,0\t0\t0\t0\t1\ttrue\t20,0"
    assert row.to_tsv() == oracle_tsv(row)
    row = AtlasRow((), (), q, 0, 0, 0, 1, True, ((-1, 0), (1, 13)))
    assert row.to_tsv().endswith("\ttrue\t-1,0>1,13")
    assert row.to_tsv() == oracle_tsv(row)


def oracle_atlas(a, b, lax):
    """Slow oracle: each row rebuilt from the public invariants of its algebra."""
    rows = []
    for q in enumerate_standard(a, b):
        pair = partitions_from_blocks(q)
        ok, cert = is_convergent(q, lax)
        chain = tuple(cert.signature_chain()) if cert else ()
        R, R_plus, R_minus = cohomological_degree(q)
        rows.append(
            AtlasRow(pair.alpha.rows, pair.beta.rows, q, R, R_plus, R_minus, packet_size(q), ok, chain)
        )
    return rows


def oracle_tsv(row):
    """A TSV line formatted from the row's fields with plain str and join."""

    def pairs(ps, sep):
        return sep.join(str(x) + "," + str(y) for x, y in ps)

    return "\t".join([
        ",".join(str(v) for v in row.pair_alpha),
        ",".join(str(v) for v in row.pair_beta),
        pairs(row.blocks.blocks, ";"),
        str(row.R), str(row.R_plus), str(row.R_minus), str(row.packet_size),
        str(row.convergent).lower(),
        pairs(row.chain, ">"),
    ])


@pytest.mark.parametrize("lax", [False, True], ids=["strict", "lax"])
def test_atlas_matches_the_invariants_oracle(lax):
    for n in range(1, 9):
        for a in range(n + 1):
            got, want = atlas(a, n - a, lax), oracle_atlas(a, n - a, lax)
            assert got == want, (a, n - a)
            assert [r.to_json() for r in got] == [r.to_json() for r in want], (a, n - a)
            assert [r.to_tsv() for r in got] == [oracle_tsv(r) for r in want], (a, n - a)


def test_atlas_rows_hold_little_memory():
    """The 15,585 rows of atlas(6,5) hold 4.08 MB under tracemalloc
    (Python 3.11): slotted rows and algebras that store their blocks and
    one signature shared by the frame, with each block pair made once per
    enumeration, each stripped alpha once per distinct row and each chain
    once per predecessor.  Interning equal stripped rows and equal chains
    as well held 4.03 MB; algebras that also stored their own signature,
    Levi sizes and total held 6.50 MB, rows with instance dicts 7.75 MB,
    and 15.4 MB when every row kept its own tuples.  The ceiling leaves a
    15% margin over 4.08 MB."""
    gc.collect()
    tracemalloc.start()
    try:
        rows = atlas(6, 5)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 15_585
    assert held < 4_680_000, held
