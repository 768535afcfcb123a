"""Byte-for-byte CLI sweep over every small standard algebra.

For every standard algebra of U(a,b) with 1 <= a+b <= 4, with lambda
(r-1,...,0), the sweep runs ``aq`` and ``packet`` once, and ``lift
construct`` and ``lift verify --json`` for every ``select_r0`` index and
for chi1 in {n mod 2, n mod 2 + 2} (chi2 at its default parity).  Each
invocation records its argv, exit code and stdout.  The recorded sweep is
``golden/sweep_u4.txt.gz``; re-record it with

    PYTHONPATH=src python tests/test_sweep.py
"""

import contextlib
import gzip
import io
from pathlib import Path

from aql.cli import run
from aql.thetalift import select_r0

from oracles import all_standard

GOLDEN = Path(__file__).parent / "golden" / "sweep_u4.txt.gz"


def sweep_argvs():
    for q in all_standard(4, 1):
        n = q.total
        lam = ",".join(map(str, range(q.r - 1, -1, -1)))
        common = ["--blocks", q.unparse(), "--lambda", lam]
        yield ["aq", *common]
        yield ["packet", *common]
        for r0 in select_r0(q):
            n_prime = n - q.levi_sizes[r0 - 1]
            for chi1 in (n % 2, n % 2 + 2):
                chi = ["--r0", str(r0), "--chi", f"{chi1},{n_prime % 2}"]
                yield ["lift", "construct", *common, *chi]
                yield ["lift", "verify", *common, *chi, "--json"]


def record(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(argv))
    return f"$ aql {' '.join(argv)}\nexit {code}\n{out.getvalue()}"


def test_sweep_matches_golden():
    golden = gzip.decompress(GOLDEN.read_bytes()).decode()
    chunks = golden.split("$ aql ")[1:]
    argvs = list(sweep_argvs())
    assert len(argvs) == len(chunks) == 442
    for argv, chunk in zip(argvs, chunks):
        assert record(argv) == "$ aql " + chunk, f"first difference at: aql {' '.join(argv)}"


if __name__ == "__main__":
    text = "".join(record(argv) for argv in sweep_argvs())
    GOLDEN.write_bytes(gzip.compress(text.encode(), mtime=0))
