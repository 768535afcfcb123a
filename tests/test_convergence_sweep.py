"""Byte-for-byte CLI sweep over convergence certificates and atlas tables.

The sweep runs ``atlas --format tsv`` for every frame with 1 <= a+b <= 6
and ``convergence check`` for every standard algebra with a+b <= 5, each
once strict and once with ``--lax``.  Each invocation records its argv,
exit code and stdout.  The recorded sweep is
``golden/convergence_u6.txt.gz``; re-record it with

    PYTHONPATH=src python tests/test_convergence_sweep.py
"""

import gzip
from pathlib import Path

from oracles import all_standard
from test_sweep import record

GOLDEN = Path(__file__).parent / "golden" / "convergence_u6.txt.gz"


def sweep_argvs():
    for lax in ([], ["--lax"]):
        for n in range(1, 7):
            for a in range(n + 1):
                yield ["atlas", "--a", str(a), "--b", str(n - a), "--format", "tsv", *lax]
        for q in all_standard(5, 1):
            yield ["convergence", "check", "--blocks", q.unparse(), *lax]


def test_convergence_sweep_matches_golden():
    golden = gzip.decompress(GOLDEN.read_bytes()).decode()
    chunks = golden.split("$ aql ")[1:]
    argvs = list(sweep_argvs())
    assert len(argvs) == len(chunks) == 404
    for argv, chunk in zip(argvs, chunks):
        assert record(argv) == "$ aql " + chunk, f"first difference at: aql {' '.join(argv)}"


if __name__ == "__main__":
    text = "".join(record(argv) for argv in sweep_argvs())
    GOLDEN.write_bytes(gzip.compress(text.encode(), mtime=0))
