"""Record the atlas reference tables that the ``atlas`` workload checks.

    python3 perfbench/record_reference.py

Run from the root of a source checkout of the commit whose output is the
reference.  Writes ``perfbench/reference/atlas_<a>_<b>.tsv.gz`` for the
tables of the full and the smoke workload, byte-identical to
``aql atlas --a <a> --b <b> --format tsv``.
"""

import gzip
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE, render_atlas  # noqa: E402

TABLES = ((5, 5), (6, 5), (2, 2), (3, 2))

if __name__ == "__main__":
    for a, b in TABLES:
        text = render_atlas(a, b)
        path = REFERENCE / f"atlas_{a}_{b}.tsv.gz"
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))
        print(f"{path.relative_to(HERE.parent)}: {text.count(chr(10)) - 1} rows")
