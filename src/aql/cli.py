"""Command-line front end.

Subcommands mirror the library surface: partition-pair enumeration,
invariants of one module, packet listing, lift construction and
verification, convergence checks and the atlas table.  Output is
deterministic: the same argv gives byte-identical stdout, whatever the environment.
Exit codes: 0 success / verified, 1 a verification returned false,
2 invalid input or a failed write, 3 internal error (an unexpected exception).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import time
from itertools import chain, dropwhile, takewhile
from typing import Iterable, Iterator, List, Optional

from . import __version__
from .arthur import psi_lambda_q
from .convergence import ATLAS_TSV_HEADER, atlas, is_convergent
from .parabolic import (
    LambdaCharacter,
    ThetaStableAlgebra,
    _as_lambda,
    _check_frame,
    _standard_count,
    cohomological_degree,
    enumerate_packet,
    inf_char_aq,
    lowest_k_type,
    partitions_from_blocks,
    two_rho_up,
)
from .partitions import enumerate_compatible
from .thetalift import DEFAULT_BOUND, build_source, full_report

LAMBDA_HELP = "per-block character, e.g. '2,1,0' or '-1,-2' (default 0)"
INTEGER_LIST = re.compile(r"-?\d+(,-?\d+)*")
COMMANDS = ("partitions", "aq", "packet", "lift", "convergence", "atlas")


def _write(chunks: Iterable[str], out: Optional[str] = None) -> None:
    """Write the text chunks one at a time to stdout, or to the file `out`;
    a failed write is bad input, but a reader that stops early is not."""
    try:
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(chunks)
            fh.flush()  # a short output fails here, not at exit
    except OSError as exc:
        if out:
            raise ValueError(f"cannot write --out {out!r}: {exc.strerror}") from None
        _to_devnull(sys.stdout)
        if not isinstance(exc, BrokenPipeError):  # `| head` closing the pipe is no error
            raise ValueError(f"cannot write stdout: {exc.strerror}") from None


def _to_devnull(stream) -> None:
    """Point the stream's fd at os.devnull, so that the flush at exit writes
    nowhere and cannot turn the exit code into 120."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _note(text: str, stream=None) -> None:
    """Write text to stderr (or `stream`) and flush it; a reader that has gone
    is no error, so the command keeps its own exit code."""
    stream = stream or sys.stderr
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        _to_devnull(stream)


def _emit(doc) -> None:
    import json  # here, so that a run that writes no JSON never loads it
    _write([json.dumps(doc, indent=2) + "\n"])


def _json_list(items) -> Iterator[str]:
    """json.dumps(list(items), indent=2) + "\\n", one element at a time:
    each dumped on its own, its lines indented two spaces more."""
    import json
    sep = "[\n  "
    for item in items:
        yield sep + json.dumps(item, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _parse_lambda(text: Optional[str], q: ThetaStableAlgebra) -> LambdaCharacter:
    return _as_lambda(q, None if text is None else LambdaCharacter.parse(text))


def _parse_chi(text: Optional[str]):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--chi expects 'a1,a2', got {text!r}")
    return (int(parts[0]), int(parts[1]))


def cmd_partitions_enumerate(args) -> int:
    if args.count:
        _check_frame(args.a, args.b)
        _write([f"{_standard_count(args.a, args.b)}\n"])  # one algebra per pair, none built
    else:
        _write(_json_list(p.to_json() for p in enumerate_compatible(args.a, args.b)))
    return 0


def cmd_aq(args) -> int:
    q = ThetaStableAlgebra.parse(args.blocks)
    lam = _parse_lambda(getattr(args, "lambda"), q)
    pair = partitions_from_blocks(q)
    R, R_plus, R_minus = cohomological_degree(q)
    a, b = q.signature
    _emit(
        {
            "blocks": [list(blk) for blk in q.blocks],
            "signature": {"a": a, "b": b},
            "lambda": list(lam.values),
            "alpha": pair.alpha.to_json(),
            "beta": pair.beta.to_json(),
            "R": R,
            "R_plus": R_plus,
            "R_minus": R_minus,
            "two_rho_up": two_rho_up(q).to_json(),
            "inf_char": inf_char_aq(q, lam).to_json(),
            "lowest_k_type": lowest_k_type(q, lam).to_json(),
            "parameter": psi_lambda_q(q, lam).to_json(),
        }
    )
    return 0


def cmd_packet(args) -> int:
    q = ThetaStableAlgebra.parse(args.blocks)
    lam = _parse_lambda(getattr(args, "lambda"), q)
    members = enumerate_packet(q, lam)
    _emit(
        {
            "base": {"blocks": [list(blk) for blk in q.blocks], "lambda": list(lam.values)},
            "size": len(members),
            "inf_char": inf_char_aq(q, lam).to_json(),
            "members": [[list(blk) for blk in mq.blocks] for mq, _ in members],
        }
    )
    return 0


def cmd_lift_construct(args) -> int:
    q = ThetaStableAlgebra.parse(args.blocks)
    lam = _parse_lambda(getattr(args, "lambda"), q)
    datum = build_source(q, lam, args.r0, _parse_chi(args.chi))
    _emit(datum.to_json())
    return 0


def cmd_lift_verify(args) -> int:
    q = ThetaStableAlgebra.parse(args.blocks)
    lam = _parse_lambda(getattr(args, "lambda"), q)
    report = full_report(q, lam, args.r0, _parse_chi(args.chi), args.bound)
    args.counts.update(cone_size=report.details["min_degree"]["cone_size"], bound=report.bound)
    if args.json:
        _emit(report.to_json())
    else:
        lines = [f"{name}: {'true' if ok else 'false'}" for name, ok in report.checks.items()]
        lines[-1] += f" (bound {report.bound})"
        lines.append("all checks passed" if report.all_ok else "verification failed")
        _write(line + "\n" for line in lines)
    return 0 if report.all_ok else 1


def cmd_convergence_check(args) -> int:
    q = ThetaStableAlgebra.parse(args.blocks)
    ok, cert = is_convergent(q, lax=args.lax)
    _emit(
        {
            "blocks": [list(blk) for blk in q.blocks],
            "lax": args.lax,
            "convergent": ok,
            "certificate": cert.to_json() if cert else None,
        }
    )
    return 0 if ok else 1


def cmd_atlas(args) -> int:
    rows = atlas(args.a, args.b, lax=args.lax)
    args.counts["rows"] = len(rows)
    if args.format == "tsv":
        chunks = chain([ATLAS_TSV_HEADER + "\n"], (r.to_tsv() + "\n" for r in rows))
    else:
        chunks = _json_list(r.to_json() for r in rows)
    _write(chunks, args.out)
    return 0


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argparse tree of every command, or of `command` alone, which
    parses an argv that names `command` as the whole tree does."""
    parser = argparse.ArgumentParser(
        prog="aql",
        description="Exact invariants of cohomological representations of U(a,b).",
    )
    parser.add_argument(
        "--meta",
        action="store_true",
        help="after the command, write run metadata (exit code, elapsed time,"
        " atlas rows, lift verify cone size and bound) as one JSON line on stderr",
    )
    # the top usage line lists every command either way; only the whole tree
    # can raise "invalid choice", which would name the metavar for `command`
    lean = {"metavar": "{" + ",".join(COMMANDS) + "}"} if command else {}
    sub = parser.add_subparsers(dest="command", required=True, **lean)

    if command in (None, "partitions"):
        p_partitions = sub.add_parser("partitions", help="partition-pair classification")
        psub = p_partitions.add_subparsers(dest="subcommand", required=True)
        p_enum = psub.add_parser("enumerate", help="enumerate compatible pairs in a frame")
        p_enum.add_argument("--a", type=int, required=True)
        p_enum.add_argument("--b", type=int, required=True)
        p_enum.add_argument("--count", action="store_true", help="print only the count")
        p_enum.set_defaults(func=cmd_partitions_enumerate)

    if command in (None, "aq"):
        p_aq = sub.add_parser("aq", help="invariants of the module of (blocks, lambda)")
        p_aq.add_argument("--blocks", required=True, help='block list "a1,b1;a2,b2;..."')
        p_aq.add_argument("--lambda", help=LAMBDA_HELP)
        p_aq.set_defaults(func=cmd_aq)

    if command in (None, "packet"):
        p_packet = sub.add_parser("packet", help="enumerate the packet of (blocks, lambda)")
        p_packet.add_argument("--blocks", required=True)
        p_packet.add_argument("--lambda", help=LAMBDA_HELP)
        p_packet.set_defaults(func=cmd_packet)

    if command in (None, "lift"):
        p_lift = sub.add_parser("lift", help="theta-lift construction and verification")
        lsub = p_lift.add_subparsers(dest="subcommand", required=True)
        for name, fn in (("construct", cmd_lift_construct), ("verify", cmd_lift_verify)):
            p = lsub.add_parser(name)
            p.add_argument("--blocks", required=True)
            p.add_argument("--lambda", help=LAMBDA_HELP)
            p.add_argument("--r0", type=int, help="1-based distinguished block (default: first maximal)")
            p.add_argument(
                "--chi",
                help="character exponents 'a1,a2', e.g. '-1,1' (default: minimal parities)",
            )
            if name == "verify":
                p.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                               help=f"cone bound for the degree check (default {DEFAULT_BOUND})")
                p.add_argument("--json", action="store_true", help="full JSON report")
            p.set_defaults(func=fn)

    if command in (None, "convergence"):
        p_conv = sub.add_parser("convergence", help="convergence certificates")
        csub = p_conv.add_subparsers(dest="subcommand", required=True)
        p_check = csub.add_parser("check")
        p_check.add_argument("--blocks", required=True)
        p_check.add_argument("--lax", action="store_true", help="literal stable-range index range")
        p_check.set_defaults(func=cmd_convergence_check)

    if command in (None, "atlas"):
        p_atlas = sub.add_parser("atlas", help="classification table for one signature")
        p_atlas.add_argument("--a", type=int, required=True)
        p_atlas.add_argument("--b", type=int, required=True)
        p_atlas.add_argument("--format", choices=("json", "tsv"), default="json")
        p_atlas.add_argument("--out", help="write to a file instead of stdout")
        p_atlas.add_argument("--lax", action="store_true")
        p_atlas.set_defaults(func=cmd_atlas)

    return parser


def _abbreviates(arg: str, option: str) -> bool:
    """Whether `arg` is `option` or a prefix of it that argparse may take for it."""
    return len(arg) > 2 and option.startswith(arg)


def _wants_meta(argv: List[str]) -> bool:
    """Whether --meta (or an abbreviation argparse accepts) comes before
    the subcommand; read off the raw argv so that usage errors report too."""
    top = takewhile(lambda arg: arg.startswith("-"), argv)
    return any(_abbreviates(arg, "--meta") for arg in top)


def _command(argv: List[str]) -> Optional[str]:
    """The command argv names, when nothing but --meta comes before it; else
    None (help, an unknown word, no word), which needs the whole tree."""
    word = next(dropwhile(lambda arg: _abbreviates(arg, "--meta"), argv), None)
    return word if word in COMMANDS else None


def _attach_values(argv: List[str]) -> List[str]:
    """argv with each integer list after --lambda or --chi (or an
    abbreviation of either) joined to its option as "--lambda=-1,-2":
    argparse reads a separate "-1,-2" as an option."""
    out: List[str] = []
    for arg in argv:
        if (out and INTEGER_LIST.fullmatch(arg)
                and (_abbreviates(out[-1], "--lambda") or _abbreviates(out[-1], "--chi"))):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    start = time.perf_counter()

    def since_start() -> float:
        return round(time.perf_counter() - start, 6)

    counts = {}  # what a command counted, for --meta
    try:
        args = build_parser(_command(argv)).parse_args(_attach_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help, and ignores a failed write
        code = exc.code if isinstance(exc.code, int) else 2
        _note("", sys.stdout)
        _note("")
        stages = {"parse_s": since_start()}
    else:
        stages = {"parse_s": since_start()}
        args.counts = counts
        try:
            code = args.func(args)
        except ValueError as exc:
            _note(f"error: {exc}\n")
            code = 2
        except Exception as exc:  # exit 1 would read as "verification false"
            _note(f"internal error: {type(exc).__name__}: {exc}\n")
            code = 3
        # a difference of two marks, so that the stages sum to at most elapsed_s
        stages["command_s"] = round(since_start() - stages["parse_s"], 6)
    if _wants_meta(argv):
        import json
        meta = {"tool": "aql", "version": __version__, "argv": argv, "exit": code,
                "elapsed_s": since_start(), "stages": stages, **counts}
        _note(json.dumps(meta) + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
