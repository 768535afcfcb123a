"""Command-line front end.

Subcommands mirror the library surface: partition-pair enumeration,
invariants of one module, packet listing, lift construction and
verification, convergence checks and the atlas table.  The grammar is one
table, GRAMMAR: a well-formed argv is read straight off it, and the argparse
tree built from it reads every other argv and writes all help and usage
errors.  Output is deterministic: the same argv gives byte-identical
stdout, whatever the environment.
`main()`, the entry point of the `aql` script and of `python -m aql.cli`,
flushes stdout and stderr and ends the process with `os._exit`: the kernel
reclaims the process at once, where interpreter teardown would free every
module and object one at a time (a few milliseconds per run), and no
`atexit` hook runs.  Library callers and tests call `run()`, which returns
the exit code and never ends the process.
Exit codes: 0 success / verified, 1 a verification returned false,
2 invalid input or a failed write, 3 internal error (an unexpected exception).
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import sys
import time
from itertools import chain, takewhile
from types import SimpleNamespace
from typing import Iterable, Iterator, List, Optional

from . import __version__
from .arthur import psi_lambda_q
from .convergence import ATLAS_TSV_HEADER, atlas, is_convergent
from .parabolic import (
    LambdaCharacter,
    ThetaStableAlgebra,
    _as_lambda,
    _check_frame,
    _ints,
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


def _write(chunks: Iterable[str], out: Optional[str] = None) -> None:
    """Write the text chunks one at a time to stdout, or to the file `out`;
    a failed write is bad input, but a reader that stops early is not."""
    if not out and sys.stdout is None:  # fd 1 was closed when the process started
        raise ValueError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
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


def _note(text: str, name: str = "stderr") -> None:
    """Write text to sys.stderr (or the sys stream `name`) and flush it; a
    reader that has gone, or an fd closed when the process started, is no
    error, so the command keeps its own exit code."""
    stream = getattr(sys, name)
    if stream is None:
        return
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
    if text is None:
        return _as_lambda(q, None)
    return _as_lambda(q, _ints(text, "--lambda: ") if text.strip() else ())


def _parse_chi(text: Optional[str]):
    if text is None:
        return None
    if text.count(",") != 1:
        raise ValueError(f"--chi expects 'a1,a2', got {text!r}")
    return tuple(_ints(text, "--chi: "))


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


FLAG = "flag"  # the kind of an option that takes no value


def _opt(name: str, kind=str, default=None, required: bool = False, help: Optional[str] = None):
    """One option of the grammar, as (name, kind, default, required, help).
    `kind` is str, int, FLAG (a switch, False unless given) or the tuple of
    the values it may take."""
    return name, kind, False if kind is FLAG else default, required, help


_BLOCKS = _opt("--blocks", required=True)
_LAMBDA = _opt("--lambda", help=LAMBDA_HELP)
_CHI = _opt("--chi", help="character exponents 'a1,a2', e.g. '-1,1' (default: minimal parities)")
_FRAME = (_opt("--a", int, required=True), _opt("--b", int, required=True))
_SOURCE = (
    _BLOCKS,
    _LAMBDA,
    _opt("--r0", int, help="1-based distinguished block (default: first maximal)"),
    _CHI,
)
META = _opt(
    "--meta",
    FLAG,
    help="after the command, write run metadata (exit code, elapsed time,"
    " atlas rows, lift verify cone size and bound) as one JSON line on stderr",
)
# The whole CLI grammar, in help order.  A command is (help, handler,
# options), or (help, {subcommand: (help, handler, options)}).
GRAMMAR = {
    "partitions": ("partition-pair classification", {
        "enumerate": ("enumerate compatible pairs in a frame", cmd_partitions_enumerate,
                      (*_FRAME, _opt("--count", FLAG, help="print only the count"))),
    }),
    "aq": ("invariants of the module of (blocks, lambda)", cmd_aq,
           (_opt("--blocks", required=True, help='block list "a1,b1;a2,b2;..."'), _LAMBDA)),
    "packet": ("enumerate the packet of (blocks, lambda)", cmd_packet, (_BLOCKS, _LAMBDA)),
    "lift": ("theta-lift construction and verification", {
        "construct": (None, cmd_lift_construct, _SOURCE),
        "verify": (None, cmd_lift_verify, (
            *_SOURCE,
            _opt("--bound", int, DEFAULT_BOUND,
                 help=f"cone bound for the degree check (default {DEFAULT_BOUND})"),
            _opt("--json", FLAG, help="full JSON report"),
        )),
    }),
    "convergence": ("convergence certificates", {
        "check": (None, cmd_convergence_check,
                  (_BLOCKS, _opt("--lax", FLAG, help="literal stable-range index range"))),
    }),
    "atlas": ("classification table for one signature", cmd_atlas, (
        *_FRAME,
        _opt("--format", ("json", "tsv"), "json"),
        _opt("--out", help="write to a file instead of stdout"),
        _opt("--lax", FLAG),
    )),
}


def _add_options(parser, options) -> None:
    for name, kind, default, required, help in options:
        if kind is FLAG:
            parser.add_argument(name, action="store_true", default=default, help=help)
        elif isinstance(kind, tuple):
            parser.add_argument(name, choices=kind, default=default, required=required, help=help)
        else:
            parser.add_argument(name, type=kind, default=default, required=required, help=help)


def _add_command(sub, name: str, help: Optional[str], handler, options) -> None:
    # a help=None would still list the command, with an empty line of help
    parser = sub.add_parser(name, **({"help": help} if help else {}))
    _add_options(parser, options)
    parser.set_defaults(func=handler)


def build_parser():
    """The argparse tree of GRAMMAR: it reads every argv that `_read_plain`
    declines, and writes all help and usage errors."""
    import argparse  # here, so that a well-formed argv never loads it

    parser = argparse.ArgumentParser(
        prog="aql",
        description="Exact invariants of cohomological representations of U(a,b).",
    )
    _add_options(parser, (META,))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, *body) in GRAMMAR.items():
        if isinstance(body[0], dict):
            group = sub.add_parser(command, help=help).add_subparsers(dest="subcommand", required=True)
            for name, leaf in body[0].items():
                _add_command(group, name, *leaf)
        else:
            _add_command(sub, command, help, *body)
    return parser


def _read_plain(argv: List[str]) -> Optional[SimpleNamespace]:
    """What argparse makes of argv, read off GRAMMAR, when argv has the
    plain form: an optional leading --meta, the command (and subcommand),
    then exact option names, each at most once, as "--name=value" or as
    "--name value" with a value that starts with no "-", and every required
    option.  Any other argv gives None and is left to argparse."""
    meta = argv[:1] == [META[0]]
    tokens = argv[meta:]
    entry = GRAMMAR.get(tokens[0]) if tokens else None
    if entry is None:
        return None
    values = {META[0][2:]: meta, "command": tokens.pop(0)}
    if isinstance(entry[1], dict):
        entry = entry[1].get(tokens[0]) if tokens else None
        if entry is None:
            return None
        values["subcommand"] = tokens.pop(0)
    _, handler, options = entry
    kinds = {option[0]: option[1] for option in options}
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        name, eq, value = token.partition("=")
        kind = kinds.get(name)
        if kind is None or name in given or (kind is FLAG and eq):
            return None
        if kind is FLAG:
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        given[name] = value
    for name, _, default, required, _ in options:
        if required and name not in given:
            return None
        values[name[2:]] = given.get(name, default)
    return SimpleNamespace(**values, func=handler)


def _abbreviates(arg: str, option: str) -> bool:
    """Whether `arg` is `option` or a prefix of it that argparse may take for it."""
    return len(arg) > 2 and option.startswith(arg)


def _wants_meta(argv: List[str]) -> bool:
    """Whether --meta (or an abbreviation argparse accepts) comes before
    the subcommand; read off the raw argv so that usage errors report too."""
    top = takewhile(lambda arg: arg.startswith("-"), argv)
    return any(_abbreviates(arg, META[0]) for arg in top)


def _attach_values(argv: List[str]) -> List[str]:
    """argv with each integer list after --lambda or --chi (or an
    abbreviation of either) joined to its option as "--lambda=-1,-2":
    argparse reads a separate "-1,-2" as an option."""
    out: List[str] = []
    for arg in argv:
        if (out and INTEGER_LIST.fullmatch(arg)
                and (_abbreviates(out[-1], _LAMBDA[0]) or _abbreviates(out[-1], _CHI[0]))):
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
        attached = _attach_values(argv)
        args = _read_plain(attached) or build_parser().parse_args(attached)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help, and ignores a failed write
        code = exc.code if isinstance(exc.code, int) else 2
        _note("", "stdout")
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
    """Run sys.argv, flush stdout and stderr where they exist, and end the
    process with os._exit: teardown would only free what the kernel
    reclaims anyway.  Only for a process of its own; callers that go on
    running call `run()`."""
    code = run()
    _note("", "stdout")
    _note("")
    os._exit(code)


if __name__ == "__main__":
    main()
