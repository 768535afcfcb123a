import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from aql import cli
from aql.cli import _attach_values, _read_plain, build_parser, run
from aql.convergence import atlas
from aql.parabolic import ThetaStableAlgebra
from aql.partitions import enumerate_compatible
from aql.thetalift import build_source

from oracles import k_types_bounded

GOLDEN = Path(__file__).parent / "golden"
# Without PYTHONUNBUFFERED: with it a child's large write to a closed pipe
# can return short instead of raising, and its pipe guard goes untested.
SRC_ENV = {
    **{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
    "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
}
SCHEMA = json.loads(resources.files("aql").joinpath("schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(out: str, fragment: str):
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    Draft202012Validator(
        {"$ref": f"#/$defs/{fragment}", "$defs": SCHEMA["$defs"]}
    ).validate(doc)
    return doc


def test_golden_aq(capsys):
    code, out, _ = run_cli(
        capsys, "aq", "--blocks", "1,0;1,1;0,1", "--lambda", "2,1,0"
    )
    assert code == 0
    assert out == (GOLDEN / "aq_u22.json").read_text()
    doc = check_schema(out, "aq_report")
    assert doc["R"] == 3
    assert doc["inf_char"] == ["7/2", "3/2", "1/2", "-3/2"]
    assert doc["lowest_k_type"] == {"a": 2, "b": 2, "x": ["4", "2"], "y": ["0", "-2"]}


def test_golden_lift_verify(capsys):
    code, out, _ = run_cli(
        capsys,
        "lift", "verify",
        "--blocks", "1,0;1,1", "--lambda", "1,0", "--r0", "2", "--chi", "1,1",
    )
    assert code == 0
    assert out == (GOLDEN / "lift_verify_u21.txt").read_text()


def test_golden_lift_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "lift", "verify", "--blocks", "1,0;2,2;0,1", "--json"
    )
    assert code == 0
    assert out == (GOLDEN / "lift_verify_u32.json").read_text()


def test_golden_enumerate_count(capsys):
    code, out, _ = run_cli(
        capsys, "partitions", "enumerate", "--a", "2", "--b", "2", "--count"
    )
    assert code == 0
    assert out == (GOLDEN / "enumerate_22_count.txt").read_text()
    assert out == "18\n"


def test_enumerate_count_counts_algebras_without_building_pairs(capsys, monkeypatch):
    frames = [(a, n - a) for n in range(8) for a in range(n + 1)]
    counts = {frame: len(enumerate_compatible(*frame)) for frame in frames}
    assert counts[0, 0] == 1

    def untouchable(a, b):
        raise AssertionError("--count built the pairs or the algebras")

    def count(a, b):
        return run_cli(capsys, "partitions", "enumerate", "--a", str(a), "--b", str(b), "--count")

    monkeypatch.setattr("aql.cli.enumerate_compatible", untouchable)
    monkeypatch.setattr("aql.parabolic._standard", untouchable)
    for (a, b), want in counts.items():
        assert count(a, b)[:2] == (0, f"{want}\n")
    for a, b in ((-1, 2), (2, -1)):
        assert count(a, b) == (2, "", "error: frame sides must be non-negative\n")


def test_output_is_deterministic(capsys):
    argv = ("atlas", "--a", "2", "--b", "2", "--format", "tsv")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert first.splitlines()[0].split("\t")[0] == "alpha"
    assert len(first.splitlines()) == 19  # header + 18 rows


def test_all_json_outputs_validate(capsys):
    cases = [
        (("partitions", "enumerate", "--a", "2", "--b", "1"), "pair_list"),
        (("partitions", "enumerate", "--a", "1", "--b", "1", "--count"), "count"),
        (("aq", "--blocks", "2,1"), "aq_report"),
        (("packet", "--blocks", "1,0;1,1", "--lambda", "2,0"), "packet_report"),
        (("lift", "construct", "--blocks", "1,0;2,2;0,1"), "lift_datum"),
        (
            ("lift", "verify", "--blocks", "1,0;2,2;0,1", "--json"),
            "lift_report",
        ),
        (("convergence", "check", "--blocks", "1,0;2,2;0,1"), "convergence_report"),
        (("atlas", "--a", "1", "--b", "2"), "atlas_table"),
        (("atlas", "--a", "0", "--b", "0"), "atlas_table"),
    ]
    for argv, fragment in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        check_schema(out, fragment)


def test_exit_code_one_on_failed_verification(capsys):
    code, out, _ = run_cli(capsys, "convergence", "check", "--blocks", "1,1;1,1")
    assert code == 1
    doc = check_schema(out, "convergence_report")
    assert doc["convergent"] is False
    assert doc["certificate"] is None


def test_exit_code_two_on_bad_input(capsys):
    cases = [
        ("aq", "--blocks", "nonsense"),
        ("aq", "--blocks", "1,1", "--lambda", "1,2"),
        ("aq", "--blocks", "0,0"),
        ("lift", "verify", "--blocks", "1,1", "--r0", "9"),
        ("lift", "verify", "--blocks", "1,0;1,1", "--chi", "0,1"),
        ("partitions", "enumerate", "--a", "2"),
        ("aq", "--blocks", "1,1", "--unknown"),
        ("nonsense",),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""


def test_lift_construct_refuses_a_chi1_of_the_wrong_parity(capsys):
    """`ChiPair` refuses alpha1 of the wrong parity, so `build_source`,
    whose shift is integral only for alpha1 = n (mod 2), never sees it."""
    code, out, err = run_cli(capsys, "lift", "construct", "--blocks", "1,0;1,1", "--chi", "0,1")
    assert (code, out) == (2, "")
    assert err == "error: alpha(chi1)=0 must have the parity of n=3\n"


def test_negative_values_attach_with_equals(capsys):
    code, out, _ = run_cli(capsys, "aq", "--blocks", "1,0;0,1", "--lambda=-1,-2")
    assert code == 0
    assert json.loads(out)["lambda"] == [-1, -2]
    code, out, _ = run_cli(
        capsys,
        "lift", "construct",
        "--blocks", "1,0;1,1", "--lambda=0,-1", "--r0", "2", "--chi=-1,1",
    )
    assert code == 0
    assert check_schema(out, "lift_datum")["chi"] == {"alpha1": -1, "alpha2": 1}


def test_negative_values_may_follow_as_their_own_token(capsys):
    """A separate integer list after --lambda or --chi, spelt out or
    abbreviated, reads as the "=" form: the same bytes and exit code."""
    base = ("lift", "construct", "--blocks", "1,0;1,1", "--r0", "2")
    joined = run_cli(capsys, *base, "--lambda=-1,-2", "--chi=-1,1")
    code, out, _ = joined
    assert code == 0
    doc = check_schema(out, "lift_datum")
    assert doc["target"]["lambda"] == [-1, -2]
    assert doc["chi"] == {"alpha1": -1, "alpha2": 1}
    for lam, chi in (("--lambda", "--chi"), ("--lam", "--ch"), ("--l", "--c")):
        assert run_cli(capsys, *base, lam, "-1,-2", chi, "-1,1") == joined, (lam, chi)
    aq = ("aq", "--blocks", "1,0;0,1")
    abbreviated = run_cli(capsys, *aq, "--lam", "-1,-2")
    assert abbreviated == run_cli(capsys, *aq, "--lambda=-1,-2") and abbreviated[0] == 0
    # only an integer list is attached: any other token still reads as an option
    for bad in ("-1,-x", "-1,", "--1", "-1;-2"):
        code, out, err = run_cli(capsys, "aq", "--blocks", "1,0;0,1", "--lambda", bad)
        assert (code, out) == (2, ""), bad
        assert "expected one argument" in err


@pytest.mark.parametrize(
    "option, message",
    [
        (("--lambda", "1.5"), "--lambda: non-integer '1.5' in '1.5'"),
        (("--lambda=1,,0",), "--lambda: non-integer '' in '1,,0'"),
        (("--lambda", "1,x"), "--lambda: non-integer 'x' in '1,x'"),
        (("--chi", "1.5,1"), "--chi: non-integer '1.5' in '1.5,1'"),
        (("--chi=,1",), "--chi: non-integer '' in ',1'"),
    ],
)
def test_a_non_integer_entry_is_named_with_its_option(option, message, capsys):
    code, out, err = run_cli(capsys, "lift", "construct", "--blocks", "1,0;1,1;0,1", *option)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    def broken(q, lam):
        raise RuntimeError("boom")

    monkeypatch.setattr("aql.cli.enumerate_packet", broken)
    code, out, err = run_cli(capsys, "packet", "--blocks", "1,0;0,1")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


def test_oversized_packet_exits_two(capsys):
    # 1,000 alternating one-slot blocks (MAX_SLOTS): C(1000, 500) members
    code, out, err = run_cli(capsys, "packet", "--blocks", ";".join(["1,0;0,1"] * 500))
    assert (code, out) == (2, "")
    assert err == "error: packet has more than 50000 members\n"


def test_block_lists_above_max_slots_exit_two_at_parse(capsys, monkeypatch):
    """MAX_SLOTS bounds --blocks before any algebra is built."""
    def untouchable(*args):
        raise AssertionError("built past the slot cap")

    monkeypatch.setattr("aql.parabolic.ThetaStableAlgebra.__init__", untouchable)
    for argv, slots in (
        (("aq", "--blocks", "1001,0"), 1001),
        (("packet", "--blocks", ";".join(["1,0;0,1"] * 600)), 1200),
        (("lift", "verify", "--blocks", "1000,0;0,1000;2000,2000"), 6000),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: block list has {slots} slots: at most 1000 are allowed\n"


def test_block_list_at_max_slots_runs(capsys):
    code, out, err = run_cli(capsys, "aq", "--blocks", "1000,0")
    assert (code, err) == (0, "")
    assert json.loads(out)["signature"] == {"a": 1000, "b": 0}


@pytest.mark.parametrize(
    "argv",
    [
        ("partitions", "enumerate", "--a", "7", "--b", "7", "--count"),
        ("atlas", "--a", "7", "--b", "7", "--format", "tsv"),
    ],
    ids=["partitions", "atlas"],
)
def test_oversized_frame_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: frame 7x7 is too large: a+b must be at most 13\n"


def test_packet_command_content(capsys):
    code, out, _ = run_cli(capsys, "packet", "--blocks", "1,0;0,1")
    assert code == 0
    doc = check_schema(out, "packet_report")
    assert doc["size"] == 2
    assert doc["members"] == [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]


def test_lift_verify_json_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "lift", "verify",
        "--blocks", "1,0;1,1", "--lambda", "1,0", "--r0", "2", "--chi", "1,1",
        "--json",
    )
    assert code == 0
    doc = check_schema(out, "lift_report")
    assert all(doc["checks"].values())
    assert doc["datum"]["source"]["blocks"] == [[1, 0]]
    assert doc["datum"]["source"]["lambda"] == [3]
    assert doc["datum"]["det_shift"] == "-1"
    assert doc["details"]["lifted_parameter"] == doc["details"]["twisted_target_parameter"]


def test_the_environment_does_not_change_lift_verify():
    """`aql lift verify` reads its bound from argv alone: with AQL_BOUND set
    to 1 or to junk, a child prints the bytes and exit code of a run
    without it, at the default bound 3."""
    argv = aql("lift", "verify", "--blocks", "2,2", "--json")
    clean = {key: value for key, value in SRC_ENV.items() if key != "AQL_BOUND"}
    runs = [
        subprocess.run(argv, env=env, capture_output=True, timeout=60)
        for env in (clean, {**clean, "AQL_BOUND": "1"}, {**clean, "AQL_BOUND": "junk"})
    ]
    assert (runs[0].returncode, runs[0].stderr) == (0, b"")
    assert json.loads(runs[0].stdout)["bound"] == 3
    for done in runs[1:]:
        assert (done.returncode, done.stdout, done.stderr) == (0, runs[0].stdout, b"")


def test_no_module_reads_the_environment():
    """No `aql` module reads the process environment, so argv alone
    decides what a command does."""
    src = Path(__file__).resolve().parents[1] / "src" / "aql"
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for needle in ("os.environ", "os.getenv", "environ["):
            assert needle not in text, f"{path.name} reads the environment ({needle})"


def test_atlas_out_file(tmp_path, capsys):
    target = tmp_path / "table.tsv"
    code, out, _ = run_cli(
        capsys, "atlas", "--a", "1", "--b", "1", "--format", "tsv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 4


def test_atlas_out_unwritable_path_exits_two(tmp_path, capsys):
    """A missing directory, a directory or a write that fails (a full disk,
    /dev/full where it exists) as --out is bad input: one error line naming
    the path, nothing on stdout, no traceback, exit 2."""
    full = [dev for dev in [Path("/dev/full")] if dev.exists()]
    for target in [tmp_path / "missing" / "table.tsv", tmp_path, *full]:
        argv = ("atlas", "--a", "1", "--b", "1", "--out", str(target))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        code, out, err = run_cli(capsys, "--meta", *argv)
        assert code == 2 and out == ""
        assert json.loads(err.splitlines()[-1])["exit"] == 2
    assert not (tmp_path / "missing").exists()


def test_atlas_json_has_the_bytes_of_one_dump(tmp_path, capsys):
    """Written row by row, the JSON table is still byte for byte
    json.dumps of the row list with indent 2, on stdout and in --out,
    strict and lax, for every frame with a+b <= 8; (0,0) gives "[]"."""
    target = tmp_path / "table.json"
    for n in range(9):
        for a in range(n + 1):
            for lax in ((), ("--lax",)):
                argv = ("atlas", "--a", str(a), "--b", str(n - a), *lax)
                want = json.dumps([r.to_json() for r in atlas(a, n - a, bool(lax))], indent=2) + "\n"
                assert run_cli(capsys, *argv) == (0, want, ""), argv
                assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", ""), argv
                assert target.read_text(encoding="utf-8") == want, argv
    assert run_cli(capsys, "atlas", "--a", "0", "--b", "0")[1] == "[]\n"


def aql(*argv):
    return [sys.executable, "-m", "aql.cli", *argv]


def fresh_peak_rss_kb(*argv):
    """The peak RSS in KB of a fresh `aql *argv` with stdout to /dev/null.
    A small wrapper process starts it and reads its children's peak: a
    process started straight from the test runner can report the runner's
    own peak as its start."""
    code = (
        "import resource, subprocess, sys;"
        f" done = subprocess.run({aql(*argv)!r}, stdout=subprocess.DEVNULL);"
        " print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=120
    )
    exit_code, max_rss_kb = map(int, done.stdout.split())
    assert exit_code == 0, done.stderr
    return max_rss_kb


def test_atlas_json_peak_rss_stays_small():
    """A fresh `aql atlas --a 6 --b 5` in JSON read 19.1 MB peak RSS
    written row by row, against 100.8 MB when the whole text was built
    first (Python 3.11.7, Linux, three runs each); the 35 MB ceiling
    leaves room over the first for other Python builds."""
    max_rss_kb = fresh_peak_rss_kb("atlas", "--a", "6", "--b", "5")
    assert max_rss_kb < 35 * 1024, max_rss_kb


LONG_OUTPUTS = {
    "atlas-json": ("atlas", "--a", "6", "--b", "5"),
    "atlas-tsv": ("atlas", "--a", "6", "--b", "5", "--format", "tsv"),
    "partitions": ("partitions", "enumerate", "--a", "6", "--b", "6"),
    "packet": ("packet", "--blocks", ";".join(["2,2"] * 6)),
    "aq": ("aq", "--blocks", ";".join(["1,1"] * 500)),
}


@pytest.mark.parametrize("argv", LONG_OUTPUTS.values(), ids=LONG_OUTPUTS.keys())
def test_every_command_to_a_reader_that_stops_early_exits_zero(argv, capsys):
    """`aql ... | head -c 100`: the reader closes the pipe after a few
    bytes of an output past the 64 KB pipe buffer, so a write fails
    midway; the writer stops with exit 0 and nothing on stderr but the
    --meta line, whose exit is 0 too."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(out) > 64 * 1024
    for meta in ((), ("--meta",)):
        proc = subprocess.Popen(
            aql(*meta, *argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert len(head) == 100
        if meta:
            assert json.loads(err)["exit"] == 0
        else:
            assert err == b""


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("aq", "--blocks", "1,1"), 0),
        (("lift", "verify", "--blocks", "1,0;1,1"), 0),
        (("convergence", "check", "--blocks", "1,1;1,1"), 1),
    ],
    ids=["aq", "lift-verify", "convergence-check"],
)
def test_a_reader_closed_before_the_first_byte_leaves_the_exit_code(argv, exit_code):
    """A short output whose reader has already gone fails at its flush,
    not at interpreter exit (which would exit 120): the command keeps its
    own exit code and writes nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen(aql(*argv), stdout=write_end, stderr=subprocess.PIPE, env=SRC_ENV)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (exit_code, b"")


# code that patches `c`, the aql.cli module, before a run: the packet
# command raises an unexpected exception (the `internal error:` line), and
# `lift verify` reads its K-type check as false (exit 1)
BREAK_PACKET = "def broken(q, lam): raise RuntimeError('boom')\nc.enumerate_packet = broken\n"
FAIL_LIFT = (
    "real_report = c.full_report\n"
    "def failing(*args):\n"
    "    report = real_report(*args)\n"
    "    object.__setattr__(report, 'ktype_ok', False)\n"
    "    return report\n"
    "c.full_report = failing\n"
)
BROKEN_PACKET = (
    "-c",
    "import sys, aql.cli as c\n" + BREAK_PACKET + "sys.exit(c.run(sys.argv[1:]))",
    "packet", "--blocks", "1,0;0,1",
)
STDERR_LINES = {
    "error": (aql("aq", "--blocks", "x"), 2),
    "internal-error": ([sys.executable, *BROKEN_PACKET], 3),
    "meta": (aql("--meta", "aq", "--blocks", "1,1"), 0),
    "meta-false": (aql("--meta", "convergence", "check", "--blocks", "1,1;1,1"), 1),
    "meta-usage": (aql("--meta", "atlas", "--a", "x", "--b", "1"), 2),
    "usage": (aql("aq"), 2),
    "help": (aql("--help"), 0),
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("cmd, exit_code", STDERR_LINES.values(), ids=STDERR_LINES.keys())
def test_a_stderr_reader_that_has_gone_leaves_the_exit_code(cmd, exit_code, unbuffered):
    """`aql ... 2>&1 >/dev/null | true`: the `error:`, `internal error:`,
    `--meta` and usage lines fail to reach a stderr whose reader has gone.
    The command keeps its own exit code, not 120 from the flush at exit
    nor 1 from a traceback under PYTHONUNBUFFERED.  `--help` writes to a
    closed stdout and keeps its exit 0 the same way."""
    env = {**SRC_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else SRC_ENV
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = write_end if cmd[-1] == "--help" else subprocess.DEVNULL
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=write_end, env=env)
    os.close(write_end)
    assert proc.wait(timeout=60) == exit_code


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [("aq", "--blocks", "1,1"), ("partitions", "enumerate", "--a", "3", "--b", "3")],
    ids=["aq", "partitions"],
)
def test_stdout_on_a_full_disk_exits_two(argv):
    """A stdout write that fails (`> /dev/full`) is bad input: exit 2 and
    one `error:` line, no traceback."""
    with open("/dev/full", "w") as full:
        done = subprocess.run(aql(*argv), stdout=full, stderr=subprocess.PIPE, env=SRC_ENV,
                              text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write stdout: No space left on device\n"


def spawn_with_closed_fd(cmd, fd):
    """The exit code of `cmd` started with fd `fd` (1 or 2) closed, as
    `aql ... >&-` or `2>&-` does, and the text it writes to the other one."""
    with tempfile.TemporaryFile() as other:
        actions = [(os.POSIX_SPAWN_CLOSE, fd), (os.POSIX_SPAWN_DUP2, other.fileno(), 3 - fd)]
        pid = os.posix_spawn(cmd[0], cmd, SRC_ENV, file_actions=actions)
        _, status = os.waitpid(pid, 0)
        other.seek(0)
        return os.waitstatus_to_exitcode(status), other.read().decode()


def test_a_closed_stdout_is_a_failed_write(capsys, tmp_path):
    """With fd 1 closed at start Python sets sys.stdout to None: a command
    that writes stdout exits 2 with one `error:` line, not 3, and one that
    writes --out or only help and usage errors keeps its exit code."""
    bad_fd = "error: cannot write stdout: Bad file descriptor\n"
    for argv in (("aq", "--blocks", "1,1"), ("convergence", "check", "--blocks", "1,1;1,1")):
        assert spawn_with_closed_fd(aql(*argv), 1) == (2, bad_fd), argv
        code, err = spawn_with_closed_fd(aql("--meta", *argv), 1)
        first, meta = err.splitlines(keepends=True)
        assert (code, first, json.loads(meta)["exit"]) == (2, bad_fd, 2), argv
    target = tmp_path / "table.tsv"
    argv = ("atlas", "--a", "2", "--b", "1", "--format", "tsv")
    assert spawn_with_closed_fd(aql(*argv, "--out", str(target)), 1) == (0, "")
    assert target.read_text() == run_cli(capsys, *argv)[1]
    assert spawn_with_closed_fd(aql("--help"), 1)[0] == 0
    assert spawn_with_closed_fd(aql("aq"), 1)[0] == 2


def test_a_closed_stderr_leaves_the_exit_code(capsys):
    """With fd 2 closed at start Python sets sys.stderr to None: the
    `error:`, `internal error:` and --meta lines are dropped, stdout is
    unchanged and each run keeps its exit code, not 1 from a traceback."""
    for argv, code in (
        (("aq", "--blocks", "1,1"), 0),
        (("--meta", "aq", "--blocks", "1,1"), 0),
        (("convergence", "check", "--blocks", "1,1;1,1"), 1),
        (("aq", "--blocks", "x"), 2),
    ):
        assert spawn_with_closed_fd(aql(*argv), 2) == (code, run_cli(capsys, *argv)[1]), argv
    assert spawn_with_closed_fd([sys.executable, *BROKEN_PACKET], 2) == (3, "")
    assert spawn_with_closed_fd(aql("--help"), 2)[0] == 0
    assert spawn_with_closed_fd(aql("aq"), 2)[0] == 2  # argparse prints its usage line to stdout


def test_partitions_enumerate_has_the_bytes_of_one_dump(capsys):
    """Written pair by pair, the list is still byte for byte json.dumps of
    the pair list with indent 2, for every frame with a+b <= 8."""
    for n in range(9):
        for a in range(n + 1):
            want = json.dumps([p.to_json() for p in enumerate_compatible(a, n - a)], indent=2) + "\n"
            argv = ("partitions", "enumerate", "--a", str(a), "--b", str(n - a))
            assert run_cli(capsys, *argv) == (0, want, ""), argv


@pytest.mark.parametrize(
    "command, bound_mb",
    [(("partitions", "enumerate"), 15), (("atlas", "--format", "tsv"), 6)],
    ids=["partitions", "atlas-tsv"],
)
def test_list_outputs_peak_rss_stays_small(command, bound_mb):
    """What a fresh (6,5) run adds to the peak RSS of the same command at
    (1,1). Written one element at a time: 7.3 MB for `partitions`, 4.4 MB
    for atlas TSV; with the whole text built first 34.3 MB and 8.1 MB
    (Python 3.11.7, Linux, three runs each)."""
    def peak_kb(a, b):
        return fresh_peak_rss_kb(*command, "--a", str(a), "--b", str(b))

    grown_kb = peak_kb(6, 5) - peak_kb(1, 1)
    assert grown_kb < bound_mb * 1024, grown_kb


def test_meta_goes_to_stderr_only(capsys, monkeypatch):
    """--meta leaves stdout and the exit code alone and writes one JSON
    line after the command has run, whatever its exit code, argparse
    usage errors included."""
    def broken(q, lam):
        raise RuntimeError("boom")

    monkeypatch.setattr("aql.cli.enumerate_packet", broken)
    for argv, exit_code in (
        (("aq", "--blocks", "1,1"), 0),
        (("convergence", "check", "--blocks", "1,1;1,1"), 1),
        (("lift", "verify", "--blocks", "2,2", "--bound=-1"), 2),
        (("packet", "--blocks", "1,0;0,1"), 3),
        (("atlas", "--a", "x", "--b", "1"), 2),
    ):
        code, plain, plain_err = run_cli(capsys, *argv)
        assert code == exit_code
        code, out, err = run_cli(capsys, "--meta", *argv)
        assert code == exit_code
        assert out == plain
        *diagnostics, last = err.splitlines()
        assert "".join(line + "\n" for line in diagnostics) == plain_err
        meta = json.loads(last)
        assert meta["tool"] == "aql"
        assert meta["argv"] == ["--meta", *argv]
        assert meta["exit"] == exit_code
        assert meta["elapsed_s"] >= 0
        # a usage error runs no command, so it has no command stage
        stages = meta["stages"]
        usage_error = plain_err.startswith("usage:")
        assert list(stages) == (["parse_s"] if usage_error else ["parse_s", "command_s"])
        assert all(value >= 0 for value in stages.values())
        # in whole microseconds, the unit all three are rounded to
        micros = [round(value * 1e6) for value in stages.values()]
        assert sum(micros) <= round(meta["elapsed_s"] * 1e6)


# argv that name a command with nothing but --meta before it
COMMAND_ARGV = [
    ("partitions", "enumerate", "--a", "2", "--b", "2", "--count"),
    ("partitions", "enumerate", "--a", "2", "--b", "1"),
    ("aq", "--blocks", "1,0;1,1;0,1", "--lambda", "2,1,0"),
    ("aq", "--blocks", "2,1"),
    ("packet", "--blocks", "1,0;0,1", "--lambda=1,0"),
    ("lift", "construct", "--blocks", "1,0;2,2;0,1", "--r0", "2", "--chi", "0,0"),
    ("lift", "verify", "--blocks", "1,0;1,1", "--lambda", "1,0", "--r0", "2", "--chi", "1,1"),
    ("lift", "verify", "--blocks", "1,0;2,2;0,1", "--json", "--bound", "2"),
    ("convergence", "check", "--blocks", "1,0;2,2;0,1", "--lax"),
    ("atlas", "--a", "2", "--b", "2", "--format", "tsv", "--out", "x.tsv", "--lax"),
    ("--meta", "aq", "--blocks", "1,1"),
    ("--me", "lift", "verify", "--blocks", "1,0;1,1"),
    ("--m", "--meta", "atlas", "--a", "1", "--b", "1"),
    ("aq", "--blocks", "1,0;0,1", "--lambda", "-1,-2"),
    ("aq", "--blocks", "1,0;0,1", "--lam", "-1,-2"),
    ("lift", "construct", "--blocks", "1,0;1,1", "--ch", "-1,1"),
    # every command's and subcommand's help, after it
    ("partitions", "--help"),
    ("partitions", "enumerate", "-h"),
    ("aq", "--help"),
    ("packet", "-h"),
    ("lift", "-h"),
    ("lift", "construct", "--help"),
    ("lift", "verify", "--help"),
    ("convergence", "--help"),
    ("convergence", "check", "-h"),
    ("atlas", "--help"),
    # usage errors inside a command
    ("aq",),
    ("lift",),
    ("lift", "bogus"),
    ("partitions", "enumerate", "--a", "2"),
    ("aq", "--blocks", "1,0", "--bogus"),
    ("lift", "verify", "--blocks", "1,1", "--bound", "x"),
    ("atlas", "--a", "2", "--b", "2", "--format", "xml"),
    ("convergence", "check", "--blocks", "1,1", "--la", "-1,1"),
]
# argv with something other than --meta before the command, or no command
TOP_ARGV = [
    (),
    ("--help",),
    ("-h", "aq"),
    ("--meta", "--help", "aq"),
    ("--meta=x", "aq", "--blocks", "1,1"),
    ("--", "aq", "--blocks", "1,1"),
    ("frobnicate",),
    ("--meta", "frobnicate"),
    ("--bogus", "aq", "--blocks", "1,1"),
    ("--meta",),
]
GOLDEN_ARGV = [
    ("aq", "--blocks", "1,0;1,1;0,1", "--lambda", "2,1,0"),
    ("lift", "verify", "--blocks", "1,0;1,1", "--lambda", "1,0", "--r0", "2", "--chi", "1,1"),
    ("lift", "verify", "--blocks", "1,0;2,2;0,1", "--json"),
    ("partitions", "enumerate", "--a", "2", "--b", "2", "--count"),
]

# each command's options with sample values (None for a switch): valid,
# negative, empty and malformed ones, all small enough to run at once
_BLOCK_VALUES = ["1,1", "1,0;0,1", "1,0;1,1", "2,1", "1,0;2,2;0,1", "", "x", "1.5,0", "-1,2"]
_LAMBDA_VALUES = ["0", "1,0", "2,1,0", "-1,-2", "0,-1", "", "0,1", "1.5", "1,,0", "1,x"]
_CHI_VALUES = ["0,0", "1,1", "-1,1", "0,1", "1", "1.5,1", ",1", "a,b"]
_SOURCE_OPTIONS = {"--blocks": _BLOCK_VALUES, "--lambda": _LAMBDA_VALUES,
                   "--r0": ["1", "2", "9", "-1", "x"], "--chi": _CHI_VALUES}
_SAMPLES = {
    ("partitions", "enumerate"): {"--a": ["0", "1", "2", "-1", "x", " 2"],
                                  "--b": ["0", "1", "2", "+1", "1.5"], "--count": None},
    ("aq",): {"--blocks": _BLOCK_VALUES, "--lambda": _LAMBDA_VALUES},
    ("packet",): {"--blocks": _BLOCK_VALUES, "--lambda": _LAMBDA_VALUES},
    ("lift", "construct"): _SOURCE_OPTIONS,
    ("lift", "verify"): {**_SOURCE_OPTIONS, "--bound": ["0", "2", "3", "-1", "x"], "--json": None},
    ("convergence", "check"): {"--blocks": _BLOCK_VALUES, "--lax": None},
    ("atlas",): {"--a": ["0", "1", "2", "-1", "y"], "--b": ["0", "1", "2", "x"],
                 "--format": ["json", "tsv", "xml", "TSV"], "--out": ["x.out", ""], "--lax": None},
}
_STRAYS = ["--bogus", "-h", "--help", "--meta", "--", "extra", "-1", "--count", "--blocks="]
_LEADS = [()] * 6 + [("--meta",)] * 2 + [("--me",), ("--meta=x",), ("-h",), ("--bogus",)]


def _generated_argv(count, seed=28):
    """`count` seeded argv around the grammar: options in any order, each
    spelt out or abbreviated, with "=" or a separate value, some repeated,
    some missing, with stray tokens and leading options."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        words = rng.choice(list(_SAMPLES))
        if rng.random() < 0.05:
            words = words[:1]  # a group without its subcommand, or a lone command
        groups = []
        for name, values in _SAMPLES.get(words, {}).items():
            for _ in range(rng.choice([0] + [1] * 8 + [2])):
                spelt = name[: rng.randint(3, len(name))] if rng.random() < 0.05 else name
                if values is None:
                    groups.append([spelt + "=x" if rng.random() < 0.05 else spelt])
                elif rng.random() < 0.5:
                    groups.append([f"{spelt}={rng.choice(values)}"])
                else:
                    groups.append([spelt, rng.choice(values)])
        rng.shuffle(groups)
        if rng.random() < 0.1:
            groups.insert(rng.randint(0, len(groups)), [rng.choice(_STRAYS)])
        corpus.append((*rng.choice(_LEADS), *words, *itertools.chain.from_iterable(groups)))
    return corpus


def _run_all(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_the_plain_reader_reads_argv_as_argparse_does(tmp_path, monkeypatch):
    """Over the corpus, `_read_plain` either declines an argv or gives the
    attributes argparse gives it, and `run` exits 0, 1 or 2 with no
    traceback and nothing on stdout at exit 2.  About 2,250 argv, a quarter
    of them read plain; about 3 s on 2 CPUs with Python 3.11.7."""
    monkeypatch.chdir(tmp_path)  # for --out
    corpus = COMMAND_ARGV + TOP_ARGV + GOLDEN_ARGV + _generated_argv(2200)
    parser = build_parser()
    read = 0
    for argv in corpus:
        attached = _attach_values(list(argv))
        plain = _read_plain(attached)
        if plain is not None:
            read += 1
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert vars(plain) == vars(parser.parse_args(attached)), argv
        code, out, err = _run_all(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert code != 2 or out == "", argv
    assert all(_read_plain(list(argv)) for argv in GOLDEN_ARGV)
    assert not any(_read_plain(_attach_values(list(argv))) for argv in TOP_ARGV)
    assert read > 400 and len(corpus) - read > 400, read  # both paths see many
    code, out, err = _run_all(("--help",))
    assert (code, err) == (0, "")
    commands = ("partitions", "aq", "packet", "lift", "convergence", "atlas")
    assert "{" + ",".join(commands) + "}" in out.splitlines()[0]
    listed = re.findall(r"^    (\w+) ", out, re.MULTILINE)
    assert tuple(listed) == commands, out


def through_main(argv, setup=""):
    """A child that runs `setup` on `c` (aql.cli), registers an atexit hook
    that writes to stderr and then calls `c.main()` with argv."""
    code = ("import atexit, sys, aql.cli as c\n" + setup
            + "atexit.register(sys.stderr.write, 'atexit hook ran\\n')\nc.main()\n")
    return [sys.executable, "-c", code, *argv]


def _untimed(err):
    return re.sub(r'"(elapsed_s|parse_s|command_s)": [^,}]+', r'"\1": 0', err)


MAIN_CASES = {
    **{f"golden-{i}": (argv, "", 0) for i, argv in enumerate(GOLDEN_ARGV)},
    "lift-false": (("lift", "verify", "--blocks", "1,0;1,1"), FAIL_LIFT, 1),
    "value-error": (("aq", "--blocks", "x"), "", 2),
    "usage": (("aq",), "", 2),
    "help": (("--help",), "", 0),
    "meta": (("--meta", "aq", "--blocks", "1,0;1,1;0,1", "--lambda", "2,1,0"), "", 0),
    "internal-error": (BROKEN_PACKET[2:], BREAK_PACKET, 3),
}


@pytest.mark.parametrize("argv, setup, exit_code", MAIN_CASES.values(), ids=MAIN_CASES.keys())
def test_main_ends_the_process_with_the_output_of_run(argv, setup, exit_code, monkeypatch):
    """`main()` ends its process with os._exit after a flush: exit code,
    stdout and stderr (the --meta line without its timings) are those of
    run() in this process, and an atexit hook never runs."""
    done = subprocess.run(through_main(argv, setup), env=SRC_ENV, capture_output=True, text=True,
                          timeout=60)
    for name in ("enumerate_packet", "full_report"):  # so that monkeypatch undoes `setup`
        monkeypatch.setattr(cli, name, getattr(cli, name))
    exec(setup, {"c": cli})
    code, out, err = _run_all(argv)
    assert code == exit_code
    assert (done.returncode, done.stdout, _untimed(done.stderr)) == (code, out, _untimed(err))
    assert "atexit hook ran" not in done.stderr


def test_main_writes_atlas_out_with_the_bytes_of_stdout(tmp_path, capsys):
    target = tmp_path / "table.json"
    argv = ("atlas", "--a", "2", "--b", "2", "--lax")
    done = subprocess.run(through_main((*argv, "--out", str(target))), env=SRC_ENV,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert target.read_text(encoding="utf-8") == run_cli(capsys, *argv)[1]


# runs that write no JSON, and one that does
IMPORTS = [
    (("atlas", "--a", "2", "--b", "1", "--format", "tsv"), False),
    (("lift", "verify", "--blocks", "1,0;1,1"), False),
    (("partitions", "enumerate", "--a", "2", "--b", "2", "--count"), False),
    (("aq",), False),
    (("aq", "--blocks", "1,1"), True),
    (("--help",), False),
]
# the usage error and the help of IMPORTS, which argparse writes
ARGPARSE_RUNS = [("aq",), ("--help",)]


@pytest.mark.parametrize("argv, loads_json", IMPORTS)
def test_json_is_imported_only_to_write_json(argv, loads_json, capsys):
    """A fresh `aql` run loads `json` only to write a JSON document, and a
    well-formed one loads neither argparse nor what argparse pulls in
    (`gettext`, `locale`); help and usage errors load argparse.  Its stdout
    and exit code are those of run() in this process."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "aql.cli", *argv],
                          env=SRC_ENV, capture_output=True, text=True, timeout=60)
    imported = set(re.findall(r"^import time:.*\|\s+(\S+)$", done.stderr, re.MULTILINE))
    if argv in ARGPARSE_RUNS:
        assert "argparse" in imported, done.stderr
    else:
        assert not imported & {"argparse", "gettext", "locale"}, done.stderr
    assert ("json" in imported) == loads_json
    assert (done.returncode, done.stdout) == run_cli(capsys, *argv)[:2]


def test_meta_counts_the_atlas_rows(capsys, tmp_path):
    """An atlas run's meta line counts its rows; stdout, the --out file and
    the exit code are those of the run without --meta."""
    for fmt in ("tsv", "json"):
        argv = ("atlas", "--a", "3", "--b", "2", "--format", fmt)
        code, plain, _ = run_cli(capsys, *argv)
        code_meta, out, err = run_cli(capsys, "--meta", *argv)
        assert code == code_meta == 0 and out == plain
        meta = json.loads(err.splitlines()[-1])
        assert meta["rows"] == len(enumerate_compatible(3, 2)) == 41
    target = tmp_path / "table.tsv"
    code, out, err = run_cli(capsys, "--meta", "atlas", "--a", "2", "--b", "2", "--format", "tsv",
                             "--out", str(target))
    assert (code, out) == (0, "") and json.loads(err)["rows"] == 18
    assert len(target.read_text().splitlines()) == 1 + 18
    code, _, err = run_cli(capsys, "--meta", "aq", "--blocks", "1,1")
    assert code == 0 and "rows" not in json.loads(err)


def test_meta_counts_the_lift_cone(capsys):
    """A lift verify run's meta line gives the cone size of its --json
    report and the bound it ran at; stdout and the exit code are those of
    the run without --meta, and no other command writes either key."""
    for extra in ((), ("--bound", "1"), ("--bound", "0"), ("--lambda", "1,0,-1")):
        argv = ("lift", "verify", "--blocks", "2,1;3,3;1,2", *extra)
        _, report, _ = run_cli(capsys, *argv, "--json")
        report = json.loads(report)
        for fmt in ((), ("--json",)):
            code, plain, _ = run_cli(capsys, *argv, *fmt)
            code_meta, out, err = run_cli(capsys, "--meta", *argv, *fmt)
            assert code == code_meta and out == plain
            meta = json.loads(err.splitlines()[-1])
            assert meta["cone_size"] == report["details"]["min_degree"]["cone_size"]
            assert meta["bound"] == report["bound"]
    assert report["details"]["min_degree"]["cone_size"] > 1
    for argv in (("aq", "--blocks", "1,1"), ("atlas", "--a", "2", "--b", "1", "--format", "tsv")):
        code, _, err = run_cli(capsys, "--meta", *argv)
        meta = json.loads(err.splitlines()[-1])
        assert code == 0 and "cone_size" not in meta and "bound" not in meta


BIG_CONE = ("lift", "verify", "--blocks", "3,0;0,3;3,0;0,3;1,1", "--r0", "5")


def test_oversized_cone_exits_two_before_building(capsys, monkeypatch):
    """C(5+36, 36) = 749,398 cone points exceed MAX_CONE, with the message
    of `k_types_bounded` on the same source and before any root is listed."""
    def untouchable(q):
        raise AssertionError("delta_u_p called past the cone cap")

    monkeypatch.setattr("aql.parabolic.delta_u_p", untouchable)
    source = build_source(ThetaStableAlgebra(((3, 0), (0, 3), (3, 0), (0, 3), (1, 1))), None, 5)
    with pytest.raises(ValueError) as error:
        k_types_bounded(source.source_q, source.source_lambda, 5)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *BIG_CONE, "--bound", "5")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: cone at bound 5 over 36 roots") and err.count("\n") == 1
    assert err == f"error: {error.value}\n"


def test_oversized_cone_is_refused_before_its_roots_are_listed(capsys, monkeypatch):
    """The cap reads the root count off the block list: the 90,000 roots
    of the (300,0),(0,300) source are never listed, whatever the bound."""
    def untouchable(q):
        raise AssertionError("delta_u_p called past the cone cap")

    monkeypatch.setattr("aql.parabolic.delta_u_p", untouchable)
    for bound in ("3", "1000000"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "lift", "verify", "--blocks", "300,0;0,300;1,1", "--r0", "3", "--bound", bound
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: cone at bound {bound} over 90000 roots has more than 200000 points;"
            " lower the bound\n"
        )


WIDE_SOURCE = ("lift", "verify", "--blocks", "200,0;0,200;1,1", "--r0", "3")


def test_bound_zero_lists_no_roots(capsys, monkeypatch):
    """At bound 0 the cone is the lowest K-type alone, so the 40,000 roots
    of the (200,0),(0,200) source are never listed."""
    def untouchable(q):
        raise AssertionError("delta_u_p called at bound 0")

    monkeypatch.setattr("aql.parabolic.delta_u_p", untouchable)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *WIDE_SOURCE, "--bound", "0")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out.endswith("mindegree_ok: true (bound 0)\nall checks passed\n")


def test_wide_cone_is_refused_by_its_coordinates(capsys, monkeypatch):
    """At bound 1 the cone of the same source has 40,001 points, under
    MAX_CONE, but with its roots it holds 80,001 weights of 400 coordinates,
    over the MAX_CONE * MAX_FRAME budget."""
    def untouchable(q):
        raise AssertionError("delta_u_p called past the cone budget")

    monkeypatch.setattr("aql.parabolic.delta_u_p", untouchable)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *WIDE_SOURCE, "--bound", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: cone at bound 1 over 40000 roots has more than 2600000 coordinates"
    )
    assert err.count("\n") == 1


def test_a_cone_without_roots_ends_at_once_whatever_the_bound(capsys):
    """The (1,0) source has no root, so its cone is one point at any bound;
    the search must not walk through the bound's empty levels."""
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "lift", "verify", "--blocks", "1,0;1,1", "--r0", "2", "--bound", str(10**12)
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.endswith(f"mindegree_ok: true (bound {10**12})\nall checks passed\n")


def test_cone_under_the_cap_still_runs(capsys):
    """C(4+36, 36) = 91,390 stays under MAX_CONE."""
    code, out, _ = run_cli(capsys, *BIG_CONE, "--bound", "4")
    assert code == 0
    assert out.endswith("mindegree_ok: true (bound 4)\nall checks passed\n")


def test_convergence_lax_flag(capsys):
    code, out, _ = run_cli(
        capsys, "convergence", "check", "--blocks", "1,0;2,2;0,1", "--lax"
    )
    assert code == 0
    assert json.loads(out)["lax"] is True


def _flag(name, values):
    """An absent flag, or the flag with a value attached by '='."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


_valid_blocks = (
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4)
    .filter(lambda bs: sum(a + b for a, b in bs) <= 5)
    .map(lambda bs: ";".join(f"{a},{b}" for a, b in bs))
)
_blocks = st.one_of(
    _valid_blocks, st.sampled_from(["", "x", "1", "1,0;", "1.5,0", "-1,2", "1,2,3"])
).map(lambda text: [f"--blocks={text}"])
_lambda = _flag(
    "--lambda", st.lists(st.integers(-3, 3), max_size=5).map(lambda v: ",".join(map(str, v)))
)
_chi = _flag(
    "--chi",
    st.one_of(
        st.tuples(st.integers(-2, 3), st.integers(-2, 3)).map(lambda c: f"{c[0]},{c[1]}"),
        st.sampled_from(["1", "a,b", ""]),
    ),
)
_frame = st.tuples(st.integers(-1, 5), st.integers(-1, 5)).filter(lambda f: sum(f) <= 5)
def _switch(name):
    return st.sampled_from([[], [name]])


def _argv_lists(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])


_argv = st.one_of(
    _argv_lists(
        st.just(["partitions", "enumerate"]),
        _frame.map(lambda f: [f"--a={f[0]}", f"--b={f[1]}"]),
        _switch("--count"),
    ),
    _argv_lists(st.sampled_from([["aq"], ["packet"]]), _blocks, _lambda),
    _argv_lists(
        st.just(["lift", "construct"]), _blocks, _lambda, _flag("--r0", st.integers(-1, 5)), _chi
    ),
    _argv_lists(
        st.just(["lift", "verify"]),
        _blocks,
        _lambda,
        _flag("--r0", st.integers(-1, 5)),
        _chi,
        _flag("--bound", st.integers(-1, 3)),
        _switch("--json"),
    ),
    _argv_lists(st.just(["convergence", "check"]), _blocks, _switch("--lax")),
    _argv_lists(
        st.just(["atlas"]),
        _frame.map(lambda f: [f"--a={f[0]}", f"--b={f[1]}"]),
        _flag("--format", st.sampled_from(["json", "tsv", "xml"])),
        _switch("--lax"),
    ),
    st.lists(st.sampled_from(["aq", "lift", "verify", "--blocks", "1,1", "--bound", "x", "--json"])),
)


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(_argv)
def test_any_small_argv_exits_cleanly_and_deterministically(argv):
    code, first = _run_captured(argv)
    assert code in (0, 1, 2), argv
    assert _run_captured(argv) == (code, first), argv
