"""The three benchmark workloads: ``lift``, ``atlas`` and ``cli``.

Each workload builds its inputs from a seed in its constructor (the set-up
that ``setup_s`` times), runs a closed loop with one client in
``measure`` and a fixed amount of work under the tracer in ``trace``, and
checks every output it produces.  Library functions are always called
through their module (``thetalift.build_source``), so that the tracer's
patches are seen.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from aql import arthur, cli, convergence, parabolic, partitions, thetalift

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"
GOLDEN = ROOT / "tests" / "golden"
SCHEMA = ROOT / "src" / "aql" / "schema.json"


@dataclass
class Outcome:
    """What one measured or traced stretch did."""

    attempted: int = 0
    failed: int = 0
    items: int = 0
    rate: float = 0.0  # items per second
    latencies_ms: List[float] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)  # perf_counter() per latency
    slowdown: float = 1.0  # hostspeed.HostSpeed.slowdown() over the measurement
    peak_rss_kb: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def in_reference_seconds(out: Outcome, host: hostspeed.HostSpeed) -> None:
    """Scale each latency by the slowdown around it; one client in a closed
    loop then completes items at the inverse of their mean latency."""
    out.slowdown = host.slowdown()
    out.latencies_ms = [
        ms / host.slowdown(t, t + ms / 1e3) for t, ms in zip(out.starts, out.latencies_ms)
    ]
    out.rate = len(out.latencies_ms) * 1e3 / sum(out.latencies_ms)


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Lift:
    """Seeded lift instances (q, lambda, r0, chi) from the standard family
    with a+b <= 7, each built and checked by all four verifications."""

    MAX_TOTAL = 7
    LAMBDA_VALUES = tuple(range(3, -4, -1))
    BOUND = 3
    TRACE_CHUNK = 200

    def __init__(self, seed: int, smoke: bool):
        size = 40 if smoke else 4000
        # Every (q, r0) of the family carries len(lambdas) * 2 instances.
        # The sample gives each (q, r0) its share of `size` by largest
        # remainder, so its cost mix is the family's and does not depend
        # on the seed; the seed draws lambda and the alpha1 parity.
        cells = []
        for n in range(1, self.MAX_TOTAL + 1):
            for a in range(n + 1):
                for q in parabolic.enumerate_standard(a, n - a):
                    for r0 in thetalift.select_r0(q):
                        cells.append((q, r0, comb(len(self.LAMBDA_VALUES) + q.r - 1, q.r) * 2))
        total = sum(w for _, _, w in cells)
        quotas = [size * w / total for _, _, w in cells]
        counts = [int(x) for x in quotas]
        by_remainder = sorted(range(len(cells)), key=lambda i: (counts[i] - quotas[i], i))
        for i in by_remainder[: size - sum(counts)]:
            counts[i] += 1
        rng = random.Random(seed)
        self.instances = []
        for (q, r0, _), k in zip(cells, counts):
            n = q.total
            n_prime = n - q.levi_sizes[r0 - 1]
            for _ in range(k):
                picks = sorted(rng.sample(range(len(self.LAMBDA_VALUES) + q.r - 1), q.r))
                lam = tuple(self.LAMBDA_VALUES[p - i] for i, p in enumerate(picks))
                chi = (n % 2 + 2 * rng.randrange(2), n_prime % 2)
                self.instances.append((q, lam, r0, chi))
        rng.shuffle(self.instances)

    def _check(self, inst, bound: int) -> bool:
        q, lam, r0, chi = inst
        d = thetalift.build_source(q, lam, r0, chi)
        return (
            thetalift.verify_parameter_identity(d)
            & thetalift.verify_inf_char(d)
            & thetalift.verify_k_type(d)
            & thetalift.verify_min_degree(d, bound)
        )

    def _warm_up(self) -> None:
        """Fill the lru_caches: every cached invariant is keyed by the block
        list alone, so the degree search can run at bound 0 here."""
        for inst in self.instances:
            self._check(inst, 0)

    def _run(self, out: Outcome, items, deadline=None, tracer=None, host=None, first=0) -> float:
        """Check `items` until `deadline` seconds have passed; returns the
        time taken, without the host-speed samples'.  `first` numbers the
        items for the tracer."""
        clock = time.perf_counter
        host = host or hostspeed.HostSpeed()  # an unopened one never samples
        start, busy = clock(), host.busy
        for i, inst in enumerate(items):
            if deadline is not None and clock() - start >= deadline:
                break
            if tracer is not None:
                tracer.item = first + i
            out.attempted += 1
            b0, t0 = host.busy, clock()
            try:
                ok = self._check(inst, self.BOUND)
            except Exception as exc:  # a failed operation, not a harness error
                out.fail(f"{inst}: {exc!r}")
                continue
            t1 = clock()
            if ok:
                out.items += 1
                out.starts.append(t0)
                out.latencies_ms.append((t1 - t0 - (host.busy - b0)) * 1e3)
            else:
                out.fail(f"{inst}: a verdict is false")
        return clock() - start - (host.busy - busy)

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        self._warm_up()

        def cycle():
            while True:
                yield from self.instances

        with hostspeed.HostSpeed() as host:
            elapsed = self._run(out, cycle(), seconds, host=host)
        in_reference_seconds(out, host)
        out.notes["wall_clock_items_per_s"] = out.items / elapsed
        out.peak_rss_kb = own_peak_rss_kb()
        out.notes["sample"] = len(self.instances)
        return out

    def trace(self, tracer: tracing.Tracer) -> Outcome:
        """Each chunk of the sample runs untraced and then traced, back to
        back, so that the host's drift cancels in the overhead ratio."""
        out = Outcome()
        self._warm_up()
        caches = tracing.CacheDelta()
        untraced = traced = 0.0
        for first in range(0, len(self.instances), self.TRACE_CHUNK):
            chunk = self.instances[first : first + self.TRACE_CHUNK]
            untraced += self._run(Outcome(), chunk)
            caches.start()
            with tracer.active():
                traced += self._run(out, chunk, tracer=tracer, first=first)
            caches.stop()
        out.layers = {**tracer.metrics(), **caches.metrics()}
        out.layers["trace.overhead_ratio"] = untraced / traced
        out.notes = {"sample": len(self.instances)}
        return out


def render_atlas(a: int, b: int) -> str:
    """The table as ``aql atlas --format tsv`` prints it."""
    rows = convergence.atlas(a, b)
    return convergence.ATLAS_TSV_HEADER + "\n" + "".join(r.to_tsv() + "\n" for r in rows)


class Atlas:
    """Whole atlas tables, each pass from cold caches as in a CLI call."""

    def __init__(self, seed: int, smoke: bool):
        self.tables = [(2, 2), (3, 2)] if smoke else [(5, 5), (6, 5)]
        random.Random(seed).shuffle(self.tables)
        self._reference: Dict[Tuple[int, int], List[str]] = {}

    def reference(self, a: int, b: int) -> List[str]:
        """The TSV lines recorded from the seed commit, header first."""
        if (a, b) not in self._reference:
            with gzip.open(REFERENCE / f"atlas_{a}_{b}.tsv.gz", "rt", encoding="utf-8") as fh:
                self._reference[a, b] = fh.read().splitlines()
        return self._reference[a, b]

    def _pass(self, out: Outcome, a: int, b: int, host=None) -> float:
        """One cold table; every reference row not reproduced in place fails.
        Returns the time taken, without the host-speed samples'."""
        host = host or hostspeed.HostSpeed()
        tracing.clear_caches()
        gc.collect()
        b0, t0 = host.busy, time.perf_counter()
        try:
            got = render_atlas(a, b).splitlines()
        except Exception as exc:
            got = [repr(exc)]
        elapsed = time.perf_counter() - t0 - (host.busy - b0)
        expected = self.reference(a, b)
        rows = len(expected) - 1
        if got[:1] != expected[:1]:
            bad = rows
        else:
            bad = sum(1 for e, g in zip(expected[1:], got[1:]) if e != g)
            bad = min(rows, bad + abs(len(expected) - len(got)))
        out.attempted += rows
        out.items += rows - bad
        if bad:
            out.fail(f"atlas({a},{b}): {bad} rows differ from the reference", bad)
        return elapsed

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        times: Dict[Tuple[int, int], List[float]] = {t: [] for t in self.tables}
        rows = {t: len(self.reference(*t)) - 1 for t in self.tables}
        start = time.perf_counter()
        passes = []
        with hostspeed.HostSpeed() as host:
            # alternate the tables until time is up and each has run once
            while len(passes) < len(self.tables) or time.perf_counter() - start < seconds:
                t = self.tables[len(passes) % len(self.tables)]
                t0 = time.perf_counter()
                passes.append((t, t0, self._pass(out, *t, host=host)))
        # Rows are not timed one by one: each row counts at the mean row time
        # of its pass, so the p50 is a typical pass's and the tail the
        # slowest pass's mean row time.
        for t, t0, dt in passes:
            times[t].append(dt / host.slowdown(t0, t0 + dt))
            out.latencies_ms.extend([times[t][-1] * 1e3 / rows[t]] * rows[t])
        out.slowdown = host.slowdown()
        out.rate = sum(rows.values()) / sum(statistics.median(v) for v in times.values())
        wall = {t: statistics.median(dt for u, _, dt in passes if u == t) for t in self.tables}
        out.peak_rss_kb = own_peak_rss_kb()
        out.notes = {
            "tables": [f"{a}x{b}" for a, b in self.tables],
            "rows": sum(rows.values()),
            "passes": {f"{a}x{b}": len(v) for (a, b), v in times.items()},
            "wall_clock_items_per_s": sum(rows.values()) / sum(wall.values()),
            "latency_item": "one row, at the mean row time of its pass; the tail is the slowest pass",
        }
        return out

    def trace(self, tracer: tracing.Tracer) -> Outcome:
        out = Outcome()
        caches = tracing.CacheDelta()
        untraced = traced = 0.0
        for i, t in enumerate(self.tables):
            untraced += self._pass(Outcome(), *t)
            tracer.item = i
            tracing.clear_caches()
            caches.start()
            with tracer.active():
                traced += self._pass(out, *t)
            caches.stop()
        out.layers = {**tracer.metrics(), **caches.metrics()}
        out.layers["trace.overhead_ratio"] = untraced / traced
        out.notes = {"tables": [f"{a}x{b}" for a, b in self.tables]}
        return out


GOLDEN_CASES = (
    (("aq", "--blocks", "1,0;1,1;0,1", "--lambda", "2,1,0"), "aq_u22.json"),
    (
        ("lift", "verify", "--blocks", "1,0;1,1", "--lambda", "1,0", "--r0", "2", "--chi", "1,1"),
        "lift_verify_u21.txt",
    ),
    (("partitions", "enumerate", "--a", "2", "--b", "2", "--count"), "enumerate_22_count.txt"),
)

MALFORMED = (
    ("aq", "--blocks", "oops"),
    ("aq", "--blocks", "1,0;x,1"),
    ("aq", "--blocks", "1.5,0"),
    ("aq", "--blocks", "1,0;0,1", "--lambda", "0,1"),
    ("aq", "--blocks", "1,0;0,1", "--lambda", "1"),
    ("packet", "--blocks", "1,0;0,0"),
    ("lift", "verify", "--blocks", "1,0;1,1", "--r0", "5"),
    ("lift", "construct", "--blocks", "1,1", "--chi", "1"),
    ("lift", "construct", "--blocks", "1,0;1,1", "--chi", "0,1"),
    ("lift", "verify", "--blocks", "1,1", "--bound", "x"),
    ("convergence", "check"),
    ("partitions", "enumerate", "--a", "2"),
    ("partitions", "enumerate", "--a", "-1", "--b", "2", "--count"),
    ("atlas", "--a", "2", "--b", "2", "--format", "xml"),
    ("frobnicate",),
)

# The kinds of generated invocation.  No measured traffic gives their
# proportions, so the mix assumes an equal share for each: the invocations
# come in rounds that hold every kind once, in a seeded order, and "lift
# verify" alternates between its text and --json forms from round to round.
CLI_KINDS = (
    "aq",
    "packet",
    "lift construct",
    "lift verify",
    "convergence check",
    "partitions enumerate",
    "atlas",
    "malformed",
)


def random_blocks(rng: random.Random, max_total: int) -> List[Tuple[int, int]]:
    """A valid raw block list: a composition of n <= max_total into block
    sizes, each block split at random into (a_i, b_i)."""
    n = rng.randint(1, max_total)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
    return [(k, s - k) for s in sizes for k in [rng.randint(0, s)]]


def child_env() -> Dict[str, str]:
    """A fixed environment for CLI children: no AQL_BOUND, fixed hash seed."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


@dataclass
class Run:
    argv: Tuple[str, ...]
    code: int
    stdout: str
    stderr: str
    latency: float = 0.0
    started: float = 0.0


class Cli:
    """A seeded mix of ``aql`` invocations, each in a fresh interpreter,
    one after another."""

    MAX_TOTAL = 7
    TRACED_ITEMS = 48

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        mix = [argv for argv, _ in GOLDEN_CASES]
        # whole rounds, so that every prefix of the mix keeps the shares
        for r in range(2 if smoke else 50):
            kinds = [k + " --json" if k == "lift verify" and r % 2 else k for k in CLI_KINDS]
            rng.shuffle(kinds)
            mix.extend(self._argv(rng, kind) for kind in kinds)
        self.mix = mix
        self.golden = {argv: (GOLDEN / name).read_text() for argv, name in GOLDEN_CASES}
        self._expected: Dict[Tuple[str, ...], object] = {}
        self._validator = None

    def _argv(self, rng: random.Random, kind: str) -> Tuple[str, ...]:
        if kind == "malformed":
            return rng.choice(MALFORMED)
        if kind == "partitions enumerate":
            n = rng.randint(0, self.MAX_TOTAL)
            a = rng.randint(0, n)
            return ("partitions", "enumerate", "--a", str(a), "--b", str(n - a), "--count")
        if kind == "atlas":
            n = rng.randint(1, 5)
            a = rng.randint(0, n)
            return ("atlas", "--a", str(a), "--b", str(n - a), "--format", "tsv")
        blocks = random_blocks(rng, self.MAX_TOTAL)
        q = parabolic.ThetaStableAlgebra(blocks)
        argv = [*kind.split()[:2], "--blocks", q.unparse()]
        if kind == "convergence check":
            return tuple(argv + (["--lax"] if rng.random() < 0.5 else []))
        lam = sorted((rng.randint(-3, 3) for _ in blocks), reverse=True)
        # argparse reads "-3,-3" as an option, so values go after "="
        argv.append("--lambda=" + ",".join(map(str, lam)))
        if kind.startswith("lift"):
            r0 = rng.choice(thetalift.select_r0(q))
            n = q.total
            chi = (n % 2 + 2 * rng.randrange(2), (n - q.levi_sizes[r0 - 1]) % 2)
            argv += ["--r0", str(r0), "--chi", f"{chi[0]},{chi[1]}"]
        if kind.endswith("--json"):
            argv.append("--json")
        return tuple(argv)

    def _spawn(self, argv: Tuple[str, ...]) -> Tuple[Run, int]:
        """Run one invocation in a fresh interpreter; returns the run and the
        child's peak resident memory in KiB."""
        OUT.mkdir(exist_ok=True)
        # one pair of files per harness process, so that runs side by side
        # in one checkout do not read each other's output
        paths = (OUT / f"cli.{os.getpid()}.stdout", OUT / f"cli.{os.getpid()}.stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(paths[0]), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(paths[1]), flags, 0o644),
        ]
        cmd = [sys.executable, "-m", "aql.cli", *argv]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, child_env(), file_actions=actions, setsigmask=())
        _, status, usage = os.wait4(pid, 0)
        latency = time.perf_counter() - t0
        run = Run(argv, os.waitstatus_to_exitcode(status), paths[0].read_text(),
                  paths[1].read_text(), latency, t0)
        for path in paths:
            path.unlink()
        return run, usage.ru_maxrss

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        runs = []
        start = time.perf_counter()
        with hostspeed.HostSpeed() as host:
            while time.perf_counter() - start < seconds:
                for argv in self.mix:
                    # the reference loop runs between children, not beside them
                    with host.paused():
                        run, rss = self._spawn(argv)
                    runs.append(run)
                    out.peak_rss_kb = max(out.peak_rss_kb, rss)
                    if time.perf_counter() - start >= seconds:
                        break
        elapsed = time.perf_counter() - start - host.busy
        for run in runs:
            self._check(out, run)
        in_reference_seconds(out, host)
        out.notes = {"mix": len(self.mix), "wall_clock_items_per_s": out.items / elapsed}
        return out

    def trace(self, tracer: tracing.Tracer) -> Outcome:
        """Every invocation runs as a child (latency L), then in-process from
        cold caches untraced (U) and traced.  ``cli.spawn_s`` sums L - U:
        interpreter start, import and process overhead."""
        out = Outcome()
        items = self.mix[: self.TRACED_ITEMS]
        caches = tracing.CacheDelta()
        spawn_s = untraced = traced = 0.0
        for i, argv in enumerate(items):
            run, _ = self._spawn(argv)
            self._check(out, run)
            inproc = self._in_process(argv)
            if (inproc.code, inproc.stdout) != (run.code, run.stdout):
                out.fail(f"{' '.join(argv)}: in-process output differs from the child's")
            spawn_s += run.latency - inproc.latency
            untraced += inproc.latency
            tracer.item = i
            tracing.clear_caches()
            caches.start()
            with tracer.active():
                traced += self._in_process(argv).latency
            caches.stop()
        out.layers = {**tracer.metrics(), **caches.metrics()}
        out.layers["cli.spawn_s"] = spawn_s
        out.layers["trace.overhead_ratio"] = untraced / traced
        out.notes = {"invocations": len(items)}
        return out

    @staticmethod
    def _in_process(argv: Tuple[str, ...]) -> Run:
        tracing.clear_caches()
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(list(argv))
        return Run(argv, code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - t0)

    # --- correctness -------------------------------------------------------

    def _check(self, out: Outcome, run: Run) -> None:
        out.attempted += 1
        try:
            problem = self._problem(run)
        except Exception as exc:
            problem = f"checker raised {exc!r}"
        if problem:
            out.fail(f"{' '.join(run.argv)}: {problem}")
        else:
            out.items += 1
            out.starts.append(run.started)
            out.latencies_ms.append(run.latency * 1e3)

    def _problem(self, run: Run) -> Optional[str]:
        """Why the run's output is wrong, or None."""
        argv = run.argv
        if "Traceback" in run.stderr:
            return "traceback"
        if argv in self.golden:
            return None if (run.code, run.stdout) == (0, self.golden[argv]) else "differs from golden file"
        if argv in MALFORMED:
            return None if (run.code, run.stdout) == (2, "") else f"exit {run.code}, expected 2"
        code, fields = self._expected_for(argv)
        if run.code != code:
            return f"exit {run.code}, expected {code}"
        if argv[0] == "atlas":
            return None if run.stdout == fields else "TSV differs from the library"
        if argv[:2] == ("lift", "verify") and "--json" not in argv:
            return None if run.stdout == fields else "verdict lines differ from the library"
        doc = json.loads(run.stdout)
        errors = list(self.validator.iter_errors(doc))
        if errors:
            return f"schema: {errors[0].message}"
        if not isinstance(fields, dict):
            return None if doc == fields else "value differs from the library"
        for key, value in fields.items():
            if doc.get(key) != value:
                return f"field {key!r} differs from the library"
        return None

    @property
    def validator(self):
        if self._validator is None:
            from jsonschema import Draft202012Validator

            self._validator = Draft202012Validator(json.loads(SCHEMA.read_text()))
        return self._validator

    def _expected_for(self, argv: Tuple[str, ...]):
        if argv not in self._expected:
            self._expected[argv] = self._library_result(argv)
        return self._expected[argv]

    @staticmethod
    def _library_result(argv: Tuple[str, ...]):
        """(exit code, expected fields) computed with library calls."""
        def opt(name: str) -> str:
            for i, token in enumerate(argv):
                if token == name:
                    return argv[i + 1]
                if token.startswith(name + "="):
                    return token[len(name) + 1:]
            raise KeyError(name)

        if argv[0] == "partitions":
            return 0, len(partitions.enumerate_compatible(int(opt("--a")), int(opt("--b"))))
        if argv[0] == "atlas":
            return 0, render_atlas(int(opt("--a")), int(opt("--b")))
        q = parabolic.ThetaStableAlgebra.parse(opt("--blocks"))
        if argv[0] == "convergence":
            ok, cert = convergence.is_convergent(q, lax="--lax" in argv)
            return (0 if ok else 1), {
                "convergent": ok,
                "certificate": cert.to_json() if cert else None,
            }
        lam = parabolic.LambdaCharacter.parse(opt("--lambda"))
        if argv[0] == "aq":
            R, R_plus, R_minus = parabolic.cohomological_degree(q)
            return 0, {
                "R": R,
                "R_plus": R_plus,
                "R_minus": R_minus,
                "inf_char": parabolic.inf_char_aq(q, lam).to_json(),
                "lowest_k_type": parabolic.lowest_k_type(q, lam).to_json(),
                "parameter": arthur.psi_lambda_q(q, lam).to_json(),
            }
        if argv[0] == "packet":
            members = parabolic.enumerate_packet(q, lam)
            return 0, {
                "size": len(members),
                "members": [[list(blk) for blk in mq.blocks] for mq, _ in members],
            }
        r0 = int(opt("--r0"))
        chi = tuple(int(v) for v in opt("--chi").split(","))
        d = thetalift.build_source(q, lam, r0, chi)
        if argv[1] == "construct":
            return 0, d.to_json()
        checks = {
            "parameter_ok": thetalift.verify_parameter_identity(d),
            "infchar_ok": thetalift.verify_inf_char(d),
            "ktype_ok": thetalift.verify_k_type(d),
            "mindegree_ok": thetalift.verify_min_degree(d, thetalift.DEFAULT_BOUND),
        }
        code = 0 if all(checks.values()) else 1
        if "--json" in argv:
            return code, {"checks": checks, "bound": thetalift.DEFAULT_BOUND}
        lines = [f"{k}: {'true' if v else 'false'}" for k, v in checks.items()]
        lines[-1] += f" (bound {thetalift.DEFAULT_BOUND})"
        lines.append("all checks passed" if code == 0 else "verification failed")
        return code, "".join(line + "\n" for line in lines)


WORKLOADS = {"lift": Lift, "atlas": Atlas, "cli": Cli}
