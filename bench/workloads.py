"""The three workloads: one closed-loop client, one instance at a time.

Each workload runs in rounds.  A round is a fixed batch of instances made
from the seed; an instance is one net pair (engine, all its queries, and
the export or convergence) or one CLI check.  Timed regions cover only the
calls into ocnsim; inputs are drawn and files written before them, and
verdicts are checked against the oracle after the run.

While a timed run goes on, a `HostMeter` times a fixed reference ten times a
second, or after each CLI check; each instance records how slow the host was
while it ran, so that its time can be put at a nominal host speed (see
`host_adjusted`).
"""

from __future__ import annotations

import bisect
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ocnsim import weaksim
from ocnsim.coloring import StrongSimEngine
from ocnsim.core import Config, format_net

import gen
import verify

BENCH = Path(__file__).resolve().parent
WORKDIR = BENCH / "out" / f"tmp-{os.getpid()}"
# the `ocnsim` console script, plus one stderr line with the process's peak
# RSS in kB, read at exit from /proc (ru_maxrss would include the benchmark's
# own pages copied before exec)
CLI_CODE = (
    "import atexit, sys\n"
    "def _hwm():\n"
    "    try:\n"
    "        with open('/proc/self/status') as fh:\n"
    "            kb = [l.split()[1] for l in fh if l.startswith('VmHWM:')][0]\n"
    "    except (OSError, IndexError):\n"
    "        return\n"
    "    print('bench-peak-rss-kb', kb, file=sys.stderr)\n"
    "atexit.register(_hwm)\n"
    "from ocnsim.cli import main\n"
    "sys.exit(main())\n"
)
CLI_TIMEOUT_S = 60
EXIT_OF = {"true": 0, "false": 1, "undecided": 2}

STRONG_GRID = 26
STRONG_PANEL = len(gen.STATE_COUNTS) ** 2 * len(gen.ACTION_SETS)
WEAK_GRID = range(0, 16, 3)
WEAK_PANEL = 5
CLI_PANEL = 20
# oracle checks per strong pair and per weak instance; every CLI verdict
STRONG_SAMPLE, WEAK_SAMPLE = 2, 6
# the references and their times on the nominal host: the loop of
# REF_ITERS iterations at 100 ns each, timed every SAMPLE_EVERY_S, and a bare
# interpreter start, timed after each CLI check
REF_ITERS = 20_000
REF_NOMINAL_S = REF_ITERS * 1e-7
SAMPLE_EVERY_S = 0.1
START_NOMINAL_S = 0.01


@dataclass
class Instance:
    """One instance's timings and verdicts; `cases` keeps what the oracle
    needs to check the verdicts after the timed region."""

    wall: float = 0.0
    setup: float = 0.0
    verdicts: int = 0
    undecided: int = 0
    crashed: int = 0
    cases: list = field(default_factory=list)
    solve_ms: float | None = None
    rss_kb: int = 0
    key: int = 0
    slow: float = 1.0  # reference time over its nominal while the instance ran


def reference_s() -> float:
    """Seconds for the reference loop: pure integer arithmetic, with no
    allocation the garbage collector tracks.  Of the loops tried, its speed
    followed the engine's speed most closely as the shared host's speed
    changed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def start_reference_s() -> float:
    """Seconds for a bare interpreter (no site packages) to start and exit:
    the reference for work done in a child process, whose speed it followed
    three times more closely than the loop's."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


class HostMeter:
    """Host speed over time: a SIGALRM handler times the reference loop
    every SAMPLE_EVERY_S seconds, also while a long instance runs.  `clock()`
    is perf_counter less the time spent sampling, so timings taken with it
    leave the samples out."""

    def __init__(self) -> None:
        self.at: list[float] = []  # clock() when each sample began
        self.slow: list[float] = []  # reference time over its nominal
        self.spent = 0.0
        self.running = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _record(self, reference, nominal: float) -> None:
        t0 = time.perf_counter()
        slow = reference() / nominal
        self.at.append(t0 - self.spent)
        self.slow.append(slow)
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self._record(reference_s, REF_NOMINAL_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    @contextmanager
    def child_work(self):
        """For a block in which a child process does the work: no loop
        samples inside it, which would take the core from the child, and a
        bare interpreter start timed after it."""
        if not self.running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self._record(start_reference_s, START_NOMINAL_S)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def slow_between(self, c0: float, c1: float) -> float:
        """Median slowness of the samples taken from c0 to c1 and of the
        nearest sample on either side; 1 when there is none."""
        lo = max(bisect.bisect_left(self.at, c0) - 1, 0)
        window = self.slow[lo:bisect.bisect_right(self.at, c1) + 1]
        return statistics.median(window) if window else 1.0


def host_adjusted(seconds: float, inst: Instance) -> float:
    """`seconds` spent in `inst`, put at the nominal host speed."""
    return seconds / inst.slow


def measured(items, run_one, meter: HostMeter) -> list[Instance]:
    """`run_one(i, item)` for each item; each instance records the host
    speed `meter` saw while it ran."""
    out = []
    for i, item in enumerate(items):
        c0 = meter.clock()
        inst = run_one(i, item)
        inst.slow = meter.slow_between(c0, meter.clock())
        out.append(inst)
    return out


def _crash(inst: Instance, what: str) -> None:
    inst.crashed += 1
    print(f"bench: {what} raised:\n{traceback.format_exc()}", file=sys.stderr)


# -- strong-grid -------------------------------------------------------------


def strong_round(seed: int, index: int, size: int, tracer, meter: HostMeter) -> list[Instance]:
    """The whole panel once: every round asks the same queries."""
    lo = gen.strong_origin(seed)
    grid = range(lo, lo + STRONG_GRID)

    def run_one(i, pair):
        sp, dup = pair
        inst = Instance(key=i)
        if tracer is not None:
            tracer.begin_instance(index * 1000 + i)
        answers = []
        t0 = meter.clock()
        t1 = None
        try:
            eng = StrongSimEngine(sp, dup)
            t1 = meter.clock()
            for q in sp.states:
                for q2 in dup.states:
                    for n in grid:
                        for m in grid:
                            answers.append(eng.decide((q, n), (q2, m)))
            exported = eng.export_coloring()
        except Exception:
            exported = None
            _crash(inst, "strong-grid instance")
        t2 = meter.clock()
        if tracer is not None:
            tracer.end_instance()
        inst.wall, inst.setup = t2 - t0, (t1 or t2) - t0
        inst.verdicts = len(answers) + 1
        inst.undecided = answers.count(None) + (exported is None and not inst.crashed)
        inst.cases = [(sp, dup, lo, answers)]
        return inst

    return measured(gen.strong_panel()[:size], run_one, meter)


def _repeats(instances: list[Instance], answers_of):
    """Instances seen for the first time; a later round that asks the same
    queries must repeat the first answers exactly, else it yields None."""
    first: dict[int, list] = {}
    for inst in instances:
        answers = answers_of(inst)
        if inst.key in first:
            if answers != first[inst.key]:
                yield None
            continue
        first[inst.key] = answers
        yield inst


def strong_checks(instances: list[Instance], rng: random.Random):
    """A seeded sample of decided verdicts of each panel pair."""
    for inst in _repeats(instances, lambda i: i.cases[0][3]):
        if inst is None:
            yield None
            continue
        sp, dup, lo, answers = inst.cases[0]
        idx = [i for i, a in enumerate(answers) if a is not None]
        for i in rng.sample(idx, min(STRONG_SAMPLE, len(idx))):
            pair, rest = divmod(i, STRONG_GRID * STRONG_GRID)
            q, q2 = sp.states[pair // len(dup.states)], dup.states[pair % len(dup.states)]
            n, m = divmod(rest, STRONG_GRID)
            yield (sp, dup), (q, lo + n), (q2, lo + m), answers[i], False


# -- weak-converge -----------------------------------------------------------


def weak_round(seed: int, index: int, size: int, tracer, meter: HostMeter) -> list[Instance]:
    def run_one(i, pair):
        sp, dup = pair
        inst = Instance(key=i)
        q, q2 = gen.weak_queries(seed, i, sp, dup)
        if tracer is not None:
            tracer.begin_instance(index * 1000 + i)
        answers = []
        t0 = meter.clock()
        t1 = None
        try:
            conv = weaksim.converge_weak(sp, dup)
            t1 = meter.clock()
            for n in WEAK_GRID:
                for m in WEAK_GRID:
                    answers.append(conv.decide(Config(q, n), Config(q2, m)))
        except Exception:
            _crash(inst, "weak-converge instance")
        t2 = meter.clock()
        if tracer is not None:
            tracer.end_instance()
        inst.wall, inst.setup = t2 - t0, (t1 or t2) - t0
        inst.verdicts = len(WEAK_GRID) ** 2
        inst.undecided = answers.count(None)
        inst.cases = [(sp, dup, q, q2, answers)]
        return inst

    return measured(gen.weak_panel(size), run_one, meter)


def weak_checks(instances: list[Instance], rng: random.Random):
    """Oracle checks on the first round; later rounds ask the same queries
    and must repeat its answers exactly."""
    points = [(n, m) for n in WEAK_GRID for m in WEAK_GRID]
    for inst in _repeats(instances, lambda i: i.cases[0][4]):
        if inst is None:
            yield None
            continue
        sp, dup, q, q2, answers = inst.cases[0]
        idx = [i for i, a in enumerate(answers) if a is not None]
        for i in rng.sample(idx, min(WEAK_SAMPLE, len(idx))):
            n, m = points[i]
            yield (sp, dup), (q, n), (q2, m), answers[i], True


# -- cli-check ---------------------------------------------------------------


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OCNSIM_THREADS"}
    env["PYTHONPATH"] = str(BENCH.parent / "src")
    return env


def clean_workdir() -> None:
    shutil.rmtree(WORKDIR, ignore_errors=True)


def cli_round(seed: int, index: int, size: int, tracer, meter: HostMeter) -> list[Instance]:
    """The panel's checks once, in a seeded order.  With a tracer, each check
    runs under `cli_child.py` and its tracer state lands in
    `tracer.child_states`."""
    panel = gen.cli_panel(size)
    env = cli_env()
    WORKDIR.mkdir(parents=True, exist_ok=True)

    def run_one(i, key):
        sp, dup, left, right = panel[key]
        inst = Instance(verdicts=1, key=key)
        a, b = WORKDIR / f"{index}_{i}_s.ocn", WORKDIR / f"{index}_{i}_d.ocn"
        a.write_text(format_net(sp), encoding="utf-8")
        b.write_text(format_net(dup), encoding="utf-8")
        args = ["check", "--json", str(a), str(b), f"{left[0]}:{left[1]}", f"{right[0]}:{right[1]}"]
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_CODE, *args]
        else:
            trace_out = WORKDIR / f"{index}_{i}_trace.json"
            env["BENCH_TRACE_OUT"] = str(trace_out)
            env["BENCH_INSTANCE"] = str(index * 1000 + i)
            cmd = [sys.executable, str(BENCH / "cli_child.py"), *args]
        with meter.child_work():
            t0 = meter.clock()
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                proc = None
            inst.wall = meter.clock() - t0
        verdict, elapsed_ms = _cli_verdict(proc)
        if proc is not None:
            inst.rss_kb = max(
                (int(l.split()[1]) for l in proc.stderr.splitlines() if l.startswith("bench-peak-rss-kb")),
                default=0,
            )
        if verdict is None:
            inst.crashed = 1
            err = proc.stderr[-2000:] if proc is not None else "timed out"
            print(f"bench: CLI check printed no verdict: {args}\n{err}", file=sys.stderr)
            inst.setup = inst.wall
        else:
            inst.setup = inst.wall - elapsed_ms / 1000
            inst.solve_ms = elapsed_ms
            inst.undecided = verdict == "undecided"
            if verdict != "undecided":
                inst.cases = [(sp, dup, left, right, verdict == "true")]
        if tracer is not None and trace_out.is_file():
            tracer.child_states.append(json.loads(trace_out.read_text(encoding="utf-8")))
        return inst

    return measured(gen.cli_order(seed, index, size), run_one, meter)


def _cli_verdict(proc) -> tuple[str | None, float]:
    """The JSON verdict the CLI printed, if it printed one that matches its
    exit code; anything else is a crash, never a verdict."""
    if proc is None or not proc.stdout.strip():
        return None, 0.0
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        verdict, elapsed_ms = doc["verdict"], float(doc["elapsed_ms"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None, 0.0
    if EXIT_OF.get(verdict) != proc.returncode:
        return None, 0.0
    return verdict, elapsed_ms


def cli_checks(instances: list[Instance], rng: random.Random):
    """Every verdict of the first round; later rounds run the same checks
    and must repeat its verdicts exactly."""
    for inst in _repeats(instances, lambda i: [case[4] for case in i.cases]):
        if inst is None:
            yield None
            continue
        for sp, dup, left, right, verdict in inst.cases:
            yield (sp, dup), left, right, verdict, False


def run_checks(cases) -> dict[str, int]:
    """Oracle verdict on each sampled case; None marks a repeated query
    whose answer changed, which is wrong without asking the oracle."""
    tally = {"checked": 0, verify.WRONG: 0, verify.UNREACHABLE: 0}
    for case in cases:
        tally["checked"] += 1
        outcome = verify.WRONG if case is None else verify.check_verdict(*case)
        if outcome != verify.OK:
            tally[outcome] += 1
            if outcome == verify.WRONG:
                print(f"bench: wrong verdict: {case!r}", file=sys.stderr)
    return tally
