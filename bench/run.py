"""Benchmark of ocnsim: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 bench/run.py                         # all workloads, run_seconds each
    python3 bench/run.py --workload strong-grid --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload cli-check --trace 1
    python3 bench/run.py --smoke                 # small fixed size, for tests

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Metric names, units and bounds come from BENCHMARK.json
at the checkout root.

End-to-end times are host-adjusted seconds: the shared host's speed moves by
up to 1.7x between half-minute windows, in CPU time as much as in wall time,
so each instance's time is divided by how slow the host was while it ran:
the time of a fixed reference (a pure-Python loop, or for CLI checks a bare
interpreter start) over its nominal time.  Raw wall time and the slowness
are printed beside them.

Human-readable lines go to stdout; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 1 when any
checked verdict is wrong or a traced count differs between two hash seeds,
2 when the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 80


@dataclass(frozen=True)
class Workload:
    run_round: Callable  # (seed, round index, size, tracer, meter) -> [Instance]
    checks: Callable  # (instances, rng) -> oracle cases
    size: int  # instances per round
    smoke: int  # instances in the smoke run's single round
    trace_rounds: int  # rounds in a traced run


def workloads() -> dict[str, Workload]:
    import workloads as w

    return {
        "strong-grid": Workload(w.strong_round, w.strong_checks, w.STRONG_PANEL, 6, 1),
        "weak-converge": Workload(w.weak_round, w.weak_checks, w.WEAK_PANEL, 2, 1),
        "cli-check": Workload(w.cli_round, w.cli_checks, w.CLI_PANEL, 4, 1),
    }


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a record of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "ocnsim").glob("*.py"))
    )


def p90(values: list[float]) -> float | None:
    """90th percentile, only when at least ten samples lie beyond it."""
    n = len(values)
    if n < 100 or n - math.ceil(0.9 * n) < 10:
        return None
    return sorted(values)[math.ceil(0.9 * n) - 1]


def collect(name: str, seed: int, size: int, rounds: int | None, seconds: float, tracer=None):
    """Run whole rounds: `rounds` of them, or until the run is within half a
    round of `seconds`, so that it ends about `seconds` after it started."""
    from workloads import HostMeter

    wl = workloads()[name]
    done: list[list] = []
    took: list[float] = []
    meter = HostMeter()
    if tracer is None:  # the meter's samples would land in traced spans
        meter.start()
    try:
        start = time.perf_counter()
        while True:
            done.append(wl.run_round(seed, len(done), size, tracer, meter))
            took.append(time.perf_counter() - start - sum(took))
            if rounds is not None:
                if len(done) == rounds:
                    return done
                continue
            if time.perf_counter() - start + statistics.median(took) / 2 > seconds:
                return done
    finally:
        if tracer is None:
            meter.stop()


def check(name: str, seed: int, rounds: list[list]) -> dict[str, int]:
    import workloads as w

    instances = [i for r in rounds for i in r]
    rng = random.Random(f"check:{name}:{seed}")
    return w.run_checks(workloads()[name].checks(instances, rng))


def tally(rounds: list[list], checked: dict[str, int]) -> dict[str, int]:
    instances = [i for r in rounds for i in r]
    attempted = sum(i.verdicts for i in instances)
    undecided = sum(i.undecided for i in instances)
    crashed = sum(i.crashed for i in instances)
    return {
        "attempted": attempted,
        "undecided": undecided,
        "crashed": crashed,
        "wrong": checked["wrong"],
        "failed": checked["wrong"] + undecided + crashed,
    }


def end_to_end(name: str, rounds: list[list], rss_mb: float) -> tuple[dict, dict]:
    """Metrics and, for the report, what each was computed from.  Every time
    is host-adjusted (see `workloads.host_adjusted`), except `raw.wall_s`."""
    from workloads import host_adjusted as adj

    walls = [sum(adj(i.wall, i) for i in r) for r in rounds]
    setups = [sum(adj(i.setup, i) for i in r) for r in rounds]
    rates = [
        sum(i.verdicts - i.undecided - i.crashed for i in r) / w for r, w in zip(rounds, walls)
    ]
    inst = [adj(i.wall, i) for r in rounds for i in r]
    n_rounds, per_round = len(rounds), len(rounds[0])
    metrics = {
        "wall_s": statistics.median(walls),
        "verdicts_per_s": statistics.median(rates),
        "instance_p50_s": statistics.median(inst),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "raw.wall_s": statistics.median(sum(i.wall for i in r) for r in rounds),
        "host.slowness": statistics.median(i.slow for r in rounds for i in r),
    }
    basis = {
        "wall_s": f"median of {n_rounds} rounds of {per_round} instances",
        "verdicts_per_s": f"median of {n_rounds} rounds",
        "instance_p50_s": f"n={len(inst)}",
        "setup_s": f"median of {n_rounds} rounds, summed per round",
        "peak_rss_mb": "largest CLI child" if name == "cli-check" else "benchmark process",
        "raw.wall_s": "as wall_s, not host-adjusted",
        "host.slowness": f"reference time over its nominal while an instance ran, "
        f"median of {len(inst)} instances",
    }
    tail = p90(inst)
    if tail is not None:
        metrics["instance_p90_s"] = tail
        basis["instance_p90_s"] = f"n={len(inst)}, {len(inst) - math.ceil(0.9 * len(inst))} beyond"
    solve = [adj(i.solve_ms, i) for r in rounds for i in r if i.solve_ms is not None]
    if solve:
        start = [adj(i.setup, i) * 1000 for r in rounds for i in r if i.solve_ms is not None]
        metrics["cli.startup_ms_p50"] = statistics.median(start)
        metrics["cli.solve_ms_p50"] = statistics.median(solve)
        basis["cli.startup_ms_p50"] = basis["cli.solve_ms_p50"] = f"n={len(solve)}"
        tail = p90(solve)
        if tail is not None:
            metrics["cli.solve_ms_p90"] = tail
            basis["cli.solve_ms_p90"] = f"n={len(solve)}"
    return metrics, basis


def peak_rss_mb(rounds: list[list]) -> float:
    """Peak RSS of this process, or of the largest CLI child.  VmHWM covers
    only the current program image; ru_maxrss, the fallback, also counts
    pages of the parent the process was forked from."""
    children = [i.rss_kb for r in rounds for i in r if i.rss_kb]
    if children:
        return max(children) / 1024
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    wl = workloads()[name]
    cal_before = calibrate()
    started = time.perf_counter()
    rounds = collect(name, seed, wl.smoke if smoke else wl.size, 1 if smoke else None, seconds)
    measured = time.perf_counter() - started
    rss = peak_rss_mb(rounds)
    checked = check(name, seed, rounds)
    counts = tally(rounds, checked)
    metrics, basis = end_to_end(name, rounds, rss)
    metrics["failed_frac"] = counts["failed"] / counts["attempted"]
    basis["failed_frac"] = f"{counts['failed']} of {counts['attempted']} verdicts"
    return {
        "workload": name, "seed": seed, "trace": 0, "measured_s": measured,
        "calibration_s": [cal_before, calibrate()], "metrics": metrics, "basis": basis,
        "instance_walls": [[i.wall for i in r] for r in rounds],
        "instance_slowness": [[i.slow for i in r] for r in rounds],
        "checked": checked, **counts, "mismatches": [],
    }


def child_run(name: str, seed: int, smoke: bool, untraced_too: bool, out: Path) -> None:
    """One traced pass over a fixed set of rounds, optionally preceded by
    the same pass untraced; writes its results to `out`."""
    import workloads as w
    from tracing import Tracer, merge_states

    wl = workloads()[name]
    size = wl.smoke if smoke else wl.size
    n_rounds = 1 if smoke else wl.trace_rounds
    doc: dict = {}
    if untraced_too:
        plain = collect(name, seed, size, n_rounds, 0)
        doc["untraced_s"] = sum(i.wall for r in plain for i in r)
        doc["plain"], _ = end_to_end(name, plain, 0.0)
    tracer = Tracer()
    if name != "cli-check":
        tracer.install()
    try:
        traced = collect(name, seed, size, n_rounds, 0, tracer)
    finally:
        tracer.uninstall()
        w.clean_workdir()
    doc["traced_s"] = sum(i.wall for r in traced for i in r)
    state = merge_states([tracer.state(), *tracer.child_states])
    checked = check(name, seed, traced)
    doc.update(state=state, checked=checked, **tally(traced, checked))
    out.write_text(json.dumps(doc), encoding="utf-8")


def traced_run(name: str, seed: int, smoke: bool) -> dict:
    """Two traced passes under different hash seeds; counts must agree."""
    from tracing import COUNT_KEYS, summarize

    docs = []
    for hash_seed, untraced_too in (("1", True), ("2", False)):
        out = OUT / f"child-{name}-{seed}-{hash_seed}.json"
        cmd = [sys.executable, str(Path(__file__)), "--child", str(out),
               "--workload", name, "--seed", str(seed)]
        cmd += ["--smoke"] * smoke + ["--untraced-too"] * untraced_too
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run(cmd, env=env, check=True, timeout=CHILD_TIMEOUT_S)
        docs.append(json.loads(out.read_text(encoding="utf-8")))
        out.unlink()
    first, second = (summarize(d["state"]) for d in docs)
    mismatches = [k for k in COUNT_KEYS if first[k] != second[k]]
    metrics = dict(first)
    metrics["trace.overhead_frac"] = docs[0]["traced_s"] / docs[0]["untraced_s"] - 1
    metrics["src_lines"] = src_lines()
    for key in ("cli.startup_ms_p50", "cli.solve_ms_p50", "cli.solve_ms_p90"):
        if key in docs[0]["plain"]:
            metrics[key] = docs[0]["plain"][key]
    write_spans(docs[0]["state"]["spans"], OUT / f"spans-{name}-seed{seed}.jsonl")
    counts = {k: docs[0][k] + docs[1][k] for k in ("attempted", "undecided", "crashed", "wrong")}
    counts["failed"] = counts["wrong"] + counts["undecided"] + counts["crashed"] + len(mismatches)
    checked = {k: docs[0]["checked"][k] + docs[1]["checked"][k] for k in docs[0]["checked"]}
    return {
        "workload": name, "seed": seed, "trace": 1, "metrics": metrics,
        "basis": {k: "traced pass, hash seed 1" for k in metrics},
        "checked": checked, **counts, "mismatches": mismatches,
    }


def write_spans(spans: list[list], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in spans:
            fh.write(json.dumps(rec[:5]) + "\n")


def report(res: dict, spec: dict) -> dict:
    """Print every metric with unit and basis; return those the final JSON line carries."""
    listed = spec["per_layer"] if res["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {res['workload']} seed {res['seed']} trace {res['trace']}")
    for key, value in res["metrics"].items():
        unit = units.get(key, "s" if key.endswith("_s") else "")
        print(f"  {key:32s} {value:14.6g} {unit:6s} {res['basis'].get(key, '')}")
    c = res["checked"]
    print(f"  oracle: {c['checked']} sampled verdicts checked, {c['wrong']} wrong, "
          f"{c['unreachable']} false verdicts beyond the oracle's reach")
    print(f"  attempted {res['attempted']}, undecided {res['undecided']}, "
          f"crashed {res['crashed']}, wrong {res['wrong']}")
    if "calibration_s" in res:
        print("  host calibration loop: {:.4f} s before, {:.4f} s after".format(*res["calibration_s"]))
    if res["mismatches"]:
        print(f"  COUNT MISMATCH between hash seeds: {', '.join(res['mismatches'])}")
    return {m["name"]: {"value": res["metrics"].get(m["name"], 0), "unit": m["unit"]} for m in listed}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one small fixed round per workload")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--untraced-too", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ocnsim" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: {ROOT} holds no src/ocnsim package or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(workloads()) if args.workload == "all" else [args.workload]
    if any(n not in workloads() for n in names):
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # one core for the run and the CLI children it starts, so that the
    # references the host adjustment rests on run where the work runs
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"bench: running on every allowed core: {exc}", file=sys.stderr)
    if args.child is not None:
        child_run(args.workload, args.seed, args.smoke, args.untraced_too, args.child)
        return 0

    import workloads as w

    results, out_metrics = [], {}
    try:
        for name in names:
            if args.trace:
                res = traced_run(name, args.seed, args.smoke)
            else:
                res = timed_run(name, args.seed, seconds, args.smoke)
            suffix = "-smoke" if args.smoke else ""
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
            path.write_text(json.dumps(res, indent=1, default=str), encoding="utf-8")
            metrics = report(res, spec)
            out_metrics.update(
                metrics if len(names) == 1 else {f"{name}.{k}": v for k, v in metrics.items()}
            )
            results.append(res)
    finally:
        w.clean_workdir()
    correct = all(r["wrong"] == 0 and not r["mismatches"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
