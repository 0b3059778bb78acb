"""Spread of the end-to-end metrics over a set of seeds, from the JSON files
`run.py` leaves in bench/out/, and the baseline file built from them.

    python3 bench/baseline.py --seeds 301-310                # print spreads
    python3 bench/baseline.py --seeds 301-310 --trace-seed 301 --write

The spread of a metric is the distance between the first and third
quartiles of its per-seed values, as a share of their median; the benchmark
is steady when each spread stays well within the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(values)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 301-310")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--trace-seed", type=int, help="seed of the traced runs to record")
    ap.add_argument("--write", action="store_true", help="write bench/baseline.json")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    doc = {
        "host": f"{os.cpu_count()}-CPU {platform.system()} {platform.machine()}, "
        f"CPython {platform.python_version()}",
        "command": "python3 bench/run.py --workload <w> --seed <n> --seconds "
        f"{spec['run_seconds']} --trace <0|1>",
        "seeds": [args.seeds[0], args.seeds[-1]],
        "workloads": {},
    }
    steady = True
    for name in names:
        runs = []
        for seed in args.seeds:
            path = OUT / f"{name}-seed{seed}-trace0.json"
            if path.is_file():
                runs.append(json.loads(path.read_text(encoding="utf-8")))
        if len(runs) < 2:
            print(f"{name}: fewer than two runs in {OUT}", file=sys.stderr)
            return 2
        entry = {"end_to_end": {}}
        print(f"== {name}: {len(runs)} runs")
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key] for r in runs if key in r["metrics"]]
            if len(values) < 2 or statistics.median(values) == 0:
                continue
            s = spread(values)
            entry["end_to_end"][key] = s
            mark = ""
            if key in bounds:
                ok = s["spread"] < bounds[key] / 3
                steady &= ok or key == "setup_s"
                mark = f"bound {bounds[key]:g}: {'below a third' if ok else 'NOT below a third'}"
            print(f"  {key:20s} median {s['median']:12.6g}  spread {s['spread']:.3f}  {mark}")
        if args.trace_seed is not None:
            path = OUT / f"{name}-seed{args.trace_seed}-trace1.json"
            if path.is_file():
                traced = json.loads(path.read_text(encoding="utf-8"))
                entry[f"per_layer_seed{args.trace_seed}"] = traced["metrics"]
        doc["workloads"][name] = entry
    if args.write:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        ).stdout.strip()
        doc = {"commit": commit or None, **doc}
        (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
