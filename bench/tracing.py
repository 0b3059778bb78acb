"""Spans and counts around the calls into each ocnsim layer.

The tracer patches the package's public entry points from outside, at the
names the callers look up (`coloring` imports its helpers by name, so they
are patched in `coloring`'s namespace).  Per-point helpers such as
`QuotientColoring.lookup` and `condition_holds` are left alone: wrapping
them would cost more than the work they do.

A span is `[name, start_ns, end_ns, parent_index, instance, info]`.  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its child spans, which nest inside it.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from functools import wraps

from ocnsim import coloring, slope_game, weaksim
from ocnsim.coloring import QuotientColoring, SpoilerAttractor, StrongSimEngine

_now = time.perf_counter_ns

# layer of each span-name prefix; geometry is reported with the slope game
LAYER_OF = {"geometry": "slope_game"}

# counts a traced run must repeat exactly, whatever PYTHONHASHSEED is
COUNT_KEYS = (
    "core.K_max", "core.K_sum", "slope_game.vectors", "slope_game.scans", "geometry.reps",
    "quotient.solves", "quotient.window_points", "quotient.window_points_max",
    "certify.failed", "attractor.ensures", "attractor.recomputes", "attractor.cells",
    "attractor.bound_max", "exact.calls", "engine.decides", "engine.path.zone",
    "engine.path.coloring_yes", "engine.path.attractor_no", "engine.path.exact",
    "engine.path.undecided", "weaksim.levels", "weaksim.approx_K_max",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.warm_decide_ns: list[int] = []
        # states written by traced CLI processes this tracer's run started
        self.child_states: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._decide: dict | None = None
        self._instance = -1
        self._root: list | None = None
        self._built: dict[int, QuotientColoring] = {}
        self._useful: set[int] = set()
        self._attractors: dict[int, SpoilerAttractor] = {}
        self._cells_computed = 0

    # -- instances -----------------------------------------------------------

    def begin_instance(self, instance: int) -> None:
        self._instance = instance
        self._root = ["bench.instance", _now(), 0, -1, instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(self._root)

    def end_instance(self) -> None:
        self._root[2] = _now()
        self._stack.pop()
        c = self.counts
        c["quotient.built"] += len(self._built)
        c["quotient.useful"] += len(self._useful & self._built.keys())
        cells = sum(
            len(table) for att in self._attractors.values() for table in att.won.values()
        )
        c["attractor.cells"] += cells
        c["attractor.cells_computed"] += self._cells_computed
        self._built.clear()
        self._useful.clear()
        self._attractors.clear()
        self._cells_computed = 0

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            rec = [name, 0, 0, stack[-1] if stack else -1, self._instance, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if after is not None:
                after(args, result, rec, token)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def install(self) -> None:
        c = self.counts
        w = self.wrap

        def product(args, result, rec, token):
            c["core.K_sum"] += result.K
            c["core.K_max"] = max(c["core.K_max"], result.K)

        def vectors(args, result, rec, token):
            c["slope_game.vectors"] += len(result)

        def reps(args, result, rec, token):
            c["geometry.reps"] += len(result)

        def scan(args, result, rec, token):
            c["slope_game.scans"] += 1

        w(coloring, "normalize_pair", "core.normalize_pair")
        w(coloring, "build_product", "core.build_product", after=product)
        w(coloring, "graph_parameters", "core.graph_parameters")
        w(slope_game, "graph_parameters", "core.graph_parameters")
        w(coloring, "belt_constant", "slope_game.belt_constant")
        w(coloring, "cycle_effect_candidates", "slope_game.cycle_effect_candidates", after=vectors)
        w(coloring, "scan_pair", "slope_game.scan_pair", after=scan)
        w(coloring, "interval_representatives", "geometry.interval_representatives", after=reps)

        def solved(args, result, rec, token):
            col = args[0]
            points = sum(len(vals) for vals in col.values.values())
            c["quotient.solves"] += 1
            c["quotient.window_points"] += points
            c["quotient.window_points_max"] = max(c["quotient.window_points_max"], points)
            self._built[id(col)] = col
            if self._decide is not None:
                self._decide["cold"] = True

        def certified(args, result, rec, token):
            c["certify.failed"] += bool(result)

        w(QuotientColoring, "__init__", "quotient.solve", after=solved)
        w(QuotientColoring, "certify_periodicity", "certify.certify_periodicity", after=certified)

        def ensure_before(args):
            return args[0].bound, args[0].max_rank

        def ensured(args, result, rec, token):
            att = args[0]
            c["attractor.ensures"] += 1
            c["attractor.bound_max"] = max(c["attractor.bound_max"], att.bound)
            self._attractors[id(att)] = att
            if (att.bound, att.max_rank) != token:
                c["attractor.recomputes"] += 1
                self._cells_computed += sum(len(t) for t in att.won.values())
                if self._decide is not None:
                    self._decide["cold"] = True

        w(SpoilerAttractor, "ensure", "attractor.ensure", before=ensure_before, after=ensured)

        def exact_called(args, result, rec, token):
            c["exact.calls"] += 1

        def exact_ensured(args, result, rec, token):
            if result and self._decide is not None:
                self._decide["exact"] = args[1]

        w(StrongSimEngine, "exact_coloring", "exact.exact_coloring", after=exact_called)
        w(StrongSimEngine, "_ensure_exact", "exact.ensure_exact", after=exact_ensured)

        def engine_built(args, result, rec, token):
            rec[5] = args[0].product.K

        def colored(args, result, rec, token):
            if self._decide is not None:
                self._decide["col"] = result

        def decide_before(args):
            self._decide = {}

        def decided(args, result, rec, token):
            frame, self._decide = self._decide, None
            c["engine.decides"] += 1
            if "col" not in frame:
                path = "zone"
            elif result is None:
                path = "undecided"
            elif "exact" in frame:
                path = "exact"
                self._useful.add(id(frame["exact"]))
            elif result:
                path = "coloring_yes"
                self._useful.add(id(frame["col"]))
            else:
                path = "attractor_no"
            c["engine.path." + path] += 1
            if not frame.get("cold"):
                self.warm_decide_ns.append(rec[2] - rec[1])

        w(StrongSimEngine, "__init__", "engine.init", after=engine_built)
        w(StrongSimEngine, "decide", "engine.decide", before=decide_before, after=decided)
        w(StrongSimEngine, "coloring", "engine.coloring", after=colored)
        w(StrongSimEngine, "spoiler_rank", "engine.spoiler_rank")
        w(StrongSimEngine, "certified_coloring", "engine.certified_coloring")
        w(StrongSimEngine, "export_coloring", "engine.export_coloring")

        def converged(args, result, rec, token):
            c["weaksim.levels"] += result.levels

        w(weaksim, "converge_weak", "weaksim.converge_weak", after=converged)
        w(weaksim, "decide_weak", "weaksim.decide_weak")
        w(weaksim, "reduce_weak_to_strong", "weaksim.reduce_weak_to_strong")
        w(weaksim, "build_approximants", "weaksim.build_approximants")
        w(weaksim, "check_gadget_invariants", "weaksim.check_gadget_invariants")
        w(weaksim, "compute_suff", "weaksim.compute_suff")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------

    def state(self) -> dict:
        """Everything `summarize` needs, as plain JSON data."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "warm_decide_ns": self.warm_decide_ns,
        }


def merge_states(states: list[dict]) -> dict:
    """Concatenate the states of several traced processes."""
    spans: list[list] = []
    counts: Counter = Counter()
    warm: list[int] = []
    for st in states:
        base = len(spans)
        spans.extend(
            rec[:3] + [rec[3] + base if rec[3] >= 0 else -1] + rec[4:] for rec in st["spans"]
        )
        for key, val in st["counts"].items():
            counts[key] = max(counts[key], val) if key.endswith("_max") else counts[key] + val
        warm.extend(st["warm_decide_ns"])
    return {"spans": spans, "counts": dict(counts), "warm_decide_ns": warm}


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(state: dict) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans and counts."""
    spans = state["spans"]
    counts = Counter(state["counts"])
    dur = [rec[2] - rec[1] for rec in spans]
    child = [0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]
    by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    level_engine_ns = 0
    approx_k_max = 0
    for i, rec in enumerate(spans):
        name = rec[0]
        by_name[name] += dur[i]
        prefix = name.split(".", 1)[0]
        self_by_layer[LAYER_OF.get(prefix, prefix)] += dur[i] - child[i]
        if name == "engine.init":
            p = rec[3]
            while p >= 0 and spans[p][0] != "weaksim.converge_weak":
                p = spans[p][3]
            if p >= 0:
                level_engine_ns += dur[i]
                approx_k_max = max(approx_k_max, rec[5])

    def s(*names: str) -> float:
        return sum(by_name[n] for n in names) / 1e9

    built = counts["quotient.built"]
    computed = counts["attractor.cells_computed"]
    warm_us = [ns / 1e3 for ns in state["warm_decide_ns"]]
    out = {
        "core.product_s": s("core.normalize_pair", "core.build_product", "core.graph_parameters"),
        "slope_game.candidates_s": s("slope_game.cycle_effect_candidates"),
        "slope_game.scan_s": s("slope_game.scan_pair"),
        "quotient.solve_s": s("quotient.solve"),
        "quotient.useful_ratio": counts["quotient.useful"] / built if built else 0.0,
        "certify.s": s("certify.certify_periodicity"),
        "attractor.ensure_s": s("attractor.ensure"),
        "attractor.reuse_ratio": counts["attractor.cells"] / computed if computed else 0.0,
        "exact.s": s("exact.exact_coloring"),
        "engine.init_s": s("engine.init"),
        "engine.warm_decide_p50_us": statistics.median(warm_us) if warm_us else 0.0,
        "engine.warm_decide_p99_us": _pct(warm_us, 0.99),
        "engine.warm_decides": len(warm_us),
        "weaksim.reduce_s": s("weaksim.reduce_weak_to_strong"),
        "weaksim.build_s": s("weaksim.build_approximants"),
        "weaksim.suff_s": s("weaksim.compute_suff"),
        "weaksim.level_engine_s": level_engine_ns / 1e9,
        "weaksim.approx_K_max": approx_k_max,
    }
    for key in COUNT_KEYS:
        out.setdefault(key, counts[key])
    for layer, ns in sorted(self_by_layer.items()):
        out[f"{layer}.self_s"] = ns / 1e9
    return out
