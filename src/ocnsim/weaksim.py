"""Weak simulation: tau-compression to an omega-net, approximant nets with
sufficient-value gadgets, and the convergence loop.

Duplicator's weak steps (tau*, a, tau*) are compressed into single-round
moves: bounded-effect paths become forcing-script chains that walk the path's
counter profile step-exactly while Spoiler idles on a fresh action, and
reachable strictly-positive tau cycles become omega-transitions that may
raise the counter arbitrarily.  Omega-transitions in turn are eliminated
level by level: each approximant net replaces them by a script into a test
gadget whose chain length is the previous level's sufficient value.
"""

from __future__ import annotations

import itertools

from .core import Config, NetError, Node, Ocn, Transition
from .coloring import EngineLimits, StrongSimEngine

OMEGA = "omega"

FORCE = "__f"
ELOOP_ACTION = "__e"
WIN_ACTION = "__win"
UNIVERSAL = "__u"
DUP_ELOOP = "__de"

OmegaTransition = tuple[str, str, object, str]  # delta is an int or OMEGA


class OmegaNet:
    """A one-counter net extended with omega-transitions, whose steps may
    raise the counter to any strictly larger value."""

    __slots__ = ("name", "states", "actions", "transitions")

    def __init__(
        self,
        name: str,
        states: tuple[str, ...],
        actions: tuple[str, ...],
        transitions: tuple[OmegaTransition, ...],
    ) -> None:
        state_set, action_set = set(states), set(actions)
        for src, act, delta, dst in transitions:
            if src not in state_set or dst not in state_set or act not in action_set:
                raise NetError(f"omega-net {name}: dangling transition {src, act, dst}")
            if delta != OMEGA and delta not in (-1, 0, 1):
                raise NetError(f"omega-net {name}: bad delta {delta!r}")
        self.name = name
        self.states = states
        self.actions = actions
        self.transitions = transitions

    def omega_transitions(self) -> list[OmegaTransition]:
        return [t for t in self.transitions if t[2] == OMEGA]


# ---------------------------------------------------------------------------
# tau-path profiles


class TauProfiles:
    """Counter profiles of tau paths between state pairs.

    A profile (effect, required) means: some tau path realizes total effect
    `effect` and is enabled exactly from counters >= `required`.  Only simple
    paths matter for finite profiles (removing a non-positive cycle never
    hurts, and a positive cycle means pumping).  pump_required[(x, y)] is the
    least counter from which a strictly positive tau cycle can be reached and
    exploited with y reachable afterwards, or None.
    """

    __slots__ = ("profiles", "pump_required")

    def __init__(
        self,
        profiles: dict[tuple[str, str], list[tuple[int, int]]],
        pump_required: dict[tuple[str, str], int | None],
    ) -> None:
        self.profiles = profiles
        self.pump_required = pump_required


def _pareto(entries: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Keep maximal effects per required counter: (e, R) is dominated by
    (e', R') when e' >= e and R' <= R."""
    best: list[tuple[int, int]] = []
    for e, r in sorted(set(entries), key=lambda p: (p[1], -p[0])):
        if not any(e2 >= e and r2 <= r for e2, r2 in best):
            best.append((e, r))
    return best


def tau_profiles(net: Ocn, tau: str) -> TauProfiles:
    """Exact simple-path profile analysis of the tau-subgraph."""
    edges: dict[str, list[tuple[int, str]]] = {}
    for s, a, d, t in net.transitions:
        if a == tau:
            edges.setdefault(s, []).append((d, t))

    profiles: dict[tuple[str, str], list[tuple[int, int]]] = {
        (s, s): [(0, 0)] for s in net.states
    }
    # least entry requirement of a strictly positive simple cycle per state
    cycle_req: dict[str, int] = {}

    for start in net.states:
        # DFS over simple paths; effect and minimum prefix tracked exactly
        stack = [(start, frozenset([start]), 0, 0)]
        while stack:
            at, visited, eff, minpref = stack.pop()
            for d, nxt in edges.get(at, ()):
                e2 = eff + d
                mp2 = min(minpref, e2)
                if nxt == start:
                    if e2 > 0:
                        cycle_req[start] = min(cycle_req.get(start, -mp2), -mp2)
                elif nxt not in visited:
                    profiles.setdefault((start, nxt), []).append((e2, -mp2))
                    stack.append((nxt, visited | {nxt}, e2, mp2))
    profiles = {k: _pareto(v) for k, v in profiles.items()}

    # y is tau-reachable from z exactly when (z, y) has a profile
    pump_required: dict[tuple[str, str], int | None] = {}
    for x, y in itertools.product(net.states, net.states):
        best: int | None = None
        for z, creq in cycle_req.items():
            if (z, y) not in profiles:
                continue
            for e1, r1 in profiles.get((x, z), ()):
                need = max(r1, creq - e1)
                if best is None or need < best:
                    best = need
        pump_required[(x, y)] = best
    return TauProfiles(profiles, pump_required)


def _concat(p1: tuple[int, int], delta: int, p2: tuple[int, int]) -> tuple[int, int]:
    """Profile of path1 . edge . path2 from the pieces' profiles."""
    e1, r1 = p1
    e2, r2 = p2
    mp = min(-r1, e1 + min(0, delta), e1 + delta - r2)
    return (e1 + delta + e2, -mp)


# ---------------------------------------------------------------------------
# Reduction: weak simulation -> strong simulation against an omega-net


def reduce_weak_to_strong(
    spoiler_net: Ocn, duplicator_net: Ocn, tau: str = "tau"
) -> tuple[Ocn, OmegaNet]:
    """Compress Duplicator's weak steps so that weak simulation between the
    inputs coincides with strong simulation between the outputs on original
    state pairs.

    Spoiler's net is kept as is (tau stays an ordinary action) plus idle
    self-loops on a fresh action.  Duplicator's compressed moves carry exact
    (effect, required-counter) profiles: profiles a single transition cannot
    express become chains of unit steps walked under the fresh action while
    Spoiler idles, any deviation handing Duplicator the universal survivor
    state; unbounded-effect moves become omega-transitions after their
    reach-the-pump prefix is walked the same way.
    """
    prof = tau_profiles(duplicator_net, tau)
    has_tau = tau in set(spoiler_net.actions) | set(duplicator_net.actions)
    actions = sorted(set(spoiler_net.actions) | set(duplicator_net.actions) | {FORCE})

    m_transitions = list(spoiler_net.transitions)
    m_transitions.extend((s, FORCE, 0, s) for s in spoiler_net.states)
    m_net = Ocn(spoiler_net.name, spoiler_net.states, tuple(actions), tuple(m_transitions))

    states: list[str] = list(duplicator_net.states)
    trans: list[OmegaTransition] = []
    chain_counter = itertools.count()
    need_universal = False

    def emit(src: str, action: str, effect: object, required: int, dst: str) -> None:
        nonlocal need_universal
        if effect == OMEGA:
            walk: list[object] = [-1] * required + [OMEGA]
        elif not isinstance(effect, int):
            raise TypeError(f"tau-path effect must be an int or OMEGA, got {effect!r}")
        elif required == max(0, -effect) and -1 <= effect <= 1:
            trans.append((src, action, effect, dst))
            return
        else:
            walk = [-1] * required + [1] * (effect + required)
        at = src
        act = action
        for i, step in enumerate(walk):
            last = i == len(walk) - 1
            nxt = dst if last else f"__w{next(chain_counter)}"
            if not last:
                need_universal = True
                states.append(nxt)
            trans.append((at, act, step, nxt))
            if not last:
                trans.extend(
                    (nxt, other, 0, UNIVERSAL) for other in actions if other != FORCE
                )
            at, act = nxt, FORCE

    mid_edges: dict[str, list[tuple[str, int, str]]] = {}
    for s, a, d, t in duplicator_net.transitions:
        if a != tau:
            mid_edges.setdefault(a, []).append((s, d, t))

    for p in duplicator_net.states:
        for r in duplicator_net.states:
            # weak tau replies: tau* paths (only when tau is in play at all)
            if has_tau:
                for e, req in prof.profiles.get((p, r), ()):
                    emit(p, tau, e, req, r)
                pr = prof.pump_required.get((p, r))
                if pr is not None:
                    emit(p, tau, OMEGA, pr, r)
            # weak a replies: tau* a tau*
            for a, mids in mid_edges.items():
                finite: list[tuple[int, int]] = []
                omega_req: int | None = None
                for x, da, y in mids:
                    pre_pump = prof.pump_required.get((p, x))
                    # edge-wise: a simple tau path exists iff any path does
                    if pre_pump is not None and prof.profiles.get((y, r)):
                        omega_req = pre_pump if omega_req is None else min(omega_req, pre_pump)
                    for e1, r1 in prof.profiles.get((p, x), ()):
                        post_pump = prof.pump_required.get((y, r))
                        if post_pump is not None:
                            need = _concat((e1, r1), da, (0, post_pump))[1]
                            omega_req = need if omega_req is None else min(omega_req, need)
                        for e2, r2 in prof.profiles.get((y, r), ()):
                            finite.append(_concat((e1, r1), da, (e2, r2)))
                for e, req in _pareto(finite):
                    emit(p, a, e, req, r)
                if omega_req is not None:
                    emit(p, a, OMEGA, omega_req, r)

    # idle replies to Spoiler's fresh action
    for s in duplicator_net.states:
        trans.append((s, FORCE, 0, s))
    if need_universal:
        states.append(UNIVERSAL)
        trans.extend((UNIVERSAL, a, 0, UNIVERSAL) for a in actions)
    m_omega = OmegaNet(
        duplicator_net.name,
        tuple(dict.fromkeys(states)),
        tuple(actions),
        tuple(dict.fromkeys(trans)),
    )
    return m_net, m_omega


# ---------------------------------------------------------------------------
# Sufficient-value table and approximant nets


class SuffTable:
    """Per-pair sufficient values, one row per approximant level.

    Level 1 is the all-omega seed wired into the first approximant nets; the
    row for level i+1 is computed from the level-i nets.  Rows are pointwise
    non-increasing and any pair leaves omega at most once.
    """

    __slots__ = ("pairs", "rows")

    def __init__(self, pairs: tuple[Node, ...]) -> None:
        self.pairs = pairs
        self.rows: list[dict[Node, int | None]] = []

    def seed(self) -> dict[Node, int | None]:
        row: dict[Node, int | None] = {p: None for p in self.pairs}
        self.rows.append(row)
        return row

    def push(self, row: dict[Node, int | None]) -> None:
        prev = self.rows[-1]
        for pair in self.pairs:
            old, new = prev[pair], row[pair]
            if old is not None and (new is None or new > old):
                raise AssertionError(f"suff increased at {pair}: {old} -> {new}")
        self.rows.append(row)

    def omega_drops(self) -> dict[Node, int]:
        drops: dict[Node, int] = {p: 0 for p in self.pairs}
        for prev, cur in zip(self.rows, self.rows[1:]):
            for p in self.pairs:
                if prev[p] is None and cur[p] is not None:
                    drops[p] += 1
        return drops

    @property
    def converged(self) -> bool:
        return len(self.rows) >= 2 and self.rows[-1] == self.rows[-2]


class ApproximantNets:
    """One approximant level: Spoiler's net with test gadgets and
    Duplicator's net with omega-transitions replaced by forcing scripts."""

    __slots__ = ("level", "spoiler", "duplicator", "gadget_sizes", "suff_row")

    def __init__(
        self,
        level: int,
        spoiler: Ocn,
        duplicator: Ocn,
        gadget_sizes: dict[Node, int],
        suff_row: dict[Node, int | None],
    ) -> None:
        self.level = level
        self.spoiler = spoiler
        self.duplicator = duplicator
        self.gadget_sizes = gadget_sizes
        self.suff_row = suff_row


def live_gadgets(m_net: Ocn, m_omega: OmegaNet) -> list[Node]:
    """The test gadgets Spoiler can enter, in grid order: (her state, the
    target of an omega-transition), since a script action of an
    omega-transition into y is the only way into the gadget of (q, y)."""
    targets = {t[3] for t in m_omega.omega_transitions()}
    return [(q, y) for q in m_net.states for y in m_omega.states if y in targets]


def build_approximants(
    m_net: Ocn, m_omega: OmegaNet, suff_row: dict[Node, int | None], level: int
) -> ApproximantNets:
    """Construct the approximant net pair for the given sufficient values.

    Every omega-transition of Duplicator's net becomes a two-step forcing
    script: Duplicator commits, then Spoiler must play the transition's fresh
    action (anything else hands Duplicator the universal survivor) and
    thereby enters her own test gadget for (her current state, the omega
    target).  A finite sufficient value s yields a chain of s decrementing
    steps to a winning action Duplicator cannot match, so Spoiler wins the
    subgame exactly when her counter is at least s; an infinite value yields
    a bare loop she can never leave.  Only the gadgets a script action
    enters are built.
    """
    omega_ts = m_omega.omega_transitions()
    script_actions = {t: f"__g{i}" for i, t in enumerate(omega_ts)}
    actions = sorted(
        set(m_net.actions) | set(m_omega.actions)
        | set(script_actions.values()) | {ELOOP_ACTION, WIN_ACTION}
    )

    # Duplicator's side: identical at every level
    dup_states = list(m_omega.states)
    dup_trans: list[Transition] = []
    for t in m_omega.transitions:
        src, act, delta, dst = t
        if delta == OMEGA:
            commit = f"__k{script_actions[t][3:]}"
            dup_states.append(commit)
            dup_trans.append((src, act, 0, commit))
            dup_trans.append((commit, script_actions[t], 0, DUP_ELOOP))
            dup_trans.extend(
                (commit, other, 0, UNIVERSAL)
                for other in actions
                if other != script_actions[t]
            )
        else:
            dup_trans.append((src, act, delta, dst))
    dup_states.append(DUP_ELOOP)
    dup_trans.append((DUP_ELOOP, ELOOP_ACTION, 0, DUP_ELOOP))
    if UNIVERSAL not in dup_states:
        dup_states.append(UNIVERSAL)
    dup_trans.extend(
        (UNIVERSAL, a, 0, UNIVERSAL) for a in actions
    )
    # spurious script actions answered by an escape to the survivor
    for s in m_omega.states:
        dup_trans.extend(
            (s, ga, 0, UNIVERSAL) for ga in script_actions.values()
        )

    # Spoiler's side: her net plus one gadget per live (state, omega-target)
    # pair; gadget names are index-based so state names cannot collide
    sp_states = list(m_net.states)
    sp_trans: list[Transition] = list(m_net.transitions)
    gadget_sizes: dict[Node, int] = {}

    def gadget(q: str, y: str, idx: int) -> str:
        suff = suff_row[(q, y)]
        base = f"__G{idx}"
        entry = f"{base}.0"
        if suff is None:
            sp_states.append(entry)
            sp_trans.append((entry, ELOOP_ACTION, 0, entry))
            gadget_sizes[(q, y)] = 1
        else:
            for i in range(suff + 1):
                sp_states.append(f"{base}.{i}")
                if i < suff:
                    sp_trans.append((f"{base}.{i}", ELOOP_ACTION, -1, f"{base}.{i+1}"))
            win = f"{base}.w"
            sp_states.append(win)
            sp_trans.append((f"{base}.{suff}", WIN_ACTION, 0, win))
            sp_trans.append((win, WIN_ACTION, 0, win))
            gadget_sizes[(q, y)] = suff + 2
        return entry

    entries = {
        (q, y): gadget(q, y, idx) for idx, (q, y) in enumerate(live_gadgets(m_net, m_omega))
    }
    for t in omega_ts:
        y = t[3]
        for q in m_net.states:
            sp_trans.append((q, script_actions[t], 0, entries[(q, y)]))

    spoiler = Ocn(f"{m_net.name}@{level}", tuple(sp_states), tuple(actions), tuple(sp_trans))
    duplicator = Ocn(
        f"{m_omega.name}@{level}",
        tuple(dict.fromkeys(dup_states)),
        tuple(actions),
        tuple(dict.fromkeys(dup_trans)),
    )
    return ApproximantNets(level, spoiler, duplicator, gadget_sizes, dict(suff_row))


def check_gadget_invariants(nets: ApproximantNets, m_net: Ocn, m_omega: OmegaNet) -> None:
    """Structural sanity of a built approximant: one gadget per live pair,
    their sizes, and no transition from a gadget back into the original net."""
    expected = len(live_gadgets(m_net, m_omega))
    if len(nets.gadget_sizes) != expected:
        raise AssertionError(f"expected {expected} gadgets, built {len(nets.gadget_sizes)}")
    for pair, size in nets.gadget_sizes.items():
        suff = nets.suff_row[pair]
        if suff is not None and size != suff + 2:
            raise AssertionError(f"gadget {pair} has size {size}, want {suff + 2}")
    originals = set(m_net.states)
    for src, _, _, dst in nets.spoiler.transitions:
        if src.startswith("__G") and dst in originals:
            raise AssertionError(f"gadget transition escapes back into the net: {src} -> {dst}")


# ---------------------------------------------------------------------------
# Sufficient values from a solved approximant level


def compute_suff(engine: StrongSimEngine, pair: Node) -> int | None:
    """Sufficient value of a pair at one approximant level.

    The belt is vertical exactly when the pair's boundary slope is (0, 1);
    then the value is the least Spoiler counter whose whole column is
    excluded, read off the certified coloring at a level inside the periodic
    regime.  Non-vertical belts give omega.  Raises if the engine cannot
    certify a coloring within its caps.
    """
    belt = engine.belts[pair]
    if not belt.vertical:
        return None
    col = engine.exact_coloring()
    if col is None:
        raise CapsExceeded(f"no exact coloring for suff at {pair}")
    geo = col.geometry[pair]
    stable_level = geo.cap[1] + geo.k
    for n in range(0, belt.c + 2):
        if not col.lookup(pair, (n, stable_level)):
            return n
    raise AssertionError(f"no excluded column within the belt at {pair}")


class CapsExceeded(RuntimeError):
    """The escalation loop ran out of its configured resources."""


# ---------------------------------------------------------------------------
# The convergence loop


class WeakConvergence:
    """Result of iterating approximant levels until the sufficient-value row
    repeats; the converged engine answers weak queries directly."""

    __slots__ = ("engine", "levels", "table", "approximants")

    def __init__(
        self,
        engine: StrongSimEngine | None,
        levels: int,
        table: SuffTable,
        approximants: list[ApproximantNets],
    ) -> None:
        self.engine = engine
        self.levels = levels
        self.table = table
        self.approximants = approximants

    def decide(self, left: Config, right: Config) -> bool | None:
        if self.engine is None:
            return None
        return self.engine.decide(left, right)


class WeakDecision:
    __slots__ = ("answer", "levels", "table", "approximants")

    def __init__(
        self,
        answer: bool | None,
        levels: int,
        table: SuffTable,
        approximants: list[ApproximantNets],
    ) -> None:
        self.answer = answer
        self.levels = levels
        self.table = table
        self.approximants = approximants


def converge_weak(
    spoiler_net: Ocn,
    duplicator_net: Ocn,
    tau: str = "tau",
    limits: EngineLimits | None = None,
) -> WeakConvergence:
    """Iterate approximant levels until the sufficient-value row repeats.

    At that point the approximant nets are stationary and strong simulation
    on them coincides with weak simulation on the inputs for original state
    pairs.  The iteration is bounded by the pair count plus slack: each
    pair's value leaves omega at most once and otherwise only shrinks.

    Each level's engine is rooted at the original pairs, and sufficient
    values are computed only for the live gadgets; every other entry of
    the grid stays omega, as no play from an original pair reads it.
    """
    m_net, m_omega = reduce_weak_to_strong(spoiler_net, duplicator_net, tau)
    grid = [(q, y) for q in m_net.states for y in m_omega.states]
    live = live_gadgets(m_net, m_omega)
    table = SuffTable(tuple(grid))
    row = table.seed()
    approximants: list[ApproximantNets] = []
    max_levels = len(grid) + 2
    for level in range(1, max_levels + 1):
        nets = build_approximants(m_net, m_omega, row, level)
        check_gadget_invariants(nets, m_net, m_omega)
        approximants.append(nets)
        engine = StrongSimEngine(nets.spoiler, nets.duplicator, limits=limits, roots=grid)
        try:
            new_row = {**row, **{pair: compute_suff(engine, pair) for pair in live}}
        except CapsExceeded:
            return WeakConvergence(None, level, table, approximants)
        table.push(new_row)
        if new_row == row:
            return WeakConvergence(engine, level, table, approximants)
        row = new_row
    return WeakConvergence(None, max_levels, table, approximants)


def decide_weak(
    spoiler_net: Ocn,
    duplicator_net: Ocn,
    left: Config,
    right: Config,
    tau: str = "tau",
    limits: EngineLimits | None = None,
) -> WeakDecision:
    """Decide weak simulation for one configuration pair."""
    conv = converge_weak(spoiler_net, duplicator_net, tau, limits)
    return WeakDecision(conv.decide(left, right), conv.levels, conv.table, conv.approximants)
