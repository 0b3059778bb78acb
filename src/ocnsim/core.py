"""One-counter nets: representation, semantics, normalization and product graphs.

A one-counter net (OCN) is a finite control graph whose transitions carry a
counter delta in {-1, 0, +1}.  Configurations are pairs of a control state and
a non-negative counter; a transition with delta -1 is disabled at counter 0.
This module also defines the line-oriented textual net format consumed by the
command line front end.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

# Identifiers starting with a double underscore are reserved for states and
# actions introduced internally (normalization, weak-simulation gadgets).
ELL = "__ell"
SINK = "__bot"
RESERVED_PREFIX = "__"

Transition = tuple[str, str, int, str]


class NetError(ValueError):
    """Raised for structurally invalid nets or invalid queries against them."""


def _read_only(self, name: str, value: object) -> None:
    """`__setattr__` of the shared, immutable types, whose `__init__` sets
    each field once through `object.__setattr__`.  Those with `__slots__`
    copy and pickle through `__reduce__`, since restoring slots assigns them."""
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


class Ocn:
    """A one-counter net: finite states, actions and counter transitions."""

    __setattr__ = _read_only

    def __init__(
        self,
        name: str,
        states: tuple[str, ...],
        actions: tuple[str, ...],
        transitions: tuple[Transition, ...],
    ) -> None:
        if len(set(states)) != len(states):
            raise NetError(f"net {name}: duplicate state identifiers")
        if len(set(actions)) != len(actions):
            raise NetError(f"net {name}: duplicate action identifiers")
        state_set, action_set = set(states), set(actions)
        for src, act, delta, dst in transitions:
            if src not in state_set or dst not in state_set:
                raise NetError(f"net {name}: transition uses unknown state {src!r} or {dst!r}")
            if act not in action_set:
                raise NetError(f"net {name}: transition uses unknown action {act!r}")
            if delta not in (-1, 0, 1):
                raise NetError(f"net {name}: delta {delta} not in {{-1, 0, +1}}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "transitions", transitions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ocn):
            return NotImplemented
        return (self.name, self.states, self.actions, self.transitions) == (
            other.name, other.states, other.actions, other.transitions
        )

    @cached_property
    def out(self) -> dict[str, tuple[Transition, ...]]:
        """Outgoing transitions grouped by source state."""
        grouped: dict[str, list[Transition]] = {s: [] for s in self.states}
        for t in self.transitions:
            grouped[t[0]].append(t)
        return {s: tuple(ts) for s, ts in grouped.items()}

    @cached_property
    def out_by_action(self) -> dict[tuple[str, str], tuple[Transition, ...]]:
        grouped: dict[tuple[str, str], list[Transition]] = {}
        for t in self.transitions:
            grouped.setdefault((t[0], t[1]), []).append(t)
        return {k: tuple(v) for k, v in grouped.items()}


class Config:
    """A configuration: control state plus non-negative counter value."""

    __slots__ = ("state", "counter")
    __setattr__ = _read_only

    def __init__(self, state: str, counter: int) -> None:
        if not isinstance(counter, int) or counter < 0:
            raise NetError(f"counter must be a non-negative integer, got {counter!r}")
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "counter", counter)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Config):
            return NotImplemented
        return self.state == other.state and self.counter == other.counter

    def __hash__(self) -> int:
        return hash((self.state, self.counter))

    def __reduce__(self):
        return Config, (self.state, self.counter)


def steps(net: Ocn, c: Config) -> set[tuple[str, Config]]:
    """Enabled strong steps from a configuration.

    A transition with delta -1 is excluded when the counter is 0.
    """
    if c.state not in net.out:
        raise NetError(f"state {c.state!r} not in net {net.name}")
    result = set()
    for _, act, delta, dst in net.out[c.state]:
        n = c.counter + delta
        if n >= 0:
            result.add((act, Config(dst, n)))
    return result


def normalize_pair(spoiler_net: Ocn, duplicator_net: Ocn) -> tuple[Ocn, Ocn]:
    """Normalize a net pair for the simulation game.

    After normalization, over the shared (union) alphabet extended with a
    fresh no-op action:

    * every state of either net has a delta-0 self-loop on the fresh action,
      so Spoiler always has a non-negative move available;
    * the Duplicator net is complete: any missing (state, action) reply is
      routed to a decrementing sink, where Duplicator survives exactly as many
      rounds as his remaining counter.

    The construction preserves the winner of the Simulation Game from every
    pair of original configurations, and is idempotent.
    """
    alphabet = sorted(set(spoiler_net.actions) | set(duplicator_net.actions) | {ELL})

    def with_ell_loops(net: Ocn) -> tuple[list[str], list[Transition]]:
        trans = list(net.transitions)
        have = {(s, a) for s, a, _, _ in trans}
        for s in net.states:
            if (s, ELL) not in have:
                trans.append((s, ELL, 0, s))
        return list(net.states), trans

    sp_states, sp_trans = with_ell_loops(spoiler_net)
    dup_states, dup_trans = with_ell_loops(duplicator_net)

    covered = {(s, a) for s, a, _, _ in dup_trans}
    missing = [
        (s, a)
        for s in dup_states
        for a in alphabet
        if a != ELL and (s, a) not in covered
    ]
    if missing and SINK not in dup_states:
        dup_states.append(SINK)
        dup_trans.extend((SINK, a, -1, SINK) for a in alphabet)
    for s, a in missing:
        dup_trans.append((s, a, -1, SINK))

    spoiler_n = Ocn(spoiler_net.name, tuple(sp_states), tuple(alphabet), tuple(sp_trans))
    duplicator_n = Ocn(duplicator_net.name, tuple(dup_states), tuple(alphabet), tuple(dup_trans))
    return spoiler_n, duplicator_n


# ---------------------------------------------------------------------------
# Product control graph


Node = tuple[str, str]
Move = tuple[str, int, tuple[tuple[int, Node], ...]]


class ProductGraph:
    """Synchronized control graph of a Spoiler/Duplicator net pair.

    Its one edge table is `moves`: per pair, each Spoiler rule (action,
    delta) with Duplicator's same-action replies (delta', successor pair).
    Both levels follow net transition order, which fixes the order the games
    explore, and a Spoiler rule that Duplicator cannot answer keeps an empty
    reply tuple.  The pairs follow the full product's order; K is their
    number.  `successors`, the strongly connected components `sccs` and each
    pair's component index `scc_index` are derived from `moves` once, on
    first use.
    """

    __setattr__ = _read_only

    def __init__(self, moves: dict[Node, tuple[Move, ...]]) -> None:
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "nodes", tuple(moves))

    @property
    def K(self) -> int:
        return len(self.nodes)

    @cached_property
    def successors(self) -> dict[Node, tuple[Node, ...]]:
        return {
            v: tuple(sorted({w for _, _, replies in ms for _, w in replies}))
            for v, ms in self.moves.items()
        }

    @cached_property
    def sccs(self) -> list[list[Node]]:
        """The strongly connected components, in reverse topological order."""
        return _tarjan_sccs(self.nodes, self.successors)

    @cached_property
    def scc_index(self) -> dict[Node, int]:
        """Each pair's index in `sccs`."""
        return {v: i for i, scc in enumerate(self.sccs) for v in scc}


def build_product(
    spoiler_net: Ocn, duplicator_net: Ocn, roots: Iterable[Node] | None = None
) -> ProductGraph:
    """Build the product control graph of two nets over a shared alphabet.

    One walk from the roots, or from every pair, builds the moves of each
    pair it reaches; the result keeps the full product's order and is
    successor-closed."""
    if set(spoiler_net.actions) != set(duplicator_net.actions):
        raise NetError(
            f"alphabet mismatch between {spoiler_net.name} and {duplicator_net.name}"
        )
    replies = duplicator_net.out_by_action
    nodes = [(p, q) for p in spoiler_net.states for q in duplicator_net.states]
    found: dict[Node, tuple[Move, ...]] = {}
    todo = list(nodes if roots is None else roots)
    while todo:
        v = todo.pop()
        if v not in found:
            found[v] = ms = tuple(
                (a, d, tuple((d2, (p, p2)) for _, _, d2, p2 in replies.get((v[1], a), ())))
                for _, a, d, p in spoiler_net.out[v[0]]
            )
            todo.extend(w for _, _, rs in ms for _, w in rs)
    return ProductGraph({v: found[v] for v in nodes if v in found})


# ---------------------------------------------------------------------------
# Graph parameters for the belt constant


def _tarjan_sccs(nodes: Iterable[Node], succ: dict[Node, tuple[Node, ...]]) -> list[list[Node]]:
    """Iterative Tarjan strongly connected components."""
    index: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    sccs: list[list[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            children = succ.get(v, ())
            while ei < len(children):
                w = children[ei]
                ei += 1
                if w not in index:
                    work.append((v, ei))
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == v:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def graph_parameters(g: ProductGraph) -> tuple[int, int]:
    """Largest SCC size and an upper bound on the longest acyclic path length.

    The bound is the maximum node-weighted path through the SCC condensation
    (weight = SCC size) minus one; over-estimating only widens belts, which
    keeps the belt constant sound.
    """
    sccs, comp_of = g.sccs, g.scc_index
    scc_max = max((len(s) for s in sccs), default=0)

    comp_succ: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
    for v in g.nodes:
        for w in g.successors.get(v, ()):
            if comp_of[v] != comp_of[w]:
                comp_succ[comp_of[v]].add(comp_of[w])

    # Tarjan emits SCCs in reverse topological order.
    best: dict[int, int] = {}
    for i, scc in enumerate(sccs):
        best[i] = len(scc) + max((best[j] for j in comp_succ[i]), default=0)
    acyc_bound = max(best.values(), default=1) - 1
    return scc_max, acyc_bound


# ---------------------------------------------------------------------------
# Textual net format


class ParseError(ValueError):
    """Parse failure with one-based line and column position."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


def _check_identifier(tok: str, line: int, col: int) -> str:
    if tok.startswith(RESERVED_PREFIX):
        raise ParseError(line, col, f"identifier {tok!r} is reserved")
    return tok


_DELTAS = {"-1": -1, "0": 0, "+1": 1, "1": 1}


def parse_net(text: str, name_hint: str = "net") -> Ocn:
    """Parse the line-oriented textual net format.

    Grammar: one `net <name>` line, `states`/`actions` lines listing
    identifiers, and transition lines `<src> <action> <delta> <dst>` with
    delta in {-1, 0, +1}.  `#` starts a comment; blank lines are ignored.
    """
    name: str | None = None
    states: list[str] = []
    actions: list[str] = []
    transitions: list[Transition] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = line.split()
        col = line.index(toks[0]) + 1
        if toks[0] == "net":
            if len(toks) != 2:
                raise ParseError(lineno, col, "expected: net <name>")
            if name is not None:
                raise ParseError(lineno, col, "duplicate net header")
            name = toks[1]
        elif toks[0] == "states":
            if len(toks) < 2:
                raise ParseError(lineno, col, "expected at least one state identifier")
            states.extend(_check_identifier(t, lineno, col) for t in toks[1:])
        elif toks[0] == "actions":
            if len(toks) < 2:
                raise ParseError(lineno, col, "expected at least one action identifier")
            actions.extend(_check_identifier(t, lineno, col) for t in toks[1:])
        else:
            if len(toks) != 4:
                raise ParseError(lineno, col, "expected: <src> <action> <delta> <dst>")
            src, act, delta_tok, dst = toks
            if delta_tok not in _DELTAS:
                raise ParseError(lineno, col, f"bad delta token {delta_tok!r}, want -1, 0 or +1")
            if src not in states:
                raise ParseError(lineno, col, f"unknown source state {src!r}")
            if dst not in states:
                raise ParseError(lineno, col, f"unknown target state {dst!r}")
            if act not in actions:
                raise ParseError(lineno, col, f"unknown action {act!r}")
            transitions.append((src, act, _DELTAS[delta_tok], dst))

    if name is None:
        name = name_hint
    if not states:
        raise ParseError(1, 1, "net has no states")
    try:
        return Ocn(name, tuple(states), tuple(actions), tuple(transitions))
    except NetError as exc:
        raise ParseError(1, 1, str(exc)) from exc


def format_net(net: Ocn) -> str:
    """Render a net in the textual format; inverse of parse_net."""
    lines = [f"net {net.name}"]
    lines.append("states " + " ".join(net.states))
    if net.actions:
        lines.append("actions " + " ".join(net.actions))
    for src, act, delta, dst in net.transitions:
        tok = {1: "+1", 0: "0", -1: "-1"}[delta]
        lines.append(f"{src} {act} {tok} {dst}")
    return "\n".join(lines) + "\n"
