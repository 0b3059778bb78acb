"""Shared reference nets and random net generation for the test suite."""

from __future__ import annotations

import random

from ocnsim.core import Ocn

# single a-loop nets used throughout: decrementing, neutral, incrementing
NET_A = Ocn("A", ("p",), ("a",), (("p", "a", -1, "p"),))
NET_ACOPY = Ocn("Acopy", ("q",), ("a",), (("q", "a", -1, "q"),))
NET_Z = Ocn("Z", ("z",), ("a",), (("z", "a", 0, "z"),))
NET_B = Ocn("B", ("r",), ("a",), (("r", "a", 1, "r"),))


def random_net(
    rng: random.Random,
    name: str,
    max_states: int = 3,
    actions: tuple[str, ...] = ("a", "b"),
    density: float = 0.7,
) -> Ocn:
    n_states = rng.randint(1, max_states)
    states = tuple(f"{name}{i}" for i in range(n_states))
    trans = []
    for s in states:
        for a in actions:
            if rng.random() < density:
                for _ in range(rng.randint(1, 2)):
                    trans.append((s, a, rng.choice((-1, 0, 1)), rng.choice(states)))
    return Ocn(name, states, actions, tuple(dict.fromkeys(trans)))


def random_pair(seed: int, **kw) -> tuple[Ocn, Ocn]:
    rng = random.Random(seed)
    return random_net(rng, "s", **kw), random_net(rng, "d", **kw)


def tau_cyclic_pair(seed: int) -> tuple[Ocn, Ocn]:
    """Two-state random nets plus tau edges both ways between distinct
    Duplicator states, so tau cycles (and pumping) occur."""
    rng = random.Random(seed)
    sp, dup0 = random_pair(seed, max_states=2)
    extra = tuple(
        (s, "tau", rng.choice((-1, 0, 1)), t)
        for s in dup0.states
        for t in dup0.states
        if s != t and rng.random() < 0.5
    )
    dup = Ocn(
        dup0.name, dup0.states, tuple(sorted({*dup0.actions, "tau"})), dup0.transitions + extra
    )
    return sp, dup


def criterion_7_pairs(count: int) -> list[tuple[Ocn, Ocn]]:
    """The first `count` instances of acceptance criterion 7: random nets
    plus tau edges from each Duplicator state to the later ones, so the
    tau graph is acyclic.  The first five are the weak-converge panel of
    the benchmark."""
    rng = random.Random(77)
    pairs = []
    for _ in range(count):
        sp = random_net(rng, "s", max_states=3, actions=("a", "b"))
        dup0 = random_net(rng, "d", max_states=3, actions=("a", "b"))
        extra = []
        for i, s in enumerate(dup0.states):
            for t in dup0.states[i + 1:]:
                if rng.random() < 0.5:
                    extra.append((s, "tau", rng.choice((-1, 0, 1)), t))
        dup = Ocn(
            dup0.name, dup0.states, tuple(set(dup0.actions) | {"tau"}),
            dup0.transitions + tuple(extra),
        )
        pairs.append((sp, dup))
    return pairs


def omega_into_y() -> tuple[Ocn, Ocn]:
    """An omega-transition into y, whose gadget value leaves omega at level 1."""
    sp = Ocn("S", ("p",), ("a", "b"), (("p", "a", 0, "p"), ("p", "b", 0, "p")))
    dup = Ocn(
        "D", ("q", "y"), ("a", "b", "tau"),
        (
            ("q", "tau", 1, "q"),
            ("q", "a", 0, "q"),
            ("q", "b", 0, "q"),
            ("q", "a", 0, "y"),
            ("y", "a", 0, "y"),
        ),
    )
    return sp, dup


def chain_pair(n: int, cycle: bool = False) -> tuple[Ocn, Ocn]:
    """The chain `s0 a 0 s1 ... s(n-1)` ending in an `a 0` self-loop, or,
    as the n-cycle, in `s(n-1) a +1 s0`, against `d a -1 d`."""
    states = tuple(f"s{i}" for i in range(n))
    trans = [(f"s{i}", "a", 0, f"s{i + 1}") for i in range(n - 1)]
    trans.append((f"s{n - 1}", "a", 1, "s0") if cycle else (f"s{n - 1}", "a", 0, f"s{n - 1}"))
    spoiler = Ocn("C" if cycle else "L", states, ("a",), tuple(trans))
    return spoiler, Ocn("D", ("d",), ("a",), (("d", "a", -1, "d"),))


def own_column_pair() -> tuple[Ocn, Ocn]:
    """At (p, q) Duplicator answers Spoiler's counter-keeping a, b and c
    inside its own column: a with -1 (or with 0 into r), b with 0, c with
    +1.  Spoiler's e costs r one unit and q none, so both pairs are
    simulated exactly from m = n on."""
    actions = ("a", "b", "c", "e")
    sp = Ocn(
        "S", ("p",), actions,
        (("p", "a", 0, "p"), ("p", "b", 0, "p"), ("p", "c", 0, "p"), ("p", "e", -1, "p")),
    )
    dup = Ocn(
        "D", ("q", "r"), actions,
        (
            ("q", "a", -1, "q"),
            ("q", "a", 0, "r"),
            ("q", "b", 0, "q"),
            ("q", "c", 1, "q"),
            ("q", "e", 0, "q"),
            ("r", "a", 0, "r"),
            ("r", "b", 0, "r"),
            ("r", "c", 1, "r"),
            ("r", "e", -1, "r"),
        ),
    )
    return sp, dup
