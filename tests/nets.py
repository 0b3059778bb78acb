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


def chain_pair(n: int, cycle: bool = False) -> tuple[Ocn, Ocn]:
    """The chain `s0 a 0 s1 ... s(n-1)` ending in an `a 0` self-loop, or,
    as the n-cycle, in `s(n-1) a +1 s0`, against `d a -1 d`."""
    states = tuple(f"s{i}" for i in range(n))
    trans = [(f"s{i}", "a", 0, f"s{i + 1}") for i in range(n - 1)]
    trans.append((f"s{n - 1}", "a", 1, "s0") if cycle else (f"s{n - 1}", "a", 0, f"s{n - 1}"))
    spoiler = Ocn("C" if cycle else "L", states, ("a",), tuple(trans))
    return spoiler, Ocn("D", ("d",), ("a",), (("d", "a", -1, "d"),))
