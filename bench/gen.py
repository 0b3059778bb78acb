"""Seeded inputs of the benchmark workloads.

The net generator mirrors the random-net rule of the acceptance suite
(criterion 1 and criterion 7) so that the benchmark draws from the same
distribution the correctness tests use.  String seeds are hashed by
`random.Random` with SHA-512, so the draws do not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import random

from ocnsim.core import Ocn

DENSITY = 0.7
STATE_COUNTS = (1, 2, 3)
# one action in a quarter of the pairs, two in the rest (criterion 1)
ACTION_SETS = (("a",), ("a", "b"), ("a", "b"), ("a", "b"))
STRONG_PANEL_SEED = "strong-grid-panel"
STRONG_ORIGIN_MAX = 4
# criterion 7 of the acceptance suite draws its weak instances from this seed
WEAK_PANEL_SEED = 77
HUGE = 10**30
CLI_PANEL_SEED = "cli-check-panel"
LIFT_EVERY = 5


def random_net(
    rng: random.Random, name: str, n_states: int, actions: tuple[str, ...]
) -> Ocn:
    """The acceptance suite's random net, with the state count given."""
    states = tuple(f"{name}{i}" for i in range(n_states))
    trans = []
    for s in states:
        for a in actions:
            if rng.random() < DENSITY:
                for _ in range(rng.randint(1, 2)):
                    trans.append((s, a, rng.choice((-1, 0, 1)), rng.choice(states)))
    return Ocn(name, states, actions, tuple(dict.fromkeys(trans)))


def strong_panel() -> list[tuple[Ocn, Ocn]]:
    """The fixed stratified panel of criterion-1 pairs every run works on.

    Criterion 1 draws each net's state count uniformly from 1..3 and the
    alphabet as above.  The panel holds every (spoiler states, duplicator
    states, alphabet) combination in exactly those proportions (36 pairs),
    with the transitions drawn at random once.  It is the same in every run:
    one pair's cost ranges from milliseconds to seconds, so a fresh draw of
    36 pairs per run would move the run's time by a quarter and measure the
    draw instead of the code.
    """
    rng = random.Random(STRONG_PANEL_SEED)
    pairs = []
    for ns in STATE_COUNTS:
        for nd in STATE_COUNTS:
            for actions in ACTION_SETS:
                pairs.append(
                    (random_net(rng, "s", ns, actions), random_net(rng, "d", nd, actions))
                )
    rng.shuffle(pairs)
    return pairs


def strong_origin(seed: int) -> int:
    """Lowest counter of the square query grid one run asks on every pair."""
    return random.Random(f"strong-grid:{seed}").randint(0, STRONG_ORIGIN_MAX)


def weak_pair(rng: random.Random) -> tuple[Ocn, Ocn]:
    """One criterion-7 instance: random nets plus a tau-DAG on Duplicator."""
    actions = ("a", "b")
    sp = random_net(rng, "s", rng.randint(1, 3), actions)
    dup0 = random_net(rng, "d", rng.randint(1, 3), actions)
    extra = []
    for i, s in enumerate(dup0.states):
        for t in dup0.states[i + 1:]:
            if rng.random() < 0.5:
                extra.append((s, "tau", rng.choice((-1, 0, 1)), t))
    dup = Ocn(
        dup0.name, dup0.states, tuple(sorted(set(dup0.actions) | {"tau"})),
        dup0.transitions + tuple(extra),
    )
    return sp, dup


def weak_panel(size: int) -> list[tuple[Ocn, Ocn]]:
    """The first `size` instances criterion 7 of the acceptance suite checks.

    The nets are fixed rather than drawn per run: the convergence time of a
    freshly drawn criterion-7 instance ranges from milliseconds to minutes,
    so a run of under a minute would measure the draw instead of the code.
    """
    rng = random.Random(WEAK_PANEL_SEED)
    return [weak_pair(rng) for _ in range(size)]


def weak_queries(seed: int, index: int, sp: Ocn, dup: Ocn) -> tuple[str, str]:
    """The original state pair whose 6x6 weak grid one run asks about."""
    rng = random.Random(f"weak-converge:{seed}:{index}")
    return rng.choice(sp.states), rng.choice(dup.states)


def cli_panel(size: int) -> list:
    """The fixed panel of CLI checks every run works on: suite net pairs and
    points in [0, 30]^2, every LIFT_EVERY-th check, the first included,
    lifted to counters near 10^30.  It is the same in every run for the
    reason `strong_panel` gives: a few checks of a fresh draw take seconds,
    the rest a fifth of one."""
    rng = random.Random(CLI_PANEL_SEED)
    checks = []
    for i in range(size):
        actions = rng.choice(ACTION_SETS)
        sp = random_net(rng, "s", rng.choice(STATE_COUNTS), actions)
        dup = random_net(rng, "d", rng.choice(STATE_COUNTS), actions)
        n, m = rng.randint(0, 30), rng.randint(0, 30)
        if i % LIFT_EVERY == 0:
            n, m = HUGE + n, HUGE + m
        checks.append((sp, dup, (rng.choice(sp.states), n), (rng.choice(dup.states), m)))
    return checks


def cli_order(seed: int, index: int, size: int) -> list[int]:
    """The order in which round `index` of one run runs the panel's checks."""
    order = list(range(size))
    random.Random(f"cli-check:{seed}:{index}").shuffle(order)
    return order
