"""Independent brute-force oracles for differential testing.

Deliberately naive: these share no code or caches with the main engine, so
they can serve as independent witnesses.  Spoiler-win verdicts are conclusive
for the unbounded game; Duplicator-survival verdicts are conclusive only
beyond a certification bound the caller must supply.
"""

from __future__ import annotations

from .core import Config, Node, Ocn, steps

TAU = "tau"


class BoundedVerdict:
    __slots__ = ("spoiler_wins", "rounds")

    def __init__(self, spoiler_wins: bool, rounds: int) -> None:
        self.spoiler_wins = spoiler_wins
        self.rounds = rounds


def bounded_round_winner(
    nets: tuple[Ocn, Ocn], position: tuple[Config, Config], rounds: int
) -> BoundedVerdict:
    """Backward induction over (position, rounds left).

    Spoiler wins within r rounds iff she has a move such that every reply
    either leaves Duplicator stuck or reaches a position she wins within
    r - 1.  Counters never exceed their start plus the round count.
    """
    spoiler_net, dup_net = nets
    memo: dict[tuple[str, int, str, int, int], bool] = {}

    def spoiler_wins(l: Config, r: Config, budget: int) -> bool:
        if budget == 0:
            return False
        key = (l.state, l.counter, r.state, r.counter, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        result = False
        for action, nxt in steps(spoiler_net, l):
            replies = [d for a, d in steps(dup_net, r) if a == action]
            if not replies:
                result = True
                break
            if all(spoiler_wins(nxt, rep, budget - 1) for rep in replies):
                result = True
                break
        memo[key] = result
        return result

    left, right = position
    for budget in _budgets(rounds):
        if spoiler_wins(left, right, budget):
            return BoundedVerdict(True, budget)
    return BoundedVerdict(False, rounds)


def _budgets(rounds: int):
    """Geometric deepening: any winning budget is a sound witness."""
    b = 1
    while b < rounds:
        yield b
        b *= 2
    if rounds >= 1:
        yield rounds


def weak_successors(
    net: Ocn, c: Config, action: str, tau_cap: int, tau: str = TAU
) -> set[Config]:
    """Configurations reachable by a weak `action` step whose internal
    segments each take at most tau_cap many tau steps."""

    def tau_closure(starts: set[Config]) -> set[Config]:
        reached = set(starts)
        frontier = set(starts)
        for _ in range(tau_cap):
            nxt = set()
            for conf in frontier:
                for a, d in steps(net, conf):
                    if a == tau and d not in reached:
                        nxt.add(d)
            reached |= nxt
            frontier = nxt
            if not frontier:
                break
        return reached

    pre = tau_closure({c})
    if action == tau:
        return pre
    mid = {d for conf in pre for a, d in steps(net, conf) if a == action}
    return tau_closure(mid)


def bounded_weak_round_winner(
    nets: tuple[Ocn, Ocn],
    position: tuple[Config, Config],
    rounds: int,
    tau_cap: int,
    tau: str = TAU,
) -> BoundedVerdict:
    """Bounded weak-game oracle: Spoiler plays strong steps, Duplicator
    replies with tau-capped weak steps.  With tau_cap 0 this degenerates to
    the strong bounded-round oracle."""
    spoiler_net, dup_net = nets
    memo: dict[tuple[str, int, str, int, int], bool] = {}

    def spoiler_wins(l: Config, r: Config, budget: int) -> bool:
        if budget == 0:
            return False
        key = (l.state, l.counter, r.state, r.counter, budget)
        hit = memo.get(key)
        if hit is not None:
            return hit
        result = False
        for action, nxt in steps(spoiler_net, l):
            replies = weak_successors(dup_net, r, action, tau_cap, tau)
            if not replies:
                result = True
                break
            if all(spoiler_wins(nxt, rep, budget - 1) for rep in replies):
                result = True
                break
        memo[key] = result
        return result

    left, right = position
    for budget in _budgets(rounds):
        if spoiler_wins(left, right, budget):
            return BoundedVerdict(True, budget)
    return BoundedVerdict(False, rounds)


def check_candidate(nets: tuple[Ocn, Ocn], col, window: tuple[int, int]) -> list[tuple[Node, tuple[int, int]]]:
    """Independent local simulation-condition check over a window.

    Reads only the coloring's geometry and window values and re-implements
    the one-step condition, the zones and the wrap directly (no code shared
    with the engine's verifier): for every pair and every claimed point of
    the window, some same-action reply must land on a claimed point again.
    Returns the violations.
    """
    spoiler_net, dup_net = nets
    max_n, max_m = window
    values = col.values
    memo: dict[tuple[Node, int, int], bool] = {}

    def member(pair: Node, n: int, m: int) -> bool:
        key = (pair, n, m)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = result = _member(pair, n, m)
        return result

    def _member(pair: Node, n: int, m: int) -> bool:
        geo = col.geometry[pair]
        rho, rho2 = geo.slope.rho, geo.slope.rho_prime
        c = geo.c
        # above zone
        if rho > 0 and rho2 * (n + c) < rho * (m - c) and m > c:
            return True
        # below zone
        if rho2 > 0 and rho * (m + c) < rho2 * (n - c) and n > c:
            return False
        capx = geo.l0[0] + (geo.j + geo.k) * rho
        capy = geo.l0[1] + (geo.j + geo.k) * rho2
        while n > capx or m > capy:
            n -= geo.k * rho
            m -= geo.k * rho2
            if n < 0 or m < 0:
                return False
        return values[pair].get((n, m), False)

    violations = []
    for pair in values:
        q, q2 = pair
        for n in range(max_n + 1):
            for m in range(max_m + 1):
                if not member(pair, n, m):
                    continue
                ok = True
                for action, nxt in steps(spoiler_net, Config(q, n)):
                    replies = [
                        d for a, d in steps(dup_net, Config(q2, m)) if a == action
                    ]
                    if not any(
                        member((nxt.state, d.state), nxt.counter, d.counter)
                        for d in replies
                    ):
                        ok = False
                        break
                if not ok:
                    violations.append((pair, (n, m)))
    return violations
