"""Verdict checks against `ocnsim.oracle`, which shares no code with the engine.

A bounded Spoiler win refutes a `true` verdict.  A `false` verdict must be
confirmed by a Spoiler win within the oracle's depth; as in criterion 7 of
the acceptance suite, a survival is deepened once before it counts against
the engine.  A `false` at counters beyond REACH with no Spoiler win within
ROUNDS is out of the oracle's reach: draining such a counter takes more
rounds than any bounded search can afford, so it is counted as
unconfirmable, not as wrong, and not deepened.
"""

from __future__ import annotations

from ocnsim.core import Config, Ocn
from ocnsim.oracle import bounded_round_winner, bounded_weak_round_winner

ROUNDS = 40
DEEP_ROUNDS = 160
# a false verdict whose counters all exceed this cannot be confirmed
REACH = 10**6

OK, WRONG, UNREACHABLE = "ok", "wrong", "unreachable"


def check_verdict(
    nets: tuple[Ocn, Ocn],
    left: tuple[str, int],
    right: tuple[str, int],
    verdict: bool,
    weak: bool = False,
) -> str:
    sp, dup = nets
    position = (Config(*left), Config(*right))

    def spoiler_wins(rounds: int) -> bool:
        if weak:
            return bounded_weak_round_winner(
                nets, position, rounds=rounds, tau_cap=len(dup.states)
            ).spoiler_wins
        return bounded_round_winner(nets, position, rounds=rounds).spoiler_wins

    if spoiler_wins(ROUNDS):
        return WRONG if verdict else OK
    if verdict:
        return OK
    if min(left[1], right[1]) > REACH:
        return UNREACHABLE
    return OK if spoiler_wins(DEEP_ROUNDS) else WRONG
