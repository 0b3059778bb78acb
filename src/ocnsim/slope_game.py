"""The Slope Game: a finite symbolic game on the product control graph.

Each phase extends an acyclic product path, rule by rule, until a lasso
closes; the lasso's cycle effect is then compared against the phase slope.
Either one player wins outright or the game continues with the strictly less
steep cycle effect as the new slope.  Solving these games per representative
slope yields each state pair's boundary slope and the belt constant.
"""

from __future__ import annotations

from typing import Literal

from .core import Node, ProductGraph, graph_parameters
from .geometry import (
    Slope,
    Vec2,
    is_behind,
)

SPOILER = "spoiler"
DUPLICATOR = "duplicator"
Player = Literal["spoiler", "duplicator"]


class SlopeGameResult:
    __slots__ = ("winner", "segment_depth")

    def __init__(self, winner: Player, segment_depth: int) -> None:
        self.winner = winner
        self.segment_depth = segment_depth


def evaluate_lasso(cycle_effect: Vec2, slope: Slope) -> Player | Slope:
    """Apply the three-way winning condition to a closed phase.

    Not behind: Duplicator wins now.  Behind but not positive: Spoiler wins
    now.  Behind and positive: the game continues with the effect as the new
    slope, which is returned.
    """
    if not is_behind(cycle_effect, slope):
        return DUPLICATOR
    x, y = cycle_effect
    if x >= 0 and y >= 0 and (x, y) != (0, 0):
        return Slope(x, y).normalized()
    return SPOILER


class SlopeGameSolver:
    """Exhaustive memoized solver for Slope Games over one product graph.

    Phase-start values are memoized per (node, gcd-normalized slope); the
    winner depends only on the slope's direction.  A phase keeps its slope,
    chain depth and position memo to itself, in the closures of
    `_phase_value`.  The solver tracks the deepest phase chain it ever
    explores, which the theory bounds by (K+1)^2.

    A reply into a pair of another strongly connected component starts a
    fresh phase at the same slope, shared through the (node, slope) memo.
    A lasso closes only on a visited node reachable from the reply's pair,
    and none is: each visited node reaches the current pair, which reaches
    the reply's pair, so a way back would put both pairs in one component.
    The subtree below the reply never reads the path above it, so its value,
    segment depth included, is the phase value there.  A shared subtree is
    searched once, at the first chain depth reaching it, so `max_phase_depth`
    may read lower than in a search that walks it below every start.
    """

    def __init__(self, product: ProductGraph):
        self.product = product
        self._memo: dict[tuple[Node, Slope], SlopeGameResult] = {}
        self.max_phase_depth = 0
        self._phase_bound = (product.K + 1) ** 2

    def solve(self, node: Node, slope: Slope) -> SlopeGameResult:
        """Winner of the Slope Game from (node, slope), with the segment
        depth of a winning strategy (the first one found, not necessarily the
        shallowest; any witness depth keeps the replay margins sound)."""
        return self._phase_value(node, slope.normalized(), 1)

    def _phase_value(self, node: Node, slope: Slope, chain_depth: int) -> SlopeGameResult:
        if chain_depth > self._phase_bound:
            raise RuntimeError(f"phase bound (K+1)^2 = {self._phase_bound} exceeded")
        self.max_phase_depth = max(self.max_phase_depth, chain_depth)
        hit = self._memo.get((node, slope))
        if hit is not None:
            return hit
        moves, scc_of, memo = self.product.moves, self.product.scc_index, self._memo
        phase_memo: dict = {}

        # visited maps each path node to the cumulative effect at its first
        # occurrence; a repeat at w closes a lasso whose cycle effect is the
        # current total minus visited[w]
        def position(at: Node, visited: dict[Node, Vec2], tx: int, ty: int) -> SlopeGameResult:
            # the subtree value depends only on the endpoint and each visited
            # node's effect relative to now (what a return there would close)
            key = (at, frozenset((v, tx - ex, ty - ey) for v, (ex, ey) in visited.items()))
            hit = phase_memo.get(key)
            if hit is not None:
                return hit
            rules = moves[at]
            if not rules:
                # Only reachable on non-normalized inputs: a stuck Spoiler loses.
                return SlopeGameResult(DUPLICATOR, 1)
            result: SlopeGameResult | None = None
            worst_dup = 0
            for a, d, replies in rules:
                if not replies:
                    raise RuntimeError(
                        f"product graph incomplete: no {a!r}-reply at {at[1]!r} "
                        "(nets must be normalized)"
                    )
                sub = reply(scc_of[at], visited, tx, ty, d, replies)
                if sub.winner == SPOILER:
                    # any winning rule suffices; its depth is a sound strategy depth
                    result = sub
                    break
                worst_dup = max(worst_dup, sub.segment_depth)
            if result is None:
                result = SlopeGameResult(DUPLICATOR, worst_dup)
            phase_memo[key] = result
            return result

        def reply(
            scc: int,
            visited: dict[Node, Vec2],
            tx: int,
            ty: int,
            d: int,
            replies: tuple[tuple[int, Node], ...],
        ) -> SlopeGameResult:
            worst_sp = 0
            # evaluate lasso-closing replies first: they resolve in constant time
            # and often decide the whole alternative
            for d2, nxt in sorted(replies, key=lambda r: r[1] not in visited):
                nx, ny = tx + d, ty + d2
                first = visited.get(nxt)
                if first is not None:
                    verdict = evaluate_lasso((nx - first[0], ny - first[1]), slope)
                    if isinstance(verdict, Slope):
                        inner = self._phase_value(nxt, verdict, chain_depth + 1)
                        sub = SlopeGameResult(inner.winner, inner.segment_depth + 1)
                    else:
                        sub = SlopeGameResult(verdict, 1)
                elif scc_of[nxt] != scc:
                    # a new component starts a phase at this slope: see the class docstring
                    sub = memo.get((nxt, slope))
                    if sub is None:
                        sub = memo[nxt, slope] = position(nxt, {nxt: (0, 0)}, 0, 0)
                else:
                    sub = position(nxt, {**visited, nxt: (nx, ny)}, nx, ny)
                if sub.winner == DUPLICATOR:
                    # any winning reply suffices; its depth is a sound strategy depth
                    return sub
                worst_sp = max(worst_sp, sub.segment_depth)
            return SlopeGameResult(SPOILER, worst_sp)

        result = position(node, {node: (0, 0)}, 0, 0)
        # the closures reach each other (and the phase memo) through their
        # cells; emptying the cells lets reference counting free the phase
        # at once instead of leaving it to the cycle collector
        del position, reply
        self._memo[node, slope] = result
        return result


def cycle_effect_candidates(g: ProductGraph) -> set[Vec2]:
    """Effects of all closed walks of length at most K, non-zero and closed
    under negation; K is the number of product nodes.

    This is a superset of the simple-cycle effects; refining the vector set
    only refines the angular equivalence classes, which keeps the boundary
    scan sound.  Effects stay within [-K, K]^2 by construction.
    """
    comp_of = g.scc_index
    effects: set[Vec2] = set()
    for comp, scc in enumerate(g.sccs):
        for anchor in scc:
            # closed walks stay within the anchor's SCC, so the simple-cycle
            # length bound is the component size
            frontier: dict[Node, set[Vec2]] = {anchor: {(0, 0)}}
            for _ in range(len(scc)):
                nxt: dict[Node, set[Vec2]] = {}
                for v, effs in frontier.items():
                    for _, d, replies in g.moves[v]:
                        for d2, w in replies:
                            if comp_of.get(w) != comp:
                                continue
                            tgt = nxt.setdefault(w, set())
                            for dx, dy in effs:
                                tgt.add((dx + d, dy + d2))
                for eff in nxt.get(anchor, ()):
                    if eff != (0, 0):
                        effects.add(eff)
                frontier = nxt
                if not frontier:
                    break
    return effects | {(-x, -y) for x, y in effects}


class RepOutcome:
    __slots__ = ("slope", "winner", "segment_depth")

    def __init__(self, slope: Slope, winner: Player, segment_depth: int) -> None:
        self.slope = slope
        self.winner = winner
        self.segment_depth = segment_depth


class PairScan:
    """Slope-game outcomes for one state pair across all representatives,
    condensed to the boundary slope and the belt margin c the key lemmas
    certify on both sides of it."""

    __slots__ = ("node", "boundary", "outcomes", "c")

    def __init__(
        self, node: Node, boundary: Slope, outcomes: tuple[RepOutcome, ...], c: int
    ) -> None:
        self.node = node
        self.boundary = boundary
        self.outcomes = outcomes
        self.c = c


def scan_pair(node: Node, reps: list[Slope], solver: SlopeGameSolver) -> PairScan:
    """Solve the Slope Game at every representative and locate the boundary.

    Spoiler-won slopes form a prefix of the steepness-ordered scan and
    Duplicator-won slopes a suffix (monotonicity); the boundary is the
    infimum of the Duplicator-won region, reported as the class boundary
    below the first Duplicator win.  The margin c is the larger of the
    segment depths of the first Duplicator-won and the last Spoiler-won
    representative, times the solver's product size K.
    """
    outcomes = []
    for s in reps:
        res = solver.solve(node, s)
        outcomes.append(RepOutcome(s, res.winner, res.segment_depth))
    for earlier, later in zip(outcomes, outcomes[1:]):
        if earlier.winner == DUPLICATOR and later.winner == SPOILER:
            raise RuntimeError(f"slope-game monotonicity violated at {node}")
    first_dup = next((i for i, o in enumerate(outcomes) if o.winner == DUPLICATOR), None)
    if first_dup is None:
        # no Duplicator win: the above-zone of a vertical slope is empty
        boundary, depth = Slope(0, 1), outcomes[-1].segment_depth
    elif first_dup == 0:
        # no Spoiler win: the below-zone of a horizontal slope is empty
        boundary, depth = Slope(1, 0), outcomes[0].segment_depth
    else:
        # Criticals sit at even indices, mediants at odd ones; the infimum of
        # the Duplicator-won region is the critical at or below the first win.
        win, lose = outcomes[first_dup], outcomes[first_dup - 1]
        boundary = win.slope if first_dup % 2 == 0 else lose.slope
        depth = max(win.segment_depth, lose.segment_depth)
    return PairScan(node, boundary, tuple(outcomes), solver.product.K * depth)


def belt_constant(g: ProductGraph) -> int:
    """Sound belt width: min of K*(K+1)^2 and (scc+1)^2*scc + acyc_bound."""
    scc, acyc = graph_parameters(g)
    K = g.K
    return min(K * (K + 1) ** 2, (scc + 1) ** 2 * scc + acyc)
