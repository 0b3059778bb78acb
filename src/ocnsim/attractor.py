"""Bounded Spoiler reachability: the certificates of "not simulated".

Every "not simulated" answer for a belt point rests on Spoiler wins within
a bounded number of rounds on a finite counter grid: the point's own, or
those that confirm the false window points of an exact coloring
(`StrongSimEngine._ensure_exact`).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import itemgetter

from .coloring import Point
from .core import NetError, Node, ProductGraph


class SpoilerAttractor:
    """Bounded Spoiler reachability over the counter grid [0, N]^2 of every
    pair of a successor-closed product, such as a rooted one.  A cell's rank
    is the number of rounds within which Spoiler forces Duplicator stuck
    from it.  Moves leaving the grid count as not yet won, so a listed win
    is a sound Spoiler-win certificate whatever N is.

    Rounds run on demand: `ensure` runs them until its goal points are won
    or the requested number has run, and a later, deeper request resumes
    where the last one stopped.  After `max_rank` rounds the table is
    complete for wins within `max_rank` rounds from positions whose
    coordinates stay at least `max_rank` below N.  A round that raises
    nothing leaves every later round the same, so the table is then final:
    it is complete for any number of rounds and runs none again.  `ensure`
    runs the grid it is given; `unconfirmed` alone chooses N, and a larger
    N starts the rows over.

    Wins are downward closed in Duplicator's counter (the monotonicity lemma
    of Abdulla-Cerans and Jancar-Moller-Sawa): by induction on r, a win at
    (n, m) within r rounds is one at (n, m - 1), where Spoiler's rule is
    still enabled and every enabled reply lands one below a reply from
    (n, m), inside the grid.  So the cells of pair p won within r rounds
    are the m < f_r[p][n], with f_0 = 0 and f_r = F(f_{r-1}), where

        F(f)[p][n] = max over rules (d, replies) with n + d >= 0 of
                     min over replies (d2, t) of f[t][n + d] - d2,

    each term clipped to [0, N + 1], and F(f)[p][n] = 0 without such a
    rule: a rule wins at m when each reply is disabled (m + d2 < 0) or won
    (m + d2 < f[t][n + d]), which for f >= 0 both read m < f - d2.  F is
    monotone and f_1 >= f_0, so by induction the rows only rise and f_r is
    max(f_{r-1}, F(f_{r-1})), the cells won within r - 1 rounds or by a
    rule into them.  Column N + 1 stays 0: a move out of the grid is
    unresolved, yet one whose replies all decrement still wins at m = 0.
    A round reads only the last round's rows, so a cell's rank is the
    first round whose f passes it, however the rounds were split between
    calls.

    Each pair keeps its rows as its rank record: the row of every round
    that raised it, with that round's number.  A cell's rank is the round
    of the first kept row that passes it, found by bisection on the cell's
    column.  A round recomputes only the rows that read a row which rose
    in the round before, and every row in a grid's first round: from reads
    that did not change, F gives the row it gave last time.  A row is read
    shifted by -d2 only for the d2 some reply reads it at.  `won[pair]`
    lists the ranks of all won cells, column by column.  Only tracing
    reads it, so it expands each kept row once, on demand, and starts
    over with the grid."""

    def __init__(self, product: ProductGraph):
        self.moves = product.moves
        self._shifts: dict[Node, set[int]] = {pair: set() for pair in self.moves}
        self._readers: dict[Node, set[Node]] = {pair: set() for pair in self.moves}
        for pair in self.moves:
            for a, _, replies in self.moves[pair]:
                if not replies:
                    raise NetError(
                        f"pair {pair}: Duplicator has no {a!r} rules (net not normalized)"
                    )
                for d2, t in replies:
                    self._shifts[t].add(d2)
                    self._readers[t].add(pair)
        self.bound = -1
        self.max_rank = 0
        self.final = False
        self._f: dict[Node, list[int]] = {}
        self._views: dict[Node, dict[int, list[int]]] = {}
        self._dirty: set[Node] = set()
        self._rows: dict[Node, list[list[int]]] = {}
        self._rounds: dict[Node, list[int]] = {}
        self._won: dict[Node, list[list[int]]] = {}
        self._expanded: dict[Node, int] = {}

    @property
    def won(self) -> dict[Node, list[int]]:
        for pair, rows in self._rows.items():
            cols = self._won.get(pair)
            if cols is None:
                cols = self._won[pair] = [[] for _ in range(self.bound + 1)]
            done = self._expanded.get(pair, 0)
            old = rows[done - 1] if done else [0] * len(cols)
            for new, r in zip(rows[done:], self._rounds[pair][done:]):
                for col, a, b in zip(cols, old, new):
                    if b > a:
                        col.extend([r] * (b - a))
                old = new
            self._expanded[pair] = len(rows)
        return {pair: list(chain.from_iterable(cols)) for pair, cols in self._won.items()}

    def ensure(
        self, bound: int, max_rank: int, goal: list[tuple[Node, Point]] | None = None
    ) -> None:
        """Run rounds on a grid of at least `bound` until `max_rank` have
        run or, with a goal, every goal point the grid holds is won."""
        if bound > self.bound:
            self.bound, self.max_rank, self.final = bound, 0, False
            self._f = {pair: [0] * (bound + 1) for pair in self.moves}
            self._views = {pair: self._reads(pair, row) for pair, row in self._f.items()}
            self._dirty = set(self.moves)
            self._rows = {pair: [] for pair in self.moves}
            self._rounds = {pair: [] for pair in self.moves}
            self._won, self._expanded = {}, {}
        f = self._f
        pending = None
        if goal is not None:
            # a column's won cells are a prefix: its highest goal cell is won last
            pending = {}
            for p, (n, m) in goal:
                if p in f and n <= self.bound:
                    pending[p, n] = max(m, pending.get((p, n), m))
        while self.max_rank < max_rank and not self.final:
            if pending is not None:
                pending = {(p, n): m for (p, n), m in pending.items() if m >= f[p][n]}
                if not pending:
                    break
            self._round()

    def _reads(self, pair: Node, row: list[int]) -> dict[int, list[int]]:
        # f - d2, clipped to [0, N + 1], per reply change d2 the row is read
        # at, with columns -1 (no win) and N + 1 (f = 0)
        top = self.bound + 1
        views = {}
        for d2 in self._shifts[pair]:
            if d2 == 0:
                views[0] = [0, *row, 0]
            elif d2 < 0:
                views[-1] = [0, *[x + 1 if x < top else top for x in row], 1]
            else:
                views[1] = [0, *[x - 1 if x else 0 for x in row], 0]
        return views

    def _round(self) -> None:
        top, f, views = self.bound + 1, self._f, self._views
        self.max_rank += 1
        # the product is successor-closed, so every reply reads one of its rows
        rose: dict[Node, list[int]] = {}
        for pair in self._dirty:
            new = None
            for _, d, replies in self.moves[pair]:
                (d2, t), *rest = replies
                best = views[t][d2][1 + d : 1 + d + top]
                for d2, t in rest:
                    best = [x if x < y else y for x, y in zip(best, views[t][d2][1 + d :])]
                new = best if new is None else [x if x > y else y for x, y in zip(new, best)]
            if new is not None and new != f[pair]:
                rose[pair] = new
        self.final = not rose
        self._dirty = set()
        for pair, new in rose.items():
            f[pair] = new
            views[pair] = self._reads(pair, new)
            self._rows[pair].append(new)
            self._rounds[pair].append(self.max_rank)
            self._dirty |= self._readers[pair]

    def rank(self, pair: Node, pt: Point) -> int | None:
        n, m = pt
        if pair not in self._rows or n > self.bound:
            return None
        rows = self._rows[pair]
        i = bisect_right(rows, m, key=itemgetter(n))
        return self._rounds[pair][i] if i < len(rows) else None

    def row(self, pair: Node, n: int, depth: int) -> int:
        """How many lowest cells of column min(n, depth), the column
        `unconfirmed` searches, the rows of rounds up to `depth` win."""
        n = min(n, depth)
        i = bisect_right(self._rounds[pair], depth) if n <= self.bound and pair in self._rows else 0
        return self._rows[pair][i - 1][n] if i else 0

    def unconfirmed(
        self, points: list[tuple[Node, Point]], depth: int
    ) -> list[tuple[Node, Point]]:
        """The points from which Spoiler has no win within `depth` rounds.

        Duplicator is stuck only at counter 0, and a counter moves one per
        round at most, so no win within `depth` rounds starts from m >= depth
        (`decide` asks none), and from n >= depth every Spoiler rule stays
        enabled that long, so the play is that from (depth, m): a point is
        searched with n clamped to `depth`, and needs no larger grid.

        A win listed on any grid is a real win, so the current grid, or the
        smallest power of two from 64 holding the unresolved points, runs
        first, toward `depth` rounds with those points as its goal.  N
        doubles only while the rounds ran out with a point unresolved and N
        is below the points' largest coordinate plus `depth`: no win within
        `depth` rounds leaves a grid that large."""

        def unresolved(xs: list[tuple[Node, Point, Point]]) -> list[tuple[Node, Point, Point]]:
            return [(p, pt, at) for p, pt, at in xs if (r := self.rank(p, at)) is None or r > depth]

        left = unresolved([(p, pt, (min(pt[0], depth), pt[1])) for p, pt in points])
        if left:
            top = max(max(at) for _, _, at in left)
            bound = max(self.bound, 64)
            while bound < top:
                bound *= 2
            while True:
                self.ensure(bound, depth, [(p, at) for p, _, at in left])
                left = unresolved(left)
                if not left or bound >= top + depth:
                    break
                bound *= 2
        return [(p, pt) for p, pt, _ in left]
