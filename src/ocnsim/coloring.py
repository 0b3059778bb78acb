"""Deciding strong simulation: belts, periodic colorings, point queries.

The plane of every control-state pair splits into a Duplicator-won zone, a
Spoiler-won zone (both certified by Slope Game strategies and the key replay
lemmas) and a belt strip around the pair's boundary slope.  Belt points are
colored by a finite quotient game: points beyond a rectangle rect(j) are
identified with their k*slope translates, and the greatest fixpoint of the
one-step simulation condition is computed over the resulting window.  The
result is always a sound under-approximation of the simulation preorder and
is exact once (j, k) are large enough; verification makes that checkable.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_right
from collections import deque
from itertools import chain, repeat
from math import ceil
from operator import mul, sub

from .core import (
    Config,
    NetError,
    Node,
    Ocn,
    ProductGraph,
    _read_only,
    build_product,
    graph_parameters,
    normalize_pair,
)
from .geometry import Slope, c_above, c_below, interval_representatives
from .slope_game import (
    PairScan,
    SlopeGameSolver,
    belt_constant,
    cycle_effect_candidates,
    scan_pair,
)

Point = tuple[int, int]


class GeometryError(RuntimeError):
    """Internal inconsistency: a wrap edge left its belt or window."""


class Belt:
    """A pair's belt: boundary slope plus certified margin width c.

    Points more than c above the slope are simulation-included, points more
    than c below are excluded; the frontier runs inside the strip between.
    """

    __slots__ = ("pair", "slope", "c")
    __setattr__ = _read_only

    def __init__(self, pair: Node, slope: Slope, c: int) -> None:
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "c", c)

    def __reduce__(self):
        return Belt, (self.pair, self.slope, self.c)

    @property
    def vertical(self) -> bool:
        return self.slope == Slope(0, 1)

    def zone(self, pt: Point) -> bool | None:
        """True above the belt (simulated), False below it (not simulated),
        None inside it."""
        if c_above(pt, self.slope, self.c):
            return True
        if c_below(pt, self.slope, self.c):
            return False
        return None


class PairGeometry(Belt):
    """Belt geometry of one pair instantiated over a window (l0, j, k), whose
    corner `cap` is rect_cap(j + k)."""

    __slots__ = ("l0", "j", "k", "cap")

    def __init__(self, pair: Node, slope: Slope, c: int, l0: Point, j: int, k: int) -> None:
        super().__init__(pair, slope, c)
        object.__setattr__(self, "l0", l0)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "cap", self.rect_cap(j + k))

    def __reduce__(self):
        return PairGeometry, (self.pair, self.slope, self.c, self.l0, self.j, self.k)

    def resolve(self, pt: Point) -> bool | Point:
        """The zone value of a point, or else the window point standing for
        it: the point itself inside rect(j + k), its wrap beyond."""
        zone = self.zone(pt)
        if zone is not None:
            return zone
        return pt if self.in_window(pt) else self.wrap(pt)

    def rect_cap(self, j: int) -> Point:
        return (self.l0[0] + j * self.slope.rho, self.l0[1] + j * self.slope.rho_prime)

    def in_rect(self, pt: Point, j: int) -> bool:
        cap = self.rect_cap(j)
        return pt[0] <= cap[0] and pt[1] <= cap[1]

    def in_window(self, pt: Point) -> bool:
        return pt[0] <= self.cap[0] and pt[1] <= self.cap[1]

    def columns(self) -> list[tuple[int, int]]:
        """Per column n of belt /\\ rect(j + k), its lowest and highest m
        (lowest above highest when the column is empty)."""
        rho, rho2 = self.slope.rho, self.slope.rho_prime
        X, Y = self.cap
        c = self.c
        if rho == 0:  # vertical belt: columns beyond c are below-zone
            return [(0, Y)] * (min(X, c) + 1)
        cols = []
        for n in range(0, X + 1):
            hi = min(Y, (rho2 * (n + c)) // rho + c)
            if rho2 == 0 or n <= c:
                lo = 0
            else:
                lo = max(0, -(-(rho2 * (n - c) - rho * c) // rho))
            cols.append((lo, hi))
        return cols

    def window_points(self) -> list[Point]:
        """All points of belt /\\ rect(j + k), column by column."""
        return [(n, m) for n, (lo, hi) in enumerate(self.columns()) for m in range(lo, hi + 1)]

    def wrap(self, pt: Point) -> Point:
        """Map an in-belt point beyond rect(j + k) to its window representative
        by subtracting multiples of k*slope."""
        rho, rho2 = self.slope.rho, self.slope.rho_prime
        X, Y = self.cap
        n, m = pt
        shifts = []
        if n > X:
            if rho == 0:
                raise GeometryError(f"{self.pair}: point {pt} unreachable by vertical wrap")
            shifts.append(-(-(n - X) // (self.k * rho)))
        if m > Y:
            if rho2 == 0:
                raise GeometryError(f"{self.pair}: point {pt} unreachable by horizontal wrap")
            shifts.append(-(-(m - Y) // (self.k * rho2)))
        if not shifts:
            return pt
        t = max(shifts)
        out = (n - t * self.k * rho, m - t * self.k * rho2)
        if out[0] < 0 or out[1] < 0 or not self.in_window(out):
            raise GeometryError(f"{self.pair}: wrap of {pt} left the window at {out}")
        return out


class VerificationReport:
    """Outcome of checking a coloring: local simulation-condition violations
    on claimed points, unconfirmed claimed non-points, and periodicity
    certification failures."""

    __slots__ = ("yes_violations", "no_unconfirmed", "periodicity_failures")

    def __init__(
        self,
        yes_violations: list[tuple[Node, Point]] | None = None,
        no_unconfirmed: list[tuple[Node, Point]] | None = None,
        periodicity_failures: list[str] | None = None,
    ) -> None:
        self.yes_violations = [] if yes_violations is None else yes_violations
        self.no_unconfirmed = [] if no_unconfirmed is None else no_unconfirmed
        self.periodicity_failures = [] if periodicity_failures is None else periodicity_failures


# ---------------------------------------------------------------------------
# Quotient game


class QuotientColoring:
    """A periodic coloring: per pair, the window values of the quotient-game
    greatest fixpoint, looked up through the zones and the k*slope wrap.

    The values are solved on construction unless given, as when checking an
    exported coloring.
    """

    def __init__(
        self,
        product: ProductGraph,
        geometry: dict[Node, PairGeometry],
        values: dict[Node, dict[Point, bool]] | None = None,
    ):
        self.product = product
        self.geometry = geometry
        self.values = self._solve() if values is None else values
        self.certified_yes = False
        self.exact = False

    # -- lookup ------------------------------------------------------------

    def lookup(self, pair: Node, pt: Point) -> bool:
        slot = self.geometry[pair].resolve(pt)
        if isinstance(slot, bool):
            return slot
        try:
            return self.values[pair][slot]
        except KeyError as exc:
            raise GeometryError(f"{pair}: {slot} missing from window") from exc

    def _alternatives(self, pair: Node, pt: Point):
        """Enabled one-round alternatives: per enabled Spoiler rule, the list
        of (successor pair, successor point) replies."""
        n, m = pt
        for _, d, replies in self.product.moves[pair]:
            if n + d < 0:
                continue
            yield [(tgt, (n + d, m + d2)) for d2, tgt in replies if m + d2 >= 0]

    # -- greatest fixpoint ---------------------------------------------------

    def _solve(self) -> dict[Node, dict[Point, bool]]:
        """The counter worklist of Henzinger-Henzinger-Kopke and Liu-Smolka:
        every Spoiler rule of a window point counts its live replies, one per
        occurrence, and a point dies once one of its rules counts none.  Each
        reply is resolved once, and looked at again only once, when the point
        it reaches dies, instead of on every re-check of the rules of its
        point.  A rule with a reply above the belt is always answered and is
        not counted.

        Window points are numbered pair by pair and column by column, in
        `window_points` order.  Per pair and column n, `lows`, `highs` and
        `firsts` hold the lowest and highest window m and the number of the
        column's first point, so a reply landing inside its target's column
        is numbered by one lookup; only replies outside it (in a zone or
        beyond the window) go through `PairGeometry.resolve`.  When a point
        (t, n2, m2) dies, the rules reading it inside its column are found
        backwards: per target pair, `back` lists the replies into it, and
        reply d2 of rule r of pair p, whose Spoiler move changes n by d, is
        read at (p, n2 - d, m2 - d2) if that is a window point.  Only the
        replies that wrap past the window cap are kept per point, in
        `wrapped`.

        Rule r of point i is numbered i * R + r, R the largest rule count of
        any pair, so `live` takes 4 * R bytes per window point, enabled rule
        or not.  Rule numbers only index `live` and fill the lists of
        `wrapped`; the `array('i')` holds counts, each at most its rule's
        reply count, so no number can overflow it.  A window too large for
        `live` raises MemoryError, which the CLI reports as `undecided`
        (exit 2)."""
        geometry, moves = self.geometry, self.product.moves
        lows: dict[Node, list[int]] = {}
        highs: dict[Node, list[int]] = {}
        firsts: dict[Node, list[int]] = {}
        # per non-empty column: the number of its first point, and where it is
        starts: list[int] = []
        places: list[tuple[Node, int, int]] = []
        size = 0
        for pair, geo in geometry.items():
            cols = geo.columns()
            lows[pair] = [lo for lo, _ in cols]
            highs[pair] = [hi for _, hi in cols]
            firsts[pair] = first = []
            for n, (lo, hi) in enumerate(cols):
                first.append(size)
                if lo <= hi:
                    starts.append(size)
                    places.append((pair, n, lo))
                    size += hi - lo + 1

        def resolve_id(tgt: Node, n: int, m: int) -> bool | int:
            res = geometry[tgt].resolve((n, m))
            if isinstance(res, bool):
                return res
            n, m = res
            if n < len(lows[tgt]) and lows[tgt][n] <= m <= highs[tgt][n]:
                return firsts[tgt][n] + m - lows[tgt][n]
            raise GeometryError(f"{tgt}: {res} missing from window")

        R = max((len(moves[pair]) for pair in geometry), default=0)
        back: dict[Node, list] = {pair: [] for pair in geometry}
        for pair in geometry:
            for r, (_, d, replies) in enumerate(moves[pair]):
                for d2, tgt in replies:
                    back[tgt].append((lows[pair], highs[pair], firsts[pair], r, d, d2))
        values = bytearray(b"\1") * size
        live = array("i", [0]) * (size * R)  # per rule, its replies not yet dead
        wrapped: dict[int, list[int]] = {}  # per point, the rules reaching it by a wrap
        dead: list[int] = []
        for pair in geometry:
            for n, (lo, hi, first) in enumerate(zip(lows[pair], highs[pair], firsts[pair])):
                # per enabled rule and reply: the m whose reply stays inside
                # the target's column (a <= m <= b)
                rules = []
                for r, (_, d, replies) in enumerate(moves[pair]):
                    n2 = n + d
                    if n2 < 0:
                        continue
                    reads = []
                    for d2, tgt in replies:
                        if n2 < len(lows[tgt]):
                            a, b = lows[tgt][n2] - d2, highs[tgt][n2] - d2
                        else:
                            a, b = 1, 0
                        reads.append((a, b, tgt, n2, d2))
                    rules.append((r, reads))
                for m in range(lo, hi + 1):
                    point = first + m - lo
                    for r, reads in rules:
                        count = 0
                        for a, b, tgt, n2, d2 in reads:
                            if a <= m <= b:
                                count += 1
                            elif m + d2 >= 0:
                                res = resolve_id(tgt, n2, m + d2)
                                if res is True:  # a reply above the belt answers the rule
                                    # its live count stays 0: deaths only take it below 0
                                    break
                                if res is not False:
                                    count += 1
                                    wrapped.setdefault(res, []).append(point * R + r)
                        else:
                            if not count:
                                dead.append(point)
                                break
                            live[point * R + r] = count
        while dead:
            point = dead.pop()
            if not values[point]:
                continue
            values[point] = 0
            col = bisect_right(starts, point) - 1
            tgt, n2, lo = places[col]
            m2 = lo + point - starts[col]
            for los, his, fis, r, d, d2 in back[tgt]:
                n, m = n2 - d, m2 - d2
                if 0 <= n < len(los) and los[n] <= m <= his[n]:
                    rule = (fis[n] + m - los[n]) * R + r
                    live[rule] -= 1
                    if not live[rule]:
                        dead.append(rule // R)
            for rule in wrapped.get(point, ()):
                live[rule] -= 1
                if not live[rule]:
                    dead.append(rule // R)
        out: dict[Node, dict[Point, bool]] = {}
        for pair, geo in geometry.items():
            pts = geo.window_points()
            base = firsts[pair][0] if pts else 0
            out[pair] = dict(zip(pts, map(bool, values[base : base + len(pts)])))
        return out

    # -- verification --------------------------------------------------------

    def condition_holds(self, pair: Node, pt: Point) -> bool:
        """One-step simulation condition against this coloring, evaluated
        directly from the step semantics (works at any point)."""
        for replies in self._alternatives(pair, pt):
            if not any(self.lookup(tp, tpt) for tp, tpt in replies):
                return False
        return True

    def fringe(self, pair: Node) -> list[Point]:
        """Window points whose k*slope translate leaves the window: exactly
        the wrap targets of all points beyond it."""
        geo = self.geometry[pair]
        step = (geo.k * geo.slope.rho, geo.k * geo.slope.rho_prime)
        return [
            pt
            for pt in self.values[pair]
            if not geo.in_window((pt[0] + step[0], pt[1] + step[1]))
        ]

    def certify_periodicity(self) -> list[str]:
        """Verify that the periodic extension is self-supporting.

        For every wrap target, the one-step condition is checked explicitly at
        its first M translates, where M is computed so that every geometric
        test any lookup can make (belt and zone boundaries, window caps of
        successor pairs) has constant outcome beyond M.  Past that horizon the
        checked conditions repeat verbatim, so all translates are covered.
        """
        failures: list[str] = []
        for pair, geo in self.geometry.items():
            fringe = self.fringe(pair)
            true_fringe = [pt for pt in fringe if self.values[pair][pt]]
            if not true_fringe:
                continue
            step = (geo.k * geo.slope.rho, geo.k * geo.slope.rho_prime)
            bbox = _bbox_with_margin(true_fringe, 1)
            horizon = 1
            for other in {*self.product.successors[pair], pair}:
                og = self.geometry[other]
                if og.slope == geo.slope:
                    if og.k != geo.k:
                        failures.append(f"{pair}: parallel pair {other} has period {og.k} != {geo.k}")
                    continue
                horizon = max(horizon, _crossing_horizon(bbox, step, og))
            if horizon > HORIZON_CAP:
                failures.append(f"{pair}: periodicity horizon {horizon} exceeds cap")
                continue
            for pt in true_fringe:
                x, y = pt
                for m in range(1, horizon + 1):
                    cand = (x + m * step[0], y + m * step[1])
                    if not self.condition_holds(pair, cand):
                        failures.append(f"{pair}: condition fails at translate {cand}")
                        break
        return failures

    def false_points(self) -> list[tuple[Node, Point]]:
        """The excluded window points."""
        return [(pair, pt) for pair, vals in self.values.items() for pt, v in vals.items() if not v]

    def to_json_obj(self) -> dict:
        """The exported form: per pair, the true window points split into the
        initial block (up to l0), the aperiodic block (up to rect(j)) and the
        periodic block repeated along k*slope."""
        pairs = []
        for pair in sorted(self.geometry):
            geo = self.geometry[pair]
            blocks: dict[str, list[list[int]]] = {"init": [], "aper": [], "per": []}
            for pt, v in self.values[pair].items():
                if v:
                    block = "init" if geo.in_rect(pt, 0) else "aper" if geo.in_rect(pt, geo.j) else "per"
                    blocks[block].append(list(pt))
            pairs.append({
                "q": pair[0],
                "q'": pair[1],
                "slope": [geo.slope.rho, geo.slope.rho_prime],
                "c": geo.c,
                "j": geo.j,
                "k": geo.k,
                **{name: sorted(pts) for name, pts in blocks.items()},
            })
        l0 = next(iter(self.geometry.values())).l0
        return {"schema": 1, "l0": list(l0), "pairs": pairs}


def _bbox_with_margin(points: list[Point], margin: int) -> tuple[Point, Point]:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (
        (max(0, min(xs) - margin), max(0, min(ys) - margin)),
        (max(xs) + margin, max(ys) + margin),
    )


def _crossing_horizon(bbox: tuple[Point, Point], step: Point, og: PairGeometry) -> int:
    """Last translate index at which a point of the box can still change its
    classification against the other pair's geometry, plus one.

    Every geometric test is affine in the point, hence affine in the translate
    index m; its crossing index is affine in the base point and so extremal at
    the box corners.
    """
    rho, rho2 = og.slope.rho, og.slope.rho_prime
    c = og.c
    X, Y = og.cap
    # Affine functionals f(n, n') = a*n + b*n' + const whose sign matters.
    functionals = [
        (rho2, -rho, rho2 * c + rho * c),   # above-zone main inequality
        (0, 1, -c),                         # above-zone guard n' > c
        (-rho2, rho, rho * c + rho2 * c),   # below-zone main inequality
        (1, 0, -c),                         # below-zone guard n > c
        (1, 0, -X),                         # window cap on n
        (0, 1, -Y),                         # window cap on n'
    ]
    (x0, y0), (x1, y1) = bbox
    corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    horizon = 1
    for a, b, c0 in functionals:
        slope_m = a * step[0] + b * step[1]
        if slope_m == 0:
            continue
        for cx, cy in corners:
            base = a * cx + b * cy + c0
            # sign of base + m*slope_m is constant for m > |base / slope_m|
            horizon = max(horizon, ceil(abs(base) / abs(slope_m)) + 1)
    return horizon


# ---------------------------------------------------------------------------
# Bounded Spoiler reachability (engine side)


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
    are the m < f_r[p][n], with f_0 = 0 and, clipped to N + 1,

        f_r[p][n] = max(f_{r-1}[p][n], max over rules (d, replies) with
                        n + d >= 0 of min over replies (d2, t) of
                        f_{r-1}[t][n + d] - d2),

    since a rule wins at m when each reply is disabled (m + d2 < 0) or won
    (m + d2 < f[t][n + d]), which for f >= 0 both read m < f - d2.  Column
    N + 1 stays 0: a move out of the grid is unresolved, yet one whose
    replies all decrement still wins at m = 0.  A round reads only the last
    round's rows, so a cell's rank is the first round whose f passes it,
    however the rounds were split between calls.

    `_ranks[pair][n]` lists the ranks of column n's won cells, cell (n, m)
    at index m; `won[pair]` lists them all, column by column."""

    def __init__(self, product: ProductGraph):
        self.moves = product.moves
        for pair in self.moves:
            for a, _, replies in self.moves[pair]:
                if not replies:
                    raise GeometryError(
                        f"pair {pair}: Duplicator has no {a!r} rules (net not normalized)"
                    )
        self.bound = -1
        self.max_rank = 0
        self.final = False
        self._f: dict[Node, list[int]] = {}
        self._views: dict[Node, dict[int, list[int]]] = {}
        self._ranks: dict[Node, list[list[int]]] = {}

    @property
    def won(self) -> dict[Node, list[int]]:
        return {pair: list(chain.from_iterable(cols)) for pair, cols in self._ranks.items()}

    def ensure(
        self, bound: int, max_rank: int, goal: list[tuple[Node, Point]] | None = None
    ) -> None:
        """Run rounds on a grid of at least `bound` until `max_rank` have
        run or, with a goal, every goal point the grid holds is won."""
        if bound > self.bound:
            self.bound, self.max_rank, self.final = bound, 0, False
            self._f = {pair: [0] * (bound + 1) for pair in self.moves}
            self._views = {pair: self._reads(row) for pair, row in self._f.items()}
            self._ranks = {pair: [[] for _ in range(bound + 1)] for pair in self.moves}
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

    def _reads(self, row: list[int]) -> dict[int, list[int]]:
        # f - d2 per reply change d2, with columns -1 (no win) and N + 1 (0)
        top = self.bound + 1
        up = [x + 1 if x < top else top for x in row]
        return {0: [0, *row, 0], -1: [0, *up, 1], 1: [0, *[x - 1 for x in row], -1]}

    def _round(self) -> None:
        top, f, views = self.bound + 1, self._f, self._views
        self.max_rank += 1
        rank = self.max_rank
        # the product is successor-closed, so every reply reads one of its rows
        rose: dict[Node, list[int]] = {}
        for pair, old in f.items():
            best = []
            for _, d, replies in self.moves[pair]:
                rows = [views[t][d2][1 + d : 1 + d + top] for d2, t in replies]
                best.append(rows[0] if len(rows) == 1 else map(min, *rows))
            new = list(map(max, old, *best))
            if new != old:
                rose[pair] = new
                # the cells a column gained this round have this rank
                gained = map(mul, repeat([rank]), map(sub, new, old))
                deque(map(list.extend, self._ranks[pair], gained), 0)
        self.final = not rose
        for pair, new in rose.items():
            f[pair] = new
            views[pair] = self._reads(new)

    def rank(self, pair: Node, pt: Point) -> int | None:
        n, m = pt
        if pair not in self._ranks or n > self.bound:
            return None
        column = self._ranks[pair][n]
        return column[m] if m < len(column) else None

    def unconfirmed(
        self, points: list[tuple[Node, Point]], depth: int
    ) -> list[tuple[Node, Point]]:
        """The points from which Spoiler has no win within `depth` rounds.

        A win listed on any grid is a real win, so the current grid, or the
        smallest power of two from 64 holding the unresolved points, runs
        first, toward `depth` rounds with those points as its goal.  N
        doubles only while the rounds ran out with a point unresolved and N
        is below the points' largest coordinate plus `depth`: a counter
        moves one per round at most, so no win within `depth` rounds leaves
        a grid that large."""

        def unresolved(pts: list[tuple[Node, Point]]) -> list[tuple[Node, Point]]:
            return [(p, pt) for p, pt in pts if (r := self.rank(p, pt)) is None or r > depth]

        left = unresolved(points)
        if not left:
            return left
        top = max(max(pt) for _, pt in left)
        bound = max(self.bound, 64)
        while bound < top:
            bound *= 2
        while True:
            self.ensure(bound, depth, left)
            left = unresolved(left)
            if not left or bound >= top + depth:
                return left
            bound *= 2


# ---------------------------------------------------------------------------
# Verification


def verify_coloring(
    nets: tuple[Ocn, Ocn],
    col: QuotientColoring,
    spoiler_depth_cap: int = 128,
    *,
    check_no: bool = True,
) -> VerificationReport:
    """Check a coloring's window values against the nets.

    YES-soundness: every claimed point satisfies the one-step simulation
    condition against the coloring, with the k*slope wrap supplying the
    neighborhoods across the periodic boundary, and the periodic block's
    conditions certifiably repeat along the belt.  NO-soundness: every
    excluded window point is confirmed by a bounded Spoiler win within the
    cap.
    """
    product = build_product(*nets)
    report = VerificationReport()
    col = QuotientColoring(product, col.geometry, col.values)
    for pair, vals in col.values.items():
        for pt, v in vals.items():
            if v and not col.condition_holds(pair, pt):
                report.yes_violations.append((pair, pt))
    report.periodicity_failures.extend(col.certify_periodicity())
    if check_no:
        att = SpoilerAttractor(product)
        report.no_unconfirmed.extend(att.unconfirmed(col.false_points(), spoiler_depth_cap))
    return report


def find_equal_cross_sections(col: QuotientColoring, pair: Node) -> tuple[int, int, int] | None:
    """First pair of equal cross-sections of a pair's coloring.

    A cross-section at level L is the coloring on two consecutive lines at L;
    two sections are equal when one is the other shifted by a multiple of the
    slope.  Steep belts are scanned along Duplicator's axis, shallow belts
    along Spoiler's.  Returns (level1, level2, k) with k <= MAX_SHIFT, or None.
    """
    geo = col.geometry[pair]
    s = geo.slope
    steep = s.rho_prime >= s.rho
    axis, step = (1, s.rho_prime) if steep else (0, s.rho)
    if step == 0:
        return None
    top = geo.cap[axis] - 1

    by_level: dict[int, set[Point]] = {}
    for pt, v in col.values[pair].items():
        if v:
            by_level.setdefault(pt[axis], set()).add(pt)

    def true_section(level: int) -> frozenset[Point]:
        return frozenset(by_level.get(level, set()) | by_level.get(level + 1, set()))

    for level1 in range(0, top + 1):
        for kk in range(1, MAX_SHIFT + 1):
            level2 = level1 + kk * step
            if level2 + 1 > top + 1:
                break
            shift = (kk * s.rho, kk * s.rho_prime)
            shifted = frozenset((p[0] + shift[0], p[1] + shift[1]) for p in true_section(level1))
            if shifted == true_section(level2):
                return (level1, level2, kk)
    return None


# ---------------------------------------------------------------------------
# Engine


# The escalation schedule: the window corner is (w, w) with w >= W0; round i
# searches Spoiler wins DEPTH0 * 2**i deep; certification follows a wrap
# target's translates up to HORIZON_CAP steps, and exactness looks for equal
# cross-sections at most MAX_SHIFT slope steps apart.
W0 = 24
DEPTH0 = 32
MAX_ROUNDS = 5
HORIZON_CAP = 256
MAX_SHIFT = 4


class EngineLimits:
    """Resource caps for the escalation loop; exceeding them yields an honest
    "undecided" answer, never a wrong one.  The class attributes are the
    defaults."""

    k_schedule: tuple[int, ...] = (1, 2, 3, 4, 6)
    spoiler_depth_cap: int = 4096
    max_rect: int = 20000

    def __init__(
        self,
        k_schedule: tuple[int, ...] = k_schedule,
        spoiler_depth_cap: int = spoiler_depth_cap,
        max_rect: int = max_rect,
    ) -> None:
        if not k_schedule or min(k_schedule) < 1:
            raise ValueError(f"k_schedule needs periods of at least 1, got {k_schedule!r}")
        if spoiler_depth_cap < 0:
            raise ValueError(f"spoiler_depth_cap must be non-negative, got {spoiler_depth_cap}")
        if max_rect < 0:
            raise ValueError(f"max_rect must be non-negative, got {max_rect}")
        self.k_schedule = k_schedule
        self.spoiler_depth_cap = spoiler_depth_cap
        self.max_rect = max_rect


class StrongSimEngine:
    """Shared state for deciding strong simulation between one fixed net pair.

    Construction normalizes the nets, builds the product (with roots, only
    the pairs they reach), solves the Slope Game at every representative
    slope for every pair, and fixes each pair's boundary slope and certified
    belt margin.  Point queries then run the escalation loop over quotient
    colorings and bounded Spoiler search, caching everything across queries.
    """

    def __init__(
        self,
        spoiler_net: Ocn,
        duplicator_net: Ocn,
        limits: EngineLimits | None = None,
        roots: list[Node] | None = None,
    ):
        self.limits = limits or EngineLimits()
        self.spoiler_net, self.duplicator_net = normalize_pair(spoiler_net, duplicator_net)
        self.product = build_product(self.spoiler_net, self.duplicator_net, roots)
        self.scc, self.acyc_bound = graph_parameters(self.product)
        self.c_global = belt_constant(self.product)
        self.vectors = cycle_effect_candidates(self.product)
        self.reps = interval_representatives(self.vectors)
        self.solver = SlopeGameSolver(self.product)
        self.scans: dict[Node, PairScan] = {
            v: scan_pair(v, self.reps, self.solver) for v in self.product.nodes
        }
        self.c_pair = {node: scan.c for node, scan in self.scans.items()}
        self._belts = {
            node: Belt(node, scan.boundary, self.c_pair[node]) for node, scan in self.scans.items()
        }
        c_max = max(self.c_pair.values(), default=0)
        self.w = max(W0, c_max + 2)
        # per round: window rect(j), period k and attractor depth
        j0, ks = self.w + 2 * c_max + 1, self.limits.k_schedule
        self.schedule = tuple(
            (
                min(j0 * 2 ** max(0, i - 1), self.limits.max_rect),
                ks[min(i, len(ks) - 1)],
                min(DEPTH0 * 2**i, self.limits.spoiler_depth_cap),
            )
            for i in range(MAX_ROUNDS)
        )
        self.colorings: dict[tuple[int, int], QuotientColoring] = {}
        self._attractor = SpoilerAttractor(self.product)

    # -- geometry ------------------------------------------------------------

    def belts(self) -> list[Belt]:
        return [belt for _, belt in sorted(self._belts.items())]

    def geometry(self, j: int, k: int) -> dict[Node, PairGeometry]:
        l0 = (self.w, self.w)
        return {b.pair: PairGeometry(b.pair, b.slope, b.c, l0, j, k) for b in self._belts.values()}

    # -- escalation ----------------------------------------------------------

    def coloring(self, j: int, k: int) -> QuotientColoring:
        key = (j, k)
        col = self.colorings.get(key)
        if col is None:
            col = QuotientColoring(self.product, self.geometry(j, k))
            failures = col.certify_periodicity()
            col.certified_yes = not failures
            self.colorings[key] = col
        return col

    def spoiler_rank(self, pair: Node, pt: Point, depth: int) -> int | None:
        """Rounds within which Spoiler wins from the point, if at most `depth`."""
        if self._attractor.unconfirmed([(pair, pt)], depth):
            return None
        return self._attractor.rank(pair, pt)

    def _ensure_exact(self, col: QuotientColoring) -> bool:
        """Upgrade a YES-certified coloring to a fully exact description:
        confirm every excluded window point by a Spoiler win within the depth
        cap and find equal cross-sections, so wrap answers are valid for both
        colors."""
        if col.exact:
            return True
        if not col.certified_yes:
            return False
        if self._attractor.unconfirmed(col.false_points(), self.limits.spoiler_depth_cap):
            return False
        for pair in col.values:
            if any(col.values[pair].values()) and find_equal_cross_sections(col, pair) is None:
                return False
        col.exact = True
        return True

    # -- queries ---------------------------------------------------------------

    def decide(self, left: "Config | tuple[str, int]", right: "Config | tuple[str, int]") -> bool | None:
        """Exact simulation answer, or None when the resource caps are hit."""
        lstate, ln = (left.state, left.counter) if hasattr(left, "state") else left
        rstate, rn = (right.state, right.counter) if hasattr(right, "state") else right
        if ln < 0 or rn < 0:
            raise NetError(f"counters must be non-negative, got {ln} and {rn}")
        pair: Node = (lstate, rstate)
        if pair not in self.scans:
            raise NetError(f"unknown state pair {pair}")
        pt: Point = (ln, rn)
        zone = self._belts[pair].zone(pt)
        if zone is not None:
            return zone
        attractor_feasible = max(pt) <= 4 * self.limits.max_rect
        belt, l0 = self._belts[pair], (self.w, self.w)
        for rnd, (j, k, depth) in enumerate(self.schedule):
            # past round 0, a point inside a window whose coloring is not
            # built yet asks the attractor first: the point's attractor table
            # exists from the earlier round, and a Spoiler win saves the
            # build.  Round 0's coloring is built for any belt point, whoever
            # wins it: `export_coloring` and `check --json` need it anyway.
            spoiler_first = (
                rnd > 0
                and attractor_feasible
                and (j, k) not in self.colorings
                and PairGeometry(pair, belt.slope, belt.c, l0, j, k).in_window(pt)
            )
            if spoiler_first and self.spoiler_rank(pair, pt, depth) is not None:
                return False
            col = self.coloring(j, k)
            if col.certified_yes and col.lookup(pair, pt):
                return True
            # beyond the window an exact coloring answers without a search
            # as deep as the counter
            outside = not col.geometry[pair].in_window(pt)
            if (outside or not attractor_feasible) and self._ensure_exact(col):
                return col.lookup(pair, pt)
            if attractor_feasible and not spoiler_first and self.spoiler_rank(pair, pt, depth) is not None:
                return False
        # every round's coloring is built by now, so this builds nothing
        col = self.certified_coloring()
        if col is not None and self._ensure_exact(col):
            return col.lookup(pair, pt)
        return None

    def certified_coloring(self) -> QuotientColoring | None:
        """First coloring of the escalation schedule that certifies."""
        for j, k, _ in self.schedule:
            col = self.coloring(j, k)
            if col.certified_yes:
                return col
        return None

    def exact_coloring(self) -> QuotientColoring | None:
        """First coloring certified on both sides: claimed points verified
        locally, excluded window points confirmed by bounded Spoiler wins,
        periodicity witnessed by equal cross-sections."""
        for j, k, _ in self.schedule:
            col = self.coloring(j, k)
            if col.certified_yes and self._ensure_exact(col):
                return col
        return None

    def export_coloring(self) -> QuotientColoring | None:
        """A copy of the certified coloring that callers may change: its own
        window values, sharing the immutable geometry and product.  It is
        made without `__init__`, which would solve the game again."""
        col = self.certified_coloring()
        if col is None:
            return None
        out = copy.copy(col)
        out.values = {pair: dict(vals) for pair, vals in col.values.items()}
        return out
