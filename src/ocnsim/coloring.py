"""Deciding strong simulation: belts, periodic colorings, point queries.

The plane of every control-state pair splits into a Duplicator-won zone, a
Spoiler-won zone (both certified by Slope Game strategies and the key replay
lemmas) and a belt strip around the pair's boundary slope.  Belt points are
colored by a finite quotient game: points beyond a rectangle rect(j) are
identified with their k*slope translates, and the greatest fixpoint of the
one-step simulation condition is computed over the resulting window, as one
threshold per window column, since simulation is upward closed in
Duplicator's counter.  The result is always a sound under-approximation of
the simulation preorder and is exact once (j, k) are large enough;
verification makes that checkable.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from itertools import chain
from math import ceil, inf
from operator import itemgetter

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
from .geometry import Slope, interval_representatives
from .slope_game import (
    PairScan,
    SlopeGameSolver,
    belt_constant,
    cycle_effect_candidates,
    scan_pair,
)

Point = tuple[int, int]


class GeometryError(RuntimeError):
    """A belt point has no slot in its window (`PairGeometry.slot`): a
    resource cap in a round whose window is cut below j0, else a fault (see
    `StrongSimEngine.coloring`)."""


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

    def span(self, n: int) -> tuple[float, float]:
        """The lowest and highest m of the belt in column n >= 0: the points
        neither `c_below` nor `c_above` the slope.  A vertical belt has no
        above-zone (highest m inf), and its columns beyond c are below-zone
        (lowest m inf)."""
        rho, rho2, c = self.slope.rho, self.slope.rho_prime, self.c
        if rho == 0:
            return (0, inf) if n <= c else (inf, inf)
        lo = 0 if rho2 == 0 or n <= c else max(0, -(-(rho2 * (n - c) - rho * c) // rho))
        return lo, (rho2 * (n + c)) // rho + c

    def zone(self, pt: Point) -> bool | None:
        """True above the belt (simulated), False below it (not simulated),
        None inside it."""
        lo, hi = self.span(pt[0])
        m = pt[1]
        return True if m > hi else False if m < lo else None


class PairGeometry(Belt):
    """Belt geometry of one pair instantiated over a window (l0, j, k), whose
    corner `cap` is rect_cap(j + k).  `columns` holds, per column n of
    belt /\\ rect(j + k), its lowest and highest m (lowest above highest
    when the column is empty)."""

    __slots__ = ("l0", "j", "k", "cap", "columns")

    def __init__(self, pair: Node, slope: Slope, c: int, l0: Point, j: int, k: int) -> None:
        super().__init__(pair, slope, c)
        object.__setattr__(self, "l0", l0)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        X, Y = cap = self.rect_cap(j + k)
        object.__setattr__(self, "cap", cap)
        # a vertical belt's columns beyond c are below-zone
        width = X + 1 if slope.rho else min(X, c) + 1
        columns = [(lo, min(Y, hi)) for lo, hi in map(self.span, range(width))]
        object.__setattr__(self, "columns", columns)

    def __reduce__(self):
        return PairGeometry, (self.pair, self.slope, self.c, self.l0, self.j, self.k)

    def rect_cap(self, j: int) -> Point:
        return (self.l0[0] + j * self.slope.rho, self.l0[1] + j * self.slope.rho_prime)

    def in_rect(self, pt: Point, j: int) -> bool:
        cap = self.rect_cap(j)
        return pt[0] <= cap[0] and pt[1] <= cap[1]

    def slot(self, n: int, m: int, low: int) -> tuple[int, int, int]:
        """The window slot (n1, m1) of belt point (n, m), and the lowest m
        from `low` up to m whose point of column n shares its band.  The slot
        is the point lowered by s*k*slope for the least s >= 0 that brings it
        under the cap; the band is the points that same s brings there.
        Raises GeometryError, with one message naming (n, m) or the range's
        lowest point, when (n, m) has no such s or a point of the range has
        its slot outside the window's columns or its column's belt range."""
        X, Y = self.cap
        step, step2 = self.k * self.slope.rho, self.k * self.slope.rho_prime
        s = s2 = 0
        if n > X:
            s = -(-(n - X) // step) if step else None
        if m > Y:
            s2 = -(-(m - Y) // step2) if step2 else None
        if s is not None and s2 is not None:
            if s2 > s:
                s, low = s2, max(low, Y + (s2 - 1) * step2 + 1)
            n1, shift, cols = n - s * step, s * step2, self.columns
            if 0 <= n1 < len(cols):
                lo, hi = cols[n1]
                if lo <= m - shift <= hi:
                    if lo <= low - shift:
                        return n1, m - shift, low
                    m = low
        raise GeometryError(f"{self.pair}: belt point {(n, m)} has no slot in the window")

    def fringe(self) -> list[tuple[int, int]]:
        """Per window column n, the lowest and highest m of its points whose
        k*slope translate leaves the window, the slots of all points beyond
        it: the whole column when n + k*rho > X, else its points above
        Y - k*rho'."""
        X, Y = self.cap
        step, step2 = self.k * self.slope.rho, self.k * self.slope.rho_prime
        return [
            (lo if n + step > X else max(lo, Y - step2 + 1), hi)
            for n, (lo, hi) in enumerate(self.columns)
        ]

    def window_points(self) -> list[Point]:
        """All points of belt /\\ rect(j + k), column by column."""
        return [(n, m) for n, (lo, hi) in enumerate(self.columns) for m in range(lo, hi + 1)]


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
    greatest fixpoint, looked up through the zones and the window slot.

    A solved coloring is its column thresholds: per pair, the number of its
    first window column (`_first`), and per column of its geometry's
    `columns` one threshold (`_g`), the least true m.  It keeps nothing per
    point: its `values` are derived from the thresholds when read, and not
    kept.
    Values may be given instead, as when checking an exported coloring:
    such a coloring keeps its dicts, has no thresholds, and is certified
    point by point.
    """

    def __init__(
        self,
        product: ProductGraph,
        geometry: dict[Node, PairGeometry],
        values: dict[Node, dict[Point, bool]] | None = None,
    ):
        self.product = product
        self.geometry = geometry
        # per pair, the number of its column 0; per column, its threshold
        self._first: dict[Node, int] | None = None
        self._g: list[int] | None = None
        self._values = values
        if values is None:
            self._solve()
        self.certified_yes = False
        self.exact = False

    @property
    def values(self) -> dict[Node, dict[Point, bool]]:
        """Per pair, its window points in `window_points` order, each with
        its value.  A solved coloring builds them afresh on every read."""
        if self._g is None:
            return self._values
        return {
            pair: {
                (n, m): m >= g
                for n, (lo, hi, g) in enumerate(self._thresholds(pair))
                for m in range(lo, hi + 1)
            }
            for pair in self._first
        }

    def _thresholds(self, pair: Node) -> list[tuple[int, int, int]]:
        """Per window column of a solved coloring's pair: its lowest m, its
        highest m and its threshold."""
        first, cols = self._first[pair], self.geometry[pair].columns
        return [(lo, hi, g) for (lo, hi), g in zip(cols, self._g[first : first + len(cols)])]

    def _true_points(self, pair: Node):
        """The pair's true window points, column by column."""
        if self._g is None:
            return (pt for pt, v in self._values[pair].items() if v)
        return (
            (n, m)
            for n, (lo, hi, g) in enumerate(self._thresholds(pair))
            for m in range(max(lo, g), hi + 1)
        )

    # -- lookup ------------------------------------------------------------

    def lookup(self, pair: Node, pt: Point) -> bool:
        """The point's value: its zone's, else its window slot's."""
        zone = self.geometry[pair].zone(pt)
        return self.belt_value(pair, pt) if zone is None else zone

    def belt_value(self, pair: Node, pt: Point) -> bool:
        """The value of a belt point: its window slot's (`PairGeometry.slot`).
        A solved coloring compares the slot's m with its column's
        threshold."""
        n, m = pt
        n, m, _ = self.geometry[pair].slot(n, m, m)
        if self._g is None:
            try:
                return self._values[pair][n, m]
            except KeyError as exc:
                raise GeometryError(f"{pair}: slot {(n, m)} missing from the given values") from exc
        return m >= self._g[self._first[pair] + n]

    def _alternatives(self, pair: Node, pt: Point):
        """Enabled one-round alternatives: per enabled Spoiler rule, the list
        of (successor pair, successor point) replies."""
        n, m = pt
        for _, d, replies in self.product.moves[pair]:
            if n + d < 0:
                continue
            yield [(tgt, (n + d, m + d2)) for d2, tgt in replies if m + d2 >= 0]

    # -- greatest fixpoint ---------------------------------------------------

    def _solve(self) -> None:
        """A worklist over window columns.  Simulation is upward closed in
        Duplicator's counter (the monotonicity lemma that `SpoilerAttractor`
        proves for Spoiler's wins), so the solver keeps, per pair p and
        window column n, one threshold g[p][n], the least true m.  Every
        column starts at its lowest m, all true, and g rises, clipped to the
        column's highest m plus one, to the max over the Spoiler rules
        enabled at n of the min over their replies (d2, t) of the reply's
        read threshold minus d2.

        A read walks target column n2 = n + d of t down from the top of the
        reader's range, m2 = hi + d2, and stops at the first false point;
        its threshold is the m2 just above that point.  Down the column lie
        the above-zone (true), the wrap bands beyond the window cap, the
        window column, and the below-zone (false, as is m2 < 0).  The
        window column is true from g[t][n2] up, and band s, whose points
        `PairGeometry.slot` lowers by s*k*slope, from
        g[t][n2 - s*k*rho] + s*k*rho' up.  Which segments a read passes
        depends on the geometry alone, so each read is laid out once, by
        `_lay_out`, before the worklist: its threshold if its top is false,
        then per segment from the top down the window column it reads, the m
        shift and the segment's lowest m, all less d2.  A window column's
        segment is given its lowest m less one, below any threshold, since
        the below-zone follows it.  A re-evaluation scans the segments to
        the first one with a false point.  A layout takes each segment's
        slot from `PairGeometry.slot`, so it raises GeometryError wherever
        `lookup` of a point the read passes would, with the same message,
        and the solver reads the window as `lookup` does.  Each window
        column records the columns whose layout reads it, which are queued
        again whenever its threshold rises.
        Reads only rise with the thresholds, so a rule's min stops at its
        first reply that cannot raise the column: if that reply rises
        later, its column is requeued.

        Replies with d = 0 into the column's own pair and d2 <= 0 read the
        column itself and are folded.  One with d2 = 0 holds at every true
        point of the column, so its rule never raises g and is dropped.
        One with d2 < 0 reads g - d2, or hi + 1 once that is past the top,
        which is above g: it can only delay the rule's other replies.  At
        any fixpoint g >= min(g - d2, rest) then forces g >= rest, so the
        least fixpoint is the same without the reply, and the column
        climbs to the other replies' threshold in one step instead of -d2
        at a time.  A reply with d2 > 0 is kept: at a column clipped by the
        window cap, hi + d2 lies in a wrap band, which can be false.

        Thresholds only rise, each to a value its reads force, so the result
        is the least thresholds whose columns all satisfy the one-step
        condition.  Such a coloring is a post-fixed point, so it lies under
        the greatest fixpoint of the point game and `true` is always sound.
        It is that fixpoint whenever every read range is upward closed,
        which the `_kleene` reference of the tests checks.  The solver's
        state is per column, and so is its result: the coloring keeps each
        pair's first column (`_first`) and the thresholds (`_g`), and
        nothing per point."""
        geometry, moves = self.geometry, self.product.moves
        first: dict[Node, int] = {}  # per pair: the number of its column 0
        # per column: its pair, n, lowest m and highest m
        places: list[tuple[Node, int, int, int]] = []
        for pair, geo in geometry.items():
            first[pair] = len(places)
            places.extend((pair, n, lo, hi) for n, (lo, hi) in enumerate(geo.columns))
        g = [lo for _, _, lo, _ in places]  # per column: its threshold
        readers: list[set[int]] = [set() for _ in g]

        def lay_out(reader: int, t: Node, n2: int, hi: int, d2: int) -> tuple[int, list]:
            read = _lay_out(geometry[t], first[t], n2, hi, d2)
            for col, _, _ in read[1]:
                readers[col].add(reader)
            return read

        # per column, per enabled rule, per reply: its layout
        layout: list[list[list[tuple[int, list]]]] = []
        for col, (pair, n, lo, hi) in enumerate(places):
            layout.append([
                [lay_out(col, t, n + d, hi, d2) for d2, t in replies if d or t != pair or d2 > 0]
                for _, d, replies in moves[pair]
                if n + d >= 0 and not (d == 0 and (0, pair) in replies)
            ] if lo <= hi else [])

        queue = list(range(len(g)))
        queued = bytearray(b"\1") * len(g)
        while queue:
            col = queue.pop()
            queued[col] = 0
            hi = places[col][3]
            best = g[col]
            if best > hi:
                continue
            for rule in layout[col]:
                low = hi + 1
                for thr, segs in rule:
                    for t, shift, bottom in segs:
                        m = g[t] + shift
                        if m > bottom:
                            if m < thr:
                                thr = m
                            break
                        thr = bottom
                    if thr < low:
                        low = thr
                        if low <= best:
                            break
                if low > best:
                    best = low
            if best > g[col]:
                g[col] = best
                for r in readers[col]:
                    if not queued[r]:
                        queued[r] = 1
                        queue.append(r)
        self._first, self._g = first, g

    # -- verification --------------------------------------------------------

    def condition_holds(self, pair: Node, pt: Point) -> bool:
        """One-step simulation condition against this coloring, evaluated
        directly from the step semantics (works at any point)."""
        for replies in self._alternatives(pair, pt):
            if not any(self.lookup(tp, tpt) for tp, tpt in replies):
                return False
        return True

    def certify_periodicity(self) -> list[str]:
        """Verify that the periodic extension is self-supporting.

        The one-step condition is checked at the first M translates of every
        true point of the fringe, the slots of all points beyond the window
        (`PairGeometry.fringe`).  M is computed so that every
        geometric test any lookup can make (belt and zone boundaries, window
        caps of successor pairs) has constant outcome beyond M.  Past that
        horizon the checked conditions repeat verbatim, so all translates
        are covered.

        A solved coloring's true fringe in column n is the range [b, t] of
        its points from the threshold up, and `_translates_hold` checks it a
        translate at a time: translate s is column n + s*k*rho over the range
        shifted by s*k*rho'.  It passes when every Spoiler rule enabled there
        has a reply whose read, laid out as the solver lays out its reads,
        has its threshold at most the range's bottom.  Such a reply lands on
        a true point at every m of the range, so the test is sound.  It can
        fail where the condition holds, when a rule's replies cover the range
        only between them; then, or when laying out a read raises, the
        column's points are checked one at a time with `condition_holds`, as
        every column is for a coloring of given values.  The layout covers
        every point a lookup of the passing test's replies reads, and reads
        each as the lookup does, so a column that passes would pass point by
        point, with no lookup raising.  The failures, their order and any
        GeometryError are therefore those of the point test.
        """
        failures: list[str] = []
        g = self._g
        for pair, geo in self.geometry.items():
            if g is None:
                vals = self._values[pair]
            else:
                first = self._first[pair]
            fringe: list[tuple[int, range | list[int]]] = []  # per column, its true fringe
            for n, (lo, hi) in enumerate(geo.fringe()):
                if g is None:
                    ms = [m for m in range(lo, hi + 1) if vals[n, m]]
                else:
                    ms = range(max(lo, g[first + n]), hi + 1)
                if ms:
                    fringe.append((n, ms))
            if not fringe:
                continue
            step = (geo.k * geo.slope.rho, geo.k * geo.slope.rho_prime)
            bbox = (
                (max(0, fringe[0][0] - 1), max(0, min(ms[0] for _, ms in fringe) - 1)),
                (fringe[-1][0] + 1, max(ms[-1] for _, ms in fringe) + 1),
            )
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
            for n, ms in fringe:
                if g is not None and self._translates_hold(pair, n, ms, step, horizon):
                    continue
                for m in ms:
                    for s in range(1, horizon + 1):
                        cand = (n + s * step[0], m + s * step[1])
                        if not self.condition_holds(pair, cand):
                            failures.append(f"{pair}: condition fails at translate {cand}")
                            break
        return failures

    def _translates_hold(
        self, pair: Node, n: int, ms: range, step: Point, horizon: int
    ) -> bool:
        """Whether the column test passes the true range ms of window column
        n at each of its first `horizon` translates by `step`.  A read's
        threshold is walked from the thresholds as the solver walks it."""
        geometry, first, g = self.geometry, self._first, self._g
        try:
            for s in range(1, horizon + 1):
                n1, bottom, top = n + s * step[0], ms[0] + s * step[1], ms[-1] + s * step[1]
                for _, d, replies in self.product.moves[pair]:
                    if n1 + d < 0:
                        continue
                    for d2, t in replies:
                        thr, segs = _lay_out(geometry[t], first[t], n1 + d, top, d2)
                        for col, shift, low in segs:
                            m = g[col] + shift
                            if m > low:
                                thr = min(thr, m)
                                break
                            thr = low
                        if thr <= bottom:
                            break
                    else:
                        return False
        except GeometryError:
            return False
        return True

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
            for pt in self._true_points(pair):
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


def _lay_out(geo: PairGeometry, first: int, n2: int, hi: int, d2: int):
    """The layout of a read of column n2 of a pair whose geometry is `geo`
    and whose column 0 is window column `first`, by a range whose highest m
    is hi, through a reply of counter change d2: the read's threshold if its
    top is false, then per segment from the top down, the number of the
    window column it reads, the m shift and the segment's lowest m, all in
    the reader's m.  Each segment is one band of `PairGeometry.slot`, which
    raises GeometryError where `QuotientColoring.lookup` of a point the read
    passes would."""
    cols = geo.columns
    top = hi + d2
    if n2 < len(cols) and top <= cols[n2][1]:  # inside the window column
        return hi + 1, [(first + n2, -d2, cols[n2][0] - 1 - d2)]
    low, high = geo.span(n2)
    top = min(top, high)  # above it, the above-zone
    segs = []
    m2 = top
    while m2 >= low:
        n1, m1, bottom = geo.slot(n2, m2, low)
        segs.append((first + n1, m2 - m1 - d2, bottom - d2))
        m2 = bottom - 1
    return top + 1 - d2, segs


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
    for pt in col._true_points(pair):
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
        # per round (j, k): its coloring, or None once the round is capped
        self.colorings: dict[tuple[int, int], QuotientColoring | None] = {}
        self._j0 = j0
        self._attractor = SpoilerAttractor(self.product)

    # -- geometry ------------------------------------------------------------

    def belts(self) -> list[Belt]:
        return [belt for _, belt in sorted(self._belts.items())]

    def geometry(self, j: int, k: int) -> dict[Node, PairGeometry]:
        l0 = (self.w, self.w)
        return {b.pair: PairGeometry(b.pair, b.slope, b.c, l0, j, k) for b in self._belts.values()}

    # -- escalation ----------------------------------------------------------

    def coloring(self, j: int, k: int) -> QuotientColoring | None:
        """The round's coloring, solved and certified once, or None for a
        capped round (`_drop_round`)."""
        key = (j, k)
        if key not in self.colorings:
            try:
                col = QuotientColoring(self.product, self.geometry(j, k))
                col.certified_yes = not col.certify_periodicity()
                self.colorings[key] = col
            except GeometryError as exc:
                self._drop_round(j, k, exc)
        return self.colorings[key]

    def _drop_round(self, j: int, k: int, exc: GeometryError) -> None:
        """Cap round (j, k), whose build, certification or a `decide` lookup
        raised `exc`: below j0 = w + 2c + 1, where `max_rect` cut the window,
        a belt point may have no slot in it, so the round is kept as a None
        entry of `colorings` and its coloring is not built again.  At
        j >= j0 every belt point has a slot, and the error propagates."""
        if j >= self._j0:
            raise exc
        self.colorings[j, k] = None

    def spoiler_rank(self, pair: Node, pt: Point, depth: int) -> int | None:
        """Rounds within which Spoiler wins from the point, if at most `depth`."""
        att = self._attractor
        r = att.rank(pair, pt)
        if r is not None and r <= depth:
            return r
        if att.unconfirmed([(pair, pt)], depth):
            return None
        return att.rank(pair, pt)

    def _ensure_exact(self, col: QuotientColoring) -> bool:
        """Upgrade a YES-certified coloring to a fully exact description:
        confirm every excluded window point by a Spoiler win within the depth
        cap, asking the attractor one point per column, and find equal
        cross-sections, so wrap answers are valid for both colors."""
        if col.exact:
            return True
        if not col.certified_yes:
            return False
        # Spoiler's wins are downward closed in m, so a column's highest false
        # point is won last, and no point below it has a larger coordinate:
        # `unconfirmed` sizes its grid and runs its rounds as for them all
        tops = [
            (pair, (n, g - 1))
            for pair in col.geometry
            for n, (lo, _, g) in enumerate(col._thresholds(pair))
            if g > lo
        ]
        if self._attractor.unconfirmed(tops, self.limits.spoiler_depth_cap):
            return False
        for pair in col.geometry:
            has_true = any(g <= hi for _, hi, g in col._thresholds(pair))
            if has_true and find_equal_cross_sections(col, pair) is None:
                return False
        col.exact = True
        return True

    # -- queries ---------------------------------------------------------------

    def decide(self, left: "Config | tuple[str, int]", right: "Config | tuple[str, int]") -> bool | None:
        """Exact simulation answer, or None when the resource caps are hit.
        `true` comes from a certified coloring's lookup, `false` from the
        attractor or from an exact coloring, whose lookup of the point came
        back false, and None otherwise."""
        lstate, ln = (left.state, left.counter) if isinstance(left, Config) else left
        rstate, rn = (right.state, right.counter) if isinstance(right, Config) else right
        if not (isinstance(ln, int) and isinstance(rn, int) and ln >= 0 and rn >= 0):
            raise NetError(f"counters must be non-negative integers, got {ln!r} and {rn!r}")
        pair: Node = (lstate, rstate)
        if pair not in self.scans:
            raise NetError(f"unknown state pair {pair}")
        pt: Point = (ln, rn)
        belt = self._belts[pair]
        zone = belt.zone(pt)
        if zone is not None:
            return zone
        attractor_feasible = max(pt) <= 4 * self.limits.max_rect
        rho, rho2 = belt.slope.rho, belt.slope.rho_prime
        for rnd, (j, k, depth) in enumerate(self.schedule):
            # under the round's window cap l0 + (j + k) * slope, l0 = (w, w)
            inside = ln <= self.w + (j + k) * rho and rn <= self.w + (j + k) * rho2
            # past round 0, a point inside a window whose coloring is not
            # built yet asks the attractor first: the point's attractor table
            # exists from the earlier round, and a Spoiler win saves the
            # build.  Round 0's coloring is built for any belt point, whoever
            # wins it: `export` and `check --json` need it anyway.
            spoiler_first = (
                rnd > 0 and attractor_feasible and inside and (j, k) not in self.colorings
            )
            if spoiler_first and self.spoiler_rank(pair, pt, depth) is not None:
                return False
            col = self.coloring(j, k)
            if col is not None and col.certified_yes:
                try:
                    if col.belt_value(pair, pt):
                        return True
                except GeometryError as exc:
                    self._drop_round(j, k, exc)
                else:
                    # beyond the window an exact coloring answers without a
                    # search as deep as the counter
                    if (not inside or not attractor_feasible) and self._ensure_exact(col):
                        return False
            if attractor_feasible and not spoiler_first and self.spoiler_rank(pair, pt, depth) is not None:
                return False
        # every round's coloring is built by now, so this builds nothing, and
        # the certified one's lookup of the point came back false
        col = self.certified_coloring()
        if col is not None and self._ensure_exact(col):
            return False
        return None

    def certified_coloring(self) -> QuotientColoring | None:
        """First coloring of the escalation schedule that certifies."""
        for j, k, _ in self.schedule:
            col = self.coloring(j, k)
            if col is not None and col.certified_yes:
                return col
        return None

    def exact_coloring(self) -> QuotientColoring | None:
        """First coloring certified on both sides: claimed points verified
        locally, excluded window points confirmed by bounded Spoiler wins,
        periodicity witnessed by equal cross-sections."""
        for j, k, _ in self.schedule:
            col = self.coloring(j, k)
            if col is not None and col.certified_yes and self._ensure_exact(col):
                return col
        return None

    def export_coloring(self) -> QuotientColoring | None:
        """A copy of the certified coloring that callers may change: its own
        window values, expanded once from the thresholds, sharing the
        immutable geometry and product.  It is made without `__init__`,
        which would solve the game again, and without the thresholds, which
        its values may leave."""
        col = self.certified_coloring()
        if col is None:
            return None
        out = copy.copy(col)
        out._values = col.values
        out._first = out._g = None
        return out
