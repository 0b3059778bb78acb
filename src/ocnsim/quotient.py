"""The quotient game: periodic colorings of the belts and their checks.

Belt points are colored by a finite quotient game: points beyond a rectangle
rect(j) are identified with their k*slope translates, and the greatest
fixpoint of the one-step simulation condition is computed over the resulting
window, as one threshold per window column, since simulation is upward
closed in Duplicator's counter.  The result is always a sound
under-approximation of the simulation preorder and is exact once (j, k) are
large enough; verification makes that checkable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import ceil

from .coloring import HORIZON_CAP, MAX_SHIFT, GeometryError, PairGeometry, Point
from .core import Node, Ocn, ProductGraph, build_product


class VerificationReport:
    """Outcome of checking a coloring: local simulation-condition violations
    on claimed points, unconfirmed claimed non-points, and periodicity
    certification failures."""

    __slots__ = ("yes_violations", "no_unconfirmed", "periodicity_failures")

    def __init__(self) -> None:
        self.yes_violations: list[tuple[Node, Point]] = []
        self.no_unconfirmed: list[tuple[Node, Point]] = []
        self.periodicity_failures: list[str] = []


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
    point by point.  Both forms give one column view (`_trues`), which every
    reader that needs no single point reads.
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
                for n, ((lo, hi), g) in enumerate(zip(geo.columns, self._g[self._first[pair] :]))
                for m in range(lo, hi + 1)
            }
            for pair, geo in self.geometry.items()
        }

    def _trues(self, pair: Node) -> list[range] | list[list[int]]:
        """The column view: per window column of the pair, its true m in
        increasing order, from the threshold up in a solved coloring.  A
        window point that given values lack raises `lookup`'s error."""
        cols = self.geometry[pair].columns
        if self._g is None:
            vals = self._values[pair]
            try:
                return [[m for m in range(lo, hi + 1) if vals[n, m]] for n, (lo, hi) in enumerate(cols)]
            except KeyError as exc:
                raise GeometryError(f"{pair}: slot {exc.args[0]} missing from the given values") from exc
        first = self._first[pair]
        return [range(max(lo, g), hi + 1) for (lo, hi), g in zip(cols, self._g[first : first + len(cols)])]

    # -- lookup ------------------------------------------------------------

    def lookup(self, pair: Node, pt: Point) -> bool:
        """The point's value: its zone's, else its window slot's
        (`PairGeometry.slot`).  A solved coloring compares the slot's m with
        its column's threshold."""
        geo = self.geometry[pair]
        zone = geo.zone(pt)
        if zone is not None:
            return zone
        n, m, _ = geo.slot(*pt, pt[1])
        if self._g is None:
            try:
                return self._values[pair][n, m]
            except KeyError as exc:
                raise GeometryError(f"{pair}: slot {(n, m)} missing from the given values") from exc
        return m >= self._g[self._first[pair] + n]

    def read(self, pair: Node, n: int, hi: int, d2: int, floor: int) -> int:
        """The threshold of a solved coloring's read laid out by `_lay_out`,
        walked as the solver walks its reads: the least m from which the
        reply lands on true points up to hi, at most floor if on all of the
        range, and above hi if not at hi."""
        thr, segs = _lay_out(self.geometry[pair], self._first[pair], n, hi, d2, floor)
        g = self._g
        for col, shift, low in segs:
            m = g[col] + shift
            if m > low:
                return min(thr, m)
            thr = low
        return thr

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
        directly from the step semantics (works at any point): every Spoiler
        rule enabled at pt has a reply onto a true point."""
        n, m = pt
        return all(
            any(self.lookup(t, (n + d, m + d2)) for d2, t in replies if m + d2 >= 0)
            for _, d, replies in self.product.moves[pair]
            if n + d >= 0
        )

    def certify_periodicity(self) -> list[str]:
        """Verify that the periodic extension is self-supporting.

        The one-step condition is checked at the first M translates of every
        true point of the fringe, the slots of all points beyond the window
        (`PairGeometry.fringe`), cut from the column view (`_trues`).  M is
        computed so that every geometric test any lookup can make (belt and
        zone boundaries, window caps of successor pairs) has constant outcome
        beyond M.  Past that horizon the checked conditions repeat verbatim,
        so all translates are covered.

        A solved coloring's true fringe in column n is the range [b, t] of
        its points from the threshold up, and `_translates_hold` checks it a
        translate at a time: translate s is column n + s*k*rho over the range
        shifted by s*k*rho'.  It passes when every Spoiler rule enabled there
        has a reply whose `read`, laid out down to the range's bottom, has
        its threshold at most that bottom.  Such a reply lands on
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
        for pair, geo in self.geometry.items():
            fringe: list[tuple[int, range | list[int]]] = []  # per column, its true fringe
            for n, ((lo, _), ms) in enumerate(zip(geo.fringe(), self._trues(pair))):
                ms = ms[bisect_left(ms, lo) :]
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
                if self._g is not None and self._translates_hold(pair, n, ms, step, horizon):
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
        n at each of its first `horizon` translates by `step`."""
        try:
            for s in range(1, horizon + 1):
                n1, bottom, top = n + s * step[0], ms[0] + s * step[1], ms[-1] + s * step[1]
                for _, d, replies in self.product.moves[pair]:
                    if n1 + d >= 0 and not any(
                        self.read(t, n1 + d, top, d2, bottom) <= bottom for d2, t in replies
                    ):
                        return False
        except GeometryError:
            return False
        return True

    def false_points(self) -> list[tuple[Node, Point]]:
        """The excluded window points, in `window_points` order, read from
        the column view (`_trues`)."""
        out = []
        for pair, geo in self.geometry.items():
            for n, ((lo, hi), ms) in enumerate(zip(geo.columns, self._trues(pair))):
                true = set(ms)
                out.extend((pair, (n, m)) for m in range(lo, hi + 1) if m not in true)
        return out

    def to_json_obj(self) -> dict:
        """The exported form: per pair, the true window points of the column
        view (`_trues`) split into the initial block (up to l0), the
        aperiodic block (up to rect(j)) and the periodic block repeated along
        k*slope."""
        pairs = []
        for pair in sorted(self.geometry):
            geo = self.geometry[pair]
            blocks: dict[str, list[list[int]]] = {"init": [], "aper": [], "per": []}
            for pt in ((n, m) for n, ms in enumerate(self._trues(pair)) for m in ms):
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


def _lay_out(geo: PairGeometry, first: int, n2: int, hi: int, d2: int, floor: int = -1):
    """The layout of a read of column n2 of a pair whose geometry is `geo`
    and whose column 0 is window column `first`, by the range [floor, hi]
    (by default all of the column below hi) through a reply of counter
    change d2: the read's threshold if its top is false, then per segment
    from the top down, the number of the window column it reads, the m
    shift and the segment's lowest m, all in the reader's m.  Each segment
    is one band of `PairGeometry.slot`, which raises GeometryError where
    `QuotientColoring.lookup` of a point of the range would."""
    cols = geo.columns
    top = hi + d2
    if n2 < len(cols) and top <= cols[n2][1]:  # inside the window column
        return hi + 1, [(first + n2, -d2, cols[n2][0] - 1 - d2)]
    low, high = geo.span(n2)
    low = max(low, floor + d2)
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
    from .attractor import SpoilerAttractor  # imported here: solving and certifying skip it

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
    slope.  Both are cut from the column view (`_trues`): a shallow belt's
    lines are columns, and a steep belt's are rows, cut by bisection from the
    columns that meet them, which are consecutive, as a belt's column ranges
    rise with n.  Returns (level1, level2, k) with k <= MAX_SHIFT, or None.
    """
    geo = col.geometry[pair]
    rho, rho2 = geo.slope.rho, geo.slope.rho_prime
    trues, (los, his) = col._trues(pair), zip(*geo.columns)
    steep = rho2 >= rho
    step, top = (rho2, geo.cap[1] - 1) if steep else (rho, geo.cap[0] - 1)

    def section(level: int) -> list[Point]:
        """The true points of lines level and level + 1, less level on the
        scanned axis."""
        if not steep:
            return [(n - level, m) for n in (level, level + 1) for m in trues[n]]
        return [
            (n, m - level)
            for n in range(bisect_left(his, level), bisect_right(los, level + 1))
            for m in trues[n][bisect_left(trues[n], level) : bisect_left(trues[n], level + 2)]
        ]

    for level1 in range(top + 1):
        for kk in range(1, MAX_SHIFT + 1):
            level2 = level1 + kk * step
            if level2 > top:
                break
            dn, dm = (kk * rho, 0) if steep else (0, kk * rho2)
            if [(n + dn, m + dm) for n, m in section(level1)] == section(level2):
                return (level1, level2, kk)
    return None
