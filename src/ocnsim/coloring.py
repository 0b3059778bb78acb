"""Deciding strong simulation: belts and the engine's point queries.

The plane of every control-state pair splits into a Duplicator-won zone, a
Spoiler-won zone (both certified by Slope Game strategies and the key replay
lemmas) and a belt strip around the pair's boundary slope.  A point in a
zone is answered by its zone.  A belt point is answered by the periodic
colorings of the quotient game (`quotient`) and the bounded Spoiler search
(`attractor`); the engine imports those layers on its first belt query, so
a process whose queries all fall in zones never compiles them.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

from .core import (
    Config,
    NetError,
    Node,
    Ocn,
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

if TYPE_CHECKING:
    from .attractor import SpoilerAttractor
    from .quotient import QuotientColoring

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
        # built on first use (`_spoiler_search`); an attribute, not a cached
        # property, since one would give the engine a materialized __dict__,
        # which slows every attribute read of a warm `decide`
        self._attractor: SpoilerAttractor | None = None

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
            from .quotient import QuotientColoring

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

    def _spoiler_search(self) -> SpoilerAttractor:
        """The bounded Spoiler search, built on its first use."""
        if self._attractor is None:
            from .attractor import SpoilerAttractor

            self._attractor = SpoilerAttractor(self.product)
        return self._attractor

    def spoiler_rank(self, pair: Node, pt: Point, depth: int) -> int | None:
        """Rounds within which Spoiler wins from the point, if at most `depth`."""
        att = self._spoiler_search()
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
        if self._spoiler_search().unconfirmed(tops, self.limits.spoiler_depth_cap):
            return False
        from .quotient import find_equal_cross_sections

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
        import copy

        out = copy.copy(col)
        out._values = col.values
        out._first = out._g = None
        return out


def __getattr__(name: str):
    # the layers the engine loads on demand, served under their old names
    if name == "QuotientColoring":
        from .quotient import QuotientColoring

        return QuotientColoring
    if name == "SpoilerAttractor":
        from .attractor import SpoilerAttractor

        return SpoilerAttractor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
