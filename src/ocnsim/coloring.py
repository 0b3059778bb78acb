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

from importlib import import_module
from typing import TYPE_CHECKING

from .core import (
    Config,
    NetError,
    Node,
    Ocn,
    build_product,
    graph_parameters,
    normalize_pair,
)
from .geometry import Belt, Slope, interval_representatives
from .slope_game import SlopeGameSolver, belt_constant, cycle_effect_candidates, scan_pair

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .attractor import SpoilerAttractor
    from .quotient import QuotientColoring

Point = tuple[int, int]


class GeometryError(RuntimeError):
    """A belt point has no slot in its window (`PairGeometry.slot`): a
    resource cap in a round whose window is cut below j0, else a fault (see
    `StrongSimEngine.coloring`)."""


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
# searches Spoiler wins DEPTH0 * 2**i deep with the i-th period of PERIODS
# up to `max_period`; certification follows a wrap target's translates up to
# HORIZON_CAP steps, and exactness looks for equal cross-sections at most
# MAX_SHIFT slope steps apart.
W0 = 24
DEPTH0 = 32
PERIODS = (1, 2, 3, 4, 6)
MAX_ROUNDS = 5
HORIZON_CAP = 256
MAX_SHIFT = 4


class EngineLimits:
    """Resource caps for the escalation loop; exceeding them yields an honest
    "undecided" answer, never a wrong one.  The class attributes are the
    defaults."""

    max_period: int = PERIODS[-1]
    spoiler_depth_cap: int = 4096
    max_rect: int = 20000

    def __init__(
        self,
        max_period: int = max_period,
        spoiler_depth_cap: int = spoiler_depth_cap,
        max_rect: int = max_rect,
    ) -> None:
        if max_period < 1:
            raise ValueError(f"max_period must be at least 1, got {max_period}")
        if spoiler_depth_cap < 0:
            raise ValueError(f"spoiler_depth_cap must be non-negative, got {spoiler_depth_cap}")
        if max_rect < 0:
            raise ValueError(f"max_rect must be non-negative, got {max_rect}")
        self.max_period = max_period
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
        self.belts: dict[Node, Belt] = {
            v: scan_pair(v, self.reps, self.solver) for v in self.product.nodes
        }
        c_max = max((b.c for b in self.belts.values()), default=0)
        self.w = max(W0, c_max + 2)
        # per round: window rect(j), period k and attractor depth
        j0 = self.w + 2 * c_max + 1
        ks = [k for k in PERIODS if k <= self.limits.max_period]
        self.schedule = tuple(
            (
                min(j0 * 2 ** max(0, i - 1), self.limits.max_rect),
                ks[min(i, len(ks) - 1)],
                min(DEPTH0 * 2**i, self.limits.spoiler_depth_cap),
            )
            for i in range(MAX_ROUNDS)
        )
        # per round (j, k): its certified coloring, or None for a round that
        # failed certification or was capped
        self.colorings: dict[tuple[int, int], QuotientColoring | None] = {}
        self._j0 = j0
        # per queried (pair, n): [f, g], its column false below f, true from g
        self._columns: dict[tuple[Node, int], list[int]] = {}
        # built on first use (`_spoiler_search`); an attribute, not a cached
        # property, since one would give the engine a materialized __dict__,
        # which slows every attribute read of a warm `decide`
        self._attractor: SpoilerAttractor | None = None

    # -- geometry ------------------------------------------------------------

    def geometry(self, j: int, k: int) -> dict[Node, PairGeometry]:
        l0 = (self.w, self.w)
        return {b.pair: PairGeometry(b.pair, b.slope, b.c, l0, j, k) for b in self.belts.values()}

    # -- escalation ----------------------------------------------------------

    def coloring(self, j: int, k: int) -> QuotientColoring | None:
        """The round's coloring, solved and certified once, or None for a
        round whose coloring fails certification or that is capped
        (`_drop_round`)."""
        key = (j, k)
        if key not in self.colorings:
            from .quotient import QuotientColoring

            try:
                col = QuotientColoring(self.product, self.geometry(j, k))
                self.colorings[key] = None if col.certify_periodicity() else col
            except GeometryError as exc:
                self._drop_round(j, k, exc)
        return self.colorings[key]

    def _drop_round(self, j: int, k: int, exc: GeometryError) -> None:
        """Cap round (j, k), whose build, certification or a `decide` read
        raised `exc`: below j0 = w + 2c + 1, where `max_rect` cut the window,
        a belt point may have no slot in it, so the round is kept as a None
        entry of `colorings`, as an uncertified one is, and its coloring is
        not built again.  At j >= j0 every belt point has a slot, and the
        error propagates."""
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
        if att.unconfirmed([(pair, pt)], depth):
            return None
        return att.rank(pair, (min(pt[0], depth), pt[1]))

    def _spoiler_wins(self, column: list[int], pair: Node, pt: Point, depth: int) -> bool:
        """Whether Spoiler wins from pt within `depth` rounds, by the rows run
        so far or a search run toward pt alone; pt's row raises column's f."""
        att = self._spoiler_search()
        if pt[1] >= att.row(pair, pt[0], depth):
            att.unconfirmed([(pair, pt)], depth)
        column[0] = max(column[0], att.row(pair, pt[0], depth))
        return pt[1] < column[0]

    def _ensure_exact(self, col: QuotientColoring) -> bool:
        """Upgrade a certified coloring to a fully exact description:
        confirm every excluded window point by a Spoiler win within the depth
        cap, asking the attractor one point per column, and find equal
        cross-sections, so wrap answers are valid for both colors."""
        if col.exact:
            return True
        # Spoiler's wins are downward closed in m, so a column's highest false
        # point is won last, and no point below it has a larger coordinate:
        # `unconfirmed` sizes its grid and runs its rounds as for them all
        tops = [
            (pair, (n, ms.start - 1))
            for pair, geo in col.geometry.items()
            for n, ((lo, _), ms) in enumerate(zip(geo.columns, col._trues(pair)))
            if ms.start > lo
        ]
        if self._spoiler_search().unconfirmed(tops, self.limits.spoiler_depth_cap):
            return False
        from .quotient import find_equal_cross_sections

        # a pair with no true point has equal, empty sections one step apart
        if any(find_equal_cross_sections(col, pair) is None for pair in col.geometry):
            return False
        col.exact = True
        return True

    # -- queries ---------------------------------------------------------------

    def decide(self, left: "Config | tuple[str, int]", right: "Config | tuple[str, int]") -> bool | None:
        """Exact simulation answer, or None when the resource caps are hit.
        As simulation is upward closed in m, column n's interval [f, g)
        answers an m outside it; inside, a certified coloring's read answers
        true, the Spoiler search or an exact coloring false, narrowing it."""
        lstate, ln = (left.state, left.counter) if isinstance(left, Config) else left
        rstate, rn = (right.state, right.counter) if isinstance(right, Config) else right
        if not (isinstance(ln, int) and isinstance(rn, int) and ln >= 0 and rn >= 0):
            raise NetError(f"counters must be non-negative integers, got {ln!r} and {rn!r}")
        pair: Node = (lstate, rstate)
        if pair not in self.belts:
            raise NetError(f"unknown state pair {pair}")
        column = self._columns.get((pair, ln))
        if column is None:
            lo, hi = self.belts[pair].span(ln)
            column = self._columns[pair, ln] = [lo, hi + 1]
        if rn < column[0]:
            return False
        if rn >= column[1]:
            return True
        for rnd, (j, k, depth) in enumerate(self.schedule):
            # no Spoiler win within `depth` rounds starts from m >= depth
            # (`SpoilerAttractor.unconfirmed`): only exactness can answer false
            searchable = rn < depth
            # past round 0 the search goes first, as a win saves a build; round
            # 0's coloring is built for any point: `export` and `--json` need it
            first = searchable and rnd > 0 and (j, k) not in self.colorings
            if first and self._spoiler_wins(column, pair, (ln, rn), depth):
                return False
            col = self.coloring(j, k)
            if col is not None:
                # read no lower than the point: a vertical belt's column holds
                # as many wrap bands below it as its counter allows
                try:
                    thr = col.read(pair, ln, rn, 0, rn)
                except GeometryError as exc:
                    self._drop_round(j, k, exc)
                else:
                    if thr <= rn:
                        column[1] = thr
                        return True
                    if not searchable and self._ensure_exact(col):
                        return False
            if searchable and not first and self._spoiler_wins(column, pair, (ln, rn), depth):
                return False
        # every round is built by now, so this builds nothing, and each
        # certified coloring's read of the point came back false
        return False if self.exact_coloring() is not None else None

    def _certified(self, build: bool = True) -> Iterator[QuotientColoring]:
        """The certified colorings of the rounds in schedule order, building
        each round on reaching it, or, with `build` false, only those built."""
        for j, k, _ in self.schedule:
            col = self.coloring(j, k) if build else self.colorings.get((j, k))
            if col is not None:
                yield col

    def certified_coloring(self) -> QuotientColoring | None:
        """First coloring of the escalation schedule that certifies."""
        return next(self._certified(), None)

    def exact_coloring(self) -> QuotientColoring | None:
        """First coloring certified on both sides: claimed points verified
        locally, excluded window points confirmed by bounded Spoiler wins,
        periodicity witnessed by equal cross-sections."""
        return next((col for col in self._certified() if self._ensure_exact(col)), None)

    def export_coloring(self) -> QuotientColoring | None:
        """A copy of the certified coloring that callers may change: its own
        window values, expanded once from the thresholds, sharing the
        immutable geometry and product, and without the thresholds, which
        its values may leave.  It is made by `copy.copy`: a coloring built
        from the values would not solve the game either, but the benchmark's
        tracer counts every `QuotientColoring.__init__` as a solve."""
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
    module = {"QuotientColoring": "quotient", "SpoilerAttractor": "attractor"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)
