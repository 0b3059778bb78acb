import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from nets import (
    NET_A,
    NET_ACOPY,
    NET_B,
    NET_Z,
    chain_pair,
    criterion_7_pairs,
    omega_into_y,
    own_column_pair,
    random_pair,
    tau_cyclic_pair,
)
from ocnsim import core
from ocnsim.core import Config, NetError, Ocn, build_product, normalize_pair
from ocnsim.attractor import SpoilerAttractor
from ocnsim.coloring import (
    MAX_ROUNDS,
    EngineLimits,
    GeometryError,
    PairGeometry,
    StrongSimEngine,
)
from ocnsim.geometry import Slope, c_above, c_below
from ocnsim.oracle import bounded_round_winner
from ocnsim.quotient import QuotientColoring, find_equal_cross_sections, verify_coloring
from ocnsim.weaksim import converge_weak


def _engine(spoiler, duplicator, **kw):
    return StrongSimEngine(spoiler, duplicator, **kw)


# ---------------------------------------------------------------------------
# bounded Spoiler search


def spoiler_bounded_win(nets, position, depth):
    """True iff the attractor over the nets' product lists a Spoiler win
    within `depth` rounds from the position."""
    (left, right), product = position, build_product(*nets)
    points = [((left.state, right.state), (left.counter, right.counter))]
    return not SpoilerAttractor(product).unconfirmed(points, depth)


def test_spoiler_bounded_win_a_vs_a():
    nets = normalize_pair(NET_A, NET_ACOPY)
    assert spoiler_bounded_win(nets, (Config("p", 5), Config("q", 3)), depth=10)
    assert not spoiler_bounded_win(nets, (Config("p", 3), Config("q", 5)), depth=40)


def test_spoiler_bounded_win_sink_at_zero():
    # Duplicator routed to the decrementing sink at counter 0 loses in one round
    sp = Ocn("S", ("s",), ("a", "b"), (("s", "b", 0, "s"),))
    dup = Ocn("D", ("d",), ("a",), (("d", "a", 0, "d"),))
    nets = normalize_pair(sp, dup)
    from ocnsim.core import SINK

    assert spoiler_bounded_win(nets, (Config("s", 1), Config(SINK, 0)), depth=1)


def test_spoiler_bounded_win_matches_oracle():
    for seed in range(4):
        n, m = random_pair(seed)
        nets = normalize_pair(n, m)
        for q in nets[0].states[:1]:
            for q2 in nets[1].states[:2]:
                for c1 in (0, 3):
                    for c2 in (0, 3):
                        fast = spoiler_bounded_win(
                            nets, (Config(q, c1), Config(q2, c2)), depth=12
                        )
                        slow = bounded_round_winner(nets, (Config(q, c1), Config(q2, c2)), 12)
                        assert fast == slow.spoiler_wins
    # shallow positions where a rank counted a reply won earlier in the same
    # round: Duplicator survives `depth` rounds here, Spoiler wins in depth + 1
    nets = normalize_pair(*random_pair(19))
    for pos, depth in (
        ((Config("s1", 1), Config("d0", 0)), 2),
        ((Config("s1", 1), Config("d0", 1)), 3),
    ):
        for d in (depth, depth + 1):
            assert spoiler_bounded_win(nets, pos, d) == bounded_round_winner(nets, pos, d).spoiler_wins


# Spoiler climbs while Duplicator falls: from (n, m) Duplicator is stuck
# after m + 1 rounds at (n + m, 0)
CLIMB = (
    Ocn("S", ("s",), ("a",), (("s", "a", 1, "s"),)),
    Ocn("D", ("d",), ("a",), (("d", "a", -1, "d"),)),
)


@pytest.mark.parametrize("max_rect,raises", [(3, False), (EngineLimits.max_rect, True)])
def test_geometry_error_is_a_cap_only_below_j0(monkeypatch, max_rect, raises):
    # a window `max_rect` cuts below j0 need not hold every wrap, so a wrap
    # that leaves it is a resource cap; in a window of j0 or more it is a fault
    eng = _engine(NET_A, NET_ACOPY, limits=EngineLimits(max_rect=max_rect))

    def broken(self, pair, n, hi, d2, floor):
        raise GeometryError("belt point has no slot in the window")

    # `decide` reads a belt point's column through `read`, as certification
    # reads its translates, which falls back to the point test when it raises
    monkeypatch.setattr(QuotientColoring, "read", broken)
    if raises:
        with pytest.raises(GeometryError):
            eng.decide(("p", 30), ("q", 31))
        return
    assert eng.decide(("p", 30), ("q", 31)) is None
    # every round is capped and kept as None: no coloring is kept, and a
    # second decide builds none
    assert eng.colorings and set(eng.colorings.values()) == {None}
    solves = []
    monkeypatch.setattr(QuotientColoring, "_solve", lambda self: solves.append(self))
    assert eng.decide(("p", 30), ("q", 31)) is None
    assert solves == [] and eng.certified_coloring() is None and eng.exact_coloring() is None


def test_attractor_ranks_up_to_the_grid_edge():
    # the last move of CLIMB's win leaves the grid when n + m = bound and
    # still wins, since Duplicator's only reply decrements
    att = _attractor(CLIMB)
    att.ensure(64, 64)
    for n in range(att.bound + 2):
        for m in range(att.bound + 2):
            want = m + 1 if n + m <= att.bound and m < att.max_rank else None
            assert att.rank(("s", "d"), (n, m)) == want, (n, m)


def _attractor(nets) -> SpoilerAttractor:
    return SpoilerAttractor(build_product(*normalize_pair(*nets)))


def _ranks(att: SpoilerAttractor) -> dict:
    cells = range(att.bound + 1)
    return {(p, n, m): att.rank(p, (n, m)) for p in att.moves for n in cells for m in cells}


def _ranks_by_column(att: SpoilerAttractor) -> dict:
    cells = range(att.bound + 2)
    return {
        p: [r for n in range(att.bound + 1) for m in cells if (r := att.rank(p, (n, m))) is not None]
        for p in att.moves
    }


def test_attractor_ranks_match_the_oracle():
    # rank(p, (n, m)) <= r exactly when the oracle, which shares no code
    # with the engine, has Spoiler win from (n, m) within r rounds, for
    # every r <= 8: wins within r rounds are wins within r + 1, so the
    # oracle need only win at the rank and lose one round earlier.  `won`
    # lists the ranks `rank` gives, column by column, whether the table ran
    # in one call, resumed, or started over on a larger grid.
    for seed in range(12):
        nets = normalize_pair(*random_pair(seed))
        att = SpoilerAttractor(build_product(*nets))
        for bound, depth in ((16, 3), (16, 8), (24, 8)):
            att.ensure(bound, depth)
            assert att.bound == bound and (att.max_rank == depth or att.final)
            assert att.won == _ranks_by_column(att), (seed, bound, depth)
        for q, q2 in att.moves:
            for n in range(9):
                for m in range(9):
                    pos = (Config(q, n), Config(q2, m))
                    r = att.rank((q, q2), (n, m))
                    if r is None:
                        assert not bounded_round_winner(nets, pos, 8).spoiler_wins, (seed, pos)
                        continue
                    assert r <= 8 and bounded_round_winner(nets, pos, r).spoiler_wins, (seed, pos)
                    assert r == 1 or not bounded_round_winner(nets, pos, r - 1).spoiler_wins


def test_attractor_resumes_where_it_stopped():
    # one table asked at depths 8, 24 and 64 for goals it wins early stops
    # and resumes; every rank it lists is the one a single run gives
    resumed_runs = 0
    for seed in range(40):
        nets = random_pair(seed)
        fresh = _attractor(nets)
        fresh.ensure(64, 64)
        want = _ranks(fresh)
        att = _attractor(nets)
        ran = []
        for depth in (8, 24, 64):
            goal = [(p, (n, m)) for (p, n, m), r in want.items() if r is not None and r <= depth - 2]
            att.ensure(64, depth, goal)
            ran.append(att.max_rank)
            assert att.bound == 64
            assert att.max_rank <= depth
        resumed_runs += 0 < ran[0] < ran[1] < 24
        for key, r in _ranks(att).items():
            expect = want[key] if want[key] is not None and want[key] <= att.max_rank else None
            assert r == expect, (seed, key)
    assert resumed_runs >= 10
    # Spoiler wins (30, 20) of A against A in round 21: shallower queries
    # report it at once, since m = 20 >= depth, and run no round
    att = _attractor(normalize_pair(NET_A, NET_ACOPY))
    point = [(("p", "q"), (30, 20))]
    for depth in (8, 16, 20):
        assert att.unconfirmed(point, depth) == point
        assert att.bound == -1 and att.max_rank == 0
    assert att.unconfirmed(point, 21) == []
    assert att.rank(("p", "q"), (30, 20)) == 21 and att.max_rank == 21


def test_saturated_attractor_runs_no_more_rounds():
    # a round that raises nothing repeats forever: a table that ran one
    # answers any deeper request at its bound without running a round
    for nets in [(NET_A, NET_ACOPY), *map(random_pair, (0, 3, 7, 11))]:
        att = _attractor(nets)
        att.ensure(64, 1024)
        assert att.final
        depth = att.max_rank
        ranks = _ranks(att)
        att.ensure(64, 8 * depth)
        assert att.max_rank == depth and _ranks(att) == ranks
        deep = _attractor(nets)
        deep.ensure(64, 8 * depth)
        assert deep.final and _ranks(deep) == ranks


def test_unconfirmed_runs_its_grid_before_growing_it():
    # a 64-grid stopped after 6 rounds still wins (40, 33) in round 34, so a
    # depth-64 query runs it on instead of starting over on a larger grid;
    # (33, 40) is no win, so it is reported only from a grid of 33 + 64
    att = _attractor((NET_A, NET_ACOPY))
    assert att.unconfirmed([(("p", "q"), (10, 5))], 32) == []
    assert att.bound == 64 and att.max_rank == 6
    assert att.unconfirmed([(("p", "q"), (40, 33))], 64) == []
    assert att.bound == 64 and att.rank(("p", "q"), (40, 33)) == 34
    far = [(("p", "q"), (33, 40))]
    assert att.unconfirmed(far, 64) == far
    assert att.bound >= 97


def test_unconfirmed_matches_a_grid_sized_for_its_points():
    # one table per net pair answers a run of queries, growing its grid on
    # demand; each answer must be that of a fresh table run `depth` rounds
    # on a grid of at least the points' largest coordinate plus `depth`
    rng = random.Random(5)
    runs = []
    for seed in range(20):
        nets = random_pair(seed)
        nodes = build_product(*normalize_pair(*nets)).nodes
        queries = [
            (
                rng.choice((8, 24, 60)),
                [(rng.choice(nodes), (rng.randrange(60), rng.randrange(60))) for _ in range(4)],
            )
            for _ in range(6)
        ]
        runs.append((nets, queries))
    # Spoiler wins (31, 34) of CLIMB in round 35, but on no grid below 65
    runs.append((CLIMB, [(60, [(("s", "d"), (31, 34))])]))
    grown = 0
    for nets, queries in runs:
        att = _attractor(nets)
        fresh: dict[tuple[int, int], SpoilerAttractor] = {}
        for depth, points in queries:
            bound = 64
            while bound < max(max(pt) for _, pt in points) + depth:
                bound *= 2
            if (bound, depth) not in fresh:
                fresh[bound, depth] = _attractor(nets)
                fresh[bound, depth].ensure(bound, depth)
            ref = fresh[bound, depth]
            want = [(p, pt) for p, pt in points if (r := ref.rank(p, pt)) is None or r > depth]
            before = att.bound
            assert att.unconfirmed(points, depth) == want, (nets, points, depth)
            grown += att.bound > max(before, 64)
    # only points with m < depth are searched and size the grid: 7 of the
    # queries grow it
    assert grown >= 5


def test_spoiler_rank_clamps_a_deep_spoiler_counter():
    # from n >= 32 every Spoiler rule stays enabled for 32 rounds, so a
    # deeper counter is searched as n = 32, on the grid that point needs
    want = _engine(NET_A, NET_ACOPY).spoiler_rank(("p", "q"), (32, 5), 32)
    assert want == 6
    for n in (10**4, 10**30):
        eng = _engine(NET_A, NET_ACOPY)
        assert eng.spoiler_rank(("p", "q"), (n, 5), 32) == want
        assert eng._attractor.bound == 64


def test_spoiler_rank_reports_a_deep_duplicator_counter_at_once():
    # no win within 32 rounds starts from m >= 32: such a point runs no
    # round and sizes no grid, however large m is
    eng = _engine(NET_A, NET_ACOPY)
    assert eng.spoiler_rank(("p", "q"), (5, 10**30), 32) is None
    assert eng._attractor.bound == -1 and eng._attractor.max_rank == 0
    assert eng.spoiler_rank(("p", "q"), (5, 2000), 32) is None
    assert eng._attractor.bound == -1
    # with a point it does search, the grid is sized by that point alone
    att = eng._attractor
    assert att.unconfirmed([(("p", "q"), (5, 2000)), (("p", "q"), (40, 3))], 32) == [
        (("p", "q"), (5, 2000))
    ]
    assert att.bound == 64


# ---------------------------------------------------------------------------
# quotient colorings


def test_quotient_a_vs_a_matches_oracle_region():
    eng = _engine(NET_A, NET_ACOPY)
    assert eng.w == 24
    col = eng.coloring(27, 1)
    for n in range(0, 31):
        for m in range(0, 31):
            assert col.lookup(("p", "q"), (n, m)) == (n <= m)


def test_quotient_all_win_pairs():
    for sp, dn, pair in [(NET_Z, NET_B, ("z", "r")), (NET_A, NET_Z, ("p", "z"))]:
        eng = _engine(sp, dn)
        col = eng.coloring(eng.w + 3, 1)
        for n in range(0, 25, 3):
            for m in range(0, 25, 3):
                assert col.lookup(pair, (n, m))


def test_quotient_monotone_in_j_and_k():
    # growing the window or refining the period to a multiple never loses points
    for seed in (2, 5, 11):
        n, m = random_pair(seed)
        eng = _engine(n, m)
        base = eng.coloring(eng.w, 1)
        bigger_j = eng.coloring(2 * eng.w, 1)
        multiple_k = eng.coloring(eng.w, 2)
        for pair, vals in base.values.items():
            for pt, v in vals.items():
                if v:
                    assert bigger_j.lookup(pair, pt)
                    assert multiple_k.lookup(pair, pt)


def _kleene(product, geometry):
    """The greatest fixpoint by naive iteration from all-true window values:
    falsify every true point whose one-step condition fails, until stable."""
    top = {pair: dict.fromkeys(geo.window_points(), True) for pair, geo in geometry.items()}
    col = QuotientColoring(product, geometry, top)
    changed = True
    while changed:
        changed = False
        for pair, vals in col.values.items():
            for pt, v in vals.items():
                if v and not col.condition_holds(pair, pt):
                    vals[pt] = False
                    changed = True
    return col.values


def _assert_solved_window(col, case):
    values = col.values
    for pair, geo in col.geometry.items():
        # `false_points` and `verify_coloring` list the points in this order
        assert list(values[pair]) == geo.window_points(), (case, pair)
    assert values == _kleene(col.product, col.geometry), case
    return col


def _assert_greatest_fixpoint(eng, rnd, case):
    j, k, _ = eng.schedule[rnd]
    return _assert_solved_window(eng.coloring(j, k), case)


def _belt_kind(slope):
    rho, rho2 = slope.rho, slope.rho_prime
    if not rho or not rho2:
        return "vertical" if not rho else "horizontal"
    return "steep" if rho2 > rho else "shallow" if rho > rho2 else "diagonal"


def _belt_case_colorings():
    """(case, coloring) for windows of `random_pair` seeds that between them
    hold vertical, horizontal, steep and shallow belts."""
    # the second round's windows of seeds 6, 12 and 27 (and the first of 15
    # and 19) have rules with two replies wrapping onto one window point;
    # seed 226's belts of slope (2, 1) and seed 17's of slope (1, 2) at
    # k = 2 read columns past the window's column cap, whose wrap lowers m
    # as well as n; the horizontal belts of the other seeds wrap there
    # with rho' = 0
    cases = [(seed, 0) for seed in range(40)] + [(seed, 1) for seed in (6, 12, 27)]
    cases += [(226, 0), (226, 1), (17, 1)]
    for seed, rnd in cases:
        eng = _engine(*random_pair(seed))
        j, k, _ = eng.schedule[rnd]
        yield (seed, rnd), eng.coloring(j, k)


def test_quotient_values_are_the_greatest_fixpoint():
    kinds = set()
    for case, col in _belt_case_colorings():
        _assert_solved_window(col, case)
        kinds.update(_belt_kind(geo.slope) for geo in col.geometry.values())
    assert kinds >= {"vertical", "horizontal", "steep", "shallow"}


def test_fringe_is_every_point_whose_translate_leaves_the_window():
    kinds = set()
    for case, col in _belt_case_colorings():
        values = col.values
        for pair, geo in col.geometry.items():
            step = (geo.k * geo.slope.rho, geo.k * geo.slope.rho_prime)
            X, Y = geo.cap
            scan = [pt for pt in values[pair] if pt[0] + step[0] > X or pt[1] + step[1] > Y]
            ranges = geo.fringe()
            assert len(ranges) == len(geo.columns), (case, pair)
            fringe = [(n, m) for n, (lo, hi) in enumerate(ranges) for m in range(lo, hi + 1)]
            assert fringe == scan, (case, pair)
            kinds.add(_belt_kind(geo.slope))
    assert kinds >= {"vertical", "horizontal", "steep", "shallow"}


def _counting_condition_holds(monkeypatch):
    calls = []
    holds = QuotientColoring.condition_holds

    def counted(self, pair, pt):
        calls.append((pair, pt))
        return holds(self, pair, pt)

    monkeypatch.setattr(QuotientColoring, "condition_holds", counted)
    return calls


def test_column_certification_matches_the_point_test(monkeypatch):
    # a solved coloring certifies its translated columns from the
    # thresholds; one of the same values has none and checks every point
    calls = _counting_condition_holds(monkeypatch)
    for case, col in _belt_case_colorings():
        calls.clear()
        by_columns = col.certify_periodicity()
        assert calls == [], case  # no column fell back to the point test
        points = QuotientColoring(col.product, col.geometry, col.values)
        assert by_columns == points.certify_periodicity(), case


def test_failed_column_test_falls_back_to_the_point_test(monkeypatch):
    # seed 7's window at round 0 with the last column of (s0, d0), which
    # lies in the fringe, made true from its lowest m by lowering its
    # threshold: its translates no longer hold, and the column's points are
    # checked one at a time
    eng = _engine(*random_pair(7))
    j, k, _ = eng.schedule[0]
    col = QuotientColoring(eng.product, eng.geometry(j, k))
    assert col.certify_periodicity() == []
    pair = ("s0", "d0")
    geo = col.geometry[pair]
    n, (lo, hi) = len(geo.columns) - 1, geo.columns[-1]
    assert geo.fringe()[n] == (lo, hi)
    first = col._first[pair]
    assert lo < col._g[first + n] <= hi
    raised = dict.fromkeys([(n, m) for m in range(lo, col._g[first + n])], True)
    col._g[first + n] = lo
    calls = _counting_condition_holds(monkeypatch)
    failures = col.certify_periodicity()
    assert calls and {p for p, _ in calls} == {pair}
    assert len(failures) > 1
    assert failures == QuotientColoring(col.product, col.geometry, col.values).certify_periodicity()
    # an export has no thresholds, so the same change to its values alone
    # is certified point by point
    exported = eng.export_coloring()
    exported.values[pair].update(raised)
    assert exported.values == col.values
    assert exported.certify_periodicity() == failures


def _hand_window():
    """The product of `random_pair(44)` and a window the engine never
    builds, whose (s1, d1) belt of slope (2, 1) wraps some points beyond
    the window below m = 0."""
    eng = _engine(*random_pair(44))
    shape = {
        ("s0", "d0"): (Slope(1, 0), 2),
        ("s0", "d1"): (Slope(1, 0), 0),
        ("s1", "d0"): (Slope(1, 0), 0),
        ("s1", "d1"): (Slope(2, 1), 3),
    }
    assert set(shape) == set(eng.product.nodes)
    geometry = {pair: PairGeometry(pair, s, c, (2, 4), 1, 3) for pair, (s, c) in shape.items()}
    return eng.product, geometry


def test_column_test_raises_where_a_lookup_raises():
    # a translate's read wraps below m = 0 in the hand-built window: a
    # lookup raises there, so the column test falls back and the point test
    # raises as it would alone, where reading that band as its column would
    # pass
    product, geometry = _hand_window()
    col = QuotientColoring(product, geometry)
    errors = []
    for checked in (col, QuotientColoring(product, geometry, col.values)):
        with pytest.raises(GeometryError, match="has no slot in the window") as exc:
            checked.certify_periodicity()
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_solver_raises_where_a_lookup_raises():
    # in this hand-built window a read of (s0, d0) passes (3, 0), whose slot
    # lies below m = 0: a lookup of it raises, and so does the solve, with
    # the same message, rather than read the band as the window column its
    # slot lies in
    eng = _engine(*random_pair(90))
    shape = {("s0", "d0"): (Slope(2, 1), 3), ("s0", "d1"): (Slope(1, 2), 0)}
    assert set(shape) == set(eng.product.nodes)
    geometry = {pair: PairGeometry(pair, s, c, (0, 0), 0, 1) for pair, (s, c) in shape.items()}
    message = r"\('s0', 'd0'\): belt point \(3, 0\) has no slot in the window"
    with pytest.raises(GeometryError, match=message) as solved:
        QuotientColoring(eng.product, geometry)
    values = {pair: dict.fromkeys(geo.window_points(), True) for pair, geo in geometry.items()}
    with pytest.raises(GeometryError, match=message) as looked_up:
        QuotientColoring(eng.product, geometry, values).lookup(("s0", "d0"), (3, 0))
    assert str(solved.value) == str(looked_up.value)


def _lookups(col, pair, box):
    """The lookup of every point of [-1, X] x [-1, Y], or its error message."""
    out = []
    for n in range(-1, box[0] + 1):
        for m in range(-1, box[1] + 1):
            try:
                out.append(col.lookup(pair, (n, m)))
            except GeometryError as exc:
                out.append(str(exc))
    return out


def test_lookup_from_thresholds_matches_the_window_values():
    # a solved coloring looks a slot up by its column's threshold; the
    # coloring given its values reads their dicts.  Every point of a box
    # two periods past the cap gets the same value or the same error from
    # both, where a belt point has no slot in the window: beyond the hand
    # window's cap, or at n = -1.
    windows = [_hand_window()]
    for seed in range(20):
        eng = _engine(*random_pair(seed))
        j, k, _ = eng.schedule[0]
        windows.append((eng.product, eng.geometry(j, k)))
    errors = {"at n = -1": 0, "past the cap": 0}
    for product, geometry in windows:
        col = QuotientColoring(product, geometry)
        given = QuotientColoring(product, geometry, col.values)
        for pair, geo in geometry.items():
            X, Y = geo.cap
            box = (X + 2 * geo.k * geo.slope.rho, Y + 2 * geo.k * geo.slope.rho_prime)
            solved = _lookups(col, pair, box)
            assert solved == _lookups(given, pair, box), pair
            for x in solved:
                if isinstance(x, str):
                    assert "has no slot in the window" in x, x
                    errors["at n = -1" if "point (-1," in x else "past the cap"] += 1
    assert all(errors.values()), errors
    # given values come from callers too (`verify_coloring`): a slot their
    # dicts lack is a GeometryError, not a KeyError
    pair, pt = next((p, pt) for p, vals in given.values.items() for pt in vals)
    del given.values[pair][pt]
    with pytest.raises(GeometryError, match="missing from the given values"):
        given.lookup(pair, pt)


def test_quotient_folds_replies_into_their_own_column():
    # at (p, q), Spoiler's a, b and c are answered inside the column with
    # d2 = -1, 0 and +1; a's -1 only delays its reply into (p, r), which
    # sets the threshold, and b's rule always holds
    eng = _engine(*own_column_pair())
    pq = ("p", "q")
    own = {d2 for _, d, replies in eng.product.moves[pq] if d == 0 for d2, t in replies if t == pq}
    assert own == {-1, 0, 1}

    def lows(col):
        """Per column of (p, q), its least true m, None when all false."""
        width, vals = len(col.geometry[pq].columns), col.values[pq]
        return [
            min((m for (n2, m), v in vals.items() if n2 == n and v), default=None)
            for n in range(width)
        ]

    col = _assert_greatest_fixpoint(eng, 0, "round 0")
    Y = col.geometry[pq].cap[1]
    assert any(lo <= hi == Y for lo, hi in col.geometry[pq].columns)
    assert lows(col)[:12] == list(range(12))
    # a window the engine never builds: vertical belts of width 6 capped at
    # Y = 4 with k = 3, so every column is clipped and c's +1 reply at its
    # top, (n, 5), wraps to (n, 2).  That is false in columns 3 and 4,
    # whose other rules alone make them true from m = n, so they fall.
    geometry = {
        pair: PairGeometry(pair, Slope(0, 1), 6, (6, 1), 0, 3) for pair in eng.product.nodes
    }
    col = _assert_solved_window(QuotientColoring(eng.product, geometry), "window")
    assert all(lo <= hi == 4 for lo, hi in geometry[pq].columns)
    assert lows(col) == [0, 1, 2, None, None, None, None]


def test_quotient_values_are_the_greatest_fixpoint_on_chains_and_cycles():
    # every pair's belt has c = K, so the windows are large for small nets
    for n in (5, 10, 20):
        for cycle in (False, True):
            _assert_greatest_fixpoint(_engine(*chain_pair(n, cycle)), 0, (n, cycle))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_chain_decide_keeps_the_thresholds_only():
    # the chain at n = 100 has 4,110,700 round-0 window points in 10,100
    # columns, and a solved coloring keeps only the columns' thresholds:
    # one decide peaks under 100 MB, where point dicts took 441 MB.  It
    # runs in a child, whose VmHWM counts its own pages only: ru_maxrss
    # would also count the pages of pytest that the child held until exec.
    code = (
        "from nets import chain_pair\n"
        "from ocnsim.coloring import StrongSimEngine\n"
        "print(StrongSimEngine(*chain_pair(100)).decide(('s0', 3), ('d', 5)))\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(*[line.split()[1] for line in fh if line.startswith('VmHWM:')])\n"
    )
    path = [str(Path(core.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    answer, peak_kb = proc.stdout.split()
    assert answer == "False"
    assert int(peak_kb) < 100 * 1024, peak_kb


def test_engine_colorings_hold_no_point_dicts():
    # values are built only for an export, and there only once
    eng = _engine(NET_A, NET_ACOPY)
    for n in range(0, 40, 3):
        for m in range(0, 40, 3):
            eng.decide(("p", n), ("q", m))
    exported = eng.export_coloring()
    assert eng.exact_coloring() is not None
    assert exported._values is not None and exported._g is None
    assert eng.colorings and all(col._values is None for col in eng.colorings.values())


def test_quotient_values_are_the_greatest_fixpoint_on_converged_engines():
    for seed in range(10):
        eng = converge_weak(*tau_cyclic_pair(seed)).engine
        col = _assert_greatest_fixpoint(eng, 0, seed)
        if seed == 7:
            # a window of k = 1 whose pairs mostly have slope (1, 1): most
            # of its points have a reply that wraps
            assert eng.schedule[0][1] == 1
            assert sum(geo.slope == Slope(1, 1) for geo in col.geometry.values()) >= 10


def test_quotient_values_are_the_greatest_fixpoint_on_the_weak_panel():
    # criterion 7's first five nets, the weak-converge panel of the
    # benchmark: 12,407 window points at round 0
    points = 0
    for i, (sp, dup) in enumerate(criterion_7_pairs(5)):
        col = _assert_greatest_fixpoint(converge_weak(sp, dup).engine, 0, i)
        points += sum(map(len, col.values.values()))
    assert points == 12407


def test_quotient_values_are_the_greatest_fixpoint_on_a_finite_valued_gadget():
    # the only engine of the suite whose gadget has a finite sufficient
    # value: it converges at level 2
    conv = converge_weak(*omega_into_y())
    assert conv.levels == 2
    col = _assert_greatest_fixpoint(conv.engine, 0, "omega_into_y")
    assert sum(map(len, col.values.values())) == 19440


def _listed_twice(net, i):
    """The net with its i-th transition listed again right after itself."""
    t = net.transitions
    return Ocn(net.name, net.states, net.actions, t[: i + 1] + t[i:])


@pytest.mark.parametrize("side", ["spoiler", "duplicator"])
def test_quotient_counts_every_occurrence_of_a_reply(side):
    # seed 6 with one transition listed twice: a Duplicator transition
    # makes a rule with the same reply twice, a Spoiler transition two
    # equal rules of the same points; neither may change a value or the
    # order of the window points
    sp, dup = random_pair(6)
    nets = (_listed_twice(sp, 0), dup) if side == "spoiler" else (sp, _listed_twice(dup, 0))
    eng = _engine(*nets)
    rules = eng.product.moves.values()
    if side == "spoiler":
        assert any(len(r) > len(set(r)) for r in rules)
    else:
        assert any(len(replies) > len(set(replies)) for r in rules for _, _, replies in r)
    once = _assert_greatest_fixpoint(_engine(sp, dup), 0, side)
    twice = _assert_greatest_fixpoint(eng, 0, side)
    assert [list(v.items()) for v in twice.values.values()] == [
        list(v.items()) for v in once.values.values()
    ]
    assert not all(v for vals in twice.values.values() for v in vals.values())


def test_window_points_match_zone_predicates():
    rng = random.Random(5)
    for _ in range(120):
        while True:
            x, y = rng.randint(0, 5), rng.randint(0, 5)
            if (x, y) != (0, 0):
                break
        geo = PairGeometry(
            ("a", "b"), Slope(x, y), rng.randint(0, 9),
            (rng.randint(2, 20), rng.randint(2, 20)), rng.randint(0, 8), rng.randint(1, 4),
        )
        X, Y = geo.rect_cap(geo.j + geo.k)
        expect = {
            (n, m)
            for n in range(X + 1)
            for m in range(Y + 1)
            if not c_above((n, m), geo.slope, geo.c) and not c_below((n, m), geo.slope, geo.c)
        }
        assert set(geo.window_points()) == expect
        # the unclipped belt columns, also past the window's corner
        for n in range(X + 4):
            lo, hi = geo.span(n)
            top = Y if hi == float("inf") else max(Y, hi)
            for m in range(top + 3):
                in_belt = not c_above((n, m), geo.slope, geo.c) and not c_below((n, m), geo.slope, geo.c)
                assert (lo <= m <= hi) == in_belt, (geo.slope, geo.c, n, m)


def _slot_by_search(geo, pt):
    """The point lowered by k*slope a step at a time until it is under the
    cap, and the number of steps; None when a step cannot bring it there."""
    X, Y = geo.cap
    step, step2 = geo.k * geo.slope.rho, geo.k * geo.slope.rho_prime
    (n, m), s = pt, 0
    while n > X or m > Y:
        if (n > X and not step) or (m > Y and not step2):
            return None
        n, m, s = n - step, m - step2, s + 1
    return (n, m), s


def _slot_cases():
    """(engine-shaped, geometry): random geometries shaped as the engine
    builds them, with l0 = (w, w), w >= c + 2 and j >= w + 2c + 1, and
    random cut ones, their slopes cycling through vertical, horizontal,
    diagonal, shallow and steep; then hand-built windows, among them the
    tests' above and vertical and horizontal belts wider than the cap."""
    rng = random.Random(11)
    slopes = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (3, 2), (0, 2), (3, 0)]
    for i in range(32):
        x, y = slopes[i % len(slopes)]
        c, k = rng.randint(0, 4), rng.randint(1, 3)
        if i % 2:
            w = c + 2 + rng.randint(0, 3)
            l0, j = (w, w), w + 2 * c + 1 + rng.randint(0, 3)
        else:
            l0, j = (rng.randint(0, 6), rng.randint(0, 6)), rng.randint(0, 3)
        yield i % 2 == 1, PairGeometry(("a", "b"), Slope(x, y), c, l0, j, k)
    for geo in _hand_window()[1].values():
        yield False, geo
    yield False, PairGeometry(("p", "q"), Slope(0, 1), 6, (6, 1), 0, 3)
    yield False, PairGeometry(("p", "q"), Slope(0, 1), 6, (2, 1), 0, 1)
    yield False, PairGeometry(("p", "q"), Slope(1, 0), 5, (2, 2), 0, 2)


def _expected_slot(geo, window, n, m, low):
    """What `slot(n, m, low)` returns, by search, or the message it raises:
    the band is the points of column n from `low` up to m that take as many
    steps as (n, m), and it raises naming (n, m) when (n, m) has no slot in
    the window, else naming the band's lowest point when that one has none."""
    found = _slot_by_search(geo, (n, m))
    message = f"{geo.pair}: belt point {{}} has no slot in the window"
    if found is None or found[0] not in window:
        return message.format((n, m))
    (n1, m1), s = found
    bottom = m
    while bottom > low and _slot_by_search(geo, (n, bottom - 1))[1] == s:
        bottom -= 1
    if (n1, bottom - (m - m1)) not in window:
        return message.format((n, bottom))
    return n1, m1, bottom


def _slot_or_message(geo, n, m, low):
    try:
        return geo.slot(n, m, low)
    except GeometryError as exc:
        return str(exc)


def test_slot_is_the_translate_under_the_cap():
    # in a box two periods past the cap, every zone is c_above/c_below's
    # and every belt point's slot is the search's, alone (low = m, as a
    # lookup asks) and with its band down to the column's lowest belt m (as
    # the solver asks); it raises where the slot lies outside the window,
    # the belt points under the cap, and an engine-shaped window holds
    # every slot.  A point p beyond the cap and its translate
    # q = p + t*k*slope near 10**30 get the same slot: the search from q
    # passes p.
    kinds, raised = set(), 0
    for engine_shaped, geo in _slot_cases():
        kinds.add(_belt_kind(geo.slope))
        X, Y = geo.cap
        window = {
            (n, m) for n in range(X + 1) for m in range(Y + 1)
            if not c_above((n, m), geo.slope, geo.c) and not c_below((n, m), geo.slope, geo.c)
        }
        step, step2 = geo.k * geo.slope.rho, geo.k * geo.slope.rho_prime
        t = 10**30 // max(step, step2)
        for n in range(X + 2 * max(step, step2) + 1):
            lo = geo.span(n)[0]
            for m in range(Y + 2 * max(step, step2) + 1):
                pts = [(n, m)]
                if n > X or m > Y:
                    pts.append((n + t * step, m + t * step2))
                for pt in pts:
                    above, below = c_above(pt, geo.slope, geo.c), c_below(pt, geo.slope, geo.c)
                    assert geo.zone(pt) == (True if above else False if below else None), (geo, pt)
                if geo.zone((n, m)) is not None:
                    continue
                alone = _expected_slot(geo, window, n, m, m)
                assert _slot_or_message(geo, n, m, m) == alone, (geo.slope, geo.cap, n, m)
                band = _expected_slot(geo, window, n, m, lo)
                assert _slot_or_message(geo, n, m, lo) == band, (geo.slope, geo.cap, n, m)
                raised += isinstance(alone, str)
                assert not (engine_shaped and isinstance(band, str)), (geo.slope, geo.cap, n, m)
                if len(pts) == 2 and geo.zone(pts[1]) is None:
                    far = _slot_or_message(geo, *pts[1], pts[1][1])
                    assert far == (alone[:2] + (pts[1][1],) if isinstance(alone, tuple) else
                                   alone.replace(str((n, m)), str(pts[1]))), (geo.slope, pts[1])
    assert kinds >= {"vertical", "horizontal", "steep", "shallow", "diagonal"}
    assert raised


def test_resolve_matches_zones_and_window():
    # geometries shaped as the engine builds them: l0 = (w, w) with
    # w >= c + 2 and j >= w + 2c + 1, so every belt point's slot lies in
    # the window and a lookup of it is the zone's value or the slot's
    rng = random.Random(11)
    for _ in range(40):
        while True:
            x, y = rng.randint(0, 4), rng.randint(0, 4)
            if (x, y) != (0, 0):
                break
        c = rng.randint(0, 4)
        w = c + 2 + rng.randint(0, 3)
        j = w + 2 * c + 1 + rng.randint(0, 3)
        geo = PairGeometry(("a", "b"), Slope(x, y), c, (w, w), j, rng.randint(1, 3))
        window = set(geo.window_points())
        X, Y = geo.cap
        reach = 2 * geo.k * max(x, y)
        for n in range(X + reach + 1):
            for m in range(Y + reach + 1):
                zone = geo.zone((n, m))
                if c_above((n, m), geo.slope, c):
                    assert zone is True
                elif c_below((n, m), geo.slope, c):
                    assert zone is False
                else:
                    assert zone is None
                    assert geo.slot(n, m, m)[:2] in window


def test_quotient_wrap_geometry_error():
    # a vertical belt's k*slope step cannot bring a point right of the
    # window back under its cap: force an out-of-belt coordinate
    bad = PairGeometry(("p", "q"), Slope(0, 1), 1, (4, 4), 1, 1)
    with pytest.raises(GeometryError, match=r"belt point \(50, 2\) has no slot in the window"):
        bad.slot(50, 2, 2)


# ---------------------------------------------------------------------------
# verification


def _mutate(col, pair, pt, value):
    vals = col.values[pair]
    if pt not in vals:
        raise ValueError(f"{pt} is outside the window of {pair}")
    vals[pt] = value


def test_verify_coloring_clean():
    eng = _engine(NET_A, NET_ACOPY)
    col = eng.export_coloring()
    report = verify_coloring((eng.spoiler_net, eng.duplicator_net), col, spoiler_depth_cap=128)
    assert report.yes_violations == []
    assert report.no_unconfirmed == []
    assert report.periodicity_failures == []


def test_verify_coloring_flip_true_to_false():
    eng = _engine(NET_A, NET_ACOPY)
    col = eng.export_coloring()
    _mutate(col, ("p", "q"), (3, 5), False)  # a truly simulated point
    report = verify_coloring((eng.spoiler_net, eng.duplicator_net), col, spoiler_depth_cap=64)
    assert (("p", "q"), (3, 5)) in report.no_unconfirmed


def test_verify_coloring_flip_false_to_true():
    eng = _engine(NET_A, NET_ACOPY)
    col = eng.export_coloring()
    _mutate(col, ("p", "q"), (5, 3), True)  # a truly excluded point
    report = verify_coloring((eng.spoiler_net, eng.duplicator_net), col, spoiler_depth_cap=64)
    assert any(pt == (5, 3) or abs(pt[0] - 5) + abs(pt[1] - 3) <= 1
               for _, pt in report.yes_violations)


def test_export_shares_read_only_state():
    # an export's geometry and product are shared with the engine, so none
    # of them, nor a Slope or a Config, takes an assignment
    eng = _engine(NET_A, NET_ACOPY)
    col = eng.export_coloring()
    geo = col.geometry[("p", "q")]
    assert geo is eng.certified_coloring().geometry[("p", "q")]
    shared = [(geo, "c"), (col.product, "nodes"), (geo.slope, "rho"), (Config("p", 1), "counter")]
    for obj, name in shared:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, 7)
        assert getattr(obj, name) == before
    # read-only objects still copy and pickle
    assert copy.deepcopy(col).to_json_obj() == col.to_json_obj()
    assert pickle.loads(pickle.dumps(col)).to_json_obj() == col.to_json_obj()
    belt = copy.copy(eng.belts()[0])
    assert (belt.pair, belt.slope, belt.c) == (geo.pair, geo.slope, geo.c)
    assert pickle.loads(pickle.dumps(Config("p", 1))) == Config("p", 1)


def test_export_is_an_independent_copy():
    # flipping points of an export changes neither the engine's answers nor
    # a later export
    eng = _engine(NET_A, NET_ACOPY)
    col = eng.export_coloring()
    pair = ("p", "q")
    window = dict(col.values[pair])
    points = [(5, 3), (3, 5), (0, 0), (4, 4)]
    answers = [eng.decide(("p", n), ("q", m)) for n, m in points]
    assert answers[:2] == [False, True]
    _mutate(col, pair, (5, 3), True)
    _mutate(col, pair, (3, 5), False)
    assert [eng.decide(("p", n), ("q", m)) for n, m in points] == answers
    again = eng.export_coloring()
    assert again.values[pair] == window
    assert again.to_json_obj() != col.to_json_obj()
    with pytest.raises(ValueError):
        _mutate(col, pair, (10**6, 0), True)


# ---------------------------------------------------------------------------
# engine decisions


def test_decide_strong_reference_answers():
    assert _engine(NET_A, NET_ACOPY).decide(Config("p", 3), Config("q", 5)) is True
    assert _engine(NET_A, NET_ACOPY).decide(Config("p", 5), Config("q", 3)) is False
    assert _engine(NET_Z, NET_B).decide(Config("z", 0), Config("r", 0)) is True


@pytest.mark.parametrize(
    "left,right",
    [(("p", -1), ("q", 3)), (("p", -5), ("q", -5)), (("p", 3), ("q", -1)), (("x", 0), ("q", 0))],
)
def test_decide_rejects_negative_counters(left, right):
    # as Config does: a negative counter, like a state pair outside the
    # product, is an invalid query, not a verdict or a solver fault
    match = "unknown state pair" if left[0] == "x" else "non-negative"
    with pytest.raises(NetError, match=match):
        _engine(NET_A, NET_ACOPY).decide(left, right)


@pytest.mark.parametrize(
    "left,right", [(("p", 4), ("q", 4.5)), (("p", 3.5), ("q", 3)), (("p", "3"), ("q", 5))]
)
def test_configs_and_decide_reject_counters_that_are_not_integers(left, right):
    # ("q", 4.5) was answered true, a configuration that does not exist, and
    # ("p", 3.5) raised TypeError from a list index
    eng = _engine(NET_A, NET_ACOPY)
    with pytest.raises(NetError, match="non-negative integers"):
        eng.decide(left, right)
    with pytest.raises(NetError, match="non-negative integer"):
        Config(*(right if isinstance(left[1], int) else left))
    assert eng.decide(Config("p", 3), ("q", 5)) is True
    assert eng.decide(("p", 3), Config("q", 5)) is True


@pytest.mark.parametrize(
    "limits",
    [
        {"k_schedule": ()},
        {"k_schedule": (0,)},
        {"k_schedule": (1, -2)},
        {"spoiler_depth_cap": -1},
        {"max_rect": -3},
    ],
)
def test_engine_limits_reject_values_that_crash_the_engine(limits):
    # an empty schedule raised IndexError in the engine and a period of 0
    # ZeroDivisionError in a wrap
    with pytest.raises(ValueError):
        EngineLimits(**limits)


def test_engine_runs_one_scc_pass(monkeypatch):
    calls = []
    tarjan = core._tarjan_sccs

    def counted(*args):
        calls.append(args)
        return tarjan(*args)

    monkeypatch.setattr(core, "_tarjan_sccs", counted)
    for seed in range(6):
        calls.clear()
        _engine(*random_pair(seed))
        assert len(calls) == 1, seed


def test_schedule_reaches_every_default_period():
    eng = _engine(NET_A, NET_ACOPY)
    assert len(eng.schedule) == MAX_ROUNDS
    assert tuple(k for _, k, _ in eng.schedule) == EngineLimits().k_schedule


def test_decide_strong_identity_simulation():
    for seed in range(8):
        n, _ = random_pair(seed)
        eng = _engine(n, n)
        for q in n.states:
            for c in range(0, 9, 4):
                assert eng.decide((q, c), (q, c)) is True


def test_decide_strong_monotone_in_counters():
    for seed in range(10):
        n, m = random_pair(seed)
        eng = _engine(n, m)
        for q in n.states[:2]:
            for q2 in m.states[:2]:
                vals = {
                    (c1, c2): eng.decide((q, c1), (q2, c2))
                    for c1 in range(8)
                    for c2 in range(8)
                }
                for c1 in range(7):
                    for c2 in range(7):
                        if vals[(c1, c2)]:
                            assert vals[(c1, c2 + 1)]  # upward closed in n'
                        if not vals[(c1, c2)]:
                            assert not vals[(c1 + 1, c2)]  # downward closed in n


def test_trivial_zone_correctness():
    # sampled zone points, checked against the engine's bounded Spoiler
    # search: the Duplicator zone never yields a win, the Spoiler zone always
    rng = random.Random(42)
    for seed in range(10):
        n, m = random_pair(seed)
        eng = _engine(n, m)
        for pair in eng.product.nodes:
            scan = eng.scans[pair]
            c = eng.c_pair[pair]
            for _ in range(4):
                pt = (rng.randint(0, 40), rng.randint(0, 40))
                if c_above(pt, scan.boundary, c):
                    assert eng.spoiler_rank(pair, pt, depth=60) is None
                if c_below(pt, scan.boundary, c):
                    assert eng.spoiler_rank(pair, pt, depth=200) is not None


def test_decide_strong_huge_counters():
    eng = _engine(NET_A, NET_ACOPY)
    big = 10**12
    assert eng.decide(("p", big), ("q", big + 1)) is True
    assert eng.decide(("p", big), ("q", big)) is True
    assert eng.decide(("p", big + 1), ("q", big)) is False
    assert eng.decide(("p", big), ("q", 3)) is False


def test_answers_do_not_depend_on_query_order():
    # each answer narrows its column's interval, which later queries read:
    # a grid asked row by row, the same grid shuffled, and fresh engines
    # for a sample of its belt points must all answer alike
    rng = random.Random(27)
    for seed in range(20):
        nets = random_pair(seed)
        by_rows, shuffled = _engine(*nets), _engine(*nets)
        queries = [
            ((q, n), (q2, m))
            for q in nets[0].states
            for q2 in nets[1].states
            for n in range(30)
            for m in range(30)
        ]
        want = {query: by_rows.decide(*query) for query in queries}
        order = queries[:]
        rng.shuffle(order)
        assert {query: shuffled.decide(*query) for query in order} == want, seed
        belt = [
            ((q, n), (q2, m))
            for (q, n), (q2, m) in queries
            if by_rows._belts[q, q2].zone((n, m)) is None
        ]
        for query in rng.sample(belt, min(4, len(belt))):
            assert _engine(*nets).decide(*query) == want[query], (seed, query)


def test_spoiler_win_past_round_0_builds_no_further_coloring():
    # p:5 q:4 and p:33 q:32 lie in the belt inside the windows of rounds 0
    # and 1.  Any belt point builds round 0's coloring.  Spoiler wins from
    # p:33 q:32 in 33 rounds, past round 0's depth of 32, so round 0 does
    # not search it: its coloring, made exact, answers it, and round 1
    # builds no coloring of its own.
    eng = _engine(NET_A, NET_ACOPY)
    (j0, k0, depth0), (j1, k1, depth1) = eng.schedule[:2]
    assert eng._belts[("p", "q")].zone((5, 4)) is None
    assert eng.decide(("p", 5), ("q", 4)) is False
    assert list(eng.colorings) == [(j0, k0)] and not eng.colorings[j0, k0].exact
    assert eng._belts[("p", "q")].zone((33, 32)) is None
    assert depth0 == 32
    assert eng.decide(("p", 33), ("q", 32)) is False
    assert eng.colorings[j0, k0].exact
    assert eng.spoiler_rank(("p", "q"), (33, 32), depth1) == 33
    assert list(eng.colorings) == [(j0, k0)] and (j1, k1) != (j0, k0)


def test_exactness_asks_each_column_as_every_false_point():
    # the exactness upgrade asks the attractor for each column's highest
    # false point only; asking for every false point confirms the same
    # columns, on a grid of the same size after as many rounds
    cap = EngineLimits().spoiler_depth_cap
    for seed in range(30):
        eng = _engine(*random_pair(seed))
        j, k, _ = eng.schedule[0]
        col = eng.coloring(j, k)
        assert eng._ensure_exact(col), seed
        att = SpoilerAttractor(eng.product)
        assert att.unconfirmed(col.false_points(), cap) == [], seed
        assert (att.bound, att.max_rank) == (eng._attractor.bound, eng._attractor.max_rank), seed


def test_belt_point_beyond_the_window_needs_no_deep_attractor():
    # p:5001 q:5000 lies in the belt far beyond every window: the exact
    # coloring answers it, so the attractor grid stays near the window
    eng = _engine(NET_A, NET_ACOPY)
    assert eng.decide(("p", 5001), ("q", 5000)) is False
    assert eng._attractor.bound <= 128


def test_periodic_expansion_matches_recomputation():
    # the exported description, re-expanded, matches a recomputation with the
    # window pushed two periods further
    for seed in (1, 3, 7, 13):
        n, m = random_pair(seed)
        eng = _engine(n, m)
        col = eng.certified_coloring()
        assert col is not None
        geo0 = next(iter(col.geometry.values()))
        wider = eng.coloring(geo0.j + 2 * geo0.k, geo0.k)
        for pair, vals in wider.values.items():
            for pt, v in vals.items():
                assert col.lookup(pair, pt) == v, (pair, pt)


# ---------------------------------------------------------------------------
# cross-sections


def test_cross_sections_a_vs_a():
    eng = _engine(NET_A, NET_ACOPY)
    col = eng.certified_coloring()
    res = find_equal_cross_sections(col, ("p", "q"))
    assert res is not None
    level1, level2, k = res
    assert k == 1 and level2 == level1 + 1
    # an export reads its true points from its values, not its thresholds
    assert find_equal_cross_sections(eng.export_coloring(), ("p", "q")) == res


def test_cross_sections_all_win_pair():
    eng = _engine(NET_Z, NET_B)
    col = eng.certified_coloring()
    res = find_equal_cross_sections(col, ("z", "r"))
    assert res is not None
    assert res[2] == 1


def test_cross_sections_parity_net():
    # Spoiler pays one unit per two rounds while Duplicator pays two units up
    # front in each four-round block: the frontier is n' >= n + (n mod 2),
    # whose staircase repeats only every second slope step
    sp = Ocn("SP2", ("s0", "s1"), ("a",), (("s0", "a", -1, "s1"), ("s1", "a", 0, "s0")))
    dup = Ocn(
        "DUP2", ("d0", "d1", "d2", "d3"), ("a",),
        (
            ("d0", "a", -1, "d1"),
            ("d1", "a", -1, "d2"),
            ("d2", "a", 0, "d3"),
            ("d3", "a", 0, "d0"),
        ),
    )
    eng = _engine(sp, dup)
    for n in range(8):
        for m in range(10):
            assert eng.decide(("s0", n), ("d0", m)) == (m >= n + (n % 2))
    col = eng.exact_coloring()
    assert col is not None
    res = find_equal_cross_sections(col, ("s0", "d0"))
    assert res is not None
    assert res[2] == 2
