import copy
import pickle
import random

import pytest

from nets import (
    NET_A,
    NET_ACOPY,
    NET_B,
    NET_Z,
    chain_pair,
    criterion_7_pairs,
    random_pair,
    tau_cyclic_pair,
)
from ocnsim import core
from ocnsim.core import Config, NetError, Ocn, build_product, normalize_pair
from ocnsim.coloring import (
    MAX_ROUNDS,
    EngineLimits,
    GeometryError,
    PairGeometry,
    QuotientColoring,
    SpoilerAttractor,
    StrongSimEngine,
    find_equal_cross_sections,
    verify_coloring,
)
from ocnsim.geometry import Slope, c_above, c_below
from ocnsim.oracle import bounded_round_winner
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
    # stop before that round and leave it unconfirmed
    att = _attractor(normalize_pair(NET_A, NET_ACOPY))
    point = [(("p", "q"), (30, 20))]
    for depth in (8, 16, 20):
        assert att.unconfirmed(point, depth) == point
        assert att.bound == 64 and att.max_rank == depth
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
    assert grown >= 10


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


def _assert_greatest_fixpoint(eng, rnd, case):
    j, k, _ = eng.schedule[rnd]
    col = eng.coloring(j, k)
    for pair, geo in col.geometry.items():
        # false_points follows this order, and it orders the attractor's goals
        assert list(col.values[pair]) == geo.window_points(), (case, pair)
    assert col.values == _kleene(eng.product, col.geometry), case
    return col


def test_quotient_values_are_the_greatest_fixpoint():
    # the second round's windows of seeds 6, 12 and 27 (and the first of 15
    # and 19) have rules with two replies wrapping onto one window point
    cases = [(seed, 0) for seed in range(40)] + [(seed, 1) for seed in (6, 12, 27)]
    for seed, rnd in cases:
        _assert_greatest_fixpoint(_engine(*random_pair(seed)), rnd, (seed, rnd))


def test_quotient_values_are_the_greatest_fixpoint_on_chains_and_cycles():
    # every pair's belt has c = K, so the windows are large for small nets
    for n in (5, 10, 20):
        for cycle in (False, True):
            _assert_greatest_fixpoint(_engine(*chain_pair(n, cycle)), 0, (n, cycle))


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


def _listed_twice(net, i):
    """The net with its i-th transition listed again right after itself."""
    t = net.transitions
    return Ocn(net.name, net.states, net.actions, t[: i + 1] + t[i:])


@pytest.mark.parametrize("side", ["spoiler", "duplicator"])
def test_quotient_counts_every_occurrence_of_a_reply(side):
    # seed 6: with a Duplicator transition listed twice, a rule reads that
    # reply twice, so counting distinct replies but each death once per
    # occurrence, or the other way round, changes the values; a Spoiler
    # rule listed twice is two rules of the same points
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


def test_resolve_matches_zones_and_window():
    # geometries shaped as the engine builds them: l0 = (w, w) with
    # w >= c + 2 and j >= w + 2c + 1, so every wrap lands in the window
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
        X, Y = geo.rect_cap(geo.j + geo.k)
        reach = 2 * geo.k * max(x, y)
        for n in range(X + reach + 1):
            for m in range(Y + reach + 1):
                res = geo.resolve((n, m))
                if c_above((n, m), geo.slope, c):
                    assert res is True
                elif c_below((n, m), geo.slope, c):
                    assert res is False
                else:
                    assert res in window


def test_quotient_wrap_geometry_error():
    eng = _engine(NET_A, NET_ACOPY)
    col = eng.certified_coloring()
    geo = col.geometry[("p", "q")]
    with pytest.raises(GeometryError):
        # vertical wrap cannot reduce a horizontal overflow of a diagonal
        # belt's window: force an out-of-belt coordinate
        bad = PairGeometry(("p", "q"), Slope(0, 1), 1, (4, 4), 1, 1)
        bad.wrap((50, 2))


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


def test_spoiler_win_past_round_0_builds_no_further_coloring():
    # p:5 q:4 and p:33 q:32 lie in the belt inside the windows of rounds 0
    # and 1.  Any belt point builds round 0's coloring; Spoiler wins from
    # p:33 q:32 in 33 rounds, past round 0's depth, so round 1 asks the
    # attractor before it builds its own coloring, and needs none.
    eng = _engine(NET_A, NET_ACOPY)
    (j0, k0, _), (j1, k1, depth1) = eng.schedule[:2]
    assert eng._belts[("p", "q")].zone((5, 4)) is None
    assert eng.decide(("p", 5), ("q", 4)) is False
    assert list(eng.colorings) == [(j0, k0)]
    assert eng._belts[("p", "q")].zone((33, 32)) is None
    assert eng.decide(("p", 33), ("q", 32)) is False
    assert eng.spoiler_rank(("p", "q"), (33, 32), depth1) == 33
    assert list(eng.colorings) == [(j0, k0)] and (j1, k1) != (j0, k0)


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
