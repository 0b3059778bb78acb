import random
from math import gcd

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
from ocnsim import slope_game
from ocnsim.coloring import StrongSimEngine
from ocnsim.core import Ocn, build_product, normalize_pair
from ocnsim.geometry import Slope, equivalent, interval_representatives
from ocnsim.slope_game import (
    DUPLICATOR,
    SPOILER,
    SlopeGameSolver,
    belt_constant,
    cycle_effect_candidates,
    evaluate_lasso,
    scan_pair,
)
from ocnsim.weaksim import converge_weak


def _product(spoiler, duplicator):
    return build_product(*normalize_pair(spoiler, duplicator))


def test_evaluate_lasso_cases():
    assert evaluate_lasso((0, 0), Slope(3, 1)) == DUPLICATOR
    assert evaluate_lasso((-1, -1), Slope(2, 1)) == SPOILER
    assert evaluate_lasso((2, 1), Slope(1, 2)) == Slope(2, 1)
    assert evaluate_lasso((4, 2), Slope(1, 2)) == Slope(2, 1)


def test_solve_a_vs_a():
    g = _product(NET_A, NET_ACOPY)
    node = ("p", "q")
    assert SlopeGameSolver(g).solve(node, Slope(2, 1)).winner == SPOILER
    assert SlopeGameSolver(g).solve(node, Slope(2, 1)).segment_depth == 1
    assert SlopeGameSolver(g).solve(node, Slope(1, 2)).winner == DUPLICATOR
    assert SlopeGameSolver(g).solve(node, Slope(1, 1)).winner == DUPLICATOR


def test_solve_z_vs_b_duplicator_everywhere():
    g = _product(NET_Z, NET_B)
    for s in [Slope(1, 0), Slope(2, 1), Slope(1, 1), Slope(1, 2), Slope(0, 1)]:
        res = SlopeGameSolver(g).solve(("z", "r"), s)
        assert res.winner == DUPLICATOR and res.segment_depth == 1


def test_solve_b_vs_z_two_phases():
    # at slope (1,2) the a-lasso's effect (1,0) is behind and positive, so the
    # game continues one phase at (1,0) where the same effect is collinear
    g = _product(NET_B, NET_Z)
    res = SlopeGameSolver(g).solve(("r", "z"), Slope(1, 2))
    assert res.winner == DUPLICATOR and res.segment_depth == 2


def test_cycle_candidates_a_vs_a():
    g = _product(NET_A, NET_ACOPY)
    assert cycle_effect_candidates(g) == {(-1, -1), (1, 1)}


def test_cycle_candidates_z_vs_b():
    g = _product(NET_Z, NET_B)
    v = cycle_effect_candidates(g)
    assert {(0, 1), (0, -1)} <= v


def test_cycle_candidates_acyclic():
    sp = Ocn("S", ("x", "y"), ("a",), (("x", "a", 0, "y"),))
    dup = Ocn("D", ("d", "e"), ("a",), (("d", "a", 0, "e"),))
    g = build_product(sp, dup)
    assert cycle_effect_candidates(g) == set()


def test_cycle_candidates_closed_under_negation():
    for seed in range(20):
        g = _product(*random_pair(seed))
        v = cycle_effect_candidates(g)
        assert {(-x, -y) for x, y in v} == v
        assert (0, 0) not in v
        k = g.K
        assert all(abs(x) <= k and abs(y) <= k for x, y in v)


def test_boundary_slopes_of_reference_pairs():
    assert StrongSimEngine(NET_A, NET_ACOPY).belts[("p", "q")].slope == Slope(1, 1)
    assert StrongSimEngine(NET_Z, NET_B).belts[("z", "r")].slope == Slope(1, 0)
    # Spoiler pumps while Duplicator drains: vertical belt
    assert StrongSimEngine(NET_B, NET_A).belts[("r", "p")].slope == Slope(0, 1)


def test_boundary_slope_components_bounded_by_k():
    for seed in range(25):
        eng = StrongSimEngine(*random_pair(seed))
        k = eng.product.K
        for belt in eng.belts.values():
            b = belt.slope
            assert 0 <= b.rho <= k and 0 <= b.rho_prime <= k


def test_belt_constant_a_vs_a_is_4():
    assert belt_constant(_product(NET_A, NET_ACOPY)) == 4


def test_belt_constant_two_state_scc():
    # two-state spoiler cycle against a one-state net: K = 2, one SCC of
    # size 2, acyc bound 1: min(2*9, 9*2 + 1) = 18
    sp = Ocn("S", ("x", "y"), ("a",), (("x", "a", 0, "y"), ("y", "a", 0, "x")))
    dup = Ocn("D", ("d",), ("a",), (("d", "a", 0, "d"),))
    g = build_product(sp, dup)
    assert g.K == 2
    assert belt_constant(g) == 18


def test_belt_constant_acyclic_product():
    sp = Ocn("S", ("x", "y"), ("a",), (("x", "a", 0, "y"),))
    dup = Ocn("D", ("d",), ("a",), (("d", "a", 0, "d"),))
    g = build_product(sp, dup)
    assert cycle_effect_candidates(g) == set()
    scc, acyc = 1, 1
    assert belt_constant(g) == min(g.K * (g.K + 1) ** 2, 4 + acyc)


def test_phase_bound_never_exceeded():
    for seed in range(25):
        g = _product(*random_pair(seed))
        solver = SlopeGameSolver(g)
        reps = interval_representatives(cycle_effect_candidates(g))
        for node in g.nodes:
            for s in reps:
                solver.solve(node, s)
        assert solver.max_phase_depth <= (g.K + 1) ** 2


def test_monotonicity_spoiler_wins_form_prefix():
    # scan_pair asserts this internally; exercise it across a random sample
    for seed in range(30):
        g = _product(*random_pair(seed))
        reps = interval_representatives(cycle_effect_candidates(g))
        solver = SlopeGameSolver(g)
        for node in g.nodes:
            outcomes = [solver.solve(node, s).winner for s in reps]
            if SPOILER in outcomes:
                last_spoiler = max(i for i, w in enumerate(outcomes) if w == SPOILER)
                assert all(w == SPOILER for w in outcomes[: last_spoiler + 1])


def test_equivalent_slopes_same_winner():
    rng = random.Random(9)
    for seed in range(15):
        g = _product(*random_pair(seed))
        vectors = cycle_effect_candidates(g)
        solver = SlopeGameSolver(g)
        for _ in range(10):
            s1 = Slope(rng.randint(0, 6), rng.randint(0, 6) or 1)
            s2 = Slope(rng.randint(0, 6) or 1, rng.randint(0, 6))
            if equivalent(s1, s2, vectors):
                node = rng.choice(g.nodes)
                assert solver.solve(node, s1).winner == solver.solve(node, s2).winner


def test_slope_canonicalization():
    rng = random.Random(10)
    for seed in range(10):
        g = _product(*random_pair(seed))
        solver = SlopeGameSolver(g)
        for _ in range(8):
            x, y = rng.randint(0, 5), rng.randint(0, 5)
            if (x, y) == (0, 0):
                continue
            s = Slope(x, y)
            r = Slope(x // gcd(x, y), y // gcd(x, y))
            node = rng.choice(g.nodes)
            assert solver.solve(node, s).winner == solver.solve(node, r).winner


def test_scan_pair_boundary_collinear_with_candidates():
    for seed in range(20):
        g = _product(*random_pair(seed))
        vectors = cycle_effect_candidates(g)
        reps = interval_representatives(vectors)
        solver = SlopeGameSolver(g)
        dirs = {Slope(x, y).normalized() for x, y in vectors if x >= 0 and y >= 0 and (x, y) != (0, 0)}
        dirs |= {Slope(1, 0), Slope(0, 1)}
        for node in g.nodes:
            belt = scan_pair(node, reps, solver)
            assert belt.slope.normalized() in dirs


def _reference_phase(g, node, slope, starts):
    """The Slope Game searched without sharing across components: every
    position keys on the whole visited path, relative to the current
    effect, in a memo of its own phase; only phase starts share `starts`.
    Rules and replies are tried in the solver's order, so the first
    winning strategy, and its segment depth, is the solver's."""
    slope = slope.normalized()
    if (node, slope) in starts:
        return starts[node, slope]
    own = {}

    def position(at, visited, tx, ty):
        key = (at, frozenset((v, tx - ex, ty - ey) for v, (ex, ey) in visited.items()))
        if key not in own:
            worst = 0
            for _, d, replies in g.moves[at]:
                winner, depth = reply(visited, tx + d, ty, replies)
                if winner == SPOILER:
                    own[key] = winner, depth
                    break
                worst = max(worst, depth)
            else:
                own[key] = DUPLICATOR, worst
        return own[key]

    def reply(visited, nx, ty, replies):
        worst = 0
        for d2, nxt in sorted(replies, key=lambda r: r[1] not in visited):
            ny = ty + d2
            if nxt in visited:
                ex, ey = visited[nxt]
                verdict = evaluate_lasso((nx - ex, ny - ey), slope)
                if isinstance(verdict, Slope):
                    winner, depth = _reference_phase(g, nxt, verdict, starts)
                    depth += 1
                else:
                    winner, depth = verdict, 1
            else:
                winner, depth = position(nxt, {**visited, nxt: (nx, ny)}, nx, ny)
            if winner == DUPLICATOR:
                return winner, depth
            worst = max(worst, depth)
        return SPOILER, worst

    starts[node, slope] = position(node, {node: (0, 0)}, 0, 0)
    return starts[node, slope]


def _engines_for_sharing():
    for seed in range(150):
        yield StrongSimEngine(*random_pair(seed))
    for seed in range(10):
        yield StrongSimEngine(*tau_cyclic_pair(seed))
    for nets in criterion_7_pairs(25):
        yield StrongSimEngine(*nets)
        conv = converge_weak(*nets)
        if conv.engine is not None:
            yield conv.engine
    for n in (5, 10, 20):
        for cycle in (False, True):
            yield StrongSimEngine(*chain_pair(n, cycle))


def test_component_sharing_matches_the_unshared_search():
    # a reply into another SCC reads the phase value there: every pair's
    # winner and segment depth at every representative stay those of the
    # search that keys on the whole path
    engines = 0
    for eng in _engines_for_sharing():
        engines += 1
        starts = {}
        for node in eng.belts:
            # the solver's memo answers with the results the engine's scan read
            results = [eng.solver.solve(node, s) for s in eng.reps]
            got = [(r.winner, r.segment_depth) for r in results]
            want = [_reference_phase(eng.product, node, s, starts) for s in eng.reps]
            assert got == want, (eng.spoiler_net.name, node)
    assert engines >= 190


def test_chain_solves_each_pair_and_slope_once(monkeypatch):
    # each chain pair is its own SCC: with phases shared across components,
    # each (pair, representative) closes at most one lasso, where a search
    # keyed on the whole path walks the chain below every start again
    calls = 0

    def counting(effect, slope):
        nonlocal calls
        calls += 1
        return evaluate_lasso(effect, slope)

    monkeypatch.setattr(slope_game, "evaluate_lasso", counting)
    eng = StrongSimEngine(*chain_pair(200))
    assert eng.product.K == 200 and calls > 0
    assert calls <= eng.product.K * len(eng.reps)
