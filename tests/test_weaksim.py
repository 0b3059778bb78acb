import random

from cli_runner import run
from nets import NET_A, omega_gadget_pair, omega_into_y, random_pair, tau_cyclic_pair
from ocnsim.core import Config, Ocn, format_net
from ocnsim.coloring import StrongSimEngine
from ocnsim.oracle import bounded_weak_round_winner
from ocnsim.weaksim import (
    OMEGA,
    OmegaNet,
    build_approximants,
    check_gadget_invariants,
    compute_suff,
    converge_weak,
    decide_weak,
    reduce_weak_to_strong,
    tau_profiles,
)


def test_tau_profiles_simple_chain():
    net = Ocn(
        "D", ("q", "x", "y"), ("a", "tau"),
        (("q", "tau", -1, "x"), ("x", "tau", 1, "y")),
    )
    prof = tau_profiles(net, "tau")
    assert prof.profiles[("q", "y")] == [(0, 1)]
    assert prof.pump_required[("q", "y")] is None


def test_tau_profiles_pump():
    net = Ocn(
        "D", ("q", "x"), ("a", "tau"),
        (("q", "tau", 1, "q"), ("q", "tau", -1, "x")),
    )
    prof = tau_profiles(net, "tau")
    assert prof.pump_required[("q", "x")] == 0
    assert prof.pump_required[("q", "q")] == 0


def test_tau_profiles_pump_then_two_hops():
    net = Ocn(
        "D", ("q", "z", "m", "y"), ("a", "tau"),
        (("q", "tau", 0, "z"), ("z", "tau", 1, "z"), ("z", "tau", 0, "m"), ("m", "tau", -1, "y")),
    )
    prof = tau_profiles(net, "tau")
    assert prof.pump_required[("q", "y")] == 0
    assert prof.pump_required[("m", "y")] is None


def test_reduce_no_tau_is_identity_on_answers():
    for seed in range(6):
        n, m = random_pair(seed)
        m_net, m_omega = reduce_weak_to_strong(n, m, tau="tau")
        assert m_omega.omega_transitions() == []
        e_weak = StrongSimEngine(m_net, _as_ocn(m_omega))
        e_strong = StrongSimEngine(n, m)
        for q in n.states[:2]:
            for q2 in m.states[:2]:
                for c1 in (0, 2, 5):
                    for c2 in (0, 2, 5):
                        assert e_weak.decide((q, c1), (q2, c2)) == e_strong.decide(
                            (q, c1), (q2, c2)
                        )


def _as_ocn(m_omega: OmegaNet) -> Ocn:
    assert not m_omega.omega_transitions()
    return Ocn(m_omega.name, m_omega.states, m_omega.actions, tuple(m_omega.transitions))


def test_reduce_pumping_gives_omega_transition():
    dup = Ocn(
        "D", ("q", "r"), ("a", "tau"),
        (("q", "tau", 1, "q"), ("q", "a", -1, "r")),
    )
    _, m_omega = reduce_weak_to_strong(NET_A, dup, tau="tau")
    assert ("q", "a", OMEGA, "r") in m_omega.transitions


def test_reduce_negative_chain_uses_one_intermediate():
    # two -1 tau steps before an effect-0 a-step compress to a two-step walk
    # through one fresh state
    dup = Ocn(
        "D", ("q", "x", "r"), ("a", "tau"),
        (("q", "tau", -1, "x"), ("x", "tau", -1, "r"), ("r", "a", 0, "r")),
    )
    _, m_omega = reduce_weak_to_strong(NET_A, dup, tau="tau")
    first = [t for t in m_omega.transitions if t[0] == "q" and t[1] == "a" and t[2] == -1]
    assert first, "compressed a-move with a leading unit decrement"
    mid = first[0][3]
    assert mid.startswith("__w")
    assert any(t == (mid, "__f", -1, "r") for t in m_omega.transitions)


def test_build_approximants_gadget_shapes():
    # no omega-transition leads into r, so only the gadget of (p, q) is built
    dup = Ocn(
        "D", ("q", "r"), ("a", "tau"),
        (("q", "tau", 1, "q"), ("q", "a", -1, "q"), ("r", "a", 0, "q")),
    )
    m_net, m_omega = reduce_weak_to_strong(NET_A, dup, tau="tau")
    grid = [(q, y) for q in m_net.states for y in m_omega.states]
    all_omega = {p: None for p in grid}
    nets1 = build_approximants(m_net, m_omega, all_omega, level=1)
    check_gadget_invariants(nets1, m_net, m_omega)
    assert ("p", "r") in grid and list(nets1.gadget_sizes) == [("p", "q")]
    assert all(size == 1 for size in nets1.gadget_sizes.values())
    assert nets1.duplicator.states == build_approximants(
        m_net, m_omega, dict.fromkeys(grid, 3), level=2
    ).duplicator.states  # Duplicator's side does not depend on the level

    with_finite = dict(all_omega)
    with_finite[grid[0]] = 3
    nets2 = build_approximants(m_net, m_omega, with_finite, level=2)
    check_gadget_invariants(nets2, m_net, m_omega)
    assert nets2.gadget_sizes[grid[0]] == 5  # chain of 3 plus the win state


def test_decide_weak_without_tau_equals_strong():
    for seed in range(5):
        n, m = random_pair(seed)
        e_strong = StrongSimEngine(n, m)
        conv = converge_weak(n, m)
        for q in n.states[:1]:
            for q2 in m.states[:1]:
                for c1 in (0, 3):
                    for c2 in (0, 3):
                        answer = conv.decide(Config(q, c1), Config(q2, c2))
                        assert answer == e_strong.decide((q, c1), (q2, c2))


def test_decide_weak_pumping_examples():
    sp = Ocn("S", ("p",), ("a",), (("p", "a", -1, "p"),))
    dup = Ocn("D", ("q",), ("a", "tau"), (("q", "tau", 1, "q"), ("q", "a", -1, "q")))
    for n in (0, 3, 7):
        for m in (0, 2):
            assert decide_weak(sp, dup, Config("p", n), Config("q", m)).answer is True

    sp2 = Ocn("S", ("p",), ("a",), (("p", "a", 1, "p"),))
    dup2 = Ocn("D", ("q",), ("a", "tau"), (("q", "tau", -1, "q"), ("q", "a", 0, "q")))
    assert decide_weak(sp2, dup2, Config("p", 0), Config("q", 0)).answer is True


def test_decide_weak_dip_requires_counter():
    dup = Ocn(
        "D", ("q", "x", "y", "z", "r"), ("a", "tau"),
        (
            ("q", "tau", -1, "x"),
            ("x", "tau", -1, "y"),
            ("y", "tau", 1, "z"),
            ("z", "tau", 1, "r"),
            ("r", "a", 0, "r"),
        ),
    )
    sp = Ocn("S", ("p",), ("a",), (("p", "a", 0, "p"),))
    assert decide_weak(sp, dup, Config("p", 0), Config("q", 1)).answer is False
    assert decide_weak(sp, dup, Config("p", 0), Config("q", 2)).answer is True


def test_suff_table_invariants_on_weak_runs():
    sp = Ocn("S", ("p",), ("a", "b"), (("p", "a", -1, "p"), ("p", "b", 0, "p")))
    dup = Ocn(
        "D", ("q", "r"), ("a", "b", "tau"),
        (
            ("q", "tau", 1, "r"),
            ("r", "a", -1, "r"),
            ("r", "b", 0, "q"),
            ("q", "a", -1, "q"),
        ),
    )
    dec = decide_weak(sp, dup, Config("p", 2), Config("q", 2))
    table = dec.table
    assert all(v is None for v in table.rows[0].values())
    for prev, cur in zip(table.rows, table.rows[1:]):
        for pair in table.pairs:
            if prev[pair] is not None:
                assert cur[pair] is not None and cur[pair] <= prev[pair]
    assert all(d <= 1 for d in table.omega_drops().values())
    assert dec.levels <= len(table.pairs) + 2
    assert table.converged


def test_decide_weak_matches_bounded_oracle_on_tau_acyclic():
    # tau-acyclic Duplicator nets: the bounded weak oracle is conclusive in
    # both directions once the cap covers the tau diameter
    rng = random.Random(5)
    for seed in range(10):
        sp, dup0 = random_pair(seed)
        # sprinkle acyclic tau steps (from lower to higher state index only)
        states = dup0.states
        extra = []
        for i, s in enumerate(states):
            for t in states[i + 1:]:
                if rng.random() < 0.5:
                    extra.append((s, "tau", rng.choice((-1, 0, 1)), t))
        dup = Ocn(
            dup0.name,
            states,
            tuple(set(dup0.actions) | {"tau"}),
            dup0.transitions + tuple(extra),
        )
        conv = converge_weak(sp, dup)
        for q in sp.states[:1]:
            for q2 in dup.states[:1]:
                for c1 in (0, 2, 6):
                    for c2 in (0, 2, 6):
                        answer = conv.decide(Config(q, c1), Config(q2, c2))
                        assert answer is not None
                        verdict = bounded_weak_round_winner(
                            (sp, dup),
                            (Config(q, c1), Config(q2, c2)),
                            rounds=24,
                            tau_cap=len(dup.states),
                        )
                        if answer is False and not verdict.spoiler_wins:
                            # survival is inconclusive: deepen before comparing
                            verdict = bounded_weak_round_winner(
                                (sp, dup),
                                (Config(q, c1), Config(q2, c2)),
                                rounds=96,
                                tau_cap=len(dup.states),
                            )
                        assert answer == (not verdict.spoiler_wins), (
                            seed, q, q2, c1, c2
                        )


def test_converged_false_answers_are_spoiler_wins_on_tau_cyclic():
    # A tau cap only weakens Duplicator, so the bounded oracle can refute no
    # true answer, but every false answer must be a Spoiler win in it.
    # Two-state nets keep the approximants small.
    falses = 0
    for seed in range(12):
        sp, dup = tau_cyclic_pair(seed)
        conv = converge_weak(sp, dup)
        eng = conv.engine
        # the slope game's phase guard reads the rooted product's K
        assert eng.solver.max_phase_depth <= (eng.product.K + 1) ** 2, seed
        for c1 in (0, 2, 6):
            for c2 in (0, 2, 6):
                pos = (Config(sp.states[0], c1), Config(dup.states[0], c2))
                answer = conv.decide(*pos)
                assert answer is not None, (seed, c1, c2)
                if answer:
                    continue
                falses += 1
                for rounds in (24, 96):
                    verdict = bounded_weak_round_winner(
                        (sp, dup), pos, rounds=rounds, tau_cap=len(dup.states)
                    )
                    if verdict.spoiler_wins:
                        break
                assert verdict.spoiler_wins, (seed, c1, c2)
    assert falses > 0


def test_decide_weak_matches_bounded_oracle_on_iterating_approximants():
    # `omega_gadget_pair` nets take finite sufficient values, so their
    # levels reach `compute_suff` and its exact colorings; seeds 3 and 18
    # converge at level 3, seed 20 at level 4.  Every answer, at every
    # state pair and counters 0-2, must be decided and agree with the
    # bounded weak oracle capped at Duplicator's state count: a true answer
    # survives 24 rounds, and a false one is a Spoiler win within 24, or
    # within 96 when 24 do not show it.
    levels, answers = {}, {True: 0, False: 0}
    for seed in (*range(12), 18, 20):
        sp, dup = omega_gadget_pair(seed)
        conv = converge_weak(sp, dup)
        levels[seed] = conv.levels
        for q in sp.states:
            for q2 in dup.states:
                for n in range(3):
                    for m in range(3):
                        pos = (Config(q, n), Config(q2, m))
                        answer = conv.decide(*pos)
                        assert answer is not None, (seed, pos)
                        answers[answer] += 1
                        for rounds in (24, 96):
                            verdict = bounded_weak_round_winner(
                                (sp, dup), pos, rounds=rounds, tau_cap=len(dup.states)
                            )
                            if answer or verdict.spoiler_wins:
                                break
                        assert answer == (not verdict.spoiler_wins), (seed, pos)
    assert (levels[3], levels[18], levels[20]) == (3, 3, 4)
    assert sum(level >= 2 for level in levels.values()) >= 10
    assert min(answers.values()) > 0


def test_uncertified_approximant_level_answers_undecided():
    # seed 61 converges to no engine: at level 2 no round's coloring
    # certifies, round 0 (j = 309, k = 1, K = 51) with a periodicity
    # horizon of 518 past HORIZON_CAP, so `compute_suff` finds no exact
    # coloring.  Every answer is undecided, never a guess, although
    # Spoiler wins some points at once: d1 cannot answer b at counter 0.
    sp, dup = omega_gadget_pair(61)
    conv = converge_weak(sp, dup)
    assert (conv.engine, conv.levels) == (None, 2)
    answers = {
        conv.decide(Config(q, n), Config(q2, m))
        for q in sp.states
        for q2 in dup.states
        for n in range(4)
        for m in range(4)
    }
    assert answers == {None}
    pos = (Config("s0", 0), Config("d1", 0))
    assert bounded_weak_round_winner((sp, dup), pos, rounds=16, tau_cap=len(dup.states)).spoiler_wins


def test_dump_approximants_writes_each_level(tmp_path):
    sp, dup = omega_into_y()
    net_a, net_b, out = tmp_path / "sp.ocn", tmp_path / "dup.ocn", tmp_path / "levels"
    net_a.write_text(format_net(sp), encoding="utf-8")
    net_b.write_text(format_net(dup), encoding="utf-8")
    res = run("check", "--weak", "--dump-approximants", str(out), str(net_a), str(net_b), "p:0", "q:0")
    assert res.exit_code == 0, res.output
    conv = converge_weak(sp, dup)
    assert len(conv.approximants) == 2
    levels = range(1, len(conv.approximants) + 1)
    expected = {f"level{i}_{side}.ocn" for i in levels for side in ("spoiler", "duplicator")}
    assert {f.name for f in out.iterdir()} == expected
    for i in levels:
        nets = conv.approximants[i - 1]
        assert (out / f"level{i}_spoiler.ocn").read_text(encoding="utf-8") == format_net(nets.spoiler)
        assert (out / f"level{i}_duplicator.ocn").read_text(encoding="utf-8") == format_net(nets.duplicator)
    # the gadget states carry reserved `__` names: the files are for reading
    assert run("print", str(out / "level1_spoiler.ocn")).exit_code == 64


def test_one_engine_per_level_answers_as_the_last_level(monkeypatch):
    # converge_weak builds one engine per level and stops when the live
    # gadgets' values repeat; the converged engine must answer every
    # original pair as a fresh engine on the last level's nets does
    from ocnsim import weaksim

    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return StrongSimEngine(*args, **kwargs)

    monkeypatch.setattr(weaksim, "StrongSimEngine", counting)
    cases = [omega_into_y(), *map(tau_cyclic_pair, range(12)), *map(random_pair, range(6))]
    live_changes = 0
    for sp, dup in cases:
        built.clear()
        conv = weaksim.converge_weak(sp, dup)
        assert conv.engine is not None and conv.table.converged
        m_net, m_omega = reduce_weak_to_strong(sp, dup)
        live = [(q, t[3]) for t in m_omega.omega_transitions() for q in m_net.states]
        rows = conv.table.rows
        changes = sum(any(a[p] != b[p] for p in live) for a, b in zip(rows, rows[1:]))
        assert len(built) == 1 + changes == conv.levels, (sp, dup)
        live_changes += changes
        grid = [(q, y) for q in m_net.states for y in m_omega.states]
        last = conv.approximants[-1]
        fresh = StrongSimEngine(last.spoiler, last.duplicator, roots=grid)
        for q in sp.states:
            for q2 in dup.states:
                for n in range(6):
                    for m in range(6):
                        answer = conv.decide(Config(q, n), Config(q2, m))
                        assert answer == fresh.decide((q, n), (q2, m)), (sp, dup, q, q2, n, m)
    assert live_changes > 0


def test_tau_acyclic_duplicator_converges_at_level_one(monkeypatch):
    # without an omega-transition no gadget can be entered, so the first
    # level's row repeats the seed without a single sufficient value
    from ocnsim import weaksim

    calls = []

    def counting(engine, pair):
        calls.append(pair)
        return compute_suff(engine, pair)

    monkeypatch.setattr(weaksim, "compute_suff", counting)
    # Spoiler wins from (p, s) at every counter: a vertical belt, whose
    # sufficient value would be finite if its gadget were valued
    sp = Ocn("S", ("p",), ("a",), (("p", "a", 0, "p"),))
    dup = Ocn(
        "D", ("q", "r", "s"), ("a", "tau"),
        (("q", "tau", -1, "r"), ("r", "a", 0, "r"), ("q", "a", -1, "q"), ("s", "a", -1, "s")),
    )
    conv = weaksim.converge_weak(sp, dup)
    assert conv.levels == 1 and conv.table.converged and calls == []
    assert conv.decide(Config("p", 3), Config("q", 0)) is False
    assert conv.decide(Config("p", 3), Config("q", 1)) is True
    assert conv.decide(Config("p", 0), Config("s", 9)) is False


def test_approximants_hold_only_enterable_gadgets():
    # every gadget state of every level lies on the chain of a gadget whose
    # entry some script action reaches
    for nets_pair in [omega_into_y(), *map(tau_cyclic_pair, range(12))]:
        conv = converge_weak(*nets_pair)
        for nets in conv.approximants:
            sp = nets.spoiler
            entered = {dst for _, act, _, dst in sp.transitions if act.startswith("__g")}
            gadgets = [s for s in sp.states if s.startswith("__G")]
            assert {s.split(".")[0] for s in gadgets} == {e.split(".")[0] for e in entered}
            assert len(nets.gadget_sizes) == len(entered), nets_pair
