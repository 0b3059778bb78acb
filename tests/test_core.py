import random

import pytest

from nets import NET_A, NET_ACOPY, NET_B, NET_Z, random_pair
from ocnsim.core import (
    ELL,
    SINK,
    Config,
    NetError,
    Ocn,
    ParseError,
    build_product,
    format_net,
    graph_parameters,
    normalize_pair,
    parse_net,
    steps,
)
from ocnsim.attractor import SpoilerAttractor
from ocnsim.geometry import Slope
from ocnsim.oracle import bounded_round_winner
from ocnsim.slope_game import SlopeGameSolver


def test_steps_minus_one_disabled_at_zero():
    assert steps(NET_A, Config("p", 0)) == set()


def test_steps_enabled():
    assert steps(NET_A, Config("p", 3)) == {("a", Config("p", 2))}
    assert steps(NET_B, Config("r", 0)) == {("a", Config("r", 1))}


def test_steps_unknown_state():
    with pytest.raises(NetError):
        steps(NET_A, Config("nope", 1))


def test_steps_never_negative():
    rng = random.Random(0)
    for seed in range(30):
        n, _ = random_pair(seed)
        for s in n.states:
            for c in range(3):
                for _, nxt in steps(n, Config(s, c)):
                    assert nxt.counter >= 0


def test_normalize_adds_ell_loop_and_no_sink_when_complete():
    # A as Duplicator covers its whole alphabet once the no-op loop exists,
    # so completion introduces nothing else
    _, dup = normalize_pair(NET_A, NET_A)
    assert (("p", ELL, 0, "p")) in dup.transitions
    assert SINK not in dup.states
    assert set(dup.actions) == {"a", ELL}


def test_normalize_completion_routes_to_sink():
    # Duplicator missing action b entirely: every state gets a decrementing
    # fallback into the sink, which loops decrementing on every action
    sp = Ocn("S", ("s",), ("a", "b"), (("s", "b", 0, "s"),))
    dup = Ocn("D", ("d",), ("a",), (("d", "a", -1, "d"),))
    _, dn = normalize_pair(sp, dup)
    assert SINK in dn.states
    assert ("d", "b", -1, SINK) in dn.transitions
    for act in dn.actions:
        assert (SINK, act, -1, SINK) in dn.transitions


def test_normalize_idempotent():
    s1, d1 = normalize_pair(NET_A, NET_Z)
    s2, d2 = normalize_pair(s1, d1)
    assert s2.transitions == s1.transitions
    assert set(d2.transitions) == set(d1.transitions)


def test_normalize_postconditions_random():
    for seed in range(40):
        n, m = random_pair(seed)
        sn, dn = normalize_pair(n, m)
        # Spoiler never stuck: some non-negative-delta transition everywhere
        for s in sn.states:
            assert any(d >= 0 for _, _, d, _ in sn.out[s])
        # Duplicator complete: a transition for every action everywhere
        for s in dn.states:
            have = {a for _, a, _, _ in dn.out[s]}
            assert have == set(dn.actions)


def test_normalize_dead_spoiler_state_duplicator_survives():
    # an isolated dead Spoiler state gains only the no-op loop, so Duplicator
    # survives from every complete Duplicator state
    sp = Ocn("S", ("s", "dead"), ("a",), (("s", "a", 0, "s"),))
    sn, dn = normalize_pair(sp, NET_ACOPY)
    assert sn.out["dead"] == ((("dead", ELL, 0, "dead")),)
    for n in range(4):
        for m in range(4):
            v = bounded_round_winner((sn, dn), (Config("dead", n), Config("q", m)), 12)
            assert not v.spoiler_wins


def test_build_product_a_vs_a():
    sn, dn = normalize_pair(NET_A, NET_ACOPY)
    g = build_product(sn, dn)
    assert g.nodes == (("p", "q"),)
    effects = {(a, d, d2) for ms in g.moves.values() for a, d, r in ms for d2, _ in r}
    assert effects == {("a", -1, -1), (ELL, 0, 0)}


def test_build_product_z_vs_b():
    g = build_product(NET_Z, NET_B)
    assert g.nodes == (("z", "r"),)
    assert g.moves == {("z", "r"): (("a", 0, ((1, ("z", "r")),)),)}


def test_build_product_cardinality():
    sp = Ocn("S", ("s1", "s2"), ("a",), ())
    dup = Ocn("D", ("d1", "d2", "d3"), ("a",), ())
    assert build_product(sp, dup).K == 6


def test_build_product_alphabet_mismatch():
    other = Ocn("O", ("o",), ("b",), ())
    with pytest.raises(NetError):
        build_product(NET_A, other)


def test_build_product_edge_count_formula():
    for seed in range(20):
        n, m = random_pair(seed)
        sn, dn = normalize_pair(n, m)
        g = build_product(sn, dn)
        expected = 0
        for a in sn.actions:
            cnt_s = sum(1 for t in sn.transitions if t[1] == a)
            cnt_d = sum(1 for t in dn.transitions if t[1] == a)
            expected += cnt_s * cnt_d
        assert sum(len(r) for ms in g.moves.values() for _, _, r in ms) == expected


def test_product_moves_follow_transition_order():
    # with roots, the product is the part of the full product they reach
    for seed in range(40):
        sn, dn = normalize_pair(*random_pair(seed))
        full = [(q, q2) for q in sn.states for q2 in dn.states]
        rng = random.Random(seed)
        for roots in (None, full[:1], full[-1:], rng.sample(full, min(2, len(full)))):
            expected, todo = {}, list(full if roots is None else roots)
            while todo:
                q, q2 = v = todo.pop()
                if v in expected:
                    continue
                rules = []
                for s, a, d, p in sn.transitions:
                    if s == q:
                        replies = [
                            (d2, (p, p2)) for s2, b, d2, p2 in dn.transitions if (s2, b) == (q2, a)
                        ]
                        rules.append((a, d, tuple(replies)))
                        todo.extend(w for _, w in replies)
                expected[v] = tuple(rules)
            g = build_product(sn, dn, roots)
            assert g.nodes == tuple(v for v in full if v in expected)
            assert g.moves == expected


def test_product_moves_keep_unanswered_rules():
    sp = Ocn("S", ("p",), ("a", "b"), (("p", "b", 0, "p"), ("p", "a", 0, "p")))
    dup = Ocn("D", ("q",), ("a", "b"), (("q", "a", 1, "q"),))
    g = build_product(sp, dup)
    assert g.moves[("p", "q")] == (("b", 0, ()), ("a", 0, ((1, ("p", "q")),)))
    with pytest.raises(RuntimeError, match="normalized"):
        SlopeGameSolver(g).solve(("p", "q"), Slope(1, 1))
    with pytest.raises(NetError, match="not normalized"):
        SpoilerAttractor(g)


def test_graph_parameters_self_loop():
    sn, dn = normalize_pair(NET_A, NET_ACOPY)
    assert graph_parameters(build_product(sn, dn)) == (1, 0)


def test_graph_parameters_two_singletons():
    sp = Ocn("S", ("x", "y"), ("a",), (("x", "a", 0, "y"),))
    dup = Ocn("D", ("d",), ("a",), (("d", "a", 0, "d"),))
    g = build_product(sp, dup)
    assert graph_parameters(g) == (1, 1)


def test_graph_parameters_cycles():
    # 3-node cycle with an edge into a separate 2-node cycle: largest SCC 3,
    # condensation path weight 3 + 2, bound 4
    sp = Ocn(
        "S",
        ("c0", "c1", "c2", "d0", "d1"),
        ("a",),
        (
            ("c0", "a", 0, "c1"),
            ("c1", "a", 0, "c2"),
            ("c2", "a", 0, "c0"),
            ("c2", "a", 0, "d0"),
            ("d0", "a", 0, "d1"),
            ("d1", "a", 0, "d0"),
        ),
    )
    dup = Ocn("D", ("d",), ("a",), (("d", "a", 0, "d"),))
    g = build_product(sp, dup)
    assert graph_parameters(g) == (3, 4)


def test_winner_preservation_of_normalization():
    # deciding on the raw nets equals deciding on pre-normalized nets, for
    # all original-state positions
    from ocnsim.coloring import StrongSimEngine

    for seed in range(12):
        n, m = random_pair(seed)
        e1 = StrongSimEngine(n, m)
        e2 = StrongSimEngine(*normalize_pair(n, m))
        for q in n.states:
            for q2 in m.states:
                for c1 in range(0, 7, 3):
                    for c2 in range(0, 7, 3):
                        assert e1.decide((q, c1), (q2, c2)) == e2.decide((q, c1), (q2, c2))


def test_winner_preservation_against_oracle():
    # a bounded-oracle Spoiler win before normalization is still a win after,
    # within a slack that covers the sink's delaying survival
    for seed in range(15):
        n, m = random_pair(seed)
        sn, dn = normalize_pair(n, m)
        for q in n.states:
            for q2 in m.states:
                for c1 in range(0, 6, 2):
                    for c2 in range(0, 6, 2):
                        pos = (Config(q, c1), Config(q2, c2))
                        before = bounded_round_winner((n, m), pos, 12)
                        after = bounded_round_winner((sn, dn), pos, 32)
                        if before.spoiler_wins:
                            assert after.spoiler_wins
                        if after.spoiler_wins and after.rounds <= 12:
                            assert bounded_round_winner((n, m), pos, 12).spoiler_wins


# ---------------------------------------------------------------------------
# textual format


def test_parse_and_format_roundtrip_corpus():
    rng = random.Random(11)
    for seed in range(20):
        net, _ = random_pair(seed)
        text = format_net(net)
        again = parse_net(text)
        assert again == net


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_net("net X\nstates s\nactions a\ns a +2 s\n")
    assert err.value.line == 4


def test_parse_rejects_reserved_identifiers():
    with pytest.raises(ParseError):
        parse_net("net X\nstates __bot\nactions a\n")


def test_parse_comments_and_blanks():
    net = parse_net("# heading\n\nnet X\nstates s t\nactions a\ns a +1 t # hop\n")
    assert net.transitions == (("s", "a", 1, "t"),)
