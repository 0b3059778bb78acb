import random

from nets import NET_A, NET_ACOPY, random_pair
from ocnsim.core import Config, Ocn, normalize_pair
from ocnsim.coloring import StrongSimEngine
from ocnsim.oracle import (
    bounded_round_winner,
    bounded_weak_round_winner,
    check_candidate,
    weak_successors,
)
from ocnsim.quotient import verify_coloring


def _norm(a, b):
    return normalize_pair(a, b)


def test_bounded_round_winner_a_vs_a():
    nets = _norm(NET_A, NET_ACOPY)
    v = bounded_round_winner(nets, (Config("p", 1), Config("q", 0)), 2)
    assert v.spoiler_wins and v.rounds <= 2
    v = bounded_round_winner(nets, (Config("p", 0), Config("q", 0)), 16)
    assert not v.spoiler_wins


def test_bounded_round_winner_zero_rounds():
    nets = _norm(NET_A, NET_ACOPY)
    v = bounded_round_winner(nets, (Config("p", 9), Config("q", 0)), 0)
    assert not v.spoiler_wins and v.rounds == 0


def test_bounded_round_winner_monotone_in_rounds():
    rng = random.Random(0)
    for seed in range(8):
        nets = _norm(*random_pair(seed))
        for _ in range(6):
            q = rng.choice(nets[0].states)
            q2 = rng.choice(nets[1].states)
            pos = (Config(q, rng.randint(0, 4)), Config(q2, rng.randint(0, 4)))
            v1 = bounded_round_winner(nets, pos, 6)
            v2 = bounded_round_winner(nets, pos, 12)
            if v1.spoiler_wins:
                assert v2.spoiler_wins and v2.rounds <= 12


def test_bounded_round_winner_monotone_in_spoiler_counter():
    nets = _norm(NET_A, NET_ACOPY)
    for n in range(6):
        for m in range(6):
            v = bounded_round_winner(nets, (Config("p", n), Config("q", m)), 12)
            if v.spoiler_wins:
                up = bounded_round_winner(nets, (Config("p", n + 1), Config("q", m)), 12)
                assert up.spoiler_wins


def test_weak_successors_tau_closure():
    net = Ocn(
        "D", ("q", "r"), ("a", "tau"),
        (("q", "tau", 1, "q"), ("q", "a", -1, "r")),
    )
    succ = weak_successors(net, Config("q", 0), "a", tau_cap=3)
    # pump up to three, then fire a
    assert succ == {Config("r", 0), Config("r", 1), Config("r", 2)}


def test_bounded_weak_pumping_example():
    sp = Ocn("S", ("p",), ("a",), (("p", "a", -1, "p"),))
    dup = Ocn("D", ("q",), ("a", "tau"), (("q", "tau", 1, "q"), ("q", "a", -1, "q")))
    v = bounded_weak_round_winner((sp, dup), (Config("p", 5), Config("q", 0)), 12, 8)
    assert not v.spoiler_wins and v.rounds == 12


def test_bounded_weak_no_reply():
    sp = Ocn("S", ("p",), ("a",), (("p", "a", 0, "p"),))
    dup = Ocn("D", ("q",), ("a", "b"), (("q", "b", 0, "q"),))
    v = bounded_weak_round_winner((sp, dup), (Config("p", 0), Config("q", 5)), 4, 2)
    assert v.spoiler_wins and v.rounds == 1


def test_bounded_weak_tau_cap_zero_degenerates_to_strong():
    rng = random.Random(1)
    for seed in range(6):
        nets = _norm(*random_pair(seed))
        for _ in range(5):
            pos = (
                Config(rng.choice(nets[0].states), rng.randint(0, 3)),
                Config(rng.choice(nets[1].states), rng.randint(0, 3)),
            )
            weak = bounded_weak_round_winner(nets, pos, 8, 0)
            strong = bounded_round_winner(nets, pos, 8)
            assert weak.spoiler_wins == strong.spoiler_wins


def test_check_candidate_clean_and_mutated():
    eng = StrongSimEngine(NET_A, NET_ACOPY)
    nets = (eng.spoiler_net, eng.duplicator_net)
    col = eng.export_coloring()
    assert check_candidate(nets, col, (20, 20)) == []

    # claim a truly excluded point: a local violation appears nearby
    assert col.values[("p", "q")][(5, 3)] is False
    col.values[("p", "q")][(5, 3)] = True
    violations = check_candidate(nets, col, (20, 20))
    assert violations


def test_check_candidate_agrees_with_verifier():
    # the two independently implemented local checkers flag identical
    # claimed-point sets across randomly mutated colorings
    rng = random.Random(7)
    eng = StrongSimEngine(NET_A, NET_ACOPY)
    nets = (eng.spoiler_net, eng.duplicator_net)
    for trial in range(60):
        col = eng.export_coloring()
        vals = col.values[("p", "q")]
        window_pts = sorted(vals)
        for _ in range(rng.randint(1, 3)):
            pt = rng.choice(window_pts)
            vals[pt] = not vals[pt]
        geo = col.geometry[("p", "q")]
        window = geo.rect_cap(geo.j + geo.k)
        independent = {
            pt for pair, pt in check_candidate(nets, col, window) if pair == ("p", "q")
        }
        report = verify_coloring(nets, col, spoiler_depth_cap=8)
        engine_side = {
            pt for pair, pt in report.yes_violations
            if pair == ("p", "q") and pt[0] <= window[0] and pt[1] <= window[1]
        }
        assert independent == engine_side, (trial, independent ^ engine_side)
