"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The random strong-simulation suite (500 net pairs) is computed once in a
session fixture and shared by the criteria that sample it.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from nets import NET_A, NET_ACOPY, NET_B, NET_Z, criterion_7_pairs, random_net
from ocnsim.core import Config, Ocn, normalize_pair
from ocnsim.coloring import StrongSimEngine
from ocnsim.geometry import Slope, c_above, c_below, is_behind
from ocnsim.oracle import bounded_weak_round_winner, check_candidate
from ocnsim.quotient import find_equal_cross_sections
from ocnsim.slope_game import DUPLICATOR, SPOILER
from ocnsim.weaksim import converge_weak, decide_weak

SUITE_SIZE = 500
POINT_MAX = 25
FALSE_CONFIRM_DEPTH = 200


def _suite_pair(seed: int) -> tuple[Ocn, Ocn]:
    rng = random.Random(1000 + seed)
    actions = ("a",) if rng.random() < 0.25 else ("a", "b")
    return (
        random_net(rng, "s", max_states=3, actions=actions),
        random_net(rng, "d", max_states=3, actions=actions),
    )


@dataclass
class SuiteStats:
    elapsed: float = 0.0
    instances: int = 0
    answered: int = 0
    undecided: list = field(default_factory=list)
    yes_violations: list = field(default_factory=list)
    unconfirmed_false: list = field(default_factory=list)
    zone_true_vs_claim: list = field(default_factory=list)
    phase_bound_violations: list = field(default_factory=list)
    slope_range_violations: list = field(default_factory=list)
    belt_constant_mismatches: list = field(default_factory=list)
    monotonicity_violations: list = field(default_factory=list)
    monotonicity_checks: int = 0
    expansion_mismatches: list = field(default_factory=list)
    section_failures: list = field(default_factory=list)


@pytest.fixture(scope="session")
def suite() -> SuiteStats:
    stats = SuiteStats()
    started = time.monotonic()
    for seed in range(SUITE_SIZE):
        spoiler, duplicator = _suite_pair(seed)
        eng = StrongSimEngine(spoiler, duplicator)
        nets = (eng.spoiler_net, eng.duplicator_net)

        # criterion 3: instrumented slope-game bounds
        if eng.solver.max_phase_depth > (eng.product.K + 1) ** 2:
            stats.phase_bound_violations.append(seed)
        for node, scan in eng.scans.items():
            b = scan.boundary
            if not (0 <= b.rho <= eng.product.K and 0 <= b.rho_prime <= eng.product.K):
                stats.slope_range_violations.append((seed, node))
            # criterion 5 (monotonicity lemma): Spoiler wins form a prefix of
            # the steepness-ordered representative scan
            outcomes = scan.outcomes
            for early, late in zip(outcomes, outcomes[1:]):
                stats.monotonicity_checks += 1
                if early.winner == DUPLICATOR and late.winner == SPOILER:
                    stats.monotonicity_violations.append((seed, node))

        # criterion 4: belt constant formula
        expected_c = min(
            eng.product.K * (eng.product.K + 1) ** 2,
            (eng.scc + 1) ** 2 * eng.scc + eng.acyc_bound,
        )
        if eng.c_global != expected_c:
            stats.belt_constant_mismatches.append(seed)

        # criterion 1: answers plus certification
        answers: dict = {}
        for q in spoiler.states:
            for q2 in duplicator.states:
                for n in range(POINT_MAX + 1):
                    for m in range(POINT_MAX + 1):
                        a = eng.decide((q, n), (q2, m))
                        if a is None:
                            stats.undecided.append((seed, q, q2, n, m))
                            continue
                        answers[(q, q2, n, m)] = a
                        stats.answered += 1
        pc = eng.export_coloring()
        if pc is None:
            stats.undecided.append((seed, "export"))
            continue
        violations = check_candidate(nets, pc, (POINT_MAX + 1, POINT_MAX + 1))
        if violations:
            stats.yes_violations.append((seed, violations[:3]))
        for (q, q2, n, m), a in answers.items():
            if a:
                if not pc.lookup((q, q2), (n, m)):
                    stats.zone_true_vs_claim.append((seed, q, q2, n, m))
            else:
                if eng.spoiler_rank((q, q2), (n, m), FALSE_CONFIRM_DEPTH) is None:
                    stats.unconfirmed_false.append((seed, q, q2, n, m))

        # criterion 6: periodic re-expansion and cross-section periods
        col = eng.certified_coloring()
        geo0 = next(iter(col.geometry.values()))
        wider = eng.coloring(geo0.j + 2 * geo0.k, geo0.k)
        for pair, vals in wider.values.items():
            for pt, v in vals.items():
                if col.lookup(pair, pt) != v:
                    stats.expansion_mismatches.append((seed, pair, pt))
                    break
        for pair in col.values:
            res = find_equal_cross_sections(col, pair)
            if res is None:
                stats.section_failures.append((seed, pair))

        stats.instances += 1
    stats.elapsed = time.monotonic() - started
    return stats


def test_criterion_1_differential_strong(suite):
    ok = (
        suite.instances == SUITE_SIZE
        and not suite.undecided
        and not suite.yes_violations
        and not suite.unconfirmed_false
        and not suite.zone_true_vs_claim
        and suite.elapsed <= 600.0
    )
    print(
        f"\nACCEPTANCE 1 (differential strong): {'PASS' if ok else 'FAIL'} — "
        f"{suite.instances} net pairs, {suite.answered} answered points, "
        f"{len(suite.undecided)} undecided, {len(suite.yes_violations)} local-check "
        f"violations, {len(suite.unconfirmed_false)} unconfirmed excluded points, "
        f"{suite.elapsed:.0f}s"
    )
    assert suite.instances == SUITE_SIZE
    assert suite.undecided == []
    assert suite.yes_violations == []
    assert suite.zone_true_vs_claim == []
    assert suite.unconfirmed_false == []
    assert suite.elapsed <= 600.0


def test_criterion_2_hand_derived_laws():
    eng = StrongSimEngine(NET_A, NET_ACOPY)
    bad = [
        (n, m)
        for n in range(50)
        for m in range(50)
        if eng.decide(("p", n), ("q", m)) != (n <= m)
    ]
    all_true = []
    for sp, dn, pair in [(NET_Z, NET_B, ("z", "r")), (NET_B, NET_Z, ("r", "z"))]:
        e = StrongSimEngine(sp, dn)
        all_true.extend(
            (sp.name, n, m)
            for n in range(30)
            for m in range(30)
            if e.decide((pair[0], n), (pair[1], m)) is not True
        )
    pump_sp = Ocn("S", ("p",), ("a",), (("p", "a", -1, "p"),))
    pump_dup = Ocn("D", ("q",), ("a", "tau"), (("q", "tau", 1, "q"), ("q", "a", -1, "q")))
    conv = converge_weak(pump_sp, pump_dup)
    weak_bad = [
        (n, m)
        for n in range(10)
        for m in range(10)
        if conv.decide(Config("p", n), Config("q", m)) is not True
    ]
    ok = not bad and not all_true and not weak_bad
    print(f"\nACCEPTANCE 2 (hand-derived laws): {'PASS' if ok else 'FAIL'} — "
          f"A-vs-A 50x50 exact, Z-vs-B / B-vs-Z / weak pumping all-true")
    assert bad == []
    assert all_true == []
    assert weak_bad == []


def test_criterion_3_slope_game_bounds(suite):
    ok = not suite.phase_bound_violations and not suite.slope_range_violations
    print(
        f"\nACCEPTANCE 3 (slope game bounds): {'PASS' if ok else 'FAIL'} — "
        f"phase counts within (K+1)^2 and boundary slopes within [0, K] "
        f"across {suite.instances} instances"
    )
    assert suite.phase_bound_violations == []
    assert suite.slope_range_violations == []


def test_criterion_4_belt_constant(suite):
    from ocnsim.core import build_product
    from ocnsim.slope_game import belt_constant

    a_vs_a = belt_constant(build_product(*normalize_pair(NET_A, NET_ACOPY)))
    ok = a_vs_a == 4 and not suite.belt_constant_mismatches
    print(
        f"\nACCEPTANCE 4 (belt constant): {'PASS' if ok else 'FAIL'} — "
        f"min(K*(K+1)^2, (scc+1)^2*scc + acyc) on every instance; A-vs-A c = {a_vs_a}"
    )
    assert a_vs_a == 4
    assert suite.belt_constant_mismatches == []


def test_criterion_5_geometry_lemmas(suite):
    rng = random.Random(99)
    checks = 0
    violations = 0
    while checks < 100_000:
        x, y = rng.randint(0, 6), rng.randint(0, 6)
        if (x, y) == (0, 0):
            continue
        s = Slope(x, y)
        c = rng.randint(0, 5)
        pt = (rng.randint(0, 1000), rng.randint(0, 1000))
        v = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        moved = (pt[0] + v[0], pt[1] + v[1])
        if moved[0] < 0 or moved[1] < 0:
            continue
        if is_behind(v, s):
            if c_below(pt, s, c) and not c_below(moved, s, c):
                violations += 1
        else:
            if c_above(pt, s, c) and not c_above(moved, s, c):
                violations += 1
        checks += 1
    ok = violations == 0 and not suite.monotonicity_violations
    print(
        f"\nACCEPTANCE 5 (geometry lemmas): {'PASS' if ok else 'FAIL'} — "
        f"{checks} translation checks, {suite.monotonicity_checks} monotone "
        f"representative pairs, {violations + len(suite.monotonicity_violations)} violations"
    )
    assert violations == 0
    assert suite.monotonicity_violations == []


def test_criterion_6_periodicity(suite):
    ok = not suite.expansion_mismatches and not suite.section_failures
    print(
        f"\nACCEPTANCE 6 (periodicity): {'PASS' if ok else 'FAIL'} — re-expanded "
        f"descriptions match recomputation two periods out; cross-sections "
        f"repeat with k <= 4 on every pair"
    )
    assert suite.expansion_mismatches == []
    assert suite.section_failures == []


def test_criterion_7_weak_simulation():
    mismatches = []
    table_failures = []
    for trial, (sp, dup) in enumerate(criterion_7_pairs(25)):
        conv = converge_weak(sp, dup)
        table = conv.table
        if not (
            all(v is None for v in table.rows[0].values())
            and all(d <= 1 for d in table.omega_drops().values())
            and conv.levels <= len(table.pairs) + 2
            and table.converged
        ):
            table_failures.append(trial)
        for q in sp.states[:1]:
            for q2 in dup.states[:1]:
                for n in range(0, 16, 3):
                    for m in range(0, 16, 3):
                        got = conv.decide(Config(q, n), Config(q2, m))
                        verdict = bounded_weak_round_winner(
                            (sp, dup), (Config(q, n), Config(q2, m)),
                            rounds=40, tau_cap=len(dup.states),
                        )
                        if got is False and not verdict.spoiler_wins:
                            # survival verdicts are inconclusive: deepen before
                            # calling it a discrepancy
                            verdict = bounded_weak_round_winner(
                                (sp, dup), (Config(q, n), Config(q2, m)),
                                rounds=160, tau_cap=len(dup.states),
                            )
                        if got != (not verdict.spoiler_wins):
                            mismatches.append((trial, q, q2, n, m))

    # tau-pumping hand examples
    pump_sp = Ocn("S", ("p",), ("a",), (("p", "a", -1, "p"),))
    pump_dup = Ocn("D", ("q",), ("a", "tau"), (("q", "tau", 1, "q"), ("q", "a", -1, "q")))
    hand_ok = decide_weak(pump_sp, pump_dup, Config("p", 5), Config("q", 0)).answer is True
    sp2 = Ocn("S", ("p",), ("a",), (("p", "a", 1, "p"),))
    dup2 = Ocn("D", ("q",), ("a", "tau"), (("q", "tau", -1, "q"), ("q", "a", 0, "q")))
    hand_ok &= decide_weak(sp2, dup2, Config("p", 0), Config("q", 0)).answer is True

    ok = not mismatches and not table_failures and hand_ok
    print(
        f"\nACCEPTANCE 7 (weak simulation): {'PASS' if ok else 'FAIL'} — "
        f"25 tau-acyclic instances vs the weak oracle, pumping examples, "
        f"sufficient-value invariants"
    )
    assert mismatches == []
    assert table_failures == []
    assert hand_ok


def test_criterion_8_cli_contract(tmp_path):
    import json
    from pathlib import Path

    from cli_runner import run
    from ocnsim.core import format_net, parse_net
    from nets import random_pair

    data = Path(__file__).parent / "data"
    golden = Path(__file__).parent / "golden"
    failures = []

    cases = [
        (["check", "--strong", str(data / "a.ocn"), str(data / "acopy.ocn"), "p:3", "q:5"], 0),
        (["check", "--strong", str(data / "a.ocn"), str(data / "acopy.ocn"), "p:5", "q:3"], 1),
    ]
    for args, code in cases:
        if run(*args).exit_code != code:
            failures.append(args)
    bad = tmp_path / "bad.ocn"
    bad.write_text("net X\nstates s\nactions a\ns a +2 s\n", encoding="utf-8")
    if run("check", str(bad), str(bad), "s:0", "s:0").exit_code != 64:
        failures.append("parse-exit")

    renders = [
        ("render_a_a.txt", ["render", "--pair", "p,q", "--max", "8", str(data / "a.ocn"), str(data / "acopy.ocn")]),
        ("render_z_b.txt", ["render", "--pair", "z,r", "--max", "8", str(data / "z.ocn"), str(data / "b.ocn")]),
        ("render_b_a.txt", ["render", "--pair", "r,p", "--max", "8", str(data / "b.ocn"), str(data / "a.ocn")]),
    ]
    for name, args in renders:
        res = run(*args)
        if res.output != (golden / name).read_text(encoding="utf-8"):
            failures.append(name)
    svg = tmp_path / "out.svg"
    run("render", "--pair", "p,q", "--max", "8", "--format", "svg",
        "--out", str(svg), str(data / "a.ocn"), str(data / "acopy.ocn"))
    if svg.read_bytes() != (golden / "render_a_a.svg").read_bytes():
        failures.append("svg")

    exports = [
        ("export_a_a.json", "a.ocn", "acopy.ocn"),
        ("export_z_b.json", "z.ocn", "b.ocn"),
        ("export_b_a.json", "b.ocn", "a.ocn"),
    ]
    for name, na, nb in exports:
        out = tmp_path / name
        res = run("export", "--out", str(out), str(data / na), str(data / nb))
        if res.exit_code != 0 or out.read_bytes() != (golden / name).read_bytes():
            failures.append(name)
        else:
            json.loads(out.read_text(encoding="utf-8"))

    for seed in range(20):
        net, _ = random_pair(seed)
        path = tmp_path / f"n{seed}.ocn"
        path.write_text(format_net(net), encoding="utf-8")
        res = run("print", str(path))
        if res.exit_code != 0 or parse_net(res.output) != net:
            failures.append(f"roundtrip-{seed}")

    ok = not failures
    print(f"\nACCEPTANCE 8 (CLI contract): {'PASS' if ok else 'FAIL'} — goldens, "
          f"exit codes, 20-file round-trip")
    assert failures == []
