import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ocnsim
from cli_runner import run
from nets import random_pair
from ocnsim.cli import EXIT_INTERNAL
from ocnsim.coloring import StrongSimEngine
from ocnsim.core import Config, format_net, parse_net
from ocnsim.oracle import bounded_round_winner

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

A = str(DATA / "a.ocn")
ACOPY = str(DATA / "acopy.ocn")
Z = str(DATA / "z.ocn")
B = str(DATA / "b.ocn")


def run_python(code, *args, **env):
    """`python -c code args` in a fresh interpreter that imports this ocnsim."""
    env = {**os.environ, "PYTHONPATH": str(Path(ocnsim.__file__).parents[1]), **env}
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, encoding="utf-8", env=env,
        timeout=120,
    )


def test_check_true_exit_zero():
    res = run("check", "--strong", A, ACOPY, "p:3", "q:5")
    assert res.exit_code == 0
    assert "simulated: true" in res.output


def test_check_false_exit_one():
    res = run("check", "--strong", A, ACOPY, "p:5", "q:3")
    assert res.exit_code == 1
    assert "simulated: false" in res.output


def test_check_json_schema():
    res = run("check", "--strong", "--json", A, ACOPY, "p:3", "q:5")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["schema"] == 1
    assert obj["verdict"] == "true"
    assert obj["pair"] == {"left": "p:3", "right": "q:5"}
    assert isinstance(obj["elapsed_ms"], int)
    assert obj["j"] is not None and obj["k"] is not None
    # a zone answer builds no coloring, so it reports none
    obj = json.loads(run("check", "--json", A, ACOPY, "p:0", "q:100").output)
    assert obj["verdict"] == "true" and obj["j"] is None and obj["k"] is None
    # a belt point builds round 0's coloring even when the attractor refutes it
    res = run("check", "--json", A, ACOPY, "p:5", "q:4")
    obj = json.loads(res.output)
    assert res.exit_code == 1
    assert (obj["verdict"], obj["j"], obj["k"]) == ("false", 27, 1)


def test_check_weak():
    res = run("check", "--weak", A, ACOPY, "p:3", "q:5")
    assert res.exit_code == 0
    # --json reports the converged approximant engine, which without tau
    # answers as the strong one does: one belt, certified at (j, k) = (27, 1)
    for mode in ("--weak", "--strong"):
        obj = json.loads(run("check", mode, "--json", A, ACOPY, "p:3", "q:5").output)
        assert (obj["verdict"], obj["belts_used"], obj["j"], obj["k"]) == ("true", 1, 27, 1)


def test_check_parse_error_names_line():
    bad = DATA / "bad_delta.ocn"
    bad.write_text("net X\nstates s\nactions a\ns a +2 s\n", encoding="utf-8")
    try:
        res = run("check", str(bad), str(bad), "s:0", "s:0")
        assert res.exit_code == 64
        assert "line 4" in res.output
    finally:
        bad.unlink()


def _raising_decide(monkeypatch, exc):
    def decide(self, left, right):
        raise exc("broken\ninvariant")

    monkeypatch.setattr(StrongSimEngine, "decide", decide)


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_check_resource_exhaustion_is_undecided(monkeypatch, exc):
    _raising_decide(monkeypatch, exc)
    res = run("check", "--json", A, ACOPY, "p:3", "q:5")
    assert res.exit_code == 2
    obj = json.loads(res.stdout)
    assert obj["verdict"] == "undecided" and obj["j"] is None
    res = run("check", A, ACOPY, "p:3", "q:5")
    assert res.exit_code == 2
    assert res.stdout == "simulated: undecided\n"


@pytest.mark.parametrize("exc", [RuntimeError, ValueError, KeyError])
def test_check_internal_error_exit_70(monkeypatch, exc):
    _raising_decide(monkeypatch, exc)
    for flags in ((), ("--json",)):
        res = run("check", *flags, A, ACOPY, "p:3", "q:5")
        assert res.exit_code == EXIT_INTERNAL == 70
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        assert exc.__name__ in res.stderr
    assert run("check", A, ACOPY, "p:x", "q:5").exit_code == 64


@pytest.mark.parametrize("exc,code", [(RuntimeError, 70), (RecursionError, 2), (MemoryError, 2)])
@pytest.mark.parametrize(
    "method,args",
    [
        ("decide", ("render", "--pair", "p,q", "--max", "4", A, ACOPY)),
        # `belts` calls nothing of the engine but its constructor; the id
        # keeps the command's name
        pytest.param("__init__", ("belts", A, ACOPY), id="belts-args1"),
        ("certified_coloring", ("export", "--out", "OUT", A, ACOPY)),
    ],
)
def test_every_command_maps_internal_errors(monkeypatch, tmp_path, method, args, exc, code):
    def broken(self, *_):
        raise exc("broken\ninvariant")

    monkeypatch.setattr(StrongSimEngine, method, broken)
    out = tmp_path / "out.json"
    res = run(*(str(out) if a == "OUT" else a for a in args))
    assert res.exit_code == code
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert exc.__name__ in res.stderr
    assert not out.exists()


CUT_NETS = (
    "net S\nstates s0 s1 s2\nactions a b e\ns0 a -1 s2\ns2 b +1 s1\ns1 e -1 s0\n",
    "net D\nstates d0 d1 d2\nactions a b e\nd0 a 0 d2\nd2 b -1 d1\nd1 e -1 d0\n",
)


@pytest.mark.parametrize("counter", [30, 9])
def test_rect_cut_below_j0_is_never_a_crash(tmp_path, counter):
    # `--max-rect 3` cuts every round's window below the engine's j0, and
    # there a wrap left the window: each such round is a resource cap, so
    # the check answers from the attractor, never exit 70.  Spoiler wins
    # from counter 30 in 47 rounds, which round 1's search, 64 deep, finds
    files = [tmp_path / "s.ocn", tmp_path / "d.ocn"]
    for path, text in zip(files, CUT_NETS):
        path.write_text(text, encoding="utf-8")
    confs = (f"s0:{counter}", f"d0:{counter}")
    res = run("check", "--json", "--max-rect", "3", *map(str, files), *confs)
    verdict = json.loads(res.stdout)["verdict"]
    assert (res.exit_code, verdict) == (1, "false"), res.output
    nets = tuple(map(parse_net, CUT_NETS))
    pos = (Config("s0", counter), Config("d0", counter))
    assert bounded_round_winner(nets, pos, 64 if counter == 30 else 32).spoiler_wins


def test_check_limit_flags():
    res = run("check", "--json", "--max-rect", "10", A, ACOPY, "p:3", "q:5")
    assert res.exit_code == 0 and json.loads(res.output)["j"] == 10
    # a depth cap of 1 cannot confirm the Spoiler win the default finds
    # (test_check_false_exit_one)
    res = run("check", "--max-depth", "1", A, ACOPY, "p:5", "q:3")
    assert res.exit_code == 2 and res.output == "simulated: undecided\n"
    res = run("check", "--json", "--max-period", "1", A, ACOPY, "p:3", "q:5")
    assert res.exit_code == 0 and json.loads(res.output)["k"] == 1


@pytest.mark.parametrize(
    "args",
    [
        ("check", "--max-rect", "abc", A, ACOPY, "p:3", "q:5"),
        ("check", A, ACOPY, "p:3"),
        ("check", "--bogus", A, ACOPY, "p:3", "q:5"),
        ("check", "--json", "--max-rect", "-3", A, ACOPY, "p:3", "q:5"),
        ("check", "--max-depth", "-1", A, ACOPY, "p:5", "q:3"),
        ("check", "--max-period", "0", A, ACOPY, "p:3", "q:5"),
        ("oracle", "--rounds", "-1", A, ACOPY, "p:3", "q:5"),
        ("oracle", "--weak", "--tau-cap", "-1", A, ACOPY, "p:3", "q:5"),
        ("render", "--pair", "p,q", "--max", "0", A, ACOPY),
        ("no-such-command", A),
        ("--bogus",),
        (),
        ("check", "--max-d", "1", A, ACOPY, "p:3", "q:5"),
    ],
)
def test_usage_errors_exit_64(args):
    # exit 2 would read as "undecided", and a negative limit as a verdict
    res = run(*args)
    assert res.exit_code == 64
    assert res.stdout == ""
    assert res.stderr.startswith("usage:")


@pytest.mark.parametrize("args", [("--help",), ("check", "--help")])
def test_help_exits_zero(args):
    res = run(*args)
    assert res.exit_code == 0
    assert res.stdout.startswith("usage: ocnsim")
    assert res.stderr == ""


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_interrupted_check_is_no_verdict(flags):
    # a KeyboardInterrupt raised inside pytest would end the session, so the
    # interrupted check runs in its own interpreter
    code = (
        "import sys\n"
        "from ocnsim.cli import main\n"
        "from ocnsim.coloring import StrongSimEngine\n"
        "def decide(self, left, right):\n"
        "    raise KeyboardInterrupt\n"
        "StrongSimEngine.decide = decide\n"
        "main(sys.argv[1:])\n"
    )
    proc = run_python(code, "check", *flags, A, ACOPY, "p:3", "q:5")
    assert proc.returncode not in (0, 1, 2)
    assert "simulated" not in proc.stdout and "verdict" not in proc.stdout


def test_non_ascii_state_on_an_ascii_stream(tmp_path):
    net = tmp_path / "sharp_s.ocn"
    net.write_text("net S\nstates \u00df\nactions a\n\u00df a -1 \u00df\n", encoding="utf-8")
    code = "from ocnsim.cli import main; main()"
    proc = run_python(code, "belts", str(net), ACOPY, PYTHONIOENCODING="ascii")
    assert proc.returncode == 0, proc.stderr
    assert "\u00df" in proc.stdout


def test_cli_imports_no_click():
    proc = run_python("import sys, ocnsim.cli; print('click' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n"


def test_imports_load_no_dataclasses():
    # -S keeps site packages from importing either module themselves
    code = (
        "import sys, ocnsim.cli, ocnsim.weaksim, ocnsim.oracle, ocnsim.quotient, ocnsim.attractor\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ocnsim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, encoding="utf-8", env=env,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


LAYERS = ("ocnsim.quotient", "ocnsim.attractor")


@pytest.mark.parametrize(
    "conf_a,conf_b,j,loaded",
    [
        ("p:0", "q:40", None, []),  # a zone answers
        ("p:3", "q:5", 27, ["ocnsim.quotient"]),  # round 0's coloring answers
        ("p:10", "q:9", 27, sorted(LAYERS)),  # a Spoiler win answers
    ],
)
def test_check_loads_the_belt_layers_on_a_belt_query(conf_a, conf_b, j, loaded):
    code = (
        "import json, sys\n"
        "from ocnsim.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print(json.dumps(sorted(sys.modules.keys() & {set(LAYERS)!r})))\n"
    )
    proc = run_python(code, "check", "--json", A, ACOPY, conf_a, conf_b)
    assert proc.stdout.count("\n") == 2, proc.stderr
    verdict, layers = proc.stdout.splitlines()
    assert json.loads(verdict)["j"] == j
    assert json.loads(layers) == loaded


@pytest.mark.parametrize(
    "code",
    [
        "import ocnsim\nnames = {name: getattr(ocnsim, name) for name in ocnsim.__all__}\n",
        "from ocnsim import *\nimport ocnsim\nnames = {name: globals()[name] for name in ocnsim.__all__}\n",
    ],
)
def test_package_names_resolve_in_a_fresh_process(code):
    # `QuotientColoring` and `verify_coloring` load their layer on first access
    proc = run_python(f"{code}print(len(names) == len(ocnsim.__all__), hasattr(ocnsim, 'nope'))")
    assert proc.returncode == 0 and proc.stdout == "True False\n", proc.stderr


def test_coloring_serves_the_moved_layers_under_their_old_names():
    # the names `bench/tracing.py` imports from `ocnsim.coloring`
    from ocnsim import attractor, coloring, quotient

    assert coloring.QuotientColoring is quotient.QuotientColoring
    assert coloring.SpoilerAttractor is attractor.SpoilerAttractor
    assert ocnsim.QuotientColoring is quotient.QuotientColoring
    assert ocnsim.verify_coloring is quotient.verify_coloring
    with pytest.raises(AttributeError):
        coloring.nope


def test_undecodable_net_file_exits_64(tmp_path):
    bad = tmp_path / "bad.ocn"
    bad.write_bytes(b"net X\nstates s\xff\n")
    res = run("check", str(bad), ACOPY, "s:0", "q:0")
    assert res.exit_code == 64
    assert res.stdout == ""
    assert str(bad) in res.stderr


@pytest.mark.parametrize("counter", ["\u00b2", "\u0663", "+1", "-1", " 1", ""])
def test_counter_must_be_ascii_digits(counter):
    res = run("check", A, ACOPY, f"p:{counter}", "q:1")
    assert res.exit_code == 64
    assert "bad configuration literal" in res.stderr


def test_overlong_counter_exits_64():
    limit = sys.get_int_max_str_digits()
    res = run("check", A, ACOPY, "p:" + "1" * (limit + 700), "q:1")
    assert res.exit_code == 64
    assert res.stdout == ""
    assert str(limit) in res.stderr and len(res.stderr.splitlines()) == 1


def test_state_name_with_colon(tmp_path):
    net = tmp_path / "colon.ocn"
    net.write_text("net C\nstates s:0\nactions a\ns:0 a -1 s:0\n", encoding="utf-8")
    res = run("check", str(net), ACOPY, "s:0:3", "q:5")
    assert res.exit_code == 0
    assert res.output == "simulated: true\n"
    res = run("check", str(net), ACOPY, "s:0:5", "q:3")
    assert res.exit_code == 1


def test_long_acyclic_chain_is_never_a_crash(tmp_path):
    # 600 control states in a row drive the slope-game recursion past the
    # interpreter's stack limit; that must read as a cap, not as "false"
    chain = tmp_path / "chain.ocn"
    chain.write_text(
        "net Chain\nstates " + " ".join(f"s{i}" for i in range(600)) + "\nactions a\n"
        + "".join(f"s{i} a 0 s{i + 1}\n" for i in range(599)),
        encoding="utf-8",
    )
    loop = tmp_path / "loop.ocn"
    loop.write_text("net Loop\nstates d\nactions a\nd a 0 d\n", encoding="utf-8")
    res = run("check", "--json", str(chain), str(loop), "s0:0", "d:0")
    verdict = json.loads(res.stdout)["verdict"]
    assert (verdict, res.exit_code) in {("true", 0), ("undecided", 2)}


def test_check_binary_magnitude_counters():
    res = run("check", "--strong", A, ACOPY, f"p:{10**12}", f"q:{10**12 + 5}")
    assert res.exit_code == 0


def test_belts_table_and_json():
    res = run("belts", A, ACOPY)
    assert res.exit_code == 0
    assert "[1,1]" in res.output
    res = run("belts", "--json", Z, B)
    obj = json.loads(res.output)
    assert obj["schema"] == 1
    row = obj["pairs"][0]
    assert row["q"] == "z" and row["q'"] == "r"
    assert row["slope"] == [1, 0] and row["vertical"] is False


def test_belts_vertical_pair():
    res = run("belts", "--json", B, A)
    obj = json.loads(res.output)
    row = obj["pairs"][0]
    assert row["slope"] == [0, 1] and row["vertical"] is True


@pytest.mark.parametrize(
    "golden,args",
    [
        ("render_a_a.txt", ("render", "--pair", "p,q", "--max", "8", A, ACOPY)),
        ("render_z_b.txt", ("render", "--pair", "z,r", "--max", "8", Z, B)),
        ("render_b_a.txt", ("render", "--pair", "r,p", "--max", "8", B, A)),
    ],
)
def test_render_golden(golden, args):
    res = run(*args)
    assert res.exit_code == 0
    assert res.output == (GOLDEN / golden).read_text(encoding="utf-8")


def test_render_svg_golden(tmp_path):
    out = tmp_path / "out.svg"
    res = run("render", "--pair", "p,q", "--max", "8", "--format", "svg",
              "--out", str(out), A, ACOPY)
    assert res.exit_code == 0
    assert out.read_bytes() == (GOLDEN / "render_a_a.svg").read_bytes()
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<svg xmlns=")
    assert 'version="1.1"' in text


def test_render_deterministic(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"r{i}.txt"
        run("render", "--pair", "p,q", "--max", "12", "--out", str(out), A, ACOPY)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "golden,net_a,net_b",
    [
        ("export_a_a.json", A, ACOPY),
        ("export_z_b.json", Z, B),
        ("export_b_a.json", B, A),
    ],
)
def test_export_golden(golden, net_a, net_b, tmp_path):
    out = tmp_path / "out.json"
    res = run("export", "--out", str(out), net_a, net_b)
    assert res.exit_code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["schema"] == 1


def test_export_pairs_filter(tmp_path):
    out = tmp_path / "out.json"
    res = run("export", "--out", str(out), "--pairs", "p,q", A, ACOPY)
    assert res.exit_code == 0
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert [(p["q"], p["q'"]) for p in obj["pairs"]] == [("p", "q")]


def test_print_roundtrip_files():
    for path in (A, ACOPY, Z, B):
        res = run("print", path)
        assert res.exit_code == 0
        assert parse_net(res.output) == parse_net(Path(path).read_text(encoding="utf-8"))


def test_roundtrip_corpus_twenty_files(tmp_path):
    for seed in range(20):
        net, _ = random_pair(seed)
        path = tmp_path / f"n{seed}.ocn"
        path.write_text(format_net(net), encoding="utf-8")
        res = run("print", str(path))
        assert res.exit_code == 0
        assert parse_net(res.output) == net


def test_oracle_subcommand():
    res = run("oracle", A, ACOPY, "p:1", "q:0", "--rounds", "2")
    assert res.exit_code == 0
    assert "spoiler_wins_within" in res.output
    res = run("oracle", "--json", A, ACOPY, "p:0", "q:0", "--rounds", "4")
    obj = json.loads(res.output)
    assert obj["spoiler_wins"] is False


def test_bad_pair_option():
    res = run("render", "--pair", "nope", A, ACOPY)
    assert res.exit_code == 64


@pytest.mark.parametrize("dup_states,code", [("q", 0), ("q y,q", 64)])
def test_pair_options_split_at_the_comma_between_two_states(tmp_path, dup_states, code):
    # state names may contain commas: `x,y,q` names the pair (x,y, q) while
    # q is the only Duplicator state it can end in, and is ambiguous once
    # y,q is a Duplicator state too, since (x, y,q) is then a pair as well
    sp, dup = tmp_path / "sp.ocn", tmp_path / "dup.ocn"
    sp.write_text("net S\nstates x,y x\nactions a\nx,y a 0 x,y\nx a 0 x\n", encoding="utf-8")
    loops = "".join(f"{q} a 0 {q}\n" for q in dup_states.split())
    dup.write_text(f"net D\nstates {dup_states}\nactions a\n{loops}", encoding="utf-8")
    res = run("render", "--pair", "x,y,q", "--max", "2", str(sp), str(dup))
    assert res.exit_code == code, res.stderr
    out = tmp_path / "out.json"
    res = run("export", "--out", str(out), "--pairs", "x,y,q", str(sp), str(dup))
    assert res.exit_code == code, res.stderr
    if code == 0:
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert [(p["q"], p["q'"]) for p in obj["pairs"]] == [("x,y", "q")]
    else:
        assert "bad --pairs item 'x,y,q'" in res.stderr


@pytest.mark.parametrize(
    "sp_states,pairs,kept",
    [
        ("a;b a", "a;b,q", [("a;b", "q")]),
        ("a;b a", "a,q;a;b,q", [("a", "q"), ("a;b", "q")]),
        # (p, q) and (p, q) again, or (p,q;p, q): two splits name pairs
        ("p p,q;p", "p,q;p,q", None),
    ],
)
def test_export_pairs_split_at_the_semicolons_between_pairs(tmp_path, sp_states, pairs, kept):
    # state names may contain semicolons: the option splits only where every
    # item names a pair, and must split so in exactly one way
    sp, dup = tmp_path / "sp.ocn", tmp_path / "dup.ocn"
    loops = "".join(f"{s} a 0 {s}\n" for s in sp_states.split())
    sp.write_text(f"net S\nstates {sp_states}\nactions a\n{loops}", encoding="utf-8")
    dup.write_text("net D\nstates q\nactions a\nq a 0 q\n", encoding="utf-8")
    out = tmp_path / "out.json"
    res = run("export", "--out", str(out), "--pairs", pairs, str(sp), str(dup))
    if kept is None:
        assert res.exit_code == 64
        assert f"ambiguous --pairs {pairs!r}" in res.stderr
        assert not out.exists()
    else:
        assert res.exit_code == 0, res.stderr
        obj = json.loads(out.read_text(encoding="utf-8"))
        assert [(p["q"], p["q'"]) for p in obj["pairs"]] == kept


@pytest.mark.parametrize("pairs", ["nope,zz", "p,zz", "p,q;nope,q"])
def test_export_rejects_unknown_pairs(tmp_path, pairs):
    out = tmp_path / "out.json"
    res = run("export", "--out", str(out), "--pairs", pairs, A, ACOPY)
    assert res.exit_code == 64
    assert "bad --pairs item" in res.stderr
    assert not out.exists()
