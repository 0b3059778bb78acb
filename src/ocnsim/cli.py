"""Command line front end: parse nets, decide simulation, render and export.

Exit codes: 0 = simulated, 1 = not simulated, 2 = undecided at the resource
caps (running out of recursion depth or memory counts as a cap), 64 = input
parse error or command line usage error (EX_USAGE), 70 = internal error.
`main` owns them. The parser exits 64 on a bad option value, an unknown option
or a missing argument. Running out of recursion depth or memory exits 2
(`check` prints its normal `undecided` verdict, the others one line on
stderr), and any other exception escaping a command prints one line on stderr
and exits 70. An interrupt is not caught: it ends the process by SIGINT, never
with a verdict's code.
"""

from __future__ import annotations

import argparse
import codecs
import json
import sys
import time
from pathlib import Path

from .coloring import EngineLimits, StrongSimEngine
from .core import Config, Ocn, ParseError, format_net, parse_net

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64
EXIT_INTERNAL = 70


def _at_least(low: int):
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is less than {low}")
        return int(text)

    return integer


NATURAL = _at_least(0)
POSITIVE = _at_least(1)


def _load_net(path: str) -> Ocn:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    try:
        return parse_net(text, name_hint=Path(path).stem)
    except ParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)


def _parse_config(literal: str, net: Ocn, path: str) -> Config:
    # state names may contain colons; the counter follows the last one
    state, sep, counter = literal.rpartition(":")
    if not sep or not (counter.isascii() and counter.isdigit()):
        print(f"bad configuration literal {literal!r}, want state:counter", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    if state not in net.states:
        print(f"state {state!r} not in net {net.name} ({path})", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    try:
        value = int(counter)
    except ValueError:
        print(
            f"counter of state {state!r} has {len(counter)} digits, "
            f"at most {sys.get_int_max_str_digits()} allowed",
            file=sys.stderr,
        )
        sys.exit(EXIT_PARSE)
    return Config(state, value)


def _split_pair(item: str, spoiler: Ocn, duplicator: Ocn) -> tuple[str, str] | None:
    """The state pair `q,q'` names: state names may contain commas, so it
    splits at the one comma with a Spoiler state left of it and a Duplicator
    state right of it, and is None when no comma or more than one does."""
    splits = [
        (item[:i], item[i + 1 :])
        for i, ch in enumerate(item)
        if ch == "," and item[:i] in spoiler.states and item[i + 1 :] in duplicator.states
    ]
    return splits[0] if len(splits) == 1 else None


def _split_pairs(text: str, spoiler: Ocn, duplicator: Ocn) -> list[tuple[str, str]] | None:
    """The state pairs `q,q';...` names: state names may contain semicolons
    too, so it splits at the semicolons that leave every item a pair
    `_split_pair` accepts, and is None when no set of them or more than one
    does."""
    cuts = [-1, *(i for i, ch in enumerate(text) if ch == ";"), len(text)]
    # an item spans at most this many semicolons: its two states'
    most = max(q.count(";") for q in spoiler.states) + max(q.count(";") for q in duplicator.states)
    # per cut: the ways, at most two, to split the text before it
    ways: list[list[list[tuple[str, str]]]] = [[[]]]
    for c in range(1, len(cuts)):
        found = []
        for b in range(max(0, c - 1 - most), c):
            pair = _split_pair(text[cuts[b] + 1 : cuts[c]], spoiler, duplicator) if ways[b] else None
            if pair is not None:
                found.extend(head + [pair] for head in ways[b])
        ways.append(found[:2])
    return ways[-1][0] if len(ways[-1]) == 1 else None


def check(mode, tau, as_json, max_depth, max_period, max_rect, dump_dir,
          net_a, net_b, conf_a, conf_b):
    """Decide whether CONF_A of NET_A is simulated by CONF_B of NET_B."""
    spoiler = _load_net(net_a)
    duplicator = _load_net(net_b)
    left = _parse_config(conf_a, spoiler, net_a)
    right = _parse_config(conf_b, duplicator, net_b)
    k_schedule = tuple(k for k in EngineLimits.k_schedule if k <= max_period)
    limits = EngineLimits(k_schedule, spoiler_depth_cap=max_depth, max_rect=max_rect)
    started = time.monotonic()
    j = k = None
    belts_used = 0
    engine = None
    try:
        if mode == "strong":
            engine = StrongSimEngine(spoiler, duplicator, limits)
            answer = engine.decide(left, right)
        else:
            from .weaksim import converge_weak  # imported here: strong checks skip it
            conv = converge_weak(spoiler, duplicator, tau=tau, limits=limits)
            engine = conv.engine
            answer = conv.decide(left, right)
            if dump_dir is not None:
                out_dir = Path(dump_dir)
                out_dir.mkdir(parents=True, exist_ok=True)
                for nets in conv.approximants:
                    (out_dir / f"level{nets.level}_spoiler.ocn").write_text(
                        format_net(nets.spoiler), encoding="utf-8"
                    )
                    (out_dir / f"level{nets.level}_duplicator.ocn").write_text(
                        format_net(nets.duplicator), encoding="utf-8"
                    )
    except (RecursionError, MemoryError):
        answer = None  # out of stack or memory: a resource cap, not a verdict
    if engine is not None:
        belts_used = engine.product.K
        col = next((c for c in engine.colorings.values() if c is not None and c.certified_yes), None)
        if col is not None:
            geo = next(iter(col.geometry.values()))
            j, k = geo.j, geo.k
    elapsed_ms = int((time.monotonic() - started) * 1000)
    verdict = {True: "true", False: "false", None: "undecided"}[answer]
    if as_json:
        print(json.dumps({
            "schema": 1,
            "verdict": verdict,
            "pair": {"left": f"{left.state}:{left.counter}", "right": f"{right.state}:{right.counter}"},
            "belts_used": belts_used,
            "j": j,
            "k": k,
            "elapsed_ms": elapsed_ms,
        }))
    else:
        print(f"simulated: {verdict}")
    return {True: EXIT_TRUE, False: EXIT_FALSE, None: EXIT_UNDECIDED}[answer]


def belts(as_json, net_a, net_b):
    """Print each state pair's boundary slope and belt width."""
    spoiler = _load_net(net_a)
    duplicator = _load_net(net_b)
    engine = StrongSimEngine(spoiler, duplicator)
    rows = [
        {
            "q": b.pair[0],
            "q'": b.pair[1],
            "slope": [b.slope.rho, b.slope.rho_prime],
            "c": b.c,
            "vertical": b.vertical,
        }
        for b in engine.belts()
    ]
    if as_json:
        print(json.dumps({"schema": 1, "c_global": engine.c_global, "pairs": rows}))
        return
    print(f"{'q':<12} {'q_prime':<12} {'slope':<8} {'c':<5} vertical")
    for r in rows:
        q, q2 = r["q"], r["q'"]
        slope = f"[{r['slope'][0]},{r['slope'][1]}]"
        vertical = "yes" if r["vertical"] else "no"
        print(f"{q:<12} {q2:<12} {slope:<8} {r['c']:<5} {vertical}")


def _render_ascii(engine: StrongSimEngine, pair, size: int) -> str:
    rows = []
    for m in range(size - 1, -1, -1):
        cells = []
        for n in range(size):
            v = engine.decide((pair[0], n), (pair[1], m))
            cells.append("#" if v else "." if v is False else "?")
        rows.append("".join(cells))
    return "\n".join(rows) + "\n"


def _render_svg(engine: StrongSimEngine, pair, size: int) -> str:
    cell = 10
    span = size * cell
    belt = next(b for b in engine.belts() if b.pair == pair)
    # trivially simulated zone, trivially excluded zone, belt strip
    zone_fill = {True: "#d8f0d8", False: "#f0d8d8", None: "#d8e4f4"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{span}" height="{span}" viewBox="0 0 {span} {span}">',
        f'<rect width="{span}" height="{span}" fill="white"/>',
    ]
    for n in range(size):
        for m in range(size):
            fill = zone_fill[belt.zone((n, m))]
            x = n * cell
            y = (size - 1 - m) * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}"/>')
    for n in range(size):
        for m in range(size):
            v = engine.decide((pair[0], n), (pair[1], m))
            if v:
                x = n * cell + cell // 2
                y = (size - 1 - m) * cell + cell // 2
                parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#264d73"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(pair_opt, size, fmt, out, net_a, net_b):
    """Render the simulation coloring of one state pair as a grid."""
    spoiler = _load_net(net_a)
    duplicator = _load_net(net_b)
    pair = _split_pair(pair_opt, spoiler, duplicator)
    if pair is None:
        print(f"bad --pair {pair_opt!r}", file=sys.stderr)
        sys.exit(EXIT_PARSE)
    engine = StrongSimEngine(spoiler, duplicator)
    text = (_render_ascii if fmt == "ascii" else _render_svg)(engine, pair, size)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def export(out, pairs_opt, net_a, net_b):
    """Write the semilinear description of the simulation relation as JSON."""
    spoiler = _load_net(net_a)
    duplicator = _load_net(net_b)
    keep = None
    if pairs_opt:
        pairs = _split_pairs(pairs_opt, spoiler, duplicator)
        if pairs is None:
            # name the first item a split at every semicolon rejects
            bad = [item for item in pairs_opt.split(";") if not _split_pair(item, spoiler, duplicator)]
            print(f"bad --pairs item {bad[0]!r}" if bad else f"ambiguous --pairs {pairs_opt!r}",
                  file=sys.stderr)
            sys.exit(EXIT_PARSE)
        keep = set(pairs)
    engine = StrongSimEngine(spoiler, duplicator)
    col = engine.certified_coloring()
    if col is None:
        print("undecided: no certified coloring within the caps", file=sys.stderr)
        return EXIT_UNDECIDED
    obj = col.to_json_obj()
    if keep is not None:
        obj["pairs"] = [p for p in obj["pairs"] if (p["q"], p["q'"]) in keep]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "l0": %s, "pairs": [' % json.dumps(obj["l0"]))
        for i, p in enumerate(obj["pairs"]):
            fh.write(("," if i else "") + "\n" + json.dumps(p, sort_keys=True))
        fh.write("\n]}\n")


def oracle(rounds, weak, tau, tau_cap, as_json, net_a, net_b, conf_a, conf_b):
    """Run the brute-force bounded-round game oracle."""
    from .oracle import bounded_round_winner, bounded_weak_round_winner

    spoiler = _load_net(net_a)
    duplicator = _load_net(net_b)
    left = _parse_config(conf_a, spoiler, net_a)
    right = _parse_config(conf_b, duplicator, net_b)
    if weak:
        verdict = bounded_weak_round_winner(
            (spoiler, duplicator), (left, right), rounds, tau_cap, tau
        )
    else:
        verdict = bounded_round_winner((spoiler, duplicator), (left, right), rounds)
    if as_json:
        print(json.dumps({
            "schema": 1,
            "spoiler_wins": verdict.spoiler_wins,
            "rounds": verdict.rounds,
        }))
    else:
        kind = "spoiler_wins_within" if verdict.spoiler_wins else "duplicator_survives"
        print(f"{kind}: {verdict.rounds}")


def print_net(net_a):
    """Parse a net file and print its canonical form (round-trip check)."""
    sys.stdout.write(format_net(_load_net(net_a)))


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error, where argparse exits 2, which would read as
    `undecided`.  Takes no abbreviated option and no `-h`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _parser() -> _Parser:
    parser = _Parser(prog="ocnsim", description=main.__doc__)
    commands = parser.add_subparsers(required=True, metavar="COMMAND")

    def command(run, *arguments: str, name: str | None = None) -> _Parser:
        sub = commands.add_parser(name or run.__name__, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        for arg in arguments:
            sub.add_argument(arg, metavar=arg.upper())
        return sub

    sub = command(check, "net_a", "net_b", "conf_a", "conf_b")
    sub.add_argument("--strong", dest="mode", action="store_const", const="strong", default="strong")
    sub.add_argument("--weak", dest="mode", action="store_const", const="weak")
    sub.add_argument("--tau", default="tau", help="internal action for --weak (default: %(default)s)")
    sub.add_argument("--json", dest="as_json", action="store_true", help="machine-readable verdict")
    sub.add_argument("--max-depth", type=NATURAL, default=EngineLimits.spoiler_depth_cap,
                     help="bounded Spoiler search cap (default: %(default)s)")
    sub.add_argument("--max-period", type=POSITIVE, default=max(EngineLimits.k_schedule),
                     help="largest period k to try (default: %(default)s)")
    sub.add_argument("--max-rect", type=NATURAL, default=EngineLimits.max_rect,
                     help="largest window rectangle (default: %(default)s)")
    sub.add_argument("--dump-approximants", dest="dump_dir",
                     help="write each weak level's approximant net pair into this directory")

    sub = command(belts, "net_a", "net_b")
    sub.add_argument("--json", dest="as_json", action="store_true")

    sub = command(render, "net_a", "net_b")
    sub.add_argument("--pair", dest="pair_opt", required=True, help="state pair q,q'")
    sub.add_argument("--max", dest="size", type=POSITIVE, default=16, help="(default: %(default)s)")
    sub.add_argument("--format", dest="fmt", choices=["ascii", "svg"], default="ascii")
    sub.add_argument("--out", help="output file (default stdout)")

    sub = command(export, "net_a", "net_b")
    sub.add_argument("--out", required=True)
    sub.add_argument("--pairs", dest="pairs_opt", help="semicolon-separated q,q' filters")

    sub = command(oracle, "net_a", "net_b", "conf_a", "conf_b")
    sub.add_argument("--rounds", type=NATURAL, default=32, help="(default: %(default)s)")
    sub.add_argument("--weak", action="store_true")
    sub.add_argument("--tau", default="tau", help="(default: %(default)s)")
    sub.add_argument("--tau-cap", type=NATURAL, default=4, help="(default: %(default)s)")
    sub.add_argument("--json", dest="as_json", action="store_true")

    command(print_net, "net_a", name="print")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Decide strong and weak simulation preorder between one-counter nets."""
    for stream in (sys.stdout, sys.stderr):
        # an ASCII stream would fail on the first non-ASCII state name
        if codecs.lookup(stream.encoding or "utf-8").name == "ascii":
            stream.reconfigure(encoding="utf-8", errors="replace")
    options = vars(_parser().parse_args(argv))
    run = options.pop("run")
    try:
        code = run(**options)
    except Exception as exc:
        cap = isinstance(exc, (RecursionError, MemoryError))
        code, label = (EXIT_UNDECIDED, "undecided") if cap else (EXIT_INTERNAL, "internal error")
        message = f"{label}: {type(exc).__name__}: {exc}"
        print(" ".join(message.split()), file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
