"""Command line front end: parse nets, decide simulation, render and export.

Exit codes: 0 = simulated, 1 = not simulated, 2 = undecided at the resource
caps (running out of recursion depth or memory counts as a cap), 64 = input
parse error or command line usage error (EX_USAGE), 70 = internal error.
Every command keeps to them: a bad option value or a missing argument exits
64, running out of recursion depth or memory exits 2 (`check` prints its
normal `undecided` verdict, the others one line on stderr), and any other
internal exception prints one line on stderr and exits 70.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from .coloring import EngineLimits, StrongSimEngine
from .core import Config, Ocn, ParseError, format_net, parse_net

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64
EXIT_INTERNAL = 70

NATURAL = click.IntRange(min=0)
POSITIVE = click.IntRange(min=1)


def _load_net(path: str) -> Ocn:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        click.echo(f"{path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    try:
        return parse_net(text, name_hint=Path(path).stem)
    except ParseError as exc:
        click.echo(f"{path}: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _parse_config(literal: str, net: Ocn, path: str) -> Config:
    # state names may contain colons; the counter follows the last one
    state, sep, counter = literal.rpartition(":")
    if not sep or not (counter.isascii() and counter.isdigit()):
        click.echo(f"bad configuration literal {literal!r}, want state:counter", err=True)
        sys.exit(EXIT_PARSE)
    if state not in net.states:
        click.echo(f"state {state!r} not in net {net.name} ({path})", err=True)
        sys.exit(EXIT_PARSE)
    try:
        value = int(counter)
    except ValueError:
        click.echo(
            f"counter of state {state!r} has {len(counter)} digits, "
            f"at most {sys.get_int_max_str_digits()} allowed",
            err=True,
        )
        sys.exit(EXIT_PARSE)
    return Config(state, value)


def _exit_with(code: int, label: str, exc: BaseException) -> None:
    message = f"{label}: {type(exc).__name__}: {exc}"
    click.echo(" ".join(message.split()), err=True)
    sys.exit(code)


class _Commands(click.Group):
    """Maps an exception escaping any command to one stderr line and an exit
    code, so that neither a crash nor a usage error reads as a verdict."""

    def make_context(self, *args, **kwargs) -> click.Context:
        # the group's own usage errors: an unknown option, no command
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_PARSE
            raise

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_PARSE
            raise
        except (click.exceptions.Exit, click.Abort, click.ClickException):
            raise
        except (RecursionError, MemoryError) as exc:
            _exit_with(EXIT_UNDECIDED, "undecided", exc)
        except Exception as exc:
            _exit_with(EXIT_INTERNAL, "internal error", exc)


@click.group(cls=_Commands)
def main() -> None:
    """Decide strong and weak simulation preorder between one-counter nets."""


@main.command()
@click.option("--strong", "mode", flag_value="strong", default=True)
@click.option("--weak", "mode", flag_value="weak")
@click.option("--tau", default="tau", show_default=True, help="internal action for --weak")
@click.option("--json", "as_json", is_flag=True, help="machine-readable verdict")
@click.option("--max-depth", type=NATURAL, default=EngineLimits.spoiler_depth_cap,
              show_default=True, help="bounded Spoiler search cap")
@click.option("--max-period", type=POSITIVE, default=max(EngineLimits.k_schedule),
              show_default=True, help="largest period k to try")
@click.option("--max-rect", type=NATURAL, default=EngineLimits.max_rect,
              show_default=True, help="largest window rectangle")
@click.option(
    "--dump-approximants", "dump_dir", type=click.Path(), default=None,
    help="write each weak level's approximant net pair into this directory",
)
@click.argument("net_a")
@click.argument("net_b")
@click.argument("conf_a")
@click.argument("conf_b")
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
        col = next((c for c in engine.colorings.values() if c.certified_yes), None)
        if col is not None:
            geo = next(iter(col.geometry.values()))
            j, k = geo.j, geo.k
    elapsed_ms = int((time.monotonic() - started) * 1000)
    verdict = {True: "true", False: "false", None: "undecided"}[answer]
    if as_json:
        click.echo(json.dumps({
            "schema": 1,
            "verdict": verdict,
            "pair": {"left": f"{left.state}:{left.counter}", "right": f"{right.state}:{right.counter}"},
            "belts_used": belts_used,
            "j": j,
            "k": k,
            "elapsed_ms": elapsed_ms,
        }))
    else:
        click.echo(f"simulated: {verdict}")
    sys.exit({True: EXIT_TRUE, False: EXIT_FALSE, None: EXIT_UNDECIDED}[answer])


@main.command()
@click.option("--json", "as_json", is_flag=True)
@click.argument("net_a")
@click.argument("net_b")
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
        click.echo(json.dumps({"schema": 1, "c_global": engine.c_global, "pairs": rows}))
        return
    click.echo(f"{'q':<12} {'q_prime':<12} {'slope':<8} {'c':<5} vertical")
    for r in rows:
        q, q2 = r["q"], r["q'"]
        slope = f"[{r['slope'][0]},{r['slope'][1]}]"
        vertical = "yes" if r["vertical"] else "no"
        click.echo(f"{q:<12} {q2:<12} {slope:<8} {r['c']:<5} {vertical}")


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


@main.command()
@click.option("--pair", "pair_opt", required=True, help="state pair q,q'")
@click.option("--max", "size", type=POSITIVE, default=16, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["ascii", "svg"]), default="ascii")
@click.option("--out", type=click.Path(), default=None, help="output file (default stdout)")
@click.argument("net_a")
@click.argument("net_b")
def render(pair_opt, size, fmt, out, net_a, net_b):
    """Render the simulation coloring of one state pair as a grid."""
    spoiler = _load_net(net_a)
    duplicator = _load_net(net_b)
    q, sep, q2 = pair_opt.partition(",")
    if not sep or q not in spoiler.states or q2 not in duplicator.states:
        click.echo(f"bad --pair {pair_opt!r}", err=True)
        sys.exit(EXIT_PARSE)
    engine = StrongSimEngine(spoiler, duplicator)
    text = (_render_ascii if fmt == "ascii" else _render_svg)(engine, (q, q2), size)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--out", type=click.Path(), required=True)
@click.option("--pairs", "pairs_opt", default=None, help="semicolon-separated q,q' filters")
@click.argument("net_a")
@click.argument("net_b")
def export(out, pairs_opt, net_a, net_b):
    """Write the semilinear description of the simulation relation as JSON."""
    spoiler = _load_net(net_a)
    duplicator = _load_net(net_b)
    keep = None
    if pairs_opt:
        keep = set()
        for item in pairs_opt.split(";"):
            q, sep, q2 = item.partition(",")
            if not sep or q not in spoiler.states or q2 not in duplicator.states:
                click.echo(f"bad --pairs item {item!r}", err=True)
                sys.exit(EXIT_PARSE)
            keep.add((q, q2))
    engine = StrongSimEngine(spoiler, duplicator)
    col = engine.export_coloring()
    if col is None:
        click.echo("undecided: no certified coloring within the caps", err=True)
        sys.exit(EXIT_UNDECIDED)
    obj = col.to_json_obj()
    if keep is not None:
        obj["pairs"] = [p for p in obj["pairs"] if (p["q"], p["q'"]) in keep]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "l0": %s, "pairs": [' % json.dumps(obj["l0"]))
        for i, p in enumerate(obj["pairs"]):
            fh.write(("," if i else "") + "\n" + json.dumps(p, sort_keys=True))
        fh.write("\n]}\n")


@main.command()
@click.option("--rounds", type=NATURAL, default=32, show_default=True)
@click.option("--weak", is_flag=True)
@click.option("--tau", default="tau", show_default=True)
@click.option("--tau-cap", type=NATURAL, default=4, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@click.argument("net_a")
@click.argument("net_b")
@click.argument("conf_a")
@click.argument("conf_b")
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
        click.echo(json.dumps({
            "schema": 1,
            "spoiler_wins": verdict.spoiler_wins,
            "rounds": verdict.rounds,
        }))
    else:
        kind = "spoiler_wins_within" if verdict.spoiler_wins else "duplicator_survives"
        click.echo(f"{kind}: {verdict.rounds}")


@main.command("print")
@click.argument("net_a")
def print_net(net_a):
    """Parse a net file and print its canonical form (round-trip check)."""
    click.echo(format_net(_load_net(net_a)), nl=False)


if __name__ == "__main__":
    main()
