"""Command-line front end.

Subcommands: ``value``, ``condition``, ``corpus``, ``export``, ``simulate``,
``parse``.  Exit status 0 on success, 1 on any diagnostic or usage error,
2 when a node or strategy budget is exceeded.  ``--format structured``
emits stable JSON (same inputs and configuration give byte-identical
output).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .corpus import run_corpus
from .errors import BudgetError, IfGameError
from .game import DEFAULT_NODE_CAP, export_dot
from .parser import format_formula, load_game, parse_event, parse_formula, parse_profile
from .solver import conditional_value, simulate, solve
from .strategy import DEFAULT_STRATEGY_BUDGET


def positive_int(text: str) -> int:
    """argparse type for caps, budgets and play counts.  Raises the
    diagnostic itself (not a usage error), so ``main`` exits 1."""
    value = int(text)
    if value <= 0:
        raise IfGameError("caps, budgets and play counts must be positive")
    return value


def _mix_payload(mix):
    return [
        {"mass": str(w), "strategy": list(s.lines())}
        for s, w in mix.support
    ]


def _load_game(args):
    """Resolve the positional inputs into (game, nature strategy)."""
    source = Path(args.input)
    structure = None
    if source.suffix == ".game":
        if args.structure:
            raise IfGameError("a .game input takes no structure file")
    elif not args.structure:
        raise IfGameError("a formula input needs a structure file")
    else:
        structure = Path(args.structure).read_text()
    nature = None
    if args.nature == "uniform":
        nature = ""  # no rule: uniform at every chance point
    elif args.nature:
        nature = Path(args.nature).read_text()
    return load_game(source.read_text(), structure, nature, args.node_cap)


def _solve(args, game, lam):
    return solve(game, lam, args.budget or DEFAULT_STRATEGY_BUDGET)


def _profile_for(args, game, lam):
    if args.solve:
        eq = _solve(args, game, lam)
        return eq.row_strategies(), eq.col_strategies()
    if not args.profile:
        raise IfGameError("need --profile FILE or --solve")
    if args.budget is not None:
        raise IfGameError("--budget acts only with --solve")
    return parse_profile(Path(args.profile).read_text(), game)


def cmd_value(args) -> int:
    game, lam = _load_game(args)
    eq = _solve(args, game, lam)
    if args.format == "structured":
        payload = {
            "value": str(eq.value),
            "rows": _mix_payload(eq.row_strategies()),
            "cols": _mix_payload(eq.col_strategies()),
            "reduction": eq.matrix.log,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"value = {eq.value}")
    for side, mix in (("I", eq.row_strategies()), ("II", eq.col_strategies())):
        print(f"optimal mix for {side}:")
        for strategy, mass in mix.support:
            lines = strategy.lines()
            body = "; ".join(lines) if lines else "(no decisions)"
            print(f"  {mass}  {body}")
    for line in eq.matrix.log:
        print(f"reduction: {line}")
    return 0


def cmd_condition(args) -> int:
    game, lam = _load_game(args)
    row_mix, col_mix = _profile_for(args, game, lam)
    event = None if args.event is None else parse_event(args.event, game)
    result = conditional_value(game, lam, row_mix, col_mix, event)
    if args.format == "structured":
        payload = {
            "event": "true" if args.event is None else args.event,
            "p_event": str(result.p_event),
            "p_win_and_event": str(result.p_win_and_event),
            "conditional_value": str(result.value),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"P(event) = {result.p_event}")
    print(f"P(win and event) = {result.p_win_and_event}")
    print(f"conditional value = {result.value}")
    return 0


def cmd_corpus(args) -> int:
    results = run_corpus(args.filter, node_cap=args.node_cap,
                         budget=args.budget or DEFAULT_STRATEGY_BUDGET)
    if not results:
        raise IfGameError(f"no corpus entry matches --filter {args.filter!r}")
    failed = [r for r in results if not r.passed]
    if args.format == "structured":
        payload = [
            {
                "entry": r.entry,
                "group": r.group,
                "check": r.label,
                "expected": str(r.expected),
                "got": None if r.got is None else str(r.got),
                "passed": r.passed,
                "error": r.error,
            }
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 1 if failed else 0
    width = max((len(r.entry) for r in results), default=10) + 2
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        got = "error" if r.got is None else str(r.got)
        line = f"{status}  {r.entry:<{width}} {r.label}: " \
               f"expected {r.expected}, got {got}"
        if r.error:
            line += f"  [{r.error}]"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} corpus checks passed")
    return 1 if failed else 0


def cmd_export(args) -> int:
    game, _ = _load_game(args)
    text = export_dot(game)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_simulate(args) -> int:
    game, lam = _load_game(args)
    row_mix, col_mix = _profile_for(args, game, lam)
    events = {}
    for text in args.event or ():
        events[text] = parse_event(text, game)
    report = simulate(game, lam, row_mix, col_mix, args.plays, args.seed, events)
    if args.format == "structured":
        payload = {
            "plays": report.plays,
            "seed": report.seed,
            "wins": report.wins,
            "win_frequency": str(report.win_frequency),
            "events": {
                name: {"hits": hits, "wins": wins}
                for name, (hits, wins) in report.event_counts.items()
            },
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print(f"plays = {report.plays}, seed = {report.seed}")
    print(f"wins = {report.wins}  (frequency {report.win_frequency})")
    for name, (hits, wins) in report.event_counts.items():
        print(f"event {name}: hits = {hits}, wins among hits = {wins}")
    return 0


def cmd_parse(args) -> int:
    phi = parse_formula(Path(args.input).read_text())
    print(format_formula(phi))
    return 0


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every parse starts
    from a fresh namespace, so no call sees another's arguments."""
    top = argparse.ArgumentParser(
        prog="ifgames",
        description="equilibrium values and conditional win probabilities of "
                    "independence-friendly sentences over finite structures",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, inputs=True, nature=True, solves=True):
        if inputs:
            p.add_argument("input",
                           help="formula (.if) or extensive game (.game) file")
            p.add_argument("structure", nargs="?",
                           help="structure (.struct) file, for formula inputs")
        if nature:
            p.add_argument("--nature", default=None, metavar="FILE|uniform",
                           help="chance player's behavioral strategy "
                                "(default: uniform for a sentence, the "
                                "declared p= for a .game file)")
        p.add_argument("--node-cap", type=positive_int, default=DEFAULT_NODE_CAP,
                       help="game tree node cap")
        if solves:
            p.add_argument("--budget", type=positive_int, default=None,
                           help="reduced-strategy enumeration budget per "
                                f"player (default: {DEFAULT_STRATEGY_BUDGET})")
            p.add_argument("--format", choices=("text", "structured"),
                           default="text")

    p = sub.add_parser("value", help="equilibrium value of a sentence or game")
    common(p)
    p.set_defaults(fn=cmd_value)

    p = sub.add_parser("condition",
                       help="conditional win probability under a profile")
    common(p)
    p.add_argument("--event", help="conditioning event (default: every play)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--profile", help="profile file naming the mixes")
    group.add_argument("--solve", action="store_true",
                       help="condition the computed equilibrium profile")
    p.set_defaults(fn=cmd_condition)

    p = sub.add_parser("corpus", help="replay the bundled result corpus")
    common(p, inputs=False, nature=False)
    p.add_argument("--filter", default=None,
                   help="only entries whose name contains this substring")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("export", help="write the game tree as Graphviz text")
    common(p, nature=False, solves=False)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_export, nature=None)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check of a profile")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--profile")
    group.add_argument("--solve", action="store_true")
    p.add_argument("--plays", type=positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--event", action="append",
                   help="event to tally (repeatable)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("parse", help="echo a formula in canonical form")
    p.add_argument("input")
    p.set_defaults(fn=cmd_parse)
    return top


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except SystemExit as exc:
        # argparse exits 2 on a usage error, after printing it; here 2
        # means an exceeded budget, so a usage error exits 1 (--help, 0)
        return 1 if exc.code else 0
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IfGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone, as under ``| head``: point stdout at devnull so
        # the flush at exit stays quiet, and exit 1 with nothing said
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
