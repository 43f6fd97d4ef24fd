"""Command-line front end.

Verbs: check, propagate, solve, reduce-subsetsum, bench, analyze-monotone.
Models are read from a file path or from standard input when the path is
"-".  Exit codes: 0 success/consistent, 1 inconsistent/failure, 2 error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from .checkers import ConsistencyNotion, check
from .constraints import RealSemanticsUndefined
from .domains import Valuation
from .engine import Model, ModelError, format_trace, propagate_all, trace
from .modelfile import ParseError, parse_model, print_model
from .reductions import (
    SubsetSumInstance,
    VarMonotonicity,
    encode_subset_sum,
    is_monotonic,
)
from .search import BranchStrategy, solve

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_ERROR = 2


def _read_model(path: str) -> Model:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_model(text)


def _notion_arg(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument(
        "--notion",
        choices=[n.value for n in ConsistencyNotion],
        required=required,
        help="consistency notion (overrides per-constraint tags)",
    )


def _valuation_str(theta: Valuation) -> str:
    items = sorted(theta.items(), key=lambda kv: kv[0].index)
    return " ".join(f"{v.name}={q}" for v, q in items)


def _selected(m: Model, label: str | None) -> list:
    """(label, (constraint, notion)) pairs: all of them, or the one labelled `label`."""
    pairs = [p for p in zip(m.labels, m.constraints) if label in (None, p[0])]
    if label is not None and not pairs:
        raise ValueError(f"no constraint labelled {label!r}")  # main exits 2
    return pairs


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def cmd_check(args) -> int:
    m = _read_model(args.model)
    override = ConsistencyNotion(args.notion) if args.notion else None
    lines = []
    results = []
    worst = EXIT_OK
    for label, (c, tagged) in _selected(m, args.constraint):
        notion = override if override is not None else tagged
        try:
            res = check(m.initial, c, notion)
        except RealSemanticsUndefined as e:
            print(f"error: {label}: {e}", file=sys.stderr)
            return EXIT_ERROR
        culprits = [w for w in res.witnesses if not w.supported]
        word = "value" if notion is ConsistencyNotion.DOMAIN else "bound"
        verdict = "consistent" if res.consistent else "INCONSISTENT"
        lines.append(f"{label} @ {notion.value}: {verdict}")
        for w in culprits:
            lines.append(f"  culprit {w.var.name} {word} {w.value}: no support")
        results.append(
            {
                "constraint": label,
                "notion": notion.value,
                "consistent": res.consistent,
                "culprits": [
                    {"var": w.var.name, "kind": word, "value": w.value}
                    for w in culprits
                ],
            }
        )
        if not res.consistent:
            worst = EXIT_INCONSISTENT
    _emit(args, {"command": "check", "results": results}, lines)
    return worst


def _with_notion(m: Model, notion: ConsistencyNotion) -> Model:
    return Model(
        m.vars,
        m.initial,
        tuple((c, notion) for c, _ in m.constraints),
        m.labels,
    )


def cmd_propagate(args) -> int:
    m = _read_model(args.model)
    if args.notion:
        m = _with_notion(m, ConsistencyNotion(args.notion))
    if args.trace:
        res, records = trace(m)
        Path(args.trace).write_text(format_trace(m.initial, records))
    else:
        res = propagate_all(m)
    if res.failed:
        _emit(args, {"command": "propagate", "failed": True}, ["FAILURE"])
        return EXIT_INCONSISTENT
    text = print_model(m, res.domain)
    payload = {
        "command": "propagate",
        "failed": False,
        "domains": {
            v.name: list(res.domain.get(v).values) for v in m.vars
        },
        "pruned": {
            v.name: list(vals) for v, vals in res.pruned
        },
    }
    _emit(args, payload, [text.rstrip("\n")])
    return EXIT_OK


def cmd_solve(args) -> int:
    m = _read_model(args.model)
    if args.notion:
        m = _with_notion(m, ConsistencyNotion(args.notion))
    strategy = BranchStrategy(args.strategy)
    solutions, stats = solve(
        m, limit=args.limit, node_budget=args.node_budget, strategy=strategy
    )
    lines = [_valuation_str(theta) for theta in solutions]
    lines.append(
        f"nodes={stats.nodes} failures={stats.failures} "
        f"solutions={stats.solutions} complete={'yes' if stats.complete else 'no'}"
    )
    payload = {
        "command": "solve",
        "solutions": [
            {v.name: str(q) for v, q in theta.items()} for theta in solutions
        ],
        "stats": {
            "nodes": stats.nodes,
            "failures": stats.failures,
            "solutions": stats.solutions,
            "pruned": stats.pruned,
            "complete": stats.complete,
        },
    }
    _emit(args, payload, lines)
    if stats.complete and not solutions:
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_reduce_subsetsum(args) -> int:
    if args.random is not None:
        if args.seed is None:
            print("error: --random requires --seed", file=sys.stderr)
            return EXIT_ERROR
        for flag, n in ("--random", args.random), ("--max-value", args.max_value):
            if n < 1:
                print(f"error: {flag} must be at least 1, not {n}", file=sys.stderr)
                return EXIT_ERROR
        rng = random.Random(args.seed)
        items = [rng.randint(1, args.max_value) for _ in range(args.random)]
        target = args.target if args.target is not None else rng.randint(
            1, sum(items)
        )
    else:
        if not args.items or args.target is None:
            print("error: need ITEMS and --target (or --random N)", file=sys.stderr)
            return EXIT_ERROR
        items, target = args.items, args.target
    inst = SubsetSumInstance(tuple(items), target)
    notion = ConsistencyNotion(args.notion) if args.notion else ConsistencyNotion.BOUNDS_Z
    m, _, _ = encode_subset_sum(inst, notion)
    sys.stdout.write(print_model(m))
    return EXIT_OK


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    notions = (
        [ConsistencyNotion(n) for n in args.notions]
        if args.notions
        else list(ConsistencyNotion)
    )
    models = []  # every file parses before any row prints
    for path in sorted(corpus.glob("*.model")):
        try:
            models.append((path, parse_model(path.read_text())))
        except ParseError as e:
            raise ValueError(f"{path.name}: {e}") from None  # main exits 2
    print("instance,notion,nodes,failures,solutions,pruned,micros")
    for path, m in models:
        for notion in notions:
            try:  # a model may not allow the notion; a bad --limit ends the run
                forced = _with_notion(m, notion)
            except ModelError as e:
                print(f"skip {path.name} @ {notion.value}: {e}", file=sys.stderr)
                continue
            t0 = time.perf_counter_ns()
            _, stats = solve(forced, limit=args.limit)
            micros = (time.perf_counter_ns() - t0) // 1000
            print(
                f"{path.stem},{notion.value},{stats.nodes},{stats.failures},"
                f"{stats.solutions},{stats.pruned},{micros}"
            )
    return EXIT_OK


def cmd_analyze_monotone(args) -> int:
    m = _read_model(args.model)
    lines = []
    results = []
    for label, (c, _) in _selected(m, args.constraint):
        try:
            report = is_monotonic(c, m.initial)
        except RealSemanticsUndefined as e:
            if args.constraint is not None:
                print(f"error: {label}: {e}", file=sys.stderr)
                return EXIT_ERROR
            lines.append(f"{label}: no real semantics")
            results.append({"constraint": label, "real": False})
            continue
        entry = {"constraint": label, "real": True, "verdicts": {}, "counterexamples": {}}
        parts = []
        for v in sorted(report.verdicts, key=lambda x: x.index):
            verdict = report.verdicts[v]
            parts.append(f"{v.name}: {verdict.value}")
            entry["verdicts"][v.name] = verdict.value
            if verdict is VarMonotonicity.NOT_MONOTONE and v in report.counterexamples:
                ce = report.counterexamples[v]
                entry["counterexamples"][v.name] = [
                    None
                    if pair is None
                    else [
                        {w.name: str(q) for w, q in t.items()} for t in pair
                    ]
                    for pair in ce
                ]
        lines.append(f"{label}: " + ", ".join(parts))
        for v in sorted(report.counterexamples, key=lambda x: x.index):
            for order, pair in zip("<>", report.counterexamples[v]):
                if pair is not None:
                    lines.append(
                        f"  {v.name} breaks under {order}: "
                        f"{{{_valuation_str(pair[0])}}} -> {{{_valuation_str(pair[1])}}}"
                    )
        results.append(entry)
    _emit(args, {"command": "analyze-monotone", "results": results}, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fdlab",
        description="Finite-domain consistency laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check consistency of each constraint")
    p.add_argument("model", help="model file path, or - for stdin")
    p.add_argument("--constraint", help="restrict to one constraint label")
    _notion_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("propagate", help="run all propagators to fixpoint")
    p.add_argument("model")
    _notion_arg(p)
    p.add_argument("--trace", metavar="FILE", help="write an event trace")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("solve", help="enumerate integral solutions")
    p.add_argument("model")
    _notion_arg(p)
    p.add_argument("--limit", type=int, help="stop after this many solutions")
    p.add_argument("--node-budget", type=int)
    p.add_argument(
        "--strategy",
        choices=[s.value for s in BranchStrategy],
        default=BranchStrategy.MIN_SPLIT.value,
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "reduce-subsetsum", help="emit the {0,1} linear-equation reduction"
    )
    p.add_argument("items", type=int, nargs="*", help="positive item values")
    p.add_argument("--target", type=int)
    p.add_argument("--random", type=int, metavar="N", help="draw N random items")
    p.add_argument("--max-value", type=int, default=50)
    p.add_argument("--seed", type=int)
    _notion_arg(p)
    p.set_defaults(func=cmd_reduce_subsetsum)

    p = sub.add_parser("bench", help="solve a corpus under each notion, CSV out")
    p.add_argument("corpus", help="directory of .model files")
    p.add_argument(
        "--notion",
        dest="notions",
        action="append",
        choices=[n.value for n in ConsistencyNotion],
        help="repeatable; default all four",
    )
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "analyze-monotone", help="per-variable monotonicity verdicts"
    )
    p.add_argument("model")
    p.add_argument("--constraint")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze_monotone)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, OverflowError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # an internal fault must not read as exit 1, "inconsistent"
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
