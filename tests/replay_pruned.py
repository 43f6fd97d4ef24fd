"""Replay the benchmark's requests on two checkouts and compare every answer,
`pruned` included, byte for byte.

    python tests/replay_pruned.py OTHER_CHECKOUT [--seeds 1 2]

Each checkout (this one and OTHER_CHECKOUT, typically the parent commit)
answers in a child process of its own, with its own `src/` and
`perfbench/workloads.py`, every input of every workload at each seed:

- wide-fixpoint: `parse` (the parsed `Model`), `propagate_all` at fifo and
  lifo, and `trace`;
- solve-csp: `parse`, `solve` (solutions and stats), `propagate_all` at fifo
  and lifo, `trace`, and, for each constraint on the initial domain,
  `propagate` at its own notion, `check` (verdict and witnesses) at each
  notion its class allows, and, for a real constraint, `is_monotonic`
  (verdicts and counterexample pairs);
- subsetsum-check: the request's answer and the full bounds(Z) `check`.

Both checkouts also parse every file under this checkout's `models/` and
`tests/hostile/`: the answer is the `Model`, or the line of the ParseError.
For each constraint of a `models/*.model` file they answer `check` and
`propagate` on the initial domain at all four notions, and `is_monotonic`;
where the class has no real reading, the answer is the class name of the
exception raised.  The `check` answers at bounds(R) are the only ones that
reach a real support search.

Last, at each seed, they answer `is_monotonic` on RANDOM_MONOTONE random
real constraints of all six real classes over small boxes, alldifferent and
linear ones of arity up to 6, some boxes points at another box's end.

A child prints one SHA-256 digest of `repr` per answer; the script reports
the first answer that differs, and exits 1 if any does.  It is not a test
module (pytest does not collect it), since it needs a second checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
RANDOM_MONOTONE = 2500  # random real constraints per seed for `is_monotonic`


def _answers(fdlab, workloads, name: str, item):
    """(label, answer) pairs for one input of workload `name`."""
    if name == "wide-fixpoint":
        model = item[1]  # parsed by the workload's `prepare`
        yield "parse", model
    elif name == "solve-csp":
        model = fdlab.parse_model(item[1])
        yield "parse", model
        yield "solve", fdlab.solve(model)
        for c, notion in model.constraints:
            res = fdlab.propagate(model.initial, c, notion)
            yield "propagate", (res.pruned, res.domain)
            for each in fdlab.ConsistencyNotion:
                if c.real or each is not fdlab.ConsistencyNotion.BOUNDS_R:
                    yield f"check-{each.value}", fdlab.check(model.initial, c, each)
            if c.real:
                yield "monotone", fdlab.is_monotonic(c, model.initial)
    else:
        _, domain, constraint = item
        yield "request", workloads.WORKLOADS[name]().request(item)
        yield "check", fdlab.check(domain, constraint, fdlab.ConsistencyNotion.BOUNDS_Z)
        return
    for policy in ("fifo", "lifo"):
        res = fdlab.propagate_all(model, queue_policy=policy)
        yield policy, (res.pruned, res.domain)
    res, records = fdlab.trace(model)
    yield "trace", (res.pruned, res.domain, records)


def emit(root: Path, seeds: list[int]) -> None:
    """Print `workload seed index label digest` for every answer of root."""
    sys.path.insert(0, str(root / "src"))
    import fdlab

    spec = importlib.util.spec_from_file_location(
        "replay_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]()
        for seed in seeds:
            for index, item in enumerate(workload.prepare(workload.generate(seed))):
                for label, answer in _answers(fdlab, workloads, name, item):
                    _print(name, seed, index, label, answer)
    files = [*(HERE / "models").glob("*"), *(HERE / "tests" / "hostile").glob("*")]
    for path in sorted(files):
        try:
            answer = fdlab.parse_model(path.read_text())
        except fdlab.ParseError as e:
            answer = ("ParseError", e.line_no)
        _print("files", "-", path.relative_to(HERE), "parse", answer)
    for path in sorted((HERE / "models").glob("*.model")):
        model = fdlab.parse_model(path.read_text())
        for c, _ in model.constraints:
            for notion in fdlab.ConsistencyNotion:
                for verb in (fdlab.check, fdlab.propagate):
                    try:
                        answer = verb(model.initial, c, notion)
                    except fdlab.RealSemanticsUndefined as e:
                        answer = type(e).__name__
                    label = f"{verb.__name__}-{notion.value}"
                    _print("files", "-", path.relative_to(HERE), label, answer)
            answer = _monotone(fdlab, c, model.initial)
            _print("files", "-", path.relative_to(HERE), "monotone", answer)
    for seed in seeds:
        rng = random.Random(seed)
        for index in range(RANDOM_MONOTONE):
            c, domain = _random_real(fdlab, rng)
            _print("monotone", seed, index, "monotone", _monotone(fdlab, c, domain))


def _monotone(fdlab, c, domain):
    """`is_monotonic` of c over domain, or the exception's class name."""
    try:
        return fdlab.is_monotonic(c, domain)
    except fdlab.RealSemanticsUndefined as e:
        return type(e).__name__


def _random_real(fdlab, rng: random.Random):
    """A random real constraint of one of the six real classes over random
    boxes of width 0 to 3 in [-4, 7]; a box is a point at an end of another
    box one time in four."""
    kind = rng.choice(["lineq", "linle", "linne", "alldifferent", "productle", "monobij"])
    arity = {"productle": (3, 3), "monobij": (2, 2), "alldifferent": (2, 6)}
    n = rng.randint(*arity.get(kind, (1, 6)))
    vs = [fdlab.VarId(i, f"x{i}") for i in range(n)]
    boxes = []
    for _ in vs:
        lo = rng.randint(-4, 4)
        boxes.append((lo, lo + rng.randint(0, 3)))
    for i in range(n):
        if rng.random() < 0.25:
            end = rng.choice(boxes[rng.randrange(n)])
            boxes[i] = (end, end)
    if kind == "monobij":
        func = rng.choice([
            fdlab.Affine(rng.choice([-3, -1, 1, 2]), rng.randint(-4, 4)),
            fdlab.PowK(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)),
            fdlab.PowerSum3(),
        ])
        if func.nonneg:  # a model allows this g only on x2 >= 0
            lo, hi = boxes[1]
            boxes[1] = (abs(lo), abs(lo) + hi - lo)
        c = fdlab.MonoBij(vs[0], func, vs[1])
    elif kind == "productle":
        c = fdlab.ProductLe(*vs)
    elif kind == "alldifferent":
        c = fdlab.AllDifferent(tuple(vs))
    else:
        cls = {"lineq": fdlab.LinEq, "linle": fdlab.LinLe, "linne": fdlab.LinNe}[kind]
        terms = tuple(fdlab.LinTerm(rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in vs)
        c = cls(terms, rng.randint(-8, 8))
    domain = fdlab.Domain(tuple(fdlab.IntSet.interval(lo, hi) for lo, hi in boxes))
    return c, domain


def _print(name, seed, index, label, answer) -> None:
    digest = hashlib.sha256(repr(answer).encode()).hexdigest()
    print(name, seed, index, label, digest)


def _run(root: Path, seeds: list[int]) -> list[str]:
    out = subprocess.run(
        [sys.executable, __file__, "--emit", str(root), "--seeds", *map(str, seeds)],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return out.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, nargs="?", help="checkout to compare with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        emit(args.emit, args.seeds)
        return 0
    if args.other is None:
        parser.error("give the checkout to compare with")
    mine, theirs = _run(HERE, args.seeds), _run(args.other.resolve(), args.seeds)
    for a, b in zip(mine, theirs):
        if a != b:
            print(f"differs: {HERE}: {a}\n         {args.other}: {b}")
            return 1
    if len(mine) != len(theirs):
        print(f"answer counts differ: {len(mine)} here, {len(theirs)} there")
        return 1
    inputs = len({tuple(line.split()[:3]) for line in mine})
    print(f"{len(mine)} answers to {inputs} inputs match, seeds {args.seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
