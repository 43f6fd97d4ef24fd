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
  `propagate` at its own notion and `check` (verdict and witnesses) at each
  notion its class allows;
- subsetsum-check: the request's answer and the full bounds(Z) `check`.

Both checkouts also parse every file under this checkout's `models/` and
`tests/hostile/`: the answer is the `Model`, or the line of the ParseError.
For each constraint of a `models/*.model` file they answer `check` and
`propagate` on the initial domain at all four notions; where bounds(R) is
undefined, the answer is the class name of the exception raised.  The
`check` answers at bounds(R) are the only ones that reach a real support
search.

A child prints one SHA-256 digest of `repr` per answer; the script reports
the first answer that differs, and exits 1 if any does.  It is not a test
module (pytest does not collect it), since it needs a second checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


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
