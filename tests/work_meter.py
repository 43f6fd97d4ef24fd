"""Count the work behind the benchmark's requests in two checkouts: Python
opcodes and calls, and the deterministic counts of a `--trace 1` run.

    python tests/work_meter.py OTHER_CHECKOUT [--seed 1] [--requests 100]

For each workload, each checkout (this one and OTHER_CHECKOUT, typically
the parent commit) runs in a child process of its own, with its own `src/`
and `perfbench/`, under PYTHONHASHSEED=0.  The child counts, with
`sys.settrace` opcode events:

- `prepare`: generating and preparing the seed's inputs, the work behind
  `setup_s`;
- `first`: the first N requests, each sent once, which includes whatever
  a request builds on first use and keeps;
- `again`: the same N requests sent a second time, as the closed loop of
  `perfbench/run.py` sends every input many times.

It then counts, on freshly prepared inputs, every count that
`perfbench/tracing.py` lists as deterministic, over the requests of a
`--trace 1` run at that seed.  The script prints one line per workload and
count: the other checkout, this one, and their ratio (this / other).

What it cannot see: work done inside C builtins and methods, such as tuple
slices, `sorted`, `bisect` and dict operations, executes no opcode.  A
change that moves work into C cannot claim a gain from opcodes.  Nor do
all opcodes cost the same, so a gain made of cheap bytecode reads larger in
opcodes than in time.  A speed claim therefore names both the count that
moved and the 30 s pairs of `perfbench/run.py`.

It is not a test module (pytest does not collect it), since it needs a
second checkout; `tests/test_work_meter.py` checks `count`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
WORKLOADS = ("solve-csp", "subsetsum-check", "wide-fixpoint")


def count(fn, *args) -> tuple[int, int, object]:
    """(opcodes, calls, result) of fn(*args): the Python opcodes executed,
    and the Python frames entered (each resumption of a generator is one),
    in fn and in every Python function it reaches."""
    counts = [0, 0]

    def in_frame(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return in_frame

    def on_call(frame, event, arg):
        counts[1] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return in_frame

    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return counts[0], counts[1], result


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _send(wl, items: list, n: int) -> None:
    for i in range(n):
        wl.request(items[i % len(items)])


def emit(root: Path, name: str, seed: int, n: int) -> dict:
    """Every count of workload `name` in checkout root."""
    sys.path.insert(0, str(root / "src"))
    workloads = _load(root / "perfbench" / "workloads.py", "meter_workloads")
    tracing = _load(root / "perfbench" / "tracing.py", "meter_tracing")
    wl = workloads.WORKLOADS[name]()
    out = {}
    ops, calls, items = count(lambda: wl.prepare(wl.generate(seed)))
    out["prepare opcodes"], out["prepare calls"] = ops, calls
    for label in ("first", "again"):
        ops, calls, _ = count(_send, wl, items, n)
        out[f"{label} opcodes/request"] = round(ops / n, 1)
        out[f"{label} calls/request"] = round(calls / n, 1)
    tracer = tracing.Tracer()
    with tracer:
        tracer.active = True
        fresh = wl.prepare(wl.generate(seed))
        _send(wl, fresh, wl.trace_requests)
    for key in tracing.DETERMINISTIC_COUNTS:
        out[key] = tracer.counts[key]
    return out


def _child(root: Path, name: str, seed: int, n: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    args = [sys.executable, __file__, "--emit", str(root), "--workload", name,
            "--seed", str(seed), "--requests", str(n)]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, text=True, env=env)
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, nargs="?", help="checkout to compare with")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit is not None:
        print(json.dumps(emit(args.emit, args.workload, args.seed, args.requests)))
        return 0
    if args.other is None:
        parser.error("give the checkout to compare with")
    print(f"seed {args.seed}, {args.requests} requests; ratio = this / other")
    print(f"{'workload':16} {'count':34} {'other':>14} {'this':>14} {'ratio':>7}")
    for name in WORKLOADS:
        theirs = _child(args.other.resolve(), name, args.seed, args.requests)
        mine = _child(HERE, name, args.seed, args.requests)
        for key in mine:
            a, b = theirs.get(key), mine[key]
            ratio = f"{b / a:.3f}" if a else "-"
            print(f"{name:16} {key:34} {a!s:>14} {b!s:>14} {ratio:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
