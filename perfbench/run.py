#!/usr/bin/env python3
"""fdlab benchmark: closed-loop request workloads over the public fdlab API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-csp --seed 1 --seconds 20 --trace 0

One caller sends requests one at a time and waits for each reply.  Every
answer is checked against an independent reference outside the timed region.
With `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
runs a fixed number of requests with span tracing installed and prints the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_REPEATS = 5
MIN_REQUESTS = 100  # so that at least ten samples lie beyond the p90


def use_checkout_sources() -> None:
    """Import fdlab from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "fdlab", "__init__.py")):
        raise SystemExit(f"perfbench: no fdlab sources at {SRC}")
    sys.path.insert(0, SRC)


def git_commit() -> str:
    """HEAD commit of the checkout, or 'unknown' outside a git clone."""
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over fdlab's sources, identifying the code where git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fdlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "fdlab_source_sha256": source_digest(),
    }


def inputs_digest(inputs: list[dict]) -> str:
    """SHA-256 over the canonical JSON of every generated input."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup(wl, seed: int, warmup: bool = True):
    """Generate inputs, prepare them, and send the warm-up requests."""
    t0 = time.perf_counter()
    inputs = wl.generate(seed)
    items = wl.prepare(inputs)
    if warmup:
        for item in items[: wl.warmup]:
            wl.request(item)
    return inputs, items, time.perf_counter() - t0


def closed_loop(wl, items, *, seconds: float = 0.0, count: int | None = None,
                first: int = 0, tracer=None, request=None) -> tuple[list[int], int]:
    """Send requests one after another; returns (latencies in ns, failures).

    With `count` the run sends exactly that many requests, numbered from
    `first`.  Otherwise it stops at the first round boundary after `seconds`
    of request time and at least MIN_REQUESTS requests.  Answers are verified
    between requests, untimed.
    """
    request = request or wl.request
    latencies: list[int] = []
    failed = 0
    busy = 0
    budget = seconds * 1e9
    i = first
    while True:
        if count is not None:
            if i >= first + count:
                break
        elif busy >= budget and i >= MIN_REQUESTS and i % wl.round_size == 0:
            break
        index = i % len(items)
        item = items[index]
        if tracer is not None:
            tracer.request_id = i
            tracer.active = True
        error = None
        t0 = time.perf_counter_ns()
        try:
            answer = request(item)
        except Exception as e:  # a failed request is counted, not fatal
            error = e
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = False
        latencies.append(t1 - t0)
        busy += t1 - t0
        if error is not None:
            failed += 1
            if failed == 1:
                traceback.print_exception(error, file=sys.stderr)
        elif not wl.verify(index, item, answer):
            failed += 1
            print(f"perfbench: wrong answer for input {index}", file=sys.stderr)
        i += 1
    return latencies, failed


def latency_summary(latencies: list[int]) -> dict:
    ms = [x / 1e6 for x in latencies]
    p90 = statistics.quantiles(ms, n=10)[8]
    return {
        "samples": len(ms),
        "beyond_p90": sum(1 for x in ms if x > p90),
        "p50_ms": statistics.median(ms),
        "p90_ms": p90,
        "busy_s": sum(ms) / 1e3,
    }


def measured_run(wl, seed: int, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        inputs, items, elapsed = setup(wl, seed)
        setup_times.append(elapsed)
    latencies, failed = closed_loop(wl, items, seconds=seconds)
    rss = peak_rss_mb()
    lat = latency_summary(latencies)
    n = len(latencies)
    metrics = {
        "requests_per_s": (n - failed) / lat["busy_s"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_p90_ms": lat["p90_ms"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    info = {
        "inputs_sha256": inputs_digest(inputs),
        "failed_share": failed / n,
        "latency_samples": lat["samples"],
        "samples_beyond_p90": lat["beyond_p90"],
        "setup_samples": len(setup_times),
        "distinct_inputs": len(items),
    }
    return {"attempted": n, "failed": failed, "metrics": metrics, "info": info}


def traced_run(wl, seed: int) -> dict:
    import tracing

    count = wl.trace_requests
    _, items, _ = setup(wl, seed)
    tracer = tracing.Tracer()
    with tracer:
        tracer.active = True
        inputs, traced_items, _ = setup(wl, seed, warmup=False)
        tracer.active = False
    # Each request is sent untraced and then traced, so that a change in the
    # machine's speed during the run shows in both and not in their ratio.
    plain, traced, failed = [], [], 0
    for i in range(count):
        lat, f = closed_loop(wl, items, count=1, first=i)
        plain += lat
        failed += f
        with tracer:
            lat, f = closed_loop(wl, traced_items, count=1, first=i, tracer=tracer)
        traced += lat
        failed += f
    os.makedirs(OUT, exist_ok=True)
    tracer.save(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.npz"))
    metrics = tracer.layer_metrics()
    traced_rps = count / (sum(traced) / 1e9)
    plain_rps = count / (sum(plain) / 1e9)
    metrics["tracing.traced_requests_per_s"] = traced_rps
    metrics["tracing.untraced_requests_per_s"] = plain_rps
    metrics["tracing.overhead_ratio"] = plain_rps / traced_rps
    metrics = {name: metrics[name] for name, *_ in tracing.LAYER_METRICS}
    info = {
        "inputs_sha256": inputs_digest(inputs),
        "failed_share": failed / (2 * count),
        "traced_requests": count,
        "spans": len(tracer.span_start),
    }
    return {
        "attempted": 2 * count,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    env = environment(args.seed)
    if args.trace:
        result = traced_run(wl, args.seed)
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    else:
        result = measured_run(wl, args.seed, args.seconds)
        units = {"requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}

    print(f"workload {wl.name}: {wl.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"  {name:32s} {value:>16.6f} {units[name]}")
    print(f"  {'failed_share':32s} {result['info']['failed_share']:>16.6f} ratio")
    if args.trace:
        for name, _, _, target in tracing.LAYER_METRICS:
            print(f"  target {name} -> {target}")

    os.makedirs(OUT, exist_ok=True)
    record = dict(result, workload=wl.name, trace=args.trace, environment=env)
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
