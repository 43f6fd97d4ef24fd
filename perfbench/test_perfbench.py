"""Self-tests of the benchmark: inputs, reference checks, counts and its spec.

Run from the repository root with `python -m pytest perfbench`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_sources()

import tracing  # noqa: E402  (needs the checkout's src on sys.path)
import workloads  # noqa: E402
from fdlab import PropagationResult  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = sorted(workloads.WORKLOADS)


def _in_subprocess(code: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env,
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads_and_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]
    assert spec["paths"] == ["perfbench"]


def test_same_seed_gives_byte_identical_inputs():
    code = (
        "import json, run; run.use_checkout_sources(); import workloads; "
        "print(json.dumps({n: [run.inputs_digest(w().generate(s)) for s in (1, 2)] "
        "for n, w in workloads.WORKLOADS.items()}))"
    )
    first = _in_subprocess(code, "1")
    assert first == _in_subprocess(code, "2")
    for a, b in first.values():
        assert a != b


def _corrupt(name: str, answer):
    if name == "solve-csp":
        solutions, stats = answer
        return solutions[:-1], stats
    if name == "subsetsum-check":
        consistent, shaved = answer
        return not consistent, shaved
    return PropagationResult(answer.domain.with_set(0, answer.domain.sets[0].remove(
        answer.domain.sets[0].inf)), answer.pruned)


@pytest.mark.parametrize("name", NAMES)
def test_a_corrupted_answer_is_counted(name):
    wl = workloads.WORKLOADS[name]()
    items = wl.prepare(wl.generate(7)[:3])
    calls = []

    def corrupting(item):
        answer = wl.request(item)
        calls.append(item)
        return _corrupt(name, answer) if len(calls) == 2 else answer

    latencies, failed = run.closed_loop(wl, items, count=3, request=corrupting)
    assert len(latencies) == 3
    assert failed == 1


def test_a_raising_request_is_counted():
    wl = workloads.WORKLOADS["solve-csp"]()
    items = wl.prepare(wl.generate(7)[:2])

    def raising(item):
        raise RuntimeError("injected")

    _, failed = run.closed_loop(wl, items, count=2, request=raising)
    assert failed == 2


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_across_runs(name):
    code = (
        "import json, run; run.use_checkout_sources(); import workloads, tracing; "
        f"wl = workloads.WORKLOADS[{name!r}](); "
        "wl.trace_requests = wl.round_size * max(1, 10 // wl.round_size); "
        "r = run.traced_run(wl, 3); "
        "print(json.dumps({k: r['metrics'][k] for k in tracing.DETERMINISTIC_COUNTS}))"
    )
    first = _in_subprocess(code, "11")
    assert first == _in_subprocess(code, "12")
    assert first["propagators.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-csp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
