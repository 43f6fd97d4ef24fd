"""The benchmark's workloads call the public fdlab API from outside the
package; an API change that breaks their requests or references shows up
here, on the first inputs of each workload, checked as the benchmark checks
them."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_requests_of_each_workload_verify(name):
    workload = workloads.WORKLOADS[name]()
    items = workload.prepare(workload.generate(1)[:3])
    for index, item in enumerate(items):
        assert workload.verify(index, item, workload.request(item))


def test_search_on_the_first_solve_csp_inputs_is_pinned():
    """The summed search counts of the first 100 seed-1 solve-csp inputs.
    A propagator shortcut must leave nodes, failures, pruned values and
    solutions as they are; a benchmark change that alters the generator
    re-pins these numbers."""
    workload = workloads.WORKLOADS["solve-csp"]()
    totals = [0, 0, 0, 0]
    for item in workload.prepare(workload.generate(1)[:100]):
        _, stats = workload.request(item)
        for i, n in enumerate((stats.nodes, stats.failures, stats.pruned, stats.solutions)):
            totals[i] += n
    assert totals == [768, 25, 999, 409]
