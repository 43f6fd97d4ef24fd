"""The benchmark's workloads call the public fdlab API from outside the
package; an API change that breaks their requests or references shows up
here, on the first inputs of each workload, checked as the benchmark checks
them."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from fdlab import checkers, check
from fdlab.checkers import ConsistencyNotion

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


def test_check_on_the_first_subsetsum_inputs_is_pinned():
    """The bounds-z verdicts and witnesses of the first 30 seed-1
    subsetsum-check inputs, with a digest of every witness's values as the
    per-query searches gave them.  Sharing tables within a check must leave
    every witness as it is."""
    workload = workloads.WORKLOADS["subsetsum-check"]()
    consistent = witnesses = supported = 0
    digest = hashlib.sha256()
    for _, d, c in workload.prepare(workload.generate(1)[:30]):
        res = check(d, c, ConsistencyNotion.BOUNDS_Z)
        consistent += res.consistent
        for w in res.witnesses:
            witnesses += 1
            supported += w.supported
            values = None if w.witness is None else [int(w.witness[v]) for v in c.scope]
            digest.update(repr((w.var.index, w.value, w.supported, values)).encode())
    assert (consistent, witnesses, supported) == (15, 954, 939)
    assert digest.hexdigest() == (
        "dc7ad0c3903001eeede8f2da947cb4764f3d7648aa6e3bba9ae9945be15a33b9"
    )


def test_subsetsum_checks_share_their_sum_lists(monkeypatch):
    """Over the first 20 seed-1 subsetsum-check requests, the queries of each
    check build only the distinct meet-in-the-middle sum lists: 318 lists
    of 50,304 sums in all, where one list per query and side would be 1,272
    lists of 192,256 sums."""
    built = [0, 0]
    lex_sums = checkers._lex_sums

    def counted(free_vals, coeffs):
        sums = lex_sums(free_vals, coeffs)
        built[0] += 1
        built[1] += len(sums)
        return sums

    monkeypatch.setattr(checkers, "_lex_sums", counted)
    workload = workloads.WORKLOADS["subsetsum-check"]()
    for item in workload.prepare(workload.generate(1)[:20]):
        workload.request(item)
    assert built[0] <= 318 and built[1] <= 50_304, built
