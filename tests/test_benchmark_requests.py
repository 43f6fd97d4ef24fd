"""The benchmark's workloads call the public fdlab API from outside the
package; an API change that breaks their requests or references shows up
here, on the first inputs of each workload, checked as the benchmark checks
them."""

import hashlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import fdlab.propagators
from fdlab import Domain, IntSet, check, checkers, parse_model, propagate_all, trace
from fdlab.checkers import ConsistencyNotion, _window
from fdlab.propagators import Propagator

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


def test_support_queries_on_the_first_solve_csp_inputs_are_capped(monkeypatch):
    """At most 1,536 support queries of `propagate` over the first 100
    seed-1 solve-csp requests, counted as the benchmark's tracer counts
    them.  Points are never revised, and once a run is down to one free
    variable `holds` decides its values; a later cut in per-value search
    may only lower the count."""
    queries = [0]

    def count(name):
        fn = getattr(fdlab.propagators, name)

        def counted(*args):
            queries[0] += 1
            return fn(*args)

        monkeypatch.setattr(fdlab.propagators, name, counted)

    count("_find_int_support")
    count("_real_support")
    workload = workloads.WORKLOADS["solve-csp"]()
    for item in workload.prepare(workload.generate(1)[:100]):
        workload.request(item)
    assert 0 < queries[0] <= 1536


def _count_checked_builds(monkeypatch) -> list[int]:
    """Counts the calls of `IntSet.__post_init__`, the walk of the public
    constructor's check, as the benchmark's tracer counts IntSet builds."""
    builds = [0]
    walk = IntSet.__post_init__

    def counted(self):
        builds[0] += 1
        walk(self)

    monkeypatch.setattr(IntSet, "__post_init__", counted)
    return builds


def test_wide_fixpoint_narrowings_are_not_checked_again(monkeypatch):
    """`propagate_all` on the first 40 seed-1 wide-fixpoint models builds
    no set through the public check: every narrowing keeps part of a set
    already checked (848 checked builds when each one was)."""
    workload = workloads.WORKLOADS["wide-fixpoint"]()
    models = [model for _, model in workload.prepare(workload.generate(1)[:40])]
    builds = _count_checked_builds(monkeypatch)
    for model in models:
        assert not propagate_all(model).failed
    assert builds[0] == 0


def test_wide_fixpoint_compiles_once_and_builds_one_domain_per_linear_run(monkeypatch):
    """`propagate_all` on the first 40 seed-1 wide-fixpoint models, twice:
    each (constraint, notion) is compiled at most once, and a linear run
    that changes the domain builds exactly one `Domain` (one per narrowing,
    through `with_set`, before the runs were compiled), one that does not
    builds none, and none calls `with_set`."""
    workload = workloads.WORKLOADS["wide-fixpoint"]()
    models = [model for _, model in workload.prepare(workload.generate(1)[:40])]
    compiled, built, linear = Counter(), Counter(), Counter()

    def wrap(owner, name, before):
        fn = getattr(owner, name)

        def wrapped(self, *args):
            before(self, *args)
            return fn(self, *args)

        monkeypatch.setattr(owner, name, wrapped)

    wrap(Propagator, "__init__", lambda p, c, notion: compiled.update([(id(c), notion)]))
    wrap(Domain, "__init__", lambda d, sets: built.update(["Domain"]))
    wrap(Domain, "with_set", lambda d, var, s: built.update(["with_set"]))
    run = Propagator.run

    def counted_run(p, d, c):
        before = built.copy()
        res = run(p, d, c)
        if p.reader is _window:
            linear["runs"] += 1
            linear["changed"] += bool(res.pruned)
            assert built - before == Counter(Domain=bool(res.pruned))
        return res

    monkeypatch.setattr(Propagator, "run", counted_run)
    for _ in range(2):
        for model in models:
            assert not propagate_all(model).failed
    assert len(compiled) == sum(len(m.constraints) for m in models) == 320
    assert set(compiled.values()) == {1}
    assert linear["runs"] > linear["changed"] > 0 and built["with_set"] == 0


def test_solve_csp_requests_check_no_set_past_the_parser(monkeypatch):
    """The first 100 seed-1 solve-csp requests, parse and search, build no
    set through the public check: the parser's `of` and `interval` check
    only the ends of the values they sort or count, and propagation and
    search only narrow (1,955 checked builds when each one was)."""
    workload = workloads.WORKLOADS["solve-csp"]()
    items = workload.prepare(workload.generate(1)[:100])
    builds = _count_checked_builds(monkeypatch)
    for item in items:
        workload.request(item)
    assert builds[0] == 0


def _pruned_digest(results) -> str:
    digest = hashlib.sha256()
    for r in results:
        digest.update(repr(r).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("queue_policy", ["fifo", "lifo"])
def test_pruned_of_the_first_wide_fixpoint_inputs_is_pinned(queue_policy):
    """A digest of `repr((res.pruned, res.domain))` of `propagate_all` on
    the first 40 seed-1 wide-fixpoint models, taken at the commit before
    `pruned` was read off the kept slices: the values lost, their order and
    the fixpoint must stay byte for byte as the set-difference walk gave
    them.  Both queue orders reach the same fixpoint, so one digest."""
    workload = workloads.WORKLOADS["wide-fixpoint"]()
    results = []
    for _, model in workload.prepare(workload.generate(1)[:40]):
        res = propagate_all(model, queue_policy=queue_policy)
        results.append((res.pruned, res.domain))
    assert _pruned_digest(results) == (
        "3e2ec487ffa60ed4b2fafeff1fd7584fd9e0529b19f85c9fbb35c33a21641e64"
    )


def test_pruned_and_trace_of_the_first_solve_csp_inputs_are_pinned():
    """Digests of `propagate_all` and of `trace` (its result and every
    record's events and domain) on the first 100 seed-1 solve-csp models,
    taken at the commit before `pruned` was read off the kept slices."""
    workload = workloads.WORKLOADS["solve-csp"]()
    fixpoints, traces = [], []
    for _, text in workload.prepare(workload.generate(1)[:100]):
        model = parse_model(text)
        res = propagate_all(model)
        fixpoints.append((res.pruned, res.domain))
        res, records = trace(model)
        traces.append((res.pruned, res.domain, records))
    assert _pruned_digest(fixpoints) == (
        "554184de93b0feb51cc134316af46757f67f3361978ee1314b3e2ee5ad7db2c8"
    )
    assert _pruned_digest(traces) == (
        "e20f407cfb9cdb5a6b6785e10cfa2180da9e6aeec3fd84a24f7b1cc2eb33d3b8"
    )


def test_subsetsum_checks_decode_each_rank_once(monkeypatch):
    """Over the first 20 seed-1 subsetsum-check requests, a check decodes
    each (part, rank) of its meet-in-the-middle at most once, whichever
    pin asks: 177 decodes, where one per supported query and side was
    1,252."""
    decodes = [0]
    lex_assignment = checkers._lex_assignment

    def counted(free_vals, rank):
        decodes[0] += 1
        return lex_assignment(free_vals, rank)

    monkeypatch.setattr(checkers, "_lex_assignment", counted)
    workload = workloads.WORKLOADS["subsetsum-check"]()
    for item in workload.prepare(workload.generate(1)[:20]):
        workload.request(item)
    assert 0 < decodes[0] <= 177, decodes


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
