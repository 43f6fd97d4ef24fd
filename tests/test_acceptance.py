"""Acceptance gate: six criteria, each reporting one PASS/FAIL line.

Timing tolerances are pinned here and nowhere else: the worked-example
catalog must finish under 1 s, each randomized property block under 60 s,
and the cost-asymmetry criterion asserts growth-rate orderings only
(>= 2.0x per step for the exponential check, <= 1.5x per step for the
linear pass), never absolute times.  Its twin asserts the same thresholds
on counts of work.
"""

import gc
import itertools
import statistics
import time

import pytest

from conftest import (
    fresh_rng,
    make_vars,
    random_domain,
    random_int_constraint,
    random_monofunc,
    random_set,
)
from fdlab import (
    Affine,
    AllDifferent,
    Domain,
    IntSet,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    MonoBij,
    PowK,
    PowerSum3,
    ProductLe,
    ReifLinLe,
    SubsetSumInstance,
    Table,
    VarId,
    encode_subset_sum,
    is_monotonic,
    propagate,
    propagate_linear_br,
    solve,
)
from fdlab import checkers, propagators
from fdlab.checkers import (
    ConsistencyNotion,
    check,
    check_bounds_d,
    check_bounds_r,
    check_bounds_z,
    check_domain,
)
from fdlab.constraints import real_defined
from fdlab.domains import range_of
from fdlab.engine import Model
from fdlab.oracle import oracle_fixpoint, oracle_solutions, oracle_subset_sum

N = ConsistencyNotion
ALL_NOTIONS = [N.DOMAIN, N.BOUNDS_D, N.BOUNDS_Z, N.BOUNDS_R]


def report(capsys, line):
    with capsys.disabled():
        print(line)


def dom3(s1, s2, s3):
    return Domain((IntSet.of(s1), IntSet.of(s2), IntSet.of(s3)))


def windowed_domain(rng, nvars):
    """Random domain with values in [-10, 10], each set inside a width <= 8 window.

    Narrow windows keep integer candidate boxes small, so 500-instance blocks
    stay well inside the per-criterion time budget.
    """
    sets = []
    for _ in range(nvars):
        lo = rng.randint(-10, 2)
        hi = min(10, lo + rng.randint(0, 8))
        sets.append(random_set(rng, lo, hi, max_size=min(4, hi - lo + 1)))
    return Domain(tuple(sets))


def test_criterion_1_worked_example_catalog(capsys):
    t0 = time.perf_counter()
    x1, x2, x3 = make_vars(3)
    c_lin = LinEq((LinTerm(1, x1), LinTerm(-3, x2), LinTerm(-5, x3)), 0)
    d0 = dom3(range(2, 8), range(0, 3), range(-1, 3))
    d1 = dom3([3, 5, 6], [0, 1, 2], [0, 1])
    d2 = dom3([2, 3, 4, 6, 7], range(0, 3), [0, 1])
    d3 = dom3([3, 4, 6], range(0, 3), [0, 1])
    d4 = dom3([3, 4, 6], [1, 2], [0])

    checks = []

    def expect(cond):
        checks.append(bool(cond))

    expect(not check_domain(d0, c_lin).consistent)
    expect(
        sorted(
            (w.var.name, w.value)
            for w in check_domain(d0, c_lin).witnesses
            if not w.supported
        )
        == [("x1", 2), ("x1", 4), ("x1", 7), ("x3", -1), ("x3", 2)]
    )
    expect(check_domain(d1, c_lin).consistent)
    expect(propagate(d0, c_lin, N.DOMAIN).domain == d1)

    expect([check(d2, c_lin, n).consistent for n in ALL_NOTIONS] == [False, False, False, True])
    expect([check(d3, c_lin, n).consistent for n in ALL_NOTIONS] == [False, False, True, True])
    expect([check(d4, c_lin, n).consistent for n in ALL_NOTIONS] == [False, True, True, True])

    rd3 = range_of(d3)
    expect(check_bounds_d(rd3, c_lin).consistent)
    expect(check_bounds_z(rd3, c_lin).consistent)
    expect(not check_bounds_d(d3, c_lin).consistent)

    alldiff = AllDifferent((x1, x2, x3))
    d5 = dom3([1, 2], [1, 2], [2, 3])
    expect(check_bounds_r(d5, alldiff).consistent)
    expect(not check_bounds_z(d5, alldiff).consistent)

    c_sum = LinEq((LinTerm(1, x1), LinTerm(1, x2), LinTerm(1, x3)), 5)
    d8 = dom3(range(0, 4), [0, 3, 4, 5], [0, 3, 4, 5])
    expect(check_bounds_z(d8, c_sum).consistent)
    expect(check_bounds_r(d8, c_sum).consistent)
    expect(not check_bounds_d(d8, c_sum).consistent)

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    report(
        capsys,
        f"[criterion 1] worked-example catalog: "
        f"{'PASS' if ok else 'FAIL'} ({len(checks)} verdicts, {elapsed:.3f}s < 1.0s)",
    )
    assert all(checks)
    assert elapsed < 1.0


def test_criterion_2_structural_properties(capsys):
    t0 = time.perf_counter()
    violations = 0

    # strength chain: domain => bounds(D) => bounds(Z) => bounds(R)
    rng = fresh_rng(2001)
    for _ in range(500):
        n = rng.randint(1, 5)
        c = random_int_constraint(rng, make_vars(n))
        d = windowed_domain(rng, n)
        dc = check_domain(d, c).consistent
        bd = check_bounds_d(d, c).consistent
        bz = check_bounds_z(d, c).consistent
        if dc and not bd:
            violations += 1
        if bd and not bz:
            violations += 1
        if real_defined(c) and bz and not check_bounds_r(d, c).consistent:
            violations += 1

    # hull correspondence: bounds(Z) on D equals bounds(D) on range(D)
    rng = fresh_rng(2002)
    for _ in range(500):
        n = rng.randint(1, 5)
        c = random_int_constraint(rng, make_vars(n))
        d = windowed_domain(rng, n)
        if check_bounds_z(d, c).consistent != check_bounds_d(range_of(d), c).consistent:
            violations += 1

    # hull invariance for the set-free notions, plus the fixed counter-instance
    rng = fresh_rng(2003)
    for _ in range(500):
        n = rng.randint(1, 5)
        c = random_int_constraint(rng, make_vars(n))
        d = windowed_domain(rng, n)
        r = range_of(d)
        if check_bounds_z(d, c).consistent != check_bounds_z(r, c).consistent:
            violations += 1
        if real_defined(c):
            if check_bounds_r(d, c).consistent != check_bounds_r(r, c).consistent:
                violations += 1
    x1, x2, x3 = make_vars(3)
    c_lin = LinEq((LinTerm(1, x1), LinTerm(-3, x2), LinTerm(-5, x3)), 0)
    d3 = dom3([3, 4, 6], range(0, 3), [0, 1])
    if check_bounds_d(d3, c_lin).consistent:
        violations += 1
    if not check_bounds_d(range_of(d3), c_lin).consistent:
        violations += 1

    # equivalence corollaries on the four special corpora
    rng = fresh_rng(2004)
    agreed = 0
    while agreed < 500:
        n = rng.randint(1, 5)
        vs = make_vars(n)
        if n == 3 and rng.random() < 0.3:
            c = ProductLe(vs[0], vs[1], vs[2])
        else:
            c = LinLe(
                tuple(LinTerm(rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in vs),
                rng.randint(-10, 10),
            )
        d = windowed_domain(rng, n)
        if not is_monotonic(c, d).monotone:
            continue
        agreed += 1
        verdicts = {
            check_domain(d, c).consistent,
            check_bounds_d(d, c).consistent,
            check_bounds_z(d, c).consistent,
            check_bounds_r(d, c).consistent,
        }
        if len(verdicts) != 1:
            violations += 1

    rng = fresh_rng(2005)
    for _ in range(500):
        n = rng.randint(1, 5)
        c = LinNe(
            tuple(LinTerm(rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in make_vars(n)),
            rng.randint(-10, 10),
        )
        d = random_domain(rng, n, max_size=5)
        if len({
            check_bounds_d(d, c).consistent,
            check_bounds_z(d, c).consistent,
            check_bounds_r(d, c).consistent,
        }) != 1:
            violations += 1

    rng = fresh_rng(2006)
    for _ in range(500):
        vs = make_vars(2)
        c = MonoBij(vs[0], random_monofunc(rng), vs[1])
        d = windowed_domain(rng, 2)
        if len({
            check_bounds_d(d, c).consistent,
            check_bounds_z(d, c).consistent,
            check_bounds_r(d, c).consistent,
        }) != 1:
            violations += 1

    rng = fresh_rng(2007)
    for _ in range(500):
        n = rng.randint(1, 5)
        c = LinEq(
            tuple(LinTerm(rng.choice([-1, 1]), v) for v in make_vars(n)),
            rng.randint(-10, 10),
        )
        d = windowed_domain(rng, n)
        if check_bounds_z(d, c).consistent != check_bounds_r(d, c).consistent:
            violations += 1

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(
        capsys,
        f"[criterion 2] structural property suites: {'PASS' if ok else 'FAIL'} "
        f"(7 blocks x 500 instances, {violations} violations, {elapsed:.1f}s < 60s)",
    )
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_3_reduction_correctness(capsys):
    t0 = time.perf_counter()
    rng = fresh_rng(3001)
    mismatches = 0
    count = 220
    for _ in range(count):
        n = rng.randint(1, 12)
        items = tuple(rng.randint(1, 50) for _ in range(n))
        target = rng.randint(1, sum(items))
        m, _, _ = encode_subset_sum(SubsetSumInstance(items, target))
        c, _ = m.constraints[0]
        got = check_bounds_z(m.initial, c).consistent
        if got != oracle_subset_sum(list(items), target):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(
        capsys,
        f"[criterion 3] subset-sum reduction: {'PASS' if ok else 'FAIL'} "
        f"({count} instances, n <= 12, {mismatches} mismatches, {elapsed:.1f}s < 60s)",
    )
    assert mismatches == 0
    assert elapsed < 60.0


def _subsets(universe):
    out = []
    for r in range(1, len(universe) + 1):
        out.extend(IntSet.of(c) for c in itertools.combinations(universe, r))
    return out


def _subintervals(lo, hi):
    return [
        IntSet.interval(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)
    ]


def _certify(c, domains, notions, counter):
    mismatches = 0
    for combo in domains:
        d = Domain(combo)
        for notion in notions:
            got = propagate(d, c, notion)
            want = oracle_fixpoint(d, c, notion)
            counter[0] += 1
            if want is None:
                if not got.failed:
                    mismatches += 1
            elif got.failed or got.domain != want:
                mismatches += 1
    return mismatches


def test_criterion_4_propagator_certification(capsys):
    t0 = time.perf_counter()
    x1, x2, x3, x4 = make_vars(4)
    integer_notions = [N.DOMAIN, N.BOUNDS_D, N.BOUNDS_Z]
    counter = [0]
    mismatches = 0

    two = list(itertools.product(_subsets((-2, -1, 1, 3)), repeat=2))
    for c, notions in [
        (LinEq((LinTerm(2, x1), LinTerm(-3, x2)), 1), ALL_NOTIONS),
        (LinLe((LinTerm(1, x1), LinTerm(-2, x2)), -1), ALL_NOTIONS),
        (LinNe((LinTerm(2, x1), LinTerm(1, x2)), 0), ALL_NOTIONS),
        (AllDifferent((x1, x2)), ALL_NOTIONS),
        (MonoBij(x1, Affine(2, -1), x2), ALL_NOTIONS),
        (MonoBij(x1, PowK(1, 2), x2), ALL_NOTIONS),
        (MonoBij(x1, PowerSum3(), x2), ALL_NOTIONS),
        (ReifLinLe(x1, (LinTerm(2, x2),), 1), integer_notions),
        (Table((x1, x2), ((-2, 1), (1, 1), (3, -1))), integer_notions),
    ]:
        mismatches += _certify(c, two, notions, counter)

    three = list(itertools.product(_subsets((-1, 0, 2)), repeat=3))
    for c, notions in [
        (LinEq((LinTerm(1, x1), LinTerm(-2, x2), LinTerm(2, x3)), 1), ALL_NOTIONS),
        (LinEq((LinTerm(1, x1), LinTerm(-1, x2), LinTerm(1, x3)), 1), ALL_NOTIONS),
        (LinLe((LinTerm(2, x1), LinTerm(-1, x2), LinTerm(1, x3)), 2), ALL_NOTIONS),
        (LinNe((LinTerm(1, x1), LinTerm(1, x2), LinTerm(-1, x3)), 0), ALL_NOTIONS),
        (AllDifferent((x1, x2, x3)), ALL_NOTIONS),
        (ProductLe(x1, x2, x3), ALL_NOTIONS),
        (Mod(x1, x2, x3), integer_notions),
        (Table((x1, x2, x3), ((-1, 0, 2), (0, 0, 0), (2, -1, -1))), integer_notions),
    ]:
        mismatches += _certify(c, three, notions, counter)

    four = list(itertools.product(_subsets((0, 1)), repeat=4))
    for c, notions in [
        (LinEq((LinTerm(1, x1), LinTerm(2, x2), LinTerm(-3, x3), LinTerm(-3, x4)), 0), ALL_NOTIONS),
        (LinEq((LinTerm(1, x1), LinTerm(1, x2), LinTerm(-1, x3), LinTerm(-1, x4)), 0), ALL_NOTIONS),
        (LinLe((LinTerm(1, x1), LinTerm(1, x2), LinTerm(1, x3), LinTerm(1, x4)), 2), ALL_NOTIONS),
        (LinNe((LinTerm(1, x1), LinTerm(1, x2), LinTerm(1, x3), LinTerm(1, x4)), 2), ALL_NOTIONS),
        (AllDifferent((x1, x2, x3, x4)), ALL_NOTIONS),
    ]:
        mismatches += _certify(c, four, notions, counter)

    # six-value windows: every subinterval pair of [-3, 2]
    wide = list(itertools.product(_subintervals(-3, 2), repeat=2))
    for c, notions in [
        (LinEq((LinTerm(2, x1), LinTerm(-3, x2)), 1), ALL_NOTIONS),
        (MonoBij(x1, Affine(-2, 1), x2), ALL_NOTIONS),
    ]:
        mismatches += _certify(c, wide, notions, counter)

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    report(
        capsys,
        f"[criterion 4] propagator certification: {'PASS' if ok else 'FAIL'} "
        f"({counter[0]} exhaustive fixpoint comparisons incl. deletion-order "
        f"confluence, {mismatches} mismatches, {elapsed:.1f}s)",
    )
    assert mismatches == 0


def _median_step_ratios(calls, batch, rounds):
    """Per step between consecutive calls, the median over rounds of their
    batch-time ratio.

    The machine's speed can switch between samples, so within a round the
    calls are timed back to back, each over a batch long enough to stay
    clear of timer and scheduler noise.
    """
    steps = [[] for _ in range(len(calls) - 1)]
    gc.disable()
    try:
        for _ in range(rounds):
            times = []
            for call in calls:
                t0 = time.perf_counter()
                for _ in range(batch):
                    call()
                times.append(time.perf_counter() - t0)
            for i, step in enumerate(steps):
                step.append(times[i + 1] / times[i])
    finally:
        gc.enable()
    return [statistics.median(step) for step in steps]


def _subset_sum_gadgets():
    """Criterion 5's subset-sum gadgets, at n = 10, 14, 18 and 22 items."""
    gadgets = []
    for n in (10, 14, 18, 22):
        items = tuple(2 * ((i % 24) + 1) for i in range(n))
        inst = SubsetSumInstance(items, sum(items) - 1)  # odd target: NO instance
        m, _, _ = encode_subset_sum(inst)
        c, _ = m.constraints[0]
        gadgets.append((m.initial, c))
    return gadgets


def test_criterion_5_cost_asymmetry(capsys):
    gadgets = _subset_sum_gadgets()
    for d, c in gadgets:
        res = check_bounds_z(d, c)
        assert not res.consistent  # full searches really happened

    # The exact check at n=10 takes a few ms and one linear pass ~100 us.
    bz_ratios = _median_step_ratios(
        [lambda d=d, c=c: check_bounds_z(d, c) for d, c in gadgets], batch=8, rounds=9
    )
    br_ratios = _median_step_ratios(
        [lambda d=d, c=c: propagate_linear_br(d, c) for d, c in gadgets],
        batch=64,
        rounds=25,
    )
    ok = all(r >= 2.0 for r in bz_ratios) and all(r <= 1.5 for r in br_ratios)
    report(
        capsys,
        f"[criterion 5] cost asymmetry: {'PASS' if ok else 'FAIL'} "
        f"(exact-check step ratios {[f'{r:.1f}x' for r in bz_ratios]} all >= 2.0x; "
        f"linear-pass step ratios {[f'{r:.2f}x' for r in br_ratios]} all <= 1.5x)",
    )
    assert all(r >= 2.0 for r in bz_ratios), bz_ratios
    assert all(r <= 1.5 for r in br_ratios), br_ratios


def test_criterion_5_cost_asymmetry_in_counts_of_work(capsys, monkeypatch):
    """Criterion 5's thresholds on counts of work, which no machine noise
    moves: the sums that `_lex_sums` builds in one exact check grow by at
    least 2.0x per step, and the term visits of the linear pass's
    `_shave_bounds` by at most 1.5x."""
    counts = {"sums": 0, "visits": 0}

    def lex_sums(free_vals, coeffs, build=checkers._lex_sums):
        sums = build(free_vals, coeffs)
        counts["sums"] += len(sums)
        return sums

    def shave_bounds(d, terms, rhs, equality, shave=propagators._shave_bounds):
        counts["visits"] += len(terms)
        return shave(d, terms, rhs, equality)

    monkeypatch.setattr(checkers, "_lex_sums", lex_sums)
    monkeypatch.setattr(propagators, "_shave_bounds", shave_bounds)
    sums, visits = [], []
    for d, c in _subset_sum_gadgets():
        counts.update(sums=0, visits=0)
        assert not check_bounds_z(d, c).consistent
        propagate_linear_br(d, c)
        sums.append(counts["sums"])
        visits.append(counts["visits"])
    sum_steps = [b / a for a, b in zip(sums, sums[1:])]
    visit_steps = [b / a for a, b in zip(visits, visits[1:])]
    ok = all(r >= 2.0 for r in sum_steps) and all(r <= 1.5 for r in visit_steps)
    report(
        capsys,
        f"[criterion 5] cost asymmetry in counts: {'PASS' if ok else 'FAIL'} "
        f"(sums built {sums}, steps {[f'{r:.2f}x' for r in sum_steps]} all >= 2.0x; "
        f"term visits {visits}, steps {[f'{r:.2f}x' for r in visit_steps]} all <= 1.5x)",
    )
    assert all(r >= 2.0 for r in sum_steps), sums
    assert all(r <= 1.5 for r in visit_steps), visits


def test_criterion_6_solver_completeness(capsys):
    t0 = time.perf_counter()
    rng = fresh_rng(6001)
    compared = 0
    mismatches = 0
    while compared < 150:
        n = rng.randint(2, 5)
        max_size = 4 if n >= 4 else 6
        vs = make_vars(n)
        d = random_domain(rng, n, max_size=max_size)
        tuples = 1
        for s in d.sets:
            tuples *= s.size
        if tuples > 10_000:
            continue
        constraints = []
        for _ in range(rng.randint(1, 2)):
            c = random_int_constraint(rng, vs)
            notions = list(ALL_NOTIONS) if real_defined(c) else [N.DOMAIN, N.BOUNDS_D, N.BOUNDS_Z]
            constraints.append((c, rng.choice(notions)))
        try:
            m = Model(tuple(vs), d, tuple(constraints))
        except ValueError:
            continue
        got, stats = solve(m)
        if not stats.complete:
            mismatches += 1
            continue
        want = oracle_solutions(list(vs), d, [c for c, _ in constraints])
        key = lambda t: tuple(t[v] for v in vs)
        if sorted(got, key=key) != sorted(want, key=key):
            mismatches += 1
        compared += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    report(
        capsys,
        f"[criterion 6] solver completeness: {'PASS' if ok else 'FAIL'} "
        f"({compared} instances vs brute force, {mismatches} mismatches, {elapsed:.1f}s)",
    )
    assert mismatches == 0
