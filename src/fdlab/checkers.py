"""Oracle-grade consistency checkers for the four notions.

A notion is fixed by two facts, and this module is the one place that
states them:

    notion     values needing support   supports searched in
    domain     every value              the actual sets
    bounds-d   inf and sup              the actual sets
    bounds-z   inf and sup              the integer boxes [inf, sup]
    bounds-r   inf and sup              the real boxes [inf, sup]

`needs_support` gives the first column, `candidates` the second (None for
the real boxes), `sees_holes` whether the second column reads the sets.
`check` is one loop over the variables and the values needing support; the
propagators and the engine read the same three functions.  Beside them,
`supported_window` gives the linear cases where a notion's supported values
are one window read off the other variables' hull, so that `propagate`
keeps that window instead of asking each value.

The reported integer support is the lexicographically first one, with
each variable's candidates in ascending order.  Real supports are decided
by exact closed forms over rationals: the linear greedy below, run over
the real boxes, for linear constraints, point-interval counting for
alldifferent, corner evaluation for the product and monotone-function
constraints.  No floating point anywhere.  A support of var=value never
reads var's own set.

An integer support is a tuple of ints in vars_of(c) order; only `support`
makes a `Valuation`, of the witness it reports.  Non-linear ones come from
a scan in lex order that tests each tuple with `constraints.holds`.  Linear
ones are searched exactly for the same first support: `<=` and `!=` by a
greedy that gives each variable its first value that the remaining
variables can still complete (polynomial), `=` by meet in the middle
(exponential in half the variables, as bounds(Z) checking of a linear
equation is NP-hard), unless the gcd of the coefficients does not divide
the remainder.
Where its tables would be large, a depth-first walk that solves the last
variable by division goes first, for a bounded time, so that an early
support over wide ranges costs no table.  Every linear support, integer or
real, reads the remainder left once var=value is pinned (`_pinned_linear`)
and the least and greatest sum of each suffix of the other terms
(`_hull`).  The real one is bounds(Z)'s question without integrality: the
same greedy over the boxes, with exact division where the integer one
rounds, and at `=` each value also kept within reach of the greatest
suffix sum.  All support arithmetic is exact Python ints and Fractions:
values are checked to fit 64 bits where they enter (see `domains`), and no
intermediate sum or product is bounded.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .constraints import (
    AllDifferent,
    Constraint,
    LinEq,
    LinLe,
    LinNe,
    MonoBij,
    ProductLe,
    RealSemanticsUndefined,
    holds,
    mono_eval_int,
    mono_inverse_frac,
    mono_requires_nonneg,
    # bound only because perfbench/tracing.py wraps this name (ROADMAP item 4)
    sat_int,
    vars_of,
)
from .domains import Domain, IntSet, Valuation, VarId


class ConsistencyNotion(Enum):
    DOMAIN = "domain"
    BOUNDS_D = "bounds-d"
    BOUNDS_Z = "bounds-z"
    BOUNDS_R = "bounds-r"


@dataclass(frozen=True)
class SupportWitness:
    """Support verdict for one (variable, value) membership question.

    `witness` binds all of the constraint's variables when present.  A
    supported verdict may omit the witness only when no rational witness
    exists (MonoBij supports whose unique real preimage is irrational).
    """

    var: VarId
    value: int
    supported: bool
    witness: Valuation | None


class CheckResult(NamedTuple):
    consistent: bool
    witnesses: tuple[SupportWitness, ...]


# --------------------------------------------------------------------------
# integer supports
#
# Candidate values come as a step-1 range or a sorted tuple, and linear
# coefficients are non-zero (LinTerm rejects 0).

# bound only because perfbench/tracing.py wraps this name (ROADMAP item 4)
_scan_linear_np = None

_TABLE_CAP = 1 << 18  # most sums a meet-in-the-middle table or list holds
_EAGER_COST = 1 << 16  # meet in the middle of at most this cost runs without a walk


class _OutOfBudget(Exception):
    """A walk of `_lex_walk` tried as many values as it was allowed."""


def _size(vs: Sequence[int]) -> int:
    # a range may hold more values than len() accepts
    return vs.stop - vs.start if isinstance(vs, range) else len(vs)


def _first_at_least(vs: Sequence[int], x: int) -> int | None:
    """First value of vs that is >= x, or None."""
    if isinstance(vs, range):
        v = max(vs.start, x)
        return v if v < vs.stop else None
    i = bisect_left(vs, x)
    return vs[i] if i < len(vs) else None


def _window(vs: Sequence[int], a: int, rest: int, lo: int, hi: int) -> range:
    """Positions in vs of the values v with lo <= rest - a*v <= hi."""
    if a < 0:
        a, rest, lo, hi = -a, -rest, -hi, -lo
    vlo, vhi = -((hi - rest) // a), (rest - lo) // a
    if isinstance(vs, range):
        return range(max(vlo, vs.start) - vs.start, min(vhi + 1, vs.stop) - vs.start)
    return range(bisect_left(vs, vlo), bisect_right(vs, vhi))


def _pinned_linear(
    c: Constraint, pin: VarId, value: int
) -> tuple[list[VarId], list[int], int, str]:
    """The other variables of linear c, their coefficients, and the remainder
    their sum must stand in relation c.op to once pin=value."""
    others, coeffs, rest = [], [], c.rhs
    for t in c.terms:
        if t.var == pin:
            rest -= t.coeff * value
        else:
            others.append(t.var)
            coeffs.append(t.coeff)
    return others, coeffs, rest, c.op


def _hull(ends: Sequence[Sequence[int]], coeffs: list[int]) -> list[tuple[int, int]]:
    """hull[i]: least and greatest sum of the terms i.. (empty at the end),
    term j ranging from ends[j][0] to ends[j][-1]."""
    hull = [(0, 0)] * (len(coeffs) + 1)
    for i in range(len(coeffs) - 1, -1, -1):
        a, vs = coeffs[i], ends[i]
        lo, hi = (a * vs[0], a * vs[-1]) if a > 0 else (a * vs[-1], a * vs[0])
        hull[i] = (hull[i + 1][0] + lo, hull[i + 1][1] + hi)
    return hull


def _greedy(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, op: str
) -> tuple[int, ...] | None:
    # Each variable takes its first value that the terms after it can still
    # complete: for le, when their least sum fits the remainder; for ne,
    # unless they reach one sum only and it is the forbidden remainder.
    hull = _hull(free_vals, coeffs)
    lo, hi = hull[0]
    if lo > target if op == "le" else lo == hi == target:
        return None
    out = []
    rest = target
    for a, vs, (lo, hi) in zip(coeffs, free_vals, hull[1:]):
        v = vs[0]
        if op == "ne":
            if lo == hi and a * v + lo == rest:
                v = vs[1]
        elif a < 0:  # a*v <= rest - lo means v >= the ceiling of its quotient
            v = _first_at_least(vs, -((lo - rest) // a))
        out.append(v)
        rest -= a * v
    return tuple(out)


def _lex_sums(free_vals: list[Sequence[int]], coeffs: list[int]) -> list[int]:
    """Sum of every assignment, listed in lex-ascending order of assignments."""
    sums = [0]
    for a, vs in zip(coeffs, free_vals):
        sums = [s + a * v for s in sums for v in vs]
    return sums


def _lex_assignment(free_vals: list[Sequence[int]], rank: int) -> tuple[int, ...]:
    """The assignment at position `rank` in lex-ascending order."""
    out = []
    for vs in reversed(free_vals):
        rank, k = divmod(rank, len(vs))
        out.append(vs[k])
    return tuple(reversed(out))


def _lex_walk(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, budget: float
) -> tuple[int, ...] | None:
    # Depth-first in lex order over all but the last variable, which is
    # solved by division plus a range test or bisect.  A value is tried only
    # if the terms after it can still reach its remainder.  Raises
    # _OutOfBudget when it has tried `budget` values.
    vs, a, m = free_vals[-1], coeffs[-1], len(free_vals) - 1

    def last(r: int) -> tuple[int, ...] | None:
        v, rem = divmod(r, a)
        return (v,) if rem == 0 and _first_at_least(vs, v) == v else None

    if m == 0:
        return last(target)
    hull = _hull(free_vals, coeffs)
    if not hull[0][0] <= target <= hull[0][1]:
        return None
    chosen = [0] * m
    rests = [target] * m
    stack = [iter(_window(free_vals[0], coeffs[0], target, *hull[1]))]
    while stack:
        i = len(stack) - 1
        k = next(stack[i], None)
        if k is None:
            stack.pop()
            continue
        budget -= 1
        if budget < 0:
            raise _OutOfBudget
        v = chosen[i] = free_vals[i][k]
        rest = rests[i] - coeffs[i] * v
        if i + 1 < m:
            rests[i + 1] = rest
            window = _window(free_vals[i + 1], coeffs[i + 1], rest, *hull[i + 2])
            stack.append(iter(window))
        else:
            t = last(rest)
            if t is not None:
                return tuple(chosen) + t
    return None


def _meet_in_the_middle(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int
) -> tuple[int, ...] | None:
    # Horowitz & Sahni, JACM 21(2), 1974.  The left variables are walked in
    # lex order, the first one lazily and the others from a list of their
    # sums, and each remainder is looked up in a table of the right ones
    # that keeps the lex-first right assignment per sum, so the first hit is
    # the lex-first support.  The split minimises walk plus table size,
    # among those whose table and list hold at most _TABLE_CAP sums.
    # When that cost exceeds _EAGER_COST, or no split fits, `_lex_walk` goes
    # first: it finds an early support at once, even over wide ranges, but
    # may take exponential time to prove there is none.  So it may take only
    # about as long as meet in the middle would at worst (a try costs about
    # as much as 32 table entries); without a split it runs to the end.
    n = len(free_vals)
    if n == 0:
        return () if target == 0 else None
    if target % math.gcd(*coeffs):  # every sum is a multiple of the gcd
        return None
    if n < 3:  # no split leaves two variables on the right
        return _lex_walk(free_vals, coeffs, target, math.inf)
    # count[k]: number of assignments of the first k variables
    count = list(itertools.accumulate(map(_size, free_vals), mul, initial=1))
    m, cost = None, math.inf
    for k in range(1, n - 1):
        walk, table = count[k], count[n] // count[k]
        fits = table <= _TABLE_CAP and walk // count[1] <= _TABLE_CAP
        if fits and walk + table < cost:
            m, cost = k, walk + table
    if cost > _EAGER_COST:
        try:
            return _lex_walk(free_vals, coeffs, target, cost // 32)
        except _OutOfBudget:
            pass
    left, right = free_vals[1:m], free_vals[m:]
    sums = _lex_sums(right, coeffs[m:])
    # inserted last to first, so each sum keeps its lex-first rank
    first = dict(zip(reversed(sums), range(len(sums) - 1, -1, -1)))
    inner = _lex_sums(left, coeffs[1:m])
    for v in free_vals[0]:
        r = target - coeffs[0] * v
        for i, s in enumerate(inner):
            j = first.get(r - s)
            if j is not None:
                return (v,) + _lex_assignment(left, i) + _lex_assignment(right, j)
    return None


def _scan_linear_py(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, op: str
) -> tuple[int, ...] | None:
    """Lex-ascending first assignment with sum(coeff*value) `op` target."""
    if op == "eq":
        return _meet_in_the_middle(free_vals, coeffs, target)
    return _greedy(free_vals, coeffs, target, op)


CandidateFn = Callable[[VarId], Sequence[int]]


def _find_int_support(
    c: Constraint, pin: VarId, value: int, candidates: CandidateFn
) -> tuple[int, ...] | None:
    """Lex-first integral support of pin=value over the other variables, as
    the values of vars_of(c) in order (pin's in its place), or None."""
    if isinstance(c, (LinEq, LinLe, LinNe)):
        free, coeffs, rest, op = _pinned_linear(c, pin, value)
        chosen = _scan_linear_py([candidates(v) for v in free], coeffs, rest, op)
        if chosen is None:
            return None
        i = vars_of(c).index(pin)
        return chosen[:i] + (value,) + chosen[i:]
    # generic catalog: every tuple in lex order, pin held at value
    pools = [(value,) if v == pin else candidates(v) for v in vars_of(c)]
    return next((t for t in itertools.product(*pools) if holds(c, t)), None)


# --------------------------------------------------------------------------
# real (rational) bound supports, closed forms


def _real_support_linear(
    d: Domain, c: Constraint, pin: VarId, value: int
) -> tuple[bool, Valuation | None]:
    # The integer greedy over the real boxes, dividing exactly where it rounds.
    others, coeffs, rest, op = _pinned_linear(c, pin, value)
    boxes = [(d.inf(v), d.sup(v)) for v in others]
    hull = _hull(boxes, coeffs)
    lo, hi = hull[0]
    bindings: dict[VarId, int | Fraction] = {pin: value}
    if op == "ne":  # infeasible only when the boxes reach the forbidden sum alone
        if lo == hi == rest:
            return False, None
        # the least corner, or a midpoint of one box if that corner hits rest
        bindings.update((v, l) for v, (l, _) in zip(others, boxes))
        if sum(a * l for a, (l, _) in zip(coeffs, boxes)) == rest:
            v, l, u = next((v, l, u) for v, (l, u) in zip(others, boxes) if l < u)
            bindings[v] = Fraction(l + u, 2)
        return True, Valuation(bindings)
    if lo > rest or (op == "eq" and rest > hi):
        return False, None
    for v, a, (l, _), (lo, hi) in zip(others, coeffs, boxes, hull[1:]):
        # the least x in the box with a*x + lo <= rest, and at eq a*x + hi >= rest
        if a < 0:
            x = l if a * l + lo <= rest else Fraction(rest - lo, a)
        elif op == "eq":
            x = l if a * l + hi >= rest else Fraction(rest - hi, a)
        else:
            x = l
        bindings[v] = x
        rest -= a * x
    return True, Valuation(bindings)


def _real_support_alldiff(
    d: Domain, c: AllDifferent, pin: VarId, value: int
) -> tuple[bool, Valuation | None]:
    # Positive-length intervals hold unboundedly many reals, so collisions
    # can only be forced among point intervals and the pinned value.
    bindings: dict[VarId, Fraction] = {pin: Fraction(value)}
    flexible: list[tuple[VarId, int, int]] = []
    for v in c.vars:
        if v == pin:
            continue
        l, u = d.inf(v), d.sup(v)
        if l == u:
            bindings[v] = Fraction(l)
        else:
            flexible.append((v, l, u))
    used = set(bindings.values())
    if len(used) != len(bindings):
        return False, None
    for v, l, u in flexible:
        m = len(used)
        for k in range(m + 3):
            cand = Fraction(l) + Fraction(u - l) * Fraction(k, m + 2)
            if cand not in used:
                bindings[v] = cand
                used.add(cand)
                break
    return True, Valuation(bindings)


def _real_support_product(
    d: Domain, c: ProductLe, pin: VarId, value: int
) -> tuple[bool, Valuation | None]:
    def box(v: VarId) -> tuple[int, int]:
        if v == pin:
            return value, value
        return d.inf(v), d.sup(v)

    l1, u1 = box(c.x1)
    l2, u2 = box(c.x2)
    l3, u3 = box(c.x3)
    # bilinear extrema over a box sit at corners
    best: tuple[int, int, int] | None = None
    for v1 in sorted({l1, u1}):
        for v2 in sorted({l2, u2}):
            p = v1 * v2
            if p <= u3:
                best = (v1, v2, max(l3, p))
                break
        if best:
            break
    if best is None:
        return False, None
    v1, v2, v3 = best
    return True, Valuation({c.x1: v1, c.x2: v2, c.x3: v3})


def _real_support_monobij(
    d: Domain, c: MonoBij, pin: VarId, value: int
) -> tuple[bool, Valuation | None]:
    l1, u1 = d.inf(c.x1), d.sup(c.x1)
    l2, u2 = d.inf(c.x2), d.sup(c.x2)
    if pin == c.x1:
        l1 = u1 = value
    else:
        l2 = u2 = value
    if mono_requires_nonneg(c.func):
        l2 = max(l2, 0)
        if l2 > u2:
            return False, None
    if pin == c.x2:
        y = Fraction(mono_eval_int(c.func, l2)) if l2 == u2 else None
        if y is None:  # pinned value clipped away by the restriction
            return False, None
        if Fraction(l1) <= y <= Fraction(u1):
            return True, Valuation({c.x1: y, c.x2: Fraction(l2)})
        return False, None
    ya = mono_eval_int(c.func, l2)
    yb = mono_eval_int(c.func, u2)
    lo_y, hi_y = (ya, yb) if ya <= yb else (yb, ya)
    if not (lo_y <= value <= hi_y):
        return False, None
    inv = mono_inverse_frac(c.func, Fraction(value))
    if inv is not None and Fraction(l2) <= inv <= Fraction(u2):
        return True, Valuation({c.x1: Fraction(value), c.x2: inv})
    return True, None


def _real_support(
    d: Domain, c: Constraint, pin: VarId, value: int
) -> tuple[bool, Valuation | None]:
    if isinstance(c, (LinEq, LinLe, LinNe)):
        return _real_support_linear(d, c, pin, value)
    if isinstance(c, AllDifferent):
        return _real_support_alldiff(d, c, pin, value)
    if isinstance(c, ProductLe):
        return _real_support_product(d, c, pin, value)
    if isinstance(c, MonoBij):
        return _real_support_monobij(d, c, pin, value)
    raise RealSemanticsUndefined(
        f"{type(c).__name__} has no real semantics; bounds(R) undefined"
    )


# --------------------------------------------------------------------------
# the notion table and the checker


def needs_support(s: IntSet, notion: ConsistencyNotion) -> tuple[int, ...]:
    """The values of s that must have a support at `notion`."""
    if notion is ConsistencyNotion.DOMAIN:
        return s.values
    return (s.inf,) if s.inf == s.sup else (s.inf, s.sup)


def sees_holes(notion: ConsistencyNotion) -> bool:
    """Whether supports come from the actual sets, so that holes matter."""
    return notion in (ConsistencyNotion.DOMAIN, ConsistencyNotion.BOUNDS_D)


def candidates(d: Domain, notion: ConsistencyNotion) -> CandidateFn | None:
    """Where supports are searched; None stands for the real boxes."""
    if sees_holes(notion):
        return lambda v: d.get(v).values
    if notion is ConsistencyNotion.BOUNDS_Z:
        return lambda v: range(d.inf(v), d.sup(v) + 1)
    return None


def supported_window(
    d: Domain, c: Constraint, notion: ConsistencyNotion, var: VarId
) -> range | None:
    """Positions in var's values of those with a support at `notion`, when
    the notion's supports of c form one window read off the other variables'
    hull; None when each value must be searched.

    That holds for `<=` at every notion (a least sum sits at set endpoints),
    for `=` at bounds(R), and for `=` at bounds(Z) when every coefficient is
    +-1 (the integer sums over integer boxes then fill their hull).
    """
    if isinstance(c, LinEq):
        if notion is not ConsistencyNotion.BOUNDS_R and not (
            notion is ConsistencyNotion.BOUNDS_Z
            and all(abs(t.coeff) == 1 for t in c.terms)
        ):
            return None
    elif not isinstance(c, LinLe):
        return None
    others, coeffs, rhs, _ = _pinned_linear(c, var, 0)
    lo, hi = _hull([(d.inf(v), d.sup(v)) for v in others], coeffs)[0]
    values = d.get(var).values
    a = next(t.coeff for t in c.terms if t.var == var)
    if isinstance(c, LinLe):  # no upper limit: one that every remainder meets
        hi = rhs - min(a * values[0], a * values[-1])
    return _window(values, a, rhs, lo, hi)


def support(
    d: Domain, c: Constraint, notion: ConsistencyNotion, var: VarId, value: int
) -> SupportWitness:
    """Support verdict for var=value at `notion`; never reads var's own set."""
    cands = candidates(d, notion)
    if cands is None:
        supported, w = _real_support(d, c, var, value)
        return SupportWitness(var, value, supported, w)
    t = _find_int_support(c, var, value, cands)
    if t is None:
        return SupportWitness(var, value, False, None)
    return SupportWitness(var, value, True, Valuation(dict(zip(vars_of(c), t))))


def check(d: Domain, c: Constraint, notion: ConsistencyNotion) -> CheckResult:
    """Every value that `notion` names has a support where `notion` searches."""
    witnesses = tuple(
        support(d, c, notion, var, value)
        for var in vars_of(c)
        for value in needs_support(d.get(var), notion)
    )
    return CheckResult(all(w.supported for w in witnesses), witnesses)


def check_domain(d: Domain, c: Constraint) -> CheckResult:
    """Every value of every variable has an integral support in the sets."""
    return check(d, c, ConsistencyNotion.DOMAIN)


def check_bounds_d(d: Domain, c: Constraint) -> CheckResult:
    """Each variable's inf and sup has an integral support in the sets."""
    return check(d, c, ConsistencyNotion.BOUNDS_D)


def check_bounds_z(d: Domain, c: Constraint) -> CheckResult:
    """Each variable's inf and sup has an integral support within the boxes."""
    return check(d, c, ConsistencyNotion.BOUNDS_Z)


def check_bounds_r(d: Domain, c: Constraint) -> CheckResult:
    """Each variable's inf and sup has a real support within the boxes."""
    return check(d, c, ConsistencyNotion.BOUNDS_R)
