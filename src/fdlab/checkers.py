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
one table keyed by constraint class (`_CLASSES`) gives each class's
integer and real support searches and its closed-form reader, with the
cases where a notion's supported values are a union of windows read off
the other variables' ends, which `propagate` keeps instead of asking each
value (`closed_form`).

The reported integer support is the lexicographically first one, with
each variable's candidates in ascending order.  A linear or bilinear form
takes its least and greatest values over a box at integral corners, and
x1 = g(x2) with x2 pinned has the one support g(value), so for these the
real supports are the integer ones over the boxes.  `_real_support` keeps
a search of its own, exact over rationals, only where bounds(R) differs
from bounds(Z): `=` (exact division), alldifferent (a box of positive
length avoids any finite set of points) and x1 = g(x2) with x1 pinned
(its preimage may be irrational).  No floating point anywhere.  A support
of var=value never reads var's own set.

Every search answers with the supporting values in vars_of(c) order, ints
for an integer support and ints or Fractions for a real one; only
`support` makes a `Valuation`, of the witness it reports.  Integer product
supports come from window lookups: for a fixed factor the product is
linear in the other, so each variable in turn takes its least value that
the later ones can still complete.  A strictly monotone g leaves one
candidate for x1 = g(x2) once either side is pinned: g(value), or value's
integral preimage.  Other non-linear ones come from a scan in lex order
that tests each tuple with the class's `holds`.  Linear and reified linear
ones come from one lex-first walk (`_lex_walk`) in which each variable
tries only the values whose remainder the later terms can still meet.  At
`<=` it never backtracks (polynomial), and a reified `<=` is one such walk
per value of its bool; `!=` needs no walk, as the lex-first assignment or
its lex successor has a sum other than the target.  At `=` it may
backtrack, as bounds(Z) checking of a linear equation is NP-hard: an
equation goes to meet in the middle (exponential in half the variables)
unless the gcd of the coefficients does not divide the remainder, and
where its tables would be large the walk goes first, for a bounded time,
so that an early support over wide ranges costs no table.  The queries of
one `check` share one table per side, kept under the candidates and
coefficients it is a pure function of, so no witness changes: every pin
left of the split meets the same right table, and every pin right of it
the same left list.  A side's ranks are decoded into values once per call,
under that side's candidates alone, as the coefficients do not change a
decoded assignment.  Every linear support, integer or real, reads the
other terms once var is pinned (`_pinned_linear`) and the least and
greatest sum of each suffix of them (`_hull`).  The real one at `=` is the
walk over the boxes, with exact division where the integer one rounds,
which never backtracks.  All support arithmetic is exact Python ints and
Fractions: values are checked to fit 64 bits where they enter (see
`domains`), and no intermediate sum or product is bounded.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, NamedTuple, Sequence

from .constraints import (
    AllDifferent,
    Constraint,
    LinEq,
    LinLe,
    LinNe,
    Mod,
    MonoBij,
    ProductLe,
    RealSemanticsUndefined,
    ReifLinLe,
    Table,
    mono_eval_vs64,
    # bound only because perfbench/tracing.py wraps this name (ROADMAP item 4)
    sat_int,
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


def _shared(tables: dict | None, slot: str, build: Callable, *key: object):
    """build(*key), kept in tables[slot] (one `check` call's) until asked with
    another key; a builder is a pure function of its key, so no answer changes."""
    if tables is None:
        return build(*key)
    if tables.get(slot, (None,))[0] != key:
        tables[slot] = None  # the old value goes before the new one is built
        tables[slot] = key, build(*key)
    return tables[slot][1]


class _OutOfBudget(Exception):
    """A walk of `_lex_walk` tried as many values as it was allowed."""


def _size(vs: Sequence[int]) -> int:
    # a range may hold more values than len() accepts
    return vs.stop - vs.start if isinstance(vs, range) else len(vs)


def _window(
    vs: Sequence[int], a: int, rest: int, lo: int, hi: int | None = None
) -> range:
    """Positions in vs of the values v with lo <= rest - a*v <= hi, where hi
    None puts no upper limit on rest - a*v."""
    if hi is None:  # a limit that rest - a*v meets for every v in vs
        hi = rest - min(a * vs[0], a * vs[-1])
    if a < 0:
        a, rest, lo, hi = -a, -rest, -hi, -lo
    vlo, vhi = -((hi - rest) // a), (rest - lo) // a
    if isinstance(vs, range):
        return range(max(vlo, vs.start) - vs.start, min(vhi + 1, vs.stop) - vs.start)
    return range(bisect_left(vs, vlo), bisect_right(vs, vhi))


def _le_window(vs: Sequence[int], a: int, bound: int) -> range:
    """Positions in vs of the values v with a*v <= bound; a may be 0."""
    if a == 0:
        return range(_size(vs) if bound >= 0 else 0)
    return _window(vs, a, bound, 0)


def _pinned_linear(
    c: Constraint, pin: VarId, candidates: CandidateFn
) -> tuple[list[Sequence[int]], list[int], int]:
    """The other variables' candidates in the sum of c (linear or reified
    linear), their coefficients, and pin's coefficient a (0 if pin is not in
    it): once pin=value, their sum is compared with c.rhs - a*value."""
    free_vals, coeffs, a = [], [], 0
    for t in c.terms:
        if t.var == pin:
            a = t.coeff
        else:
            free_vals.append(candidates(t.var))
            coeffs.append(t.coeff)
    return free_vals, coeffs, a


def _hull(ends: Sequence[Sequence[int]], coeffs: list[int]) -> list[tuple[int, int]]:
    """hull[i]: least and greatest sum of the terms i.. (empty at the end),
    term j ranging from ends[j][0] to ends[j][-1]."""
    hull = [(0, 0)] * (len(coeffs) + 1)
    for i in range(len(coeffs) - 1, -1, -1):
        a, vs = coeffs[i], ends[i]
        lo, hi = (a * vs[0], a * vs[-1]) if a > 0 else (a * vs[-1], a * vs[0])
        hull[i] = (hull[i + 1][0] + lo, hull[i + 1][1] + hi)
    return hull


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


class _Decoded(dict):
    """rank -> `_lex_assignment(free_vals, rank)`, each rank decoded once; a
    pure function of free_vals, whatever the coefficients."""

    def __init__(self, free_vals: tuple[Sequence[int], ...]):
        super().__init__()
        self.free_vals = free_vals

    def __missing__(self, rank: int) -> tuple[int, ...]:
        t = self[rank] = _lex_assignment(self.free_vals, rank)
        return t


def _lex_walk(
    free_vals: list[Sequence[int]],
    coeffs: list[int],
    target: int,
    op: str,
    budget: float = math.inf,
) -> tuple[int, ...] | None:
    """Lex-ascending first assignment with sum(coeff*value) `op` target, for
    op "eq" or "le", depth first.  Raises _OutOfBudget when it has tried
    `budget` values."""
    # Variable i tries only the values whose remainder the later terms can
    # still meet: within their hull at eq, at or above their least sum at le.
    # The hull of no terms is (0, 0), so the last variable's window holds
    # exactly the values that complete the sum.  At le the first value of
    # every window completes, so the walk never backtracks.
    hull = _hull(free_vals, coeffs)
    if target < hull[0][0] or (op == "eq" and target > hull[0][1]):
        return None
    if not free_vals:
        return ()
    if op == "le":
        hull = [(lo, None) for lo, _ in hull]
    chosen = [0] * len(free_vals)
    stack = [(iter(_window(free_vals[0], coeffs[0], target, *hull[1])), target)]
    while stack:
        i = len(stack) - 1
        window, rest = stack[i]
        k = next(window, None)
        if k is None:
            stack.pop()
            continue
        budget -= 1
        if budget < 0:
            raise _OutOfBudget
        v = chosen[i] = free_vals[i][k]
        if i + 1 == len(free_vals):
            return tuple(chosen)
        rest -= coeffs[i] * v
        window = _window(free_vals[i + 1], coeffs[i + 1], rest, *hull[i + 2])
        stack.append((iter(window), rest))
    return None


def _first_ranks(free_vals: list[Sequence[int]], coeffs: list[int]) -> dict[int, int]:
    """Each sum of `_lex_sums`, with the rank of its lex-first assignment."""
    sums = _lex_sums(free_vals, coeffs)
    # inserted last to first, so each sum keeps its lex-first rank
    return dict(zip(reversed(sums), range(len(sums) - 1, -1, -1)))


def _split(free_vals: tuple[Sequence[int], ...]) -> tuple[int | None, float]:
    """(k, cost) of the split `_meet_in_the_middle` picks, or (None, inf)
    when none fits; it depends on the candidates' sizes alone."""
    n = len(free_vals)
    # count[k]: number of assignments of the first k variables
    count = list(itertools.accumulate(map(_size, free_vals), mul, initial=1))
    m, cost = None, math.inf
    for k in range(1, n - 1):
        walk, table = count[k], count[n] // count[k]
        fits = table <= _TABLE_CAP and walk // count[1] <= _TABLE_CAP
        if fits and walk + table < cost:
            m, cost = k, walk + table
    return m, cost


def _meet_in_the_middle(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, tables: dict | None
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
        return _lex_walk(free_vals, coeffs, target, "eq")
    m, cost = _shared(tables, "split", _split, tuple(free_vals))
    if cost > _EAGER_COST:
        try:
            return _lex_walk(free_vals, coeffs, target, "eq", cost // 32)
        except _OutOfBudget:
            pass
    left, right = tuple(free_vals[1:m]), tuple(free_vals[m:])
    first = _shared(tables, "right", _first_ranks, right, tuple(coeffs[m:]))
    inner = _shared(tables, "left", _lex_sums, left, tuple(coeffs[1:m]))
    for v in free_vals[0]:
        r = target - coeffs[0] * v
        for i, s in enumerate(inner):
            j = first.get(r - s)
            if j is not None:
                at_left = _shared(tables, "left decoded", _Decoded, left)
                at_right = _shared(tables, "right decoded", _Decoded, right)
                return (v,) + at_left[i] + at_right[j]
    return None


def _scan_linear_py(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, op: str, tables=None
) -> tuple[int, ...] | None:
    """Lex-ascending first assignment with sum(coeff*value) `op` target."""
    if op == "eq":
        return _meet_in_the_middle(free_vals, coeffs, target, tables)
    if op == "le":
        return _lex_walk(free_vals, coeffs, target, "le")
    least = tuple(vs[0] for vs in free_vals)  # the lex-first assignment of all
    if sum(map(mul, coeffs, least)) != target:
        return least
    # Its lex successor moves the last variable that has a second candidate
    # to it, which changes the sum by a non-zero amount.
    for i in range(len(free_vals) - 1, -1, -1):
        if _size(free_vals[i]) > 1:
            return least[:i] + (free_vals[i][1],) + least[i + 1 :]
    return None


CandidateFn = Callable[[VarId], Sequence[int]]


def _find_int_support(
    c: Constraint, pin: VarId, value: int, candidates: CandidateFn, tables=None
) -> tuple[int, ...] | None:
    """Lex-first integral support of pin=value over the other variables, as
    the values of vars_of(c) in order (pin's in its place), or None."""
    return _CLASSES[type(c)].int_support(c, pin, value, candidates, tables)


def _with_pin(
    c: Constraint, pin: VarId, value: int, chosen: tuple[int, ...] | None
) -> tuple[int, ...] | None:
    """The other variables' values `chosen`, with pin's put in its place."""
    if chosen is None:
        return None
    i = c.scope.index(pin)
    return chosen[:i] + (value,) + chosen[i:]


def _linear_support(c, pin, value, candidates, tables):
    # shared by the values of one pin; read only
    free_vals, coeffs, own = _shared(tables, "pin", _pinned_linear, c, pin, candidates)
    chosen = _scan_linear_py(free_vals, coeffs, c.rhs - own * value, c.op, tables)
    return _with_pin(c, pin, value, chosen)


def _reif_support(c, pin, value, candidates, tables):
    # b first: b = 0 where sum > rest, then b = 1
    free_vals, coeffs, own = _shared(tables, "pin", _pinned_linear, c, pin, candidates)
    rest = c.rhs - own * value
    bs = (value,) if pin == c.b else candidates(c.b)
    for b, signed, target in (0, [-a for a in coeffs], -rest - 1), (1, coeffs, rest):
        chosen = _lex_walk(free_vals, signed, target, "le") if b in bs else None
        if chosen is not None:
            return _with_pin(c, pin, value, chosen if pin == c.b else (b,) + chosen)
    return None


def _scan_support(c, pin, value, candidates, tables):
    # every tuple in lex order, pin held at value
    pools = [(value,) if v == pin else candidates(v) for v in c.scope]
    return next((t for t in itertools.product(*pools) if c.holds(t)), None)


def _monobij_support(
    c: MonoBij, pin: VarId, value: int, candidates: CandidateFn, tables=None
) -> tuple[int, int] | None:
    # g is strictly monotone, so a pinned variable leaves one value for the
    # other: g(value) for x1, or value's integral preimage for x2
    if pin == c.x2:
        x1, x2 = mono_eval_vs64(c.func, value), value
    else:
        inv = c.func.inverse(value)
        if inv is None or inv.denominator != 1:
            return None
        x1, x2 = value, int(inv)
    free, w = (c.x1, x1) if pin == c.x2 else (c.x2, x2)
    found = c.holds((x1, x2)) and _window(candidates(free), 1, w, 0, 0)
    return (x1, x2) if found else None


def _least_le(vs: Sequence[int], a: int, bound: int) -> int | None:
    """The least v in vs with a*v <= bound, or None."""
    w = _le_window(vs, a, bound)
    return vs[w.start] if w else None


def _product_support(
    c: ProductLe, pin: VarId, value: int, candidates: CandidateFn, tables=None
) -> tuple[int, ...] | None:
    # With one factor fixed the product is linear in the other, so its least
    # value over a set sits at the set's ends.  Each variable in turn takes
    # its least value that the later ones can still complete: with x3 = v,
    # x1 needs x1*g <= v for an end g of x2's candidates; with a factor
    # pinned, the other one needs f*value <= x3's greatest candidate.  x3 is
    # then the least candidate at or above the product.
    if pin == c.x3:
        s1, s2 = candidates(c.x1), candidates(c.x2)
        firsts = [_least_le(s1, g, value) for g in (s2[0], s2[-1])]
        x1 = min((f for f in firsts if f is not None), default=None)
        if x1 is None:
            return None
        return x1, _least_le(s2, x1, value), value
    other = c.x2 if pin == c.x1 else c.x1
    s3 = candidates(c.x3)
    f = _least_le(candidates(other), value, s3[-1])
    if f is None:
        return None
    x3 = _least_le(s3, -1, -f * value)
    return (value, f, x3) if pin == c.x1 else (f, value, x3)


# --------------------------------------------------------------------------
# real (rational) bound supports, closed forms


RealSupport = tuple[bool, tuple[int | Fraction, ...] | None]


def _real_support_eq(d: Domain, c: LinEq, pin: VarId, value: int) -> RealSupport:
    # The integer walk over the real boxes: each variable takes the least
    # value its window allows, dividing exactly where the integer one rounds.
    boxes, coeffs, own = _pinned_linear(c, pin, lambda v: (d.inf(v), d.sup(v)))
    rest = c.rhs - own * value
    hull = _hull(boxes, coeffs)
    if not hull[0][0] <= rest <= hull[0][1]:
        return False, None
    chosen: list[int | Fraction] = []
    for a, (l, _), (lo, hi) in zip(coeffs, boxes, hull[1:]):
        # the least x in the box with lo <= rest - a*x <= hi
        if a < 0:
            x = l if a * l + lo <= rest else Fraction(rest - lo, a)
        else:
            x = l if a * l + hi >= rest else Fraction(rest - hi, a)
        chosen.append(x)
        rest -= a * x
    chosen.insert(c.scope.index(pin), value)
    return True, tuple(chosen)


def _real_support_alldiff(
    d: Domain, c: AllDifferent, pin: VarId, value: int
) -> RealSupport:
    # A box of positive length holds unboundedly many reals, so collisions
    # can only be forced among point boxes, pin=value's among them.  Each
    # box of positive length takes the first of m + 3 evenly spaced points
    # in it that the m values used so far miss.
    boxes = [(value, value) if v == pin else (d.inf(v), d.sup(v)) for v in c.scope]
    used = {l for l, u in boxes if l == u}
    if len(used) < sum(l == u for l, u in boxes):
        return False, None
    chosen: list[int | Fraction] = []
    for l, u in boxes:
        x = l
        if l < u:
            m = len(used)
            points = (l + Fraction((u - l) * k, m + 2) for k in range(m + 3))
            x = next(p for p in points if p not in used)
            used.add(x)
        chosen.append(x)
    return True, tuple(chosen)


def _real_via_int(d: Domain, c: Constraint, pin: VarId, value: int) -> RealSupport:
    # the real supports of these are their integer ones (see the module doc)
    boxes = candidates(lambda v: d.get(v).values, ConsistencyNotion.BOUNDS_Z)
    t = _find_int_support(c, pin, value, boxes)
    return t is not None, t


def _real_support_monobij(d: Domain, c: MonoBij, pin: VarId, value: int) -> RealSupport:
    # x1 = value: supported iff value lies between g's values at x2's ends;
    # its one preimage may be irrational, and then no witness is given
    if pin != c.x1:
        return _real_via_int(d, c, pin, value)
    l2, u2 = d.inf(c.x2), d.sup(c.x2)
    if c.func.nonneg:
        l2 = max(l2, 0)
        if l2 > u2:
            return False, None
    ya = mono_eval_vs64(c.func, l2)
    yb = mono_eval_vs64(c.func, u2)
    if not min(ya, yb) <= value <= max(ya, yb):
        return False, None
    inv = c.func.inverse(value)
    return True, ((value, inv) if inv is not None and l2 <= inv <= u2 else None)


def _real_support(d: Domain, c: Constraint, pin: VarId, value: int) -> RealSupport:
    """Whether pin=value has a support in the real boxes, with the values of
    a rational one in vars_of(c) order where one exists."""
    if not c.real:
        raise RealSemanticsUndefined(
            f"{type(c).__name__} has no real semantics; bounds(R) undefined"
        )
    return _CLASSES[type(c)].real_support(d, c, pin, value)


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


def candidates(values: CandidateFn, notion: ConsistencyNotion) -> CandidateFn | None:
    """Where supports are searched, given each variable's values; None
    stands for the real boxes."""
    if sees_holes(notion):
        return values
    if notion is ConsistencyNotion.BOUNDS_Z:
        return lambda v: range(values(v)[0], values(v)[-1] + 1)
    return None


def _union(windows: Sequence[range]) -> tuple[range, ...]:
    """The positions of the windows, as ascending, disjoint, non-empty ones."""
    out: list[range] = []
    for w in sorted((w for w in windows if w), key=lambda w: w.start):
        if out and w.start <= out[-1].stop:
            out[-1] = range(out[-1].start, max(out[-1].stop, w.stop))
        else:
            out.append(w)
    return tuple(out)


def _product_windows(vals: list[Sequence[int]], k: int) -> tuple[range, ...]:
    s1, s2, s3 = vals
    if k == 2:  # v >= the least corner product
        least = min(s1[0] * s2[0], s1[0] * s2[-1], s1[-1] * s2[0], s1[-1] * s2[-1])
        return _union([_le_window(s3, -1, -least)])
    l, u = (s2[0], s2[-1]) if k == 0 else (s1[0], s1[-1])
    return _union([_le_window(vals[k], l, s3[-1]), _le_window(vals[k], u, s3[-1])])


def _alldiff_windows(vals: list[Sequence[int]], k: int) -> tuple[range, ...]:
    fixed = [vs[0] for j, vs in enumerate(vals) if j != k and len(vs) == 1]
    if len(set(fixed)) < len(fixed):
        return ()
    values, windows, start = vals[k], [], 0
    for f in sorted(fixed):
        windows.append(range(start, bisect_left(values, f)))
        start = bisect_right(values, f)
    return _union(windows + [range(start, len(values))])


class _Class(NamedTuple):
    """A constraint class: its integral support search, its real one (None
    without a real reading), and its closed-form reader where `reads`."""

    int_support: Callable
    real_support: Callable | None
    reader: Callable | None = None
    reads: Callable[[Constraint, ConsistencyNotion], bool] = lambda c, notion: True


_B_Z, _B_R = ConsistencyNotion.BOUNDS_Z, ConsistencyNotion.BOUNDS_R
_CLASSES = {
    LinEq: _Class(
        _linear_support, _real_support_eq, _window,
        lambda c, n: n is _B_R or n is _B_Z and all(abs(t.coeff) == 1 for t in c.terms),
    ),
    LinLe: _Class(_linear_support, _real_via_int, _window),
    LinNe: _Class(_linear_support, _real_via_int),
    ReifLinLe: _Class(_reif_support, None),
    ProductLe: _Class(_product_support, _real_via_int, _product_windows),
    MonoBij: _Class(_monobij_support, _real_support_monobij),
    AllDifferent: _Class(
        _scan_support, _real_support_alldiff, _alldiff_windows, lambda c, n: n is _B_R
    ),
    Mod: _Class(_scan_support, None),
    Table: _Class(_scan_support, None),
}


def closed_form(c: Constraint, notion: ConsistencyNotion) -> Callable | None:
    """The reader of c's supported values at `notion`, or None where each
    value must be searched.  For a linear form it is `_window`: var keeps
    the positions of its values v with lo <= rhs - a*v <= hi, for the least
    and greatest sum lo, hi of the other terms over the boxes (hi None at
    `<=`).  The others are `reader(vals, k)`, which gives the positions in
    vals[k] of those with a support, for vals the values of the scope in
    order, as ascending, disjoint, non-empty windows.  The cases:

    - `<=` at every notion (a least sum over sets, integer boxes or real
      boxes sits at the same integral corners, the sets' ends), `=` at
      bounds(R), and `=` at bounds(Z) when every coefficient is +-1 (the
      integer sums over integer boxes then fill their hull): one window.
    - x1*x2 <= x3 at every notion: for a fixed factor the product is linear
      in the other one, so its least value over a set, an integer box or a
      real box sits at the same integral ends.  x3 keeps the values at or
      above the least corner product; x1 keeps v with l*v <= u3 or
      u*v <= u3, for x2's ends l, u and x3's sup u3 (two windows, maybe
      with a gap), and x2 likewise.
    - alldifferent at bounds(R): a box of positive length avoids any finite
      set of reals, so only the other variables' point boxes F collide; the
      windows lie between the values of F, and none exist if F repeats one.
    """
    entry = _CLASSES[type(c)]
    return entry.reader if entry.reader and entry.reads(c, notion) else None


def support(
    d: Domain, c: Constraint, notion: ConsistencyNotion, var: VarId, value: int
) -> SupportWitness:
    """Support verdict for var=value at `notion`; never reads var's own set."""
    if var not in c.scope:
        raise ValueError(f"{var.name} is not a variable of the {type(c).__name__}")
    cands = candidates(lambda v: d.get(v).values, notion)
    return next(_verdicts(d, c, cands, [(var, value)], None))


def _verdicts(
    d: Domain, c: Constraint, cands: CandidateFn | None, pins: list, tables: dict | None
) -> Iterator[SupportWitness]:
    """The support verdict of each (var, value) in pins; witnesses with the
    same values share one Valuation, which is immutable."""
    valuations: dict[tuple | None, Valuation | None] = {None: None}
    search = _CLASSES[type(c)].int_support
    for var, value in pins:
        if cands is None:
            supported, t = _real_support(d, c, var, value)
        else:
            t = search(c, var, value, cands, tables)
            supported = t is not None
        if t not in valuations:
            valuations[t] = Valuation(dict(zip(c.scope, t)))
        yield SupportWitness(var, value, supported, valuations[t])


def check(d: Domain, c: Constraint, notion: ConsistencyNotion) -> CheckResult:
    """Every value that `notion` names has a support where `notion` searches."""
    cands = candidates(lambda v: d.get(v).values, notion)
    if cands is not None:  # each variable's candidates, built once
        cands = {v: cands(v) for v in c.scope}.__getitem__
    pins = [(v, value) for v in c.scope for value in needs_support(d.get(v), notion)]
    witnesses = tuple(_verdicts(d, c, cands, pins, tables={}))
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
