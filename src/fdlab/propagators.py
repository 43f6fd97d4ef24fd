"""Single-constraint propagators for the four notions.

propagate() computes the greatest fixpoint by deleting unsupported values,
with one revise loop for all four notions.  A support of var=value never
reads var's own set, so one revise of var against the current domain makes
var consistent: the domain notion keeps every supported value, the bounds
notions trim unsupported values from both ends (which keeps interior holes
intact, so bounds results are range-shaped prunings of the input).  Which
values need support and where supports are searched come from the notion
table in `checkers`.  Deletion order does not affect the result; the test
suite certifies this against an exhaustive deletion-order oracle.  The
values a result lost are the slices before and after the run of old values
it kept; only a `domain` revise that opens new holes is compared value by
value.

Points are never revised: any support of a free variable's value gives
each point its one value, so it supports that value too.  Once every
variable but var is a point, every notion seeks var=value's support at that
point, so `holds` decides it.  The revise loop switches to this rule
whenever one free variable is left, on entry or after a narrowing (a closed
form is still read where there is one).  A run passes through one free
variable before it could reach none, so two rules run on entry only: a
scope of points is one `holds`, and `!=` with two free variables is kept,
since each value meets two sums, one per candidate of another free term.
bounds(R) without real semantics raises first.

Some cases are revised in closed form, with no support query per value:
`checkers.closed_form`, asked once per call, lists them and gives a reader
of the supported values as a union of windows, which the domain notion
keeps and the bounds notions span.  A linear revise keeps one
`checkers.SumHull` for the whole call, updated when a term narrows, so
that each window costs O(1) sum arithmetic.

propagate_linear_br() is the pass-based shave for linear constraints: O(n)
bound shaving per pass with exact rational division and inward rounding.
It reaches the same fixpoint as propagate(.., BOUNDS_R) by a different
algorithm, and is kept as an independent reference for it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .checkers import (
    ConsistencyNotion,
    SumHull,
    _find_int_support,
    _linear_windows,
    _real_support,
    candidates,
    closed_form,
)
from .constraints import Constraint, LinEq, LinLe, LinNe, RealSemanticsUndefined
from .domains import Domain, IntSet, VarId


@dataclass(frozen=True)
class PropagationResult:
    """Fixpoint domain (None on failure) plus per-variable removed values.

    A failed result prunes nothing: `pruned` is ().
    """

    domain: Domain | None
    pruned: tuple[tuple[VarId, tuple[int, ...]], ...]

    @property
    def failed(self) -> bool:
        return self.domain is None

    @classmethod
    def between(
        cls, before: Domain, after: Domain | None, vars_: Iterable[VarId]
    ) -> "PropagationResult":
        """`after`, with the values of `vars_` it lost from `before`; each
        set of `after` is a subset of the one in `before`.

        A set that is one run of the old values (every bounds result is)
        loses the two slices around that run; only a set with new holes
        is compared value by value."""
        if after is None or after is before:
            return cls(after, ())
        pruned = []
        for v in sorted(set(vars_)):
            old, new = before.get(v).values, after.get(v).values
            if len(new) < len(old):
                i = bisect_left(old, new[0])
                j = i + len(new)
                if old[j - 1] == new[-1]:  # new is old[i:j]
                    pruned.append((v, old[:i] + old[j:]))
                else:
                    kept = set(new)
                    pruned.append((v, tuple(x for x in old if x not in kept)))
        return cls(after, tuple(pruned))


def propagate(
    d: Domain, c: Constraint, notion: ConsistencyNotion
) -> PropagationResult:
    """Greatest subdomain of d consistent with c at `notion`, or failure.

    Past the entry rules of the module doc, the free variables are revised
    round-robin until every one has been revised since the last narrowing;
    from the point where one is left, `holds` decides its values.  bounds(R)
    on a constraint without real semantics raises RealSemanticsUndefined.
    """
    cands = candidates(d, notion)
    if cands is None and not c.real:
        raise RealSemanticsUndefined(
            f"{type(c).__name__} has no real semantics; bounds(R) undefined"
        )
    free = [v for v in c.scope if not d.sets[v.index].is_singleton]
    if not free:
        return PropagationResult(d if c.holds(tuple(d.inf(v) for v in c.scope)) else None, ())
    if len(free) > 1 and isinstance(c, LinNe):
        return PropagationResult(d, ())
    form = closed_form(c, notion)
    hull = SumHull(d, c) if form is _linear_windows else None

    # Reads var, d and cands as they stand.  Not checkers.support: both
    # searches are looked up here at call time, so profilers can wrap them.
    def supported(value: int) -> bool:
        if point is not None:  # var is the one free variable
            point[c.scope.index(var)] = value
            return c.holds(tuple(point))
        if cands is None:
            return _real_support(d, c, var, value)[0]
        return _find_int_support(c, var, value, cands) is not None

    # `free` drops each variable that becomes a point
    before, point = d, None
    stable = i = 0
    while stable < len(free):
        if len(free) == 1 and point is None:  # on entry or after a narrowing
            point = [d.inf(v) for v in c.scope]
        var = free[i % len(free)]
        i += 1
        values = d.get(var).values
        if form is not None:
            windows = form(d, c, var, values, hull)
            if notion is ConsistencyNotion.DOMAIN and len(windows) > 1:
                kept = tuple(chain.from_iterable(values[w.start : w.stop] for w in windows))
            else:  # the bounds notions keep the holes between windows
                kept = values[windows[0].start : windows[-1].stop] if windows else ()
        elif notion is ConsistencyNotion.DOMAIN:
            kept = tuple(x for x in values if supported(x))
        else:
            lo, hi = 0, len(values) - 1
            while lo <= hi and not supported(values[lo]):
                lo += 1
            while hi > lo and not supported(values[hi]):
                hi -= 1
            kept = values[lo : hi + 1]
        if len(kept) == len(values):
            stable += 1
            continue
        if not kept:
            return PropagationResult(None, ())
        d = d.with_set(var, IntSet(kept))
        cands = candidates(d, notion)
        if hull is not None:
            hull.narrow(var, d.get(var))
        stable = 1
        if len(kept) == 1:  # a point now: every other free variable is due
            free.remove(var)
            stable = 0
    return PropagationResult.between(before, d, c.scope)


def _shave_bounds(
    d: Domain, terms: list[tuple[VarId, int]], rhs: int, equality: bool
) -> Domain | None:
    """One shaving pass, linear in the number of terms; None on emptied variable."""
    smin = smax = 0
    contrib = []
    for var, a in terms:
        p1 = a * d.inf(var)
        p2 = a * d.sup(var)
        lo, hi = (p1, p2) if p1 <= p2 else (p2, p1)
        contrib.append((lo, hi))
        smin += lo
        smax += hi
    for (var, a), (lo, hi) in zip(terms, contrib):
        # residual range over the other terms
        rmin = smin - lo
        rmax = smax - hi
        s = d.get(var)
        hi_q = Fraction(rhs - rmin, a)
        lo_q = Fraction(rhs - rmax, a)
        if a > 0:
            new_hi = math.floor(hi_q)
            new_lo = math.ceil(lo_q) if equality else s.inf
        else:
            new_lo = math.ceil(hi_q)
            new_hi = math.floor(lo_q) if equality else s.sup
        if new_lo > s.inf or new_hi < s.sup:
            shrunk = s.clamp(max(new_lo, s.inf), min(new_hi, s.sup))
            if shrunk is None:
                return None
            d = d.with_set(var, shrunk)
            p1 = a * shrunk.inf
            p2 = a * shrunk.sup
            nlo, nhi = (p1, p2) if p1 <= p2 else (p2, p1)
            smin += nlo - lo
            smax += nhi - hi
    return d


def propagate_linear_br(d: Domain, c: Constraint) -> PropagationResult:
    """bounds(R) fixpoint of a single linear constraint by bound shaving."""
    if not isinstance(c, (LinEq, LinLe, LinNe)):
        raise ValueError("propagate_linear_br only handles linear constraints")
    if isinstance(c, LinNe):
        return propagate(d, c, ConsistencyNotion.BOUNDS_R)
    before = d
    terms = [(t.var, t.coeff) for t in c.terms]
    while d is not None:
        nxt = _shave_bounds(d, terms, c.rhs, isinstance(c, LinEq))
        if nxt is None or nxt is d or nxt.sets == d.sets:
            d = nxt
            break
        d = nxt
    return PropagationResult.between(before, d, (t.var for t in c.terms))
