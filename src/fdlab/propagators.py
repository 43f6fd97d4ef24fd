"""Single-constraint propagators for the four notions.

propagate() computes the greatest fixpoint by deleting unsupported values,
with one revise loop for all four notions.  A support of var=value never
reads var's own set, so one revise of var against the current domain makes
var consistent: the domain notion keeps every supported value, the bounds
notions trim unsupported values from both ends (which keeps interior holes
intact, so bounds results are range-shaped prunings of the input).  Which
values need support and where supports are searched come from the notion
table in `checkers`.  Deletion order does not affect the result; the test
suite certifies this against an exhaustive deletion-order oracle.

Three linear cases are revised in closed form, with no support query per
value: `checkers.supported_window` reads the window of supported values off
the other variables' hull.  They are `<=` at every notion (its least sum
sits at set endpoints, which sets and boxes share), `=` at bounds(R), and
`=` at bounds(Z) when every coefficient is +-1 (the integer sums of such
terms fill their hull, so a real support implies an integer one).

propagate_linear_br() is the pass-based shave for linear constraints: O(n)
bound shaving per pass with exact rational division and inward rounding.
It reaches the same fixpoint as propagate(.., BOUNDS_R) by a different
algorithm, and is kept as an independent reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .checkers import (
    ConsistencyNotion,
    _find_int_support,
    _real_support,
    candidates,
    supported_window,
)
from .constraints import (
    Constraint,
    LinEq,
    LinLe,
    LinNe,
    vars_of,
)
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
        set of `after` is a subset of the one in `before`."""
        if after is None or after is before:
            return cls(after, ())
        pruned = []
        for v in sorted(set(vars_)):
            old, new = before.get(v), after.get(v)
            if new.size < old.size:
                kept = set(new.values)
                pruned.append((v, tuple(x for x in old.values if x not in kept)))
        return cls(after, tuple(pruned))


def propagate(
    d: Domain, c: Constraint, notion: ConsistencyNotion
) -> PropagationResult:
    """Greatest subdomain of d consistent with c at `notion`, or failure.

    Variables are revised round-robin until every one has been revised
    since the last narrowing.  bounds(R) on a constraint without real
    semantics raises RealSemanticsUndefined.
    """
    before = d
    cvars = vars_of(c)
    stable = i = 0
    while stable < len(cvars):
        var = cvars[i % len(cvars)]
        i += 1
        cands = candidates(d, notion)

        # Not checkers.support: both searches are looked up in this module
        # at call time, so that profilers can wrap them here.
        def supported(value: int) -> bool:
            if cands is None:
                return _real_support(d, c, var, value)[0]
            return _find_int_support(c, var, value, cands) is not None

        values = d.get(var).values
        window = supported_window(d, c, notion, var)
        if window is not None:
            kept = values[window.start : window.stop]
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
        stable = 1
    return PropagationResult.between(before, d, cvars)


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
