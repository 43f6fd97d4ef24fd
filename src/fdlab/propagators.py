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

Each (constraint, notion) is compiled once, on its first run, into a
`Propagator`.  A run revises positions of a local list of the scope's
value tuples, which every support search reads through `candidates`, at
bounds(R) too, and builds one `Domain` at the end.  What a set lost is the
slices before and after the run of old values it kept; only a `domain`
revise that opens new holes is compared value by value.

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

The cases of `checkers.closed_form` are revised with no support query per
value: their reader gives the supported values as a union of windows,
which the domain notion keeps and the bounds notions span.  A linear run
keeps each term's least and greatest contribution in two lists, updated
when the term narrows, so that each revise is one `_window` call.

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
from operator import getitem, mul
from typing import Iterable

from .checkers import (
    ConsistencyNotion,
    _find_int_support,
    _real_support,
    _window,
    candidates,
    closed_form,
)
from .constraints import Constraint, LinEq, LinLe, LinNe, RealSemanticsUndefined
from .domains import Domain, IntSet, VarId


def _lost(old: tuple[int, ...], new: tuple[int, ...]) -> tuple[int, ...]:
    """The values of old that new, a shorter subsequence of it, lacks."""
    i = bisect_left(old, new[0])
    j = i + len(new)
    if old[j - 1] == new[-1]:  # new is old[i:j]
        return old[:i] + old[j:]
    kept = set(new)
    return tuple(x for x in old if x not in kept)


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
            old, new = before.get(v).values, after.get(v).values
            if len(new) < len(old):
                pruned.append((v, _lost(old, new)))
        return cls(after, tuple(pruned))


class Propagator:
    """A constraint at one notion, compiled: the scope as indices into a
    domain's sets (`idx`) and its positions by variable (`order`), the
    closed-form `reader` or None, and for the linear form its `coeffs`,
    `rhs`, `eq` (whether the sum must also reach rhs) and the end (0 or -1)
    of each term's values where it contributes least (`low`) and most
    (`high`).  It holds no reference to the constraint, which keeps it
    outside its fields (see `propagate`)."""

    def __init__(self, c: Constraint, notion: ConsistencyNotion) -> None:
        if notion is ConsistencyNotion.BOUNDS_R and not c.real:
            raise RealSemanticsUndefined(
                f"{type(c).__name__} has no real semantics; bounds(R) undefined"
            )
        self.notion, self.scope, self.reader = notion, c.scope, closed_form(c, notion)
        self.idx = tuple(v.index for v in c.scope)
        self.order = sorted(range(len(c.scope)), key=c.scope.__getitem__)
        self.ne = isinstance(c, LinNe)
        if self.reader is _window:
            self.coeffs, self.rhs, self.eq = tuple(t.coeff for t in c.terms), c.rhs, c.op == "eq"
            self.low = tuple(0 if a > 0 else -1 for a in self.coeffs)
            self.high = tuple(-1 - end for end in self.low)

    def run(self, d: Domain, c: Constraint) -> PropagationResult:
        """The revise loop of the module doc; `free` drops each position
        that becomes a point."""
        vals = [d.sets[i].values for i in self.idx]
        free = [k for k, vs in enumerate(vals) if len(vs) > 1]
        if not free:
            return PropagationResult(d if c.holds(tuple(vs[0] for vs in vals)) else None, ())
        if len(free) > 1 and self.ne:
            return PropagationResult(d, ())
        notion, reader, scope = self.notion, self.reader, self.scope
        linear, point = reader is _window, []
        if linear:
            coeffs, rhs, eq, low, high = self.coeffs, self.rhs, self.eq, self.low, self.high
            lo = list(map(mul, coeffs, map(getitem, vals, low)))
            hi = list(map(mul, coeffs, map(getitem, vals, high)))
            least, most = sum(lo), sum(hi)
        elif reader is None:
            cands = candidates(lambda v: vals[scope.index(v)], notion)
            real = notion is ConsistencyNotion.BOUNDS_R

            # Reads k, free and vals as they stand.  Not checkers.support:
            # both searches are looked up here at call time, so profilers can
            # wrap them.
            def supported(value: int) -> bool:
                if len(free) == 1:  # k is free, every other position a point
                    if not point:
                        point.extend(vs[0] for vs in vals)
                    point[k] = value
                    return c.holds(tuple(point))
                if real:
                    return _real_support(c, scope[k], value, cands)[0]
                return _find_int_support(c, scope[k], value, cands) is not None

        stable = i = 0
        while stable < len(free):
            k = free[i % len(free)]
            i += 1
            values = vals[k]
            if linear:  # at <=, rhs - lo[k] is the greatest rhs - a*v
                rest_hi = most - hi[k] if eq else rhs - lo[k]
                w = _window(values, coeffs[k], rhs, least - lo[k], rest_hi)
                kept = values[w.start : w.stop]
            elif reader is not None:
                windows = reader(vals, k)
                if notion is ConsistencyNotion.DOMAIN and len(windows) > 1:
                    kept = tuple(chain.from_iterable(values[w.start : w.stop] for w in windows))
                else:  # the bounds notions keep the holes between windows
                    kept = values[windows[0].start : windows[-1].stop] if windows else ()
            elif notion is ConsistencyNotion.DOMAIN:
                kept = tuple(x for x in values if supported(x))
            else:
                first, last = 0, len(values) - 1
                while first <= last and not supported(values[first]):
                    first += 1
                while last > first and not supported(values[last]):
                    last -= 1
                kept = values[first : last + 1]
            if len(kept) == len(values):
                stable += 1
                continue
            if not kept:
                return PropagationResult(None, ())
            vals[k] = kept
            if linear:
                l, h = coeffs[k] * kept[low[k]], coeffs[k] * kept[high[k]]
                least, most = least + l - lo[k], most + h - hi[k]
                lo[k], hi[k] = l, h
            stable = 1
            if len(kept) == 1:  # a point now: every other free variable is due
                free.remove(k)
                stable = 0
        return self._result(d, vals)

    def _result(self, d: Domain, vals: list[tuple[int, ...]]) -> PropagationResult:
        """d with the scope's sets narrowed to vals, and what each lost."""
        sets, idx = d.sets, self.idx
        changed = [k for k in self.order if vals[k] is not sets[idx[k]].values]
        if not changed:
            return PropagationResult(d, ())
        new = list(sets)
        for k in changed:
            new[idx[k]] = IntSet._unchecked(vals[k])
        pruned = tuple((self.scope[k], _lost(sets[idx[k]].values, vals[k])) for k in changed)
        return PropagationResult(Domain(tuple(new)), pruned)


def propagate(
    d: Domain, c: Constraint, notion: ConsistencyNotion
) -> PropagationResult:
    """Greatest subdomain of d consistent with c at `notion`, or failure.

    Past the entry rules of the module doc, the free variables are revised
    round-robin until every one has been revised since the last narrowing;
    from the point where one is left, `holds` decides its values.  bounds(R)
    on a constraint without real semantics raises RealSemanticsUndefined.
    c's `Propagator` at `notion` is built on its first run and kept on c,
    outside its fields, so that it is in no repr, == or hash.
    """
    kept = vars(c).setdefault("_propagators", {})
    return (kept.get(notion) or kept.setdefault(notion, Propagator(c, notion))).run(d, c)


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
    before, prev = d, None
    terms = [(t.var, t.coeff) for t in c.terms]
    while d is not None and d is not prev:  # a pass that shaves nothing returns d
        d, prev = _shave_bounds(d, terms, c.rhs, isinstance(c, LinEq)), d
    return PropagationResult.between(before, d, (t.var for t in c.terms))
