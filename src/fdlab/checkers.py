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
propagators and the engine read the same three functions.

Integer supports are literal exhaustive scans in lexicographic-ascending
order (first support found is the reported witness).  Real supports are
decided by exact closed forms over rationals: interval feasibility for
linear constraints, point-interval counting for alldifferent, corner
evaluation for the product and monotone-function constraints.  No floating
point anywhere.  A support of var=value never reads var's own set.

The linear scans switch to a chunked numpy enumeration above ~1000
candidate tuples.  The vectorized path visits exactly the same tuples in
exactly the same order as the pure-Python scan and is only taken when the
partial sums provably fit in int64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    mono_eval_int,
    mono_increasing,
    mono_inverse_frac,
    mono_requires_nonneg,
    sat_int,
    vars_of,
)
from .domains import (
    INT64_MAX,
    Domain,
    IntSet,
    Valuation,
    VarId,
    checked_add,
    checked_mul,
)


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
# integer support scans

_NUMPY_MIN_TUPLES = 1025
_CHUNK = 1 << 16


def _cmp(acc: int, target: int, op: str) -> bool:
    if op == "eq":
        return acc == target
    if op == "le":
        return acc <= target
    return acc != target


def _scan_linear_py(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, op: str
) -> tuple[int, ...] | None:
    n = len(free_vals)
    out = [0] * n

    def rec(i: int, acc: int) -> bool:
        if i == n:
            return _cmp(acc, target, op)
        a = coeffs[i]
        for v in free_vals[i]:
            out[i] = v
            if rec(i + 1, checked_add(acc, checked_mul(a, v))):
                return True
        return False

    return tuple(out) if rec(0, 0) else None


def _scan_linear_np(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, op: str
) -> tuple[int, ...] | None:
    n = len(free_vals)
    sizes = [len(vs) for vs in free_vals]
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    total = strides[0] * sizes[0]
    arrs: list[np.ndarray | None] = [
        None if isinstance(vs, range) else np.asarray(vs, dtype=np.int64)
        for vs in free_vals
    ]
    start = 0
    while start < total:
        end = min(start + _CHUNK, total)
        idx = np.arange(start, end, dtype=np.int64)
        acc = np.zeros(end - start, dtype=np.int64)
        for i in range(n):
            sub = (idx // strides[i]) % sizes[i]
            vs = free_vals[i]
            col = (vs.start + sub) if isinstance(vs, range) else arrs[i][sub]
            acc += coeffs[i] * col
        if op == "eq":
            mask = acc == target
        elif op == "le":
            mask = acc <= target
        else:
            mask = acc != target
        nz = np.flatnonzero(mask)
        if nz.size:
            k = start + int(nz[0])
            return tuple(
                int(free_vals[i][(k // strides[i]) % sizes[i]]) for i in range(n)
            )
        start = end
    return None


def _scan_linear(
    free_vals: list[Sequence[int]], coeffs: list[int], target: int, op: str
) -> tuple[int, ...] | None:
    """Lex-ascending first assignment with sum(coeff*value) `op` target."""
    if not free_vals:
        return () if _cmp(0, target, op) else None
    total = 1
    for vs in free_vals:
        total *= len(vs)
    if total >= _NUMPY_MIN_TUPLES:
        bound = abs(target)
        for a, vs in zip(coeffs, free_vals):
            bound += abs(a) * max(abs(vs[0]), abs(vs[-1]))
        if bound <= INT64_MAX:
            return _scan_linear_np(free_vals, coeffs, target, op)
    return _scan_linear_py(free_vals, coeffs, target, op)


CandidateFn = Callable[[VarId], Sequence[int]]


def _find_int_support(
    c: Constraint, pin: VarId, value: int, candidates: CandidateFn
) -> Valuation | None:
    """First integral support of pin=value, scanning others lex-ascending."""
    free = [v for v in vars_of(c) if v != pin]
    if isinstance(c, (LinEq, LinLe, LinNe)):
        coeff_of = {t.var: t.coeff for t in c.terms}
        target = checked_add(c.rhs, -checked_mul(coeff_of[pin], value))
        free_vals = [candidates(v) for v in free]
        coeffs = [coeff_of[v] for v in free]
        op = "eq" if isinstance(c, LinEq) else ("le" if isinstance(c, LinLe) else "ne")
        chosen = _scan_linear(free_vals, coeffs, target, op)
        if chosen is None:
            return None
        bindings = dict(zip(free, chosen))
        bindings[pin] = value
        return Valuation(bindings)
    # generic catalog: plain nested loops over candidate values
    for combo in itertools.product(*(candidates(v) for v in free)):
        bindings = dict(zip(free, combo))
        bindings[pin] = value
        theta = Valuation(bindings)
        if sat_int(c, theta):
            return theta
    return None


# --------------------------------------------------------------------------
# real (rational) bound supports, closed forms


def _linear_parts(c: Constraint) -> tuple[list[tuple[VarId, int]], int, str]:
    op = "eq" if isinstance(c, LinEq) else ("le" if isinstance(c, LinLe) else "ne")
    return [(t.var, t.coeff) for t in c.terms], c.rhs, op


def _real_support_linear(
    d: Domain, c: Constraint, pin: VarId, value: int
) -> tuple[bool, Valuation | None]:
    terms, rhs, op = _linear_parts(c)
    others = [(v, a, d.inf(v), d.sup(v)) for v, a in terms if v != pin]
    a_pin = next(a for v, a in terms if v == pin)
    target = Fraction(checked_add(rhs, -checked_mul(a_pin, value)))
    lo_sum = sum(min(checked_mul(a, l), checked_mul(a, u)) for _, a, l, u in others)
    hi_sum = sum(max(checked_mul(a, l), checked_mul(a, u)) for _, a, l, u in others)

    if op == "eq":
        if not (lo_sum <= target <= hi_sum):
            return False, None
        n = len(others)
        suf_min = [0] * (n + 1)
        suf_max = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            _, a, l, u = others[i]
            suf_min[i] = suf_min[i + 1] + min(a * l, a * u)
            suf_max[i] = suf_max[i + 1] + max(a * l, a * u)
        bindings: dict[VarId, Fraction] = {pin: Fraction(value)}
        t = target
        for i, (v, a, l, u) in enumerate(others):
            lo_av = max(t - suf_max[i + 1], Fraction(min(a * l, a * u)))
            hi_av = min(t - suf_min[i + 1], Fraction(max(a * l, a * u)))
            vlo = lo_av / a if a > 0 else hi_av / a
            val = max(Fraction(l), vlo)
            bindings[v] = val
            t -= a * val
        return True, Valuation(bindings)

    if op == "le":
        if lo_sum > target:
            return False, None
        bindings = {pin: Fraction(value)}
        n = len(others)
        suf_min = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            _, a, l, u = others[i]
            suf_min[i] = suf_min[i + 1] + min(a * l, a * u)
        t = target
        for i, (v, a, l, u) in enumerate(others):
            if a > 0:
                val = Fraction(l)
            else:
                val = max(Fraction(l), (t - suf_min[i + 1]) / a)
            bindings[v] = val
            t -= a * val
        return True, Valuation(bindings)

    # ne: infeasible only when the reachable sum is the single forbidden point
    if lo_sum == hi_sum and lo_sum == target:
        return False, None
    bindings = {pin: Fraction(value)}
    acc = Fraction(0)
    for v, a, l, u in others:
        bindings[v] = Fraction(l)
        acc += a * l
    if acc == target:
        for v, a, l, u in others:
            if l < u:
                bindings[v] = Fraction(l) + Fraction(u - l, 2)
                break
    return True, Valuation(bindings)


def _real_support_alldiff(
    d: Domain, c: AllDifferent, pin: VarId, value: int
) -> tuple[bool, Valuation | None]:
    # Positive-length intervals hold unboundedly many reals, so collisions
    # can only be forced among point intervals and the pinned value.
    points: list[Fraction] = [Fraction(value)]
    flexible: list[tuple[VarId, int, int]] = []
    for v in c.vars:
        if v == pin:
            continue
        l, u = d.inf(v), d.sup(v)
        if l == u:
            points.append(Fraction(l))
        else:
            flexible.append((v, l, u))
    if len(set(points)) != len(points):
        return False, None
    bindings: dict[VarId, Fraction] = {pin: Fraction(value)}
    for v in c.vars:
        if v == pin:
            continue
        l, u = d.inf(v), d.sup(v)
        if l == u:
            bindings[v] = Fraction(l)
    used = set(points)
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
            p = checked_mul(v1, v2)
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


def support(
    d: Domain, c: Constraint, notion: ConsistencyNotion, var: VarId, value: int
) -> SupportWitness:
    """Support verdict for var=value at `notion`; never reads var's own set."""
    cands = candidates(d, notion)
    if cands is None:
        supported, w = _real_support(d, c, var, value)
        return SupportWitness(var, value, supported, w)
    w = _find_int_support(c, var, value, cands)
    return SupportWitness(var, value, w is not None, w)


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
