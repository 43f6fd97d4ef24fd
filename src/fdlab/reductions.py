"""Hardness gadget and monotonicity analysis.

encode_subset_sum turns a subset-sum question into a {0,1} linear-equation
model whose bounds(Z) consistency answer equals the subset-sum answer,
which is what makes exact bound checking expensive in general.

is_monotonic classifies each variable of a real-defined constraint as
monotone under the numeric order `<`, under `>`, or not monotone, judged
over the boxes of the domain passed in.  Verdicts come from exact closed
forms, most of them from one rule on a variable's box [l, u]: a forbidden
point (of `!=`, of alldifferent) that a solution can put in [l, u) breaks
`<`, and one it can put in (l, u] breaks `>`; a value the others fix (of
`=`, x1 of x1 = g(x2), the least x3 of x1*x2 <= x3) breaks them the other
way round.  Alldifferent is judged in quadratic time: each variable is one
pass over the other boxes.  refute_monotone attaches counterexample pairs
to "not monotone" verdicts, sampling the integers and half-integers nearest
each box's ends in at most `cap` loop steps and `sat_real` calls per
variable and order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial

from .checkers import ConsistencyNotion, _hull, _pinned_linear
from .constraints import (
    AllDifferent,
    Constraint,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    MonoBij,
    ProductLe,
    RealSemanticsUndefined,
    _int_root,
    mono_eval_vs64,
    real_defined,
    sat_real,
    vars_of,
)
from .domains import Domain, IntSet, Valuation, VarId, checked_int64
from .engine import Model


@dataclass(frozen=True)
class SubsetSumInstance:
    items: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("subset-sum needs at least one item")
        if any(a <= 0 for a in self.items):
            raise ValueError("subset-sum items must be positive")
        if self.target <= 0:
            raise ValueError("subset-sum target must be positive")
        checked_int64(sum(self.items) + self.target)


def encode_subset_sum(
    inst: SubsetSumInstance,
    notion: ConsistencyNotion = ConsistencyNotion.BOUNDS_Z,
) -> tuple[Model, VarId, VarId]:
    """{0,1} model with a1*x1+..+an*xn - t*x_{n+1} - (sum a)*x_{n+2} = 0.

    The whole model is bounds(Z)/bounds(D)/domain consistent iff some subset
    of the items sums to the target; returns the model plus the two
    selector variables (target selector, full-sum selector).
    """
    n = len(inst.items)
    names = [f"x{i + 1}" for i in range(n + 2)]
    vars_ = [VarId(i, nm) for i, nm in enumerate(names)]
    total = sum(inst.items)
    terms = [LinTerm(a, vars_[i]) for i, a in enumerate(inst.items)]
    terms.append(LinTerm(-inst.target, vars_[n]))
    terms.append(LinTerm(-total, vars_[n + 1]))
    c = LinEq(tuple(terms), 0)
    m = Model.build(
        [(nm, IntSet.of([0, 1])) for nm in names],
        [(c, notion)],
        labels=["subset-sum"],
    )
    return m, m.vars[n], m.vars[n + 1]


class VarMonotonicity(Enum):
    LT = "<"
    GT = ">"
    NOT_MONOTONE = "not-monotone"


RefutePair = tuple[Valuation, Valuation]


@dataclass
class MonotonicityReport:
    verdicts: dict[VarId, VarMonotonicity]
    counterexamples: dict[VarId, tuple[RefutePair | None, RefutePair | None]] = field(
        default_factory=dict
    )

    @property
    def monotone(self) -> bool:
        return all(v is not VarMonotonicity.NOT_MONOTONE for v in self.verdicts.values())


def _feasible_1d(
    lo: int, hi: int, extra: list[tuple[Fraction, Fraction, bool]]
) -> bool:
    """Is there v in [lo,hi] with alpha*v <= beta (strict: <) for each extra?"""
    flo, fhi = Fraction(lo), Fraction(hi)
    lo_strict = hi_strict = False
    for alpha, beta, strict in extra:
        if alpha == 0:
            if (0 < beta) if strict else (0 <= beta):
                continue
            return False
        q = beta / alpha
        if alpha > 0:
            if q < fhi or (q == fhi and strict and not hi_strict):
                fhi, hi_strict = q, strict
        else:
            if q > flo or (q == flo and strict and not lo_strict):
                flo, lo_strict = q, strict
    if flo < fhi:
        return True
    return flo == fhi and not lo_strict and not hi_strict


def _pinned_range(
    c: LinEq | LinNe, d: Domain, t: LinTerm
) -> tuple[Fraction, Fraction]:
    """The real values of t.var at which the other terms' boxes can reach rhs."""
    boxes, coeffs, _ = _pinned_linear(c, t.var, lambda v: (d.inf(v), d.sup(v)))
    smin, smax = _hull(boxes, coeffs)[0]
    lo, hi = Fraction(c.rhs - smax, t.coeff), Fraction(c.rhs - smin, t.coeff)
    return (lo, hi) if t.coeff > 0 else (hi, lo)


def _verdict(breaks_lt: bool, breaks_gt: bool) -> VarMonotonicity:
    if not breaks_lt:
        return VarMonotonicity.LT
    if not breaks_gt:
        return VarMonotonicity.GT
    return VarMonotonicity.NOT_MONOTONE


def _lands(l: int, u: int, lo, hi) -> tuple[bool, bool]:
    """Can a point of [lo, hi] land in [l, u), and in (l, u]?"""
    a, b = max(l, lo), min(u, hi)
    return a <= b and a < u, a <= b and b > l


def _point_verdict(l: int, u: int, lo, hi, fixed: bool) -> VarMonotonicity:
    """Verdict for a variable with box [l, u] whose one forbidden point (or,
    if `fixed`, whose value) the others put anywhere in [lo, hi]: the point
    breaks `<` in [l, u) and `>` in (l, u], the value the other way round."""
    below, above = _lands(l, u, lo, hi)
    return _verdict(above, below) if fixed else _verdict(below, above)


def _linear_verdicts(c: LinEq | LinNe, d: Domain) -> dict[VarId, VarMonotonicity]:
    fixed = type(c) is LinEq
    return {
        t.var: _point_verdict(d.inf(t.var), d.sup(t.var), *_pinned_range(c, d, t), fixed)
        for t in c.terms
    }


def _alldiff_verdicts(c: AllDifferent, d: Domain) -> dict[VarId, VarMonotonicity]:
    """Each other x_j is a forbidden point of x_i, anywhere in its box: a
    box of positive length avoids the others' finitely many points.  Where
    it meets x_i's half-open interval in one point q that a third variable's
    point box holds, x_j cannot take q, but that point box puts q there."""
    boxes = [(v, d.inf(v), d.sup(v)) for v in c.vars]
    points = [l for _, l, u in boxes if l == u]
    if len(set(points)) != len(points):
        # two pinned variables coincide: no real solutions at all
        return dict.fromkeys(c.vars, VarMonotonicity.LT)
    out = {}
    for i, li, ui in boxes:
        lands = [_lands(li, ui, lj, uj) for j, lj, uj in boxes if j != i]
        out[i] = _verdict(*map(any, zip(*lands)))
    return out


def _product_verdicts(c: ProductLe, d: Domain) -> dict[VarId, VarMonotonicity]:
    l1, u1 = d.inf(c.x1), d.sup(c.x1)
    l2, u2 = d.inf(c.x2), d.sup(c.x2)
    l3, u3 = d.inf(c.x3), d.sup(c.x3)
    F = Fraction

    def factor_verdict(lo_s: int, hi_s: int, lo_o: int, hi_o: int) -> VarMonotonicity:
        # own box [lo_s, hi_s]; the other factor ranges over [lo_o, hi_o]
        viol_lt = hi_s > lo_s and _feasible_1d(
            lo_o,
            hi_o,
            [
                (F(1), F(0), True),  # other < 0
                (F(hi_s), F(u3), False),  # hi_s*other <= u3: a solution exists
                (F(-lo_s), F(-l3), True),  # lo_s*other > l3: sliding down breaks
            ],
        )
        viol_gt = hi_s > lo_s and _feasible_1d(
            lo_o,
            hi_o,
            [
                (F(-1), F(0), True),  # other > 0
                (F(lo_s), F(u3), False),
                (F(-hi_s), F(-l3), True),
            ],
        )
        return _verdict(viol_lt, viol_gt)

    products = [a * b for a in (l1, u1) for b in (l2, u2)]
    # x1*x2 fixes the least x3 of a solution, which breaks only `<`
    _, breaks_lt = _lands(l3, u3, min(products), max(products))
    return {
        c.x1: factor_verdict(l1, u1, l2, u2),
        c.x2: factor_verdict(l2, u2, l1, u1),
        c.x3: _verdict(breaks_lt, False),
    }


def _monobij_verdicts(c: MonoBij, d: Domain) -> dict[VarId, VarMonotonicity]:
    l1, u1 = d.inf(c.x1), d.sup(c.x1)
    l2, u2 = d.inf(c.x2), d.sup(c.x2)
    l2p = max(l2, 0) if c.func.nonneg else l2
    if l2p > u2:
        return {c.x1: VarMonotonicity.LT, c.x2: VarMonotonicity.LT}
    g, inc = partial(mono_eval_vs64, c.func), c.func.increasing  # read against box ends
    g_lo, g_hi = g(l2p), g(u2)
    gmin, gmax = (g_lo, g_hi) if g_lo <= g_hi else (g_hi, g_lo)
    j_empty = gmin > u1 or gmax < l1

    def mem(v: int) -> bool:
        return l2p <= v <= u2 and l1 <= g(v) <= u1

    viol_lt = not j_empty and (
        l2p > l2 or not mem(l2) or (u2 > l2 and (g(l2) < u1 if inc else g(l2) > l1))
    )
    viol_gt = not mem(u2) or (l2p < u2 and (g(u2) > l1 if inc else g(u2) < u1))
    return {
        c.x1: _point_verdict(l1, u1, gmin, gmax, fixed=True),
        c.x2: _verdict(viol_lt, viol_gt),
    }


def refute_monotone(
    c: Constraint,
    d: Domain,
    var: VarId,
    order: VarMonotonicity,
    cap: int = 100_000,
) -> RefutePair | None:
    """Grid counterexample (theta solution, theta' non-solution) or None.

    Each box gives its integers and half-integers, or past `per` of them
    (the floor arity-th root of `cap`) its `per - per // 2` lowest and
    `per // 2` highest, so the grid holds at most `cap` samples; var is
    walked innermost, in ascending order.  A sample that `sat_real` cannot
    decide without a power past 256 bits is skipped.  A returned pair
    proves non-monotonicity under `order`; None proves nothing.
    """
    if not real_defined(c):
        raise RealSemanticsUndefined(f"{type(c).__name__} has no real semantics")
    if order not in (VarMonotonicity.LT, VarMonotonicity.GT):
        raise ValueError("order must be LT or GT")
    cvars = vars_of(c)
    per = _int_root(max(cap, 0), len(cvars))

    def samples(v: VarId) -> list[Fraction]:
        l, n = d.inf(v), 2 * (d.sup(v) - d.inf(v)) + 1
        ks = range(n) if n <= per else [*range(per - per // 2), *range(n - per // 2, n)]
        return [Fraction(l) + Fraction(k, 2) for k in ks]

    grids = [samples(v) for v in cvars]
    inner = grids.pop(i := cvars.index(var))
    # `first` is the least sample of var that is a non-solution under `<`,
    # a solution under `>`; a later sample of the other kind completes a pair
    kept = order is VarMonotonicity.GT
    for rest in itertools.product(*grids):
        first = None
        for x in inner:
            theta = Valuation(dict(zip(cvars, (*rest[:i], x, *rest[i:]))))
            try:
                sat = sat_real(c, theta)
            except OverflowError:
                continue
            if first is None and sat == kept:
                first = theta
            elif first is not None and sat != kept:
                return (theta, first) if sat else (first, theta)
    return None


_VERDICTS = {
    LinLe: lambda c, d: {
        t.var: VarMonotonicity.LT if t.coeff > 0 else VarMonotonicity.GT for t in c.terms
    },
    LinEq: _linear_verdicts,
    LinNe: _linear_verdicts,
    AllDifferent: _alldiff_verdicts,
    ProductLe: _product_verdicts,
    MonoBij: _monobij_verdicts,
}


def is_monotonic(c: Constraint, d: Domain) -> MonotonicityReport:
    """Per-variable monotonicity verdicts over d's boxes."""
    if type(c) not in _VERDICTS:
        raise RealSemanticsUndefined(f"{type(c).__name__} has no real semantics")
    verdicts = _VERDICTS[type(c)](c, d)
    report = MonotonicityReport(verdicts)
    for v, verdict in verdicts.items():
        if verdict is VarMonotonicity.NOT_MONOTONE:
            report.counterexamples[v] = (
                refute_monotone(c, d, v, VarMonotonicity.LT),
                refute_monotone(c, d, v, VarMonotonicity.GT),
            )
    return report
