"""Hardness gadget and monotonicity analysis.

encode_subset_sum turns a subset-sum question into a {0,1} linear-equation
model whose bounds(Z) consistency answer equals the subset-sum answer,
which is what makes exact bound checking expensive in general.

is_monotonic classifies each variable of a real-defined constraint as
monotone under the numeric order `<`, under `>`, or not monotone, judged
over the boxes of the domain passed in.  Verdicts come from exact closed
forms; refute_monotone attaches counterexample pairs to "not monotone"
verdicts, sampling the integers and half-integers nearest each box's ends
in at most `cap` loop steps and `sat_real` calls per variable and order.
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


def _verdict(lt_ok: bool, gt_ok: bool) -> VarMonotonicity:
    if lt_ok:
        return VarMonotonicity.LT
    if gt_ok:
        return VarMonotonicity.GT
    return VarMonotonicity.NOT_MONOTONE


def _determined_verdict(l: int, u: int, lo, hi) -> VarMonotonicity:
    """Verdict for a variable with box [l, u] whose value in a solution the
    others fix within [lo, hi]: monotone unless that span meets the box
    elsewhere than at one end (missing it, no solution touches the box)."""
    a, b = max(l, lo), min(u, hi)
    if a > b or a == b == l:
        return VarMonotonicity.LT
    if a == b == u:
        return VarMonotonicity.GT
    return VarMonotonicity.NOT_MONOTONE


def _lineq_verdicts(c: LinEq, d: Domain) -> dict[VarId, VarMonotonicity]:
    return {
        t.var: _determined_verdict(d.inf(t.var), d.sup(t.var), *_pinned_range(c, d, t))
        for t in c.terms
    }


def _linne_verdicts(c: LinNe, d: Domain) -> dict[VarId, VarMonotonicity]:
    out = {}
    for t in c.terms:
        v = t.var
        vlo, vhi = _pinned_range(c, d, t)
        li, ui = Fraction(d.inf(v)), Fraction(d.sup(v))
        # forbidden points sweep [vlo, vhi]; monotone iff they miss the
        # half-open sliding range
        lt_ok = not (max(vlo, li) <= min(vhi, ui) and max(vlo, li) < ui)
        gt_ok = not (max(vlo, li) <= min(vhi, ui) and min(vhi, ui) > li)
        out[v] = _verdict(lt_ok, gt_ok)
    return out


def _alldiff_verdicts(c: AllDifferent, d: Domain) -> dict[VarId, VarMonotonicity]:
    boxes = {v: (d.inf(v), d.sup(v)) for v in c.vars}
    point_vals = [l for (l, u) in boxes.values() if l == u]
    if len(set(point_vals)) != len(point_vals):
        # two pinned variables coincide: no real solutions at all
        return {v: VarMonotonicity.LT for v in c.vars}
    out = {}
    for i in c.vars:
        li, ui = boxes[i]

        def blocked(j: VarId, p: int) -> bool:
            others = {
                boxes[k][0]
                for k in c.vars
                if k not in (i, j) and boxes[k][0] == boxes[k][1]
            }
            return p in others

        viol_lt = False
        viol_gt = False
        for j in c.vars:
            if j == i:
                continue
            lj, uj = boxes[j]
            # order <: a solution may place x_j inside [li, ui)
            lo_a = max(lj, li)
            if lo_a <= uj and lo_a < ui:
                single = uj < ui and lo_a == uj
                if not single or not blocked(j, uj):
                    viol_lt = True
            # order >: a solution may place x_j inside (li, ui]
            hi_a = min(uj, ui)
            if hi_a >= lj and hi_a > li:
                single = lj > li and lj == hi_a
                if not single or not blocked(j, lj):
                    viol_gt = True
            if viol_lt and viol_gt:
                break
        out[i] = _verdict(not viol_lt, not viol_gt)
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
        return _verdict(not viol_lt, not viol_gt)

    products = [a * b for a in (l1, u1) for b in (l2, u2)]
    pmin, pmax = min(products), max(products)
    viol_lt_x3 = u3 > l3 and pmax > l3 and pmin <= u3
    return {
        c.x1: factor_verdict(l1, u1, l2, u2),
        c.x2: factor_verdict(l2, u2, l1, u1),
        c.x3: _verdict(not viol_lt_x3, True),
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

    if j_empty:
        v2 = VarMonotonicity.LT
    else:
        viol_lt = (
            l2p > l2
            or not mem(l2)
            or (u2 > l2 and (g(l2) < u1 if inc else g(l2) > l1))
        )
        viol_gt = not mem(u2) or (l2p < u2 and (g(u2) > l1 if inc else g(u2) < u1))
        v2 = _verdict(not viol_lt, not viol_gt)

    return {c.x1: _determined_verdict(l1, u1, gmin, gmax), c.x2: v2}


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


def is_monotonic(c: Constraint, d: Domain) -> MonotonicityReport:
    """Per-variable monotonicity verdicts over d's boxes."""
    if not real_defined(c):
        raise RealSemanticsUndefined(f"{type(c).__name__} has no real semantics")
    if isinstance(c, LinLe):
        verdicts = {
            t.var: VarMonotonicity.LT if t.coeff > 0 else VarMonotonicity.GT
            for t in c.terms
        }
    elif isinstance(c, LinEq):
        verdicts = _lineq_verdicts(c, d)
    elif isinstance(c, LinNe):
        verdicts = _linne_verdicts(c, d)
    elif isinstance(c, AllDifferent):
        verdicts = _alldiff_verdicts(c, d)
    elif isinstance(c, ProductLe):
        verdicts = _product_verdicts(c, d)
    elif isinstance(c, MonoBij):
        verdicts = _monobij_verdicts(c, d)
    else:
        raise RealSemanticsUndefined(f"{type(c).__name__} has no real semantics")
    report = MonotonicityReport(verdicts)
    for v, verdict in verdicts.items():
        if verdict is VarMonotonicity.NOT_MONOTONE:
            report.counterexamples[v] = (
                refute_monotone(c, d, v, VarMonotonicity.LT),
                refute_monotone(c, d, v, VarMonotonicity.GT),
            )
    return report
