"""Constraint catalog with exact integer and real satisfaction semantics.

Every constraint evaluates under two readings: `holds` over int tuples in
vars_of(c) order (sat_int is its checked entry for integral valuations)
and sat_real over rational valuations.  For Mod, ReifLinLe and Table there
is no natural real reading; sat_real returns the UNDEFINED sentinel and
real-based checkers raise RealSemanticsUndefined instead.  `holds` is
total: out-of-definition tuples (e.g. a mod with x3 <= 0, a reified bool
outside {0,1}) are unsatisfying, never errors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .domains import VarId, Valuation, checked_int64


class RealSemanticsUndefined(ValueError):
    """Raised when a real-valued notion is applied to an integer-only constraint."""


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undefined"

    def __bool__(self) -> bool:
        raise TypeError("Undefined has no truth value")


#: Sentinel returned by sat_real for constraints without a real reading.
UNDEFINED = _Undefined()


@dataclass(frozen=True)
class LinTerm:
    coeff: int
    var: VarId

    def __post_init__(self) -> None:
        if self.coeff == 0:
            raise ValueError("linear term coefficient must be non-zero")
        checked_int64(self.coeff)


class Constraint:
    """Marker base class; concrete constraints are frozen dataclasses."""

    __slots__ = ()


def _check_distinct(vars_: tuple[VarId, ...]) -> None:
    if len(set(vars_)) != len(vars_):
        raise ValueError("constraint variables must be distinct")


@dataclass(frozen=True)
class _Linear(Constraint):
    """Linear relation; `op` names the `operator` function that decides it."""

    terms: tuple[LinTerm, ...]
    rhs: int

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("linear constraint needs at least one term")
        _check_distinct(tuple(t.var for t in self.terms))
        checked_int64(self.rhs)


class LinEq(_Linear):
    """sum(coeff_i * x_i) == rhs"""

    op = "eq"


class LinLe(_Linear):
    """sum(coeff_i * x_i) <= rhs"""

    op = "le"


class LinNe(_Linear):
    """sum(coeff_i * x_i) != rhs"""

    op = "ne"


@dataclass(frozen=True)
class AllDifferent(Constraint):
    vars: tuple[VarId, ...]

    def __post_init__(self) -> None:
        if len(self.vars) < 2:
            raise ValueError("alldifferent needs at least two variables")
        _check_distinct(self.vars)


@dataclass(frozen=True)
class ProductLe(Constraint):
    """x1 * x2 <= x3"""

    x1: VarId
    x2: VarId
    x3: VarId

    def __post_init__(self) -> None:
        _check_distinct((self.x1, self.x2, self.x3))


@dataclass(frozen=True)
class Affine:
    """g(x) = a*x + b with a != 0; bijective on all of Z/R."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("affine slope must be non-zero")
        checked_int64(self.a)
        checked_int64(self.b)


@dataclass(frozen=True)
class PowK:
    """g(x) = a*x**k with a != 0, k >= 1, restricted to x >= 0."""

    a: int
    k: int

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("power scale must be non-zero")
        if self.k < 1:
            raise ValueError("power exponent must be >= 1")
        checked_int64(self.a)


@dataclass(frozen=True)
class PowerSum3:
    """g(x) = 1 + x + x**2 + x**3, restricted to x >= 0."""


MonoFunc = Affine | PowK | PowerSum3


def mono_requires_nonneg(f: MonoFunc) -> bool:
    return isinstance(f, (PowK, PowerSum3))


def mono_increasing(f: MonoFunc) -> bool:
    """True when g is strictly increasing on its stated restriction."""
    if isinstance(f, Affine):
        return f.a > 0
    if isinstance(f, PowK):
        return f.a > 0
    return True


def mono_eval_frac(f: MonoFunc, x: Fraction) -> Fraction:
    if isinstance(f, Affine):
        return f.a * x + f.b
    if isinstance(f, PowK):
        return f.a * x**f.k
    return 1 + x + x * x + x * x * x


def mono_eval_int(f: MonoFunc, x: int) -> int:
    if isinstance(f, Affine):
        return f.a * x + f.b
    if isinstance(f, PowK):
        # k is unbounded: refuse a power whose lower bound 2**((b-1)*k), for
        # b bits of |x|, reaches 2**256, so what is computed stays under 512 bits
        if abs(x) > 1 and (abs(x).bit_length() - 1) * f.k >= 256:
            raise OverflowError(f"{x}**{f.k} exceeds 256 bits")
        return f.a * x**f.k
    return 1 + x + x * x + x * x * x


def _int_root(n: int, k: int) -> int:
    """Floor k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = max(1, int(round(n ** (1.0 / k))))
    while x > 1 and x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def mono_inverse_frac(f: MonoFunc, y: Fraction) -> Fraction | None:
    """Exact rational preimage of y on the stated restriction, or None.

    None means no rational preimage was exhibited; for PowK/PowerSum3 the
    true preimage may exist but be irrational.
    """
    if isinstance(f, Affine):
        return (y - f.b) / f.a
    if isinstance(f, PowK):
        q = y / f.a
        if q < 0:
            return None
        if f.k == 1:
            return q
        rn = _int_root(q.numerator, f.k)
        rd = _int_root(q.denominator, f.k)
        if rn**f.k == q.numerator and rd**f.k == q.denominator:
            return Fraction(rn, rd)
        return None
    # PowerSum3: strictly increasing from g(0)=1 on x >= 0.
    if y < 1:
        return None
    lo, hi = 0, 1
    while mono_eval_frac(f, Fraction(hi)) < y:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mono_eval_frac(f, Fraction(mid)) < y:
            lo = mid + 1
        else:
            hi = mid
    if mono_eval_frac(f, Fraction(lo)) == y:
        return Fraction(lo)
    if y.denominator == 1 or y.denominator > 10**6:
        return None
    # Rational root r/t must have t dividing the denominator of y.
    for t in _divisors(y.denominator):
        if t == 1:
            continue
        lo_r, hi_r = 0, t * (lo + 1)
        while lo_r < hi_r:
            mid = (lo_r + hi_r) // 2
            if mono_eval_frac(f, Fraction(mid, t)) < y:
                lo_r = mid + 1
            else:
                hi_r = mid
        if mono_eval_frac(f, Fraction(lo_r, t)) == y:
            return Fraction(lo_r, t)
    return None


@dataclass(frozen=True)
class MonoBij(Constraint):
    """x1 = g(x2) for a strictly monotone g, plus g's domain restriction."""

    x1: VarId
    func: MonoFunc
    x2: VarId

    def __post_init__(self) -> None:
        _check_distinct((self.x1, self.x2))


@dataclass(frozen=True)
class Mod(Constraint):
    """x1 = x2 mod x3, defined for x3 >= 1 with result in [0, x3-1]."""

    x1: VarId
    x2: VarId
    x3: VarId

    def __post_init__(self) -> None:
        _check_distinct((self.x1, self.x2, self.x3))


@dataclass(frozen=True)
class ReifLinLe(Constraint):
    """b <-> sum(coeff_i * x_i) <= rhs, with b ranging over {0,1}."""

    b: VarId
    terms: tuple[LinTerm, ...]
    rhs: int

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("reified linear constraint needs at least one term")
        _check_distinct((self.b,) + tuple(t.var for t in self.terms))
        checked_int64(self.rhs)


@dataclass(frozen=True)
class Table(Constraint):
    """Extensional constraint: allowed integer tuples over vars."""

    vars: tuple[VarId, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("table needs at least one variable")
        _check_distinct(self.vars)
        for row in self.rows:
            if len(row) != len(self.vars):
                raise ValueError("table row arity mismatch")
            for v in row:
                checked_int64(v)


def vars_of(c: Constraint) -> tuple[VarId, ...]:
    """Variables of c in declaration order."""
    if isinstance(c, (LinEq, LinLe, LinNe)):
        return tuple(t.var for t in c.terms)
    if isinstance(c, AllDifferent):
        return c.vars
    if isinstance(c, ProductLe):
        return (c.x1, c.x2, c.x3)
    if isinstance(c, MonoBij):
        return (c.x1, c.x2)
    if isinstance(c, Mod):
        return (c.x1, c.x2, c.x3)
    if isinstance(c, ReifLinLe):
        return (c.b,) + tuple(t.var for t in c.terms)
    if isinstance(c, Table):
        return c.vars
    raise TypeError(f"not a constraint: {c!r}")


def real_defined(c: Constraint) -> bool:
    return not isinstance(c, (Mod, ReifLinLe, Table))


def _require_exact_vars(c: Constraint, theta: Valuation) -> None:
    cv = vars_of(c)
    if set(cv) != set(theta.keys()):
        raise ValueError("valuation must bind exactly the constraint's variables")


def holds(c: Constraint, vals: tuple[int, ...]) -> bool:
    """Integer satisfaction of c by vals, the values of vars_of(c) in order."""
    if isinstance(c, _Linear):
        lhs = sum(t.coeff * x for t, x in zip(c.terms, vals))
        return getattr(operator, c.op)(lhs, c.rhs)
    if isinstance(c, AllDifferent):
        return len(set(vals)) == len(vals)
    if isinstance(c, ProductLe):
        return vals[0] * vals[1] <= vals[2]
    if isinstance(c, MonoBij):
        x1, x2 = vals
        if mono_requires_nonneg(c.func) and x2 < 0:
            return False
        return x1 == mono_eval_int(c.func, x2)
    if isinstance(c, Mod):
        x1, x2, x3 = vals
        return x3 >= 1 and x1 == x2 % x3
    if isinstance(c, ReifLinLe):
        b, lhs = vals[0], sum(t.coeff * x for t, x in zip(c.terms, vals[1:]))
        return b in (0, 1) and (b == 1) == (lhs <= c.rhs)
    if isinstance(c, Table):
        return vals in c.rows
    raise TypeError(f"not a constraint: {c!r}")


def sat_int(c: Constraint, theta: Valuation) -> bool:
    """Integer satisfaction; theta must be integral and bind exactly vars_of(c)."""
    _require_exact_vars(c, theta)
    if not theta.is_integral:
        raise ValueError("sat_int requires an integral valuation")
    return holds(c, tuple(theta.int_value(v) for v in vars_of(c)))


def sat_real(c: Constraint, theta: Valuation):
    """Real (rational-valued) satisfaction, or UNDEFINED where none exists."""
    _require_exact_vars(c, theta)
    if isinstance(c, _Linear):
        acc = Fraction(0)
        for t in c.terms:
            acc += t.coeff * theta[t.var]
        return getattr(operator, c.op)(acc, c.rhs)
    if isinstance(c, AllDifferent):
        vals = [theta[v] for v in c.vars]
        return len(set(vals)) == len(vals)
    if isinstance(c, ProductLe):
        return theta[c.x1] * theta[c.x2] <= theta[c.x3]
    if isinstance(c, MonoBij):
        x2 = theta[c.x2]
        if mono_requires_nonneg(c.func) and x2 < 0:
            return False
        return theta[c.x1] == mono_eval_frac(c.func, x2)
    if isinstance(c, (Mod, ReifLinLe, Table)):
        return UNDEFINED
    raise TypeError(f"not a constraint: {c!r}")
