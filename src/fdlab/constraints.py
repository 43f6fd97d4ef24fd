"""Constraint catalog with exact integer and real satisfaction semantics.

Each class body is the one definition of its class (see `Constraint`).
`holds` is total: out-of-definition tuples (e.g. a mod with x3 <= 0, a
reified bool outside {0,1}) are unsatisfying, never errors.  Mod,
ReifLinLe and Table have no real reading: sat_real returns the UNDEFINED
sentinel, and real-based checkers raise RealSemanticsUndefined.
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
    """Base class; a concrete constraint is a frozen dataclass whose body is
    its one definition: `scope`, its variables in declaration order, set
    once by `_set_scope`; `holds(vals)`, its integer meaning on their values
    in that order; `real`, whether `sat_real` reads `holds` over rationals."""

    real = True
    scope: tuple[VarId, ...]

    def _set_scope(self, vars_: tuple[VarId, ...]) -> None:
        if len(set(vars_)) != len(vars_):
            raise ValueError("constraint variables must be distinct")
        object.__setattr__(self, "scope", vars_)

    def sat_real(self, theta: Valuation):
        """`holds` over the rationals, or UNDEFINED without a real reading."""
        if not self.real:
            return UNDEFINED
        return self.holds(tuple(theta[v] for v in self.scope))


@dataclass(frozen=True)
class _Linear(Constraint):
    """Linear relation; `op` names the `operator` function that decides it."""

    terms: tuple[LinTerm, ...]
    rhs: int

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("linear constraint needs at least one term")
        self._set_scope(tuple(t.var for t in self.terms))
        checked_int64(self.rhs)

    def holds(self, vals: tuple[int, ...]) -> bool:
        lhs = sum(t.coeff * x for t, x in zip(self.terms, vals))
        return getattr(operator, self.op)(lhs, self.rhs)


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
        self._set_scope(self.vars)

    def holds(self, vals: tuple[int, ...]) -> bool:
        return len(set(vals)) == len(vals)


@dataclass(frozen=True)
class ProductLe(Constraint):
    """x1 * x2 <= x3"""

    x1: VarId
    x2: VarId
    x3: VarId

    def __post_init__(self) -> None:
        self._set_scope((self.x1, self.x2, self.x3))

    def holds(self, vals: tuple[int, ...]) -> bool:
        return vals[0] * vals[1] <= vals[2]


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


def mono_eval_frac(f: MonoFunc, x: int | Fraction) -> int | Fraction:
    """g(x), exact: an int for an int x, a Fraction for a Fraction x."""
    if isinstance(f, Affine):
        return f.a * x + f.b
    if isinstance(f, PowK):
        # k is unbounded: refuse a power whose lower bound 2**((b-1)*k), for
        # b bits of the larger of |numerator| and denominator, reaches
        # 2**256, so what is computed stays under 512 bits
        m = max(abs(x.numerator), x.denominator)
        if m > 1 and (m.bit_length() - 1) * f.k >= 256:
            raise OverflowError(f"{x}**{f.k} exceeds 256 bits")
        return f.a * x**f.k
    return 1 + x + x * x + x * x * x


mono_eval_int = mono_eval_frac  # exact on ints too: ints in, ints out

_PAST_64 = 1 << 256


def mono_eval_vs64(f: MonoFunc, x: int) -> int:
    """g(x) for an int x, to be compared with 64-bit values only: a power
    that would pass 2**256 comes back as 2**256 on the side of its sign,
    which lies beyond every 64-bit value just as the power does."""
    try:
        return mono_eval_int(f, x)
    except OverflowError:  # only PowK raises, and only for |x| >= 2
        negative = (f.a < 0) != (x < 0 and f.k % 2 == 1)
        return -_PAST_64 if negative else _PAST_64


def _int_root(n: int, k: int) -> int:
    """Floor k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k >= n.bit_length():  # 2**k > n
        return 1
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
        self._set_scope((self.x1, self.x2))

    def holds(self, vals: tuple[int, ...]) -> bool:
        x1, x2 = vals
        if mono_requires_nonneg(self.func) and x2 < 0:
            return False
        return x1 == mono_eval_vs64(self.func, x2)

    def sat_real(self, theta: Valuation) -> bool:
        # exact: a power past 2**256 raises here, where `holds` compares
        x2 = theta[self.x2]
        if mono_requires_nonneg(self.func) and x2 < 0:
            return False
        return theta[self.x1] == mono_eval_frac(self.func, x2)


@dataclass(frozen=True)
class Mod(Constraint):
    """x1 = x2 mod x3, defined for x3 >= 1 with result in [0, x3-1]."""

    x1: VarId
    x2: VarId
    x3: VarId
    real = False

    def __post_init__(self) -> None:
        self._set_scope((self.x1, self.x2, self.x3))

    def holds(self, vals: tuple[int, ...]) -> bool:
        x1, x2, x3 = vals
        return x3 >= 1 and x1 == x2 % x3


@dataclass(frozen=True)
class ReifLinLe(Constraint):
    """b <-> sum(coeff_i * x_i) <= rhs, with b ranging over {0,1}."""

    b: VarId
    terms: tuple[LinTerm, ...]
    rhs: int
    real = False

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("reified linear constraint needs at least one term")
        self._set_scope((self.b,) + tuple(t.var for t in self.terms))
        checked_int64(self.rhs)

    def holds(self, vals: tuple[int, ...]) -> bool:
        b, lhs = vals[0], sum(t.coeff * x for t, x in zip(self.terms, vals[1:]))
        return b in (0, 1) and (b == 1) == (lhs <= self.rhs)


@dataclass(frozen=True)
class Table(Constraint):
    """Extensional constraint: allowed integer tuples over vars."""

    vars: tuple[VarId, ...]
    rows: tuple[tuple[int, ...], ...]
    real = False

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("table needs at least one variable")
        self._set_scope(self.vars)
        for row in self.rows:
            if len(row) != len(self.vars):
                raise ValueError("table row arity mismatch")
            for v in row:
                checked_int64(v)

    def holds(self, vals: tuple[int, ...]) -> bool:
        return vals in self.rows


def vars_of(c: Constraint) -> tuple[VarId, ...]:
    """Variables of c in declaration order."""
    return c.scope


def real_defined(c: Constraint) -> bool:
    return c.real


def _require_exact_vars(c: Constraint, theta: Valuation) -> None:
    if set(c.scope) != set(theta.keys()):
        raise ValueError("valuation must bind exactly the constraint's variables")


def holds(c: Constraint, vals: tuple[int, ...]) -> bool:
    """Integer satisfaction of c by vals, the values of vars_of(c) in order."""
    return c.holds(vals)


def sat_int(c: Constraint, theta: Valuation) -> bool:
    """Integer satisfaction; theta must be integral and bind exactly vars_of(c)."""
    _require_exact_vars(c, theta)
    if not theta.is_integral:
        raise ValueError("sat_int requires an integral valuation")
    return c.holds(tuple(theta.int_value(v) for v in c.scope))


def sat_real(c: Constraint, theta: Valuation):
    """Real (rational-valued) satisfaction, or UNDEFINED where none exists."""
    _require_exact_vars(c, theta)
    return c.sat_real(theta)
