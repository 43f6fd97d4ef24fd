"""Constraint catalog with exact integer and real satisfaction semantics.

Each class body is the one definition of its class (see `Constraint`),
and so is each body of a function class of `MonoBij` (`Affine`, `PowK`,
`PowerSum3`): its exact value `g(x)`, its exact rational `inverse(y)` or
None, its restriction `nonneg` (to x >= 0) and its direction `increasing`.
`holds` is total: out-of-definition tuples (e.g. a mod with x3 <= 0, a
reified bool outside {0,1}) are unsatisfying, never errors.  Mod,
ReifLinLe and Table have no real reading: sat_real returns the UNDEFINED
sentinel, and real-based checkers raise RealSemanticsUndefined.
"""

from __future__ import annotations

import math
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
    nonneg = False

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("affine slope must be non-zero")
        checked_int64(self.a)
        checked_int64(self.b)

    @property
    def increasing(self) -> bool:
        return self.a > 0

    def __call__(self, x: int | Fraction) -> int | Fraction:
        return self.a * x + self.b

    def inverse(self, y: int | Fraction) -> Fraction:
        return Fraction(y - self.b, self.a)


@dataclass(frozen=True)
class PowK:
    """g(x) = a*x**k with a != 0, k >= 1, restricted to x >= 0."""

    a: int
    k: int
    nonneg = True

    def __post_init__(self) -> None:
        if self.a == 0:
            raise ValueError("power scale must be non-zero")
        if self.k < 1:
            raise ValueError("power exponent must be >= 1")
        checked_int64(self.a)

    @property
    def increasing(self) -> bool:
        return self.a > 0

    def __call__(self, x: int | Fraction) -> int | Fraction:
        # k is unbounded: refuse a power whose lower bound 2**((b-1)*k), for
        # b bits of the larger of |numerator| and denominator, reaches
        # 2**256, so what is computed stays under 512 bits
        m = max(abs(x.numerator), x.denominator)
        if m > 1 and (m.bit_length() - 1) * self.k >= 256:
            raise OverflowError(f"{x}**{self.k} exceeds 256 bits")
        return self.a * x**self.k

    def inverse(self, y: int | Fraction) -> Fraction | None:
        # q is in lowest terms, so a rational k-th root of it has the k-th
        # roots of its numerator and denominator as its own
        q = Fraction(y, self.a)
        if q < 0:
            return None
        n, d = _int_root(q.numerator, self.k), _int_root(q.denominator, self.k)
        exact = n**self.k == q.numerator and d**self.k == q.denominator
        return Fraction(n, d) if exact else None


@dataclass(frozen=True)
class PowerSum3:
    """g(x) = 1 + x + x**2 + x**3, restricted to x >= 0."""

    nonneg = True
    increasing = True

    def __call__(self, x: int | Fraction) -> int | Fraction:
        return 1 + x + x * x + x * x * x

    def inverse(self, y: int | Fraction) -> Fraction | None:
        # g(r/t) = (t + r)(t**2 + r**2) / t**3 for r/t in lowest terms, and the
        # numerator is r**3 mod t, so that fraction is in lowest terms too: a
        # preimage has the cube root t of y's denominator as its denominator,
        # and its numerator r is at most the cube root of y's numerator
        y = Fraction(y)
        t = _int_root(y.denominator, 3)
        if t**3 != y.denominator or y < 1:
            return None
        r = _last_at_most(lambda r: self(Fraction(r, t)), y, _int_root(y.numerator, 3))
        return Fraction(r, t) if self(Fraction(r, t)) == y else None


MonoFunc = Affine | PowK | PowerSum3


def _last_at_most(f, n: int, hi: int) -> int:
    """The greatest x in [0, hi] with f(x) <= n, for an increasing f with
    f(0) <= n, by bisection."""
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if f(mid) <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _int_root(n: int, k: int) -> int:
    """Floor k-th root of n >= 0."""
    if k == 2:
        return math.isqrt(n)
    # n < 2**b for b bits, so the root is below 2**ceil(b/k)
    return _last_at_most(lambda x: x**k, n, (1 << -(-n.bit_length() // k)) - 1)


# readers of the function classes for `oracle`
def mono_requires_nonneg(f: MonoFunc) -> bool:
    return f.nonneg


def mono_eval_frac(f: MonoFunc, x: int | Fraction) -> int | Fraction:
    """g(x), exact: an int for an int x, a Fraction for a Fraction x."""
    return f(x)


_PAST_64 = 1 << 256


def mono_eval_vs64(f: MonoFunc, x: int) -> int:
    """g(x) for an int x, to be compared with 64-bit values only: a power
    that would pass 2**256 comes back as 2**256 on the side of its sign,
    which lies beyond every 64-bit value just as the power does."""
    try:
        return f(x)
    except OverflowError:  # only PowK raises, and only for |x| >= 2
        negative = (f.a < 0) != (x < 0 and f.k % 2 == 1)
        return -_PAST_64 if negative else _PAST_64


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
        return not (self.func.nonneg and x2 < 0) and x1 == mono_eval_vs64(self.func, x2)

    def sat_real(self, theta: Valuation) -> bool:
        # exact: a power past 2**256 raises here, where `holds` compares
        x2 = theta[self.x2]
        return not (self.func.nonneg and x2 < 0) and theta[self.x1] == self.func(x2)


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
