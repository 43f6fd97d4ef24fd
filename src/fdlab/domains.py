"""Finite integer domains and exact rational valuations.

A domain maps each variable to a non-empty, strictly increasing set of
64-bit integers.  Emptiness is never represented inside a domain; operations
that could empty a set return None and callers turn that into an explicit
failure outcome.  All consistency decisions in this package are made with
integers and `fractions.Fraction`; floating point is never consulted.

64 bits is a rule on input only: `checked_int64` runs where a value enters
(set members, coefficients, right-hand sides, table rows), and everything
computed from those values is exact, unbounded Python ints.  The one
exception is x**k in `constraints.PowK`: its k is unbounded, so a power
that certainly reaches 2**256 raises OverflowError instead.  Where such a
power is only compared with 64-bit values, `constraints.mono_eval_vs64`
stands it in by +-2**256.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def checked_int64(value: int) -> int:
    """Return value unchanged, or raise OverflowError outside signed 64-bit."""
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowError(f"value {value} exceeds signed 64-bit range")
    return value


class VarId(NamedTuple):
    """Dense variable identifier: position in the model plus a display name;
    a named tuple, so it equals the plain tuple (index, name) and orders as
    that tuple does."""

    index: int
    name: str


@dataclass(frozen=True)
class IntSet:
    """Non-empty, strictly increasing tuple of 64-bit integers.

    `IntSet(values)` checks every value.  Sets made from data known to be
    valid skip that walk (`_unchecked`): `of` and `interval` check only the
    ends of what they sort or count, and a narrowing keeps a subsequence of
    a valid set."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = self.values
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("IntSet values must be strictly increasing")
        _check_ends(values)

    @classmethod
    def _unchecked(cls, values: tuple[int, ...]) -> "IntSet":
        """The set of values already known to pass `IntSet(values)`'s check."""
        s = object.__new__(cls)
        object.__setattr__(s, "values", values)
        return s

    @classmethod
    def of(cls, values: Iterable[int]) -> "IntSet":
        return cls._unchecked(_check_ends(tuple(sorted(set(values)))))

    @classmethod
    def interval(cls, lo: int, hi: int) -> "IntSet":
        if lo > hi:
            raise ValueError(f"empty interval [{lo},{hi}]")
        return cls._unchecked(tuple(range(checked_int64(lo), checked_int64(hi) + 1)))

    @property
    def inf(self) -> int:
        return self.values[0]

    @property
    def sup(self) -> int:
        return self.values[-1]

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def is_range(self) -> bool:
        return self.sup - self.inf + 1 == len(self.values)

    @property
    def is_singleton(self) -> bool:
        return len(self.values) == 1

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.values, v)
        return i < len(self.values) and self.values[i] == v

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def remove(self, v: int) -> "IntSet | None":
        """Set minus one value; None once it would become empty."""
        i = bisect_left(self.values, v)
        if i == len(self.values) or self.values[i] != v:
            return self
        rest = self.values[:i] + self.values[i + 1 :]
        return IntSet._unchecked(rest) if rest else None

    def clamp(self, lo: int, hi: int) -> "IntSet | None":
        """Keep only values in [lo, hi]; None once empty."""
        rest = self.values[bisect_left(self.values, lo) : bisect_right(self.values, hi)]
        return IntSet._unchecked(rest) if rest else None


def _check_ends(values: tuple[int, ...]) -> tuple[int, ...]:
    """values, once non-empty with both ends in 64 bits; in a strictly
    increasing tuple the two ends bound every value."""
    if not values:
        raise ValueError("IntSet may not be empty")
    checked_int64(values[0])
    checked_int64(values[-1])
    return values


@dataclass(frozen=True)
class Domain:
    """Immutable map from variable index to IntSet, read by VarId; `with_set`
    also takes a plain index."""

    sets: tuple[IntSet, ...]

    def __len__(self) -> int:
        return len(self.sets)

    def get(self, var: VarId) -> IntSet:
        return self.sets[var.index]

    __getitem__ = get

    def inf(self, var: VarId) -> int:
        return self.sets[var.index].inf

    def sup(self, var: VarId) -> int:
        return self.sets[var.index].sup

    def with_set(self, var: "VarId | int", s: IntSet) -> "Domain":
        idx = var.index if isinstance(var, VarId) else var
        sets = list(self.sets)
        sets[idx] = s
        return Domain(tuple(sets))


class Valuation(Mapping[VarId, Fraction]):
    """Finite map from variables to exact rationals.

    Accepts ints or Fractions at construction; keeps ints as ints and reads
    every binding as a Fraction.  A valuation is integral when every bound
    value has denominator 1.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[VarId, "int | Fraction"]):
        self._bindings = {
            v: q if type(q) is int else Fraction(q) for v, q in bindings.items()
        }

    def __getitem__(self, var: VarId) -> Fraction:
        q = self._bindings[var]
        return Fraction(q) if type(q) is int else q

    def __iter__(self) -> Iterator[VarId]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    @property
    def is_integral(self) -> bool:
        return all(q.denominator == 1 for q in self._bindings.values())

    def int_value(self, var: VarId) -> int:
        q = self._bindings[var]
        if q.denominator != 1:
            raise ValueError(f"{var.name} is bound to non-integer {q}")
        return q.numerator

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Valuation):
            return self._bindings == other._bindings
        if isinstance(other, Mapping):
            return self._bindings == {v: Fraction(q) for v, q in other.items()}
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._bindings.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.name}={q}" for v, q in sorted(self._bindings.items())
        )
        return f"Valuation({inner})"

