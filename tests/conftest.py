"""Shared seeded-random instance generators for the property suites, and
the domain and valuation predicates the tests read.

Every generator takes an explicit random.Random so each test controls its
own seed; default value ranges stay within [-10, 10].
"""

import random

from fdlab import (
    Affine,
    AllDifferent,
    Domain,
    IntSet,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    MonoBij,
    PowerSum3,
    PowK,
    ProductLe,
    ReifLinLe,
    Table,
    VarId,
)

LO, HI = -10, 10


def make_vars(n):
    return [VarId(i, f"x{i + 1}") for i in range(n)]


def random_set(rng, lo=LO, hi=HI, max_size=6):
    size = rng.randint(1, max_size)
    return IntSet.of(rng.sample(range(lo, hi + 1), size))


def random_domain(rng, nvars, lo=LO, hi=HI, max_size=6):
    return Domain(tuple(random_set(rng, lo, hi, max_size) for _ in range(nvars)))


def random_linear(rng, vs, kinds=(LinEq, LinLe, LinNe), coeffs=(-3, -2, -1, 1, 2, 3)):
    cls = rng.choice(kinds)
    terms = tuple(LinTerm(rng.choice(coeffs), v) for v in vs)
    return cls(terms, rng.randint(-10, 10))


def random_monofunc(rng):
    roll = rng.random()
    if roll < 0.45:
        return Affine(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-4, 4))
    if roll < 0.85:
        return PowK(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    return PowerSum3()


def random_table(rng, vs, lo=LO, hi=HI):
    rows = set()
    for _ in range(rng.randint(1, 8)):
        rows.add(tuple(rng.randint(lo, hi) for _ in vs))
    return Table(tuple(vs), tuple(sorted(rows)))


def random_real_constraint(rng, vs):
    """A constraint with real semantics over exactly the given variables."""
    choices = ["linear"]
    if len(vs) >= 2:
        choices.append("alldiff")
    if len(vs) == 2:
        choices.append("monobij")
    if len(vs) == 3:
        choices.append("productle")
    kind = rng.choice(choices)
    if kind == "linear":
        return random_linear(rng, vs)
    if kind == "alldiff":
        return AllDifferent(tuple(vs))
    if kind == "monobij":
        return MonoBij(vs[0], random_monofunc(rng), vs[1])
    return ProductLe(vs[0], vs[1], vs[2])


def random_int_constraint(rng, vs):
    """Any catalog constraint, including the integer-only ones."""
    roll = rng.random()
    if roll < 0.12:
        return random_table(rng, vs)
    if roll < 0.22 and len(vs) == 3:
        return Mod(vs[0], vs[1], vs[2])
    if roll < 0.30 and len(vs) >= 2:
        terms = tuple(
            LinTerm(rng.choice([-2, -1, 1, 2]), v) for v in vs[1:]
        )
        return ReifLinLe(vs[0], terms, rng.randint(-6, 6))
    return random_real_constraint(rng, vs)


def fresh_rng(seed):
    return random.Random(seed)


def range_of(d):
    """Smallest enclosing interval domain: each set becomes [inf, sup]."""
    return Domain(tuple(IntSet.interval(s.inf, s.sup) for s in d.sets))


def is_range(d):
    return all(s.is_range for s in d.sets)


def member(theta, d):
    """True iff theta is integral and every binding lies in its actual set."""
    for var, q in theta.items():
        if q.denominator != 1 or q.numerator not in d.get(var):
            return False
    return True


def member_box(theta, d):
    """True iff every binding (rational allowed) lies within its [inf, sup] box."""
    for var, q in theta.items():
        s = d.get(var)
        if not (s.inf <= q <= s.sup):
            return False
    return True
