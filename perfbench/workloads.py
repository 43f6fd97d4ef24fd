"""The three closed-loop request workloads of the fdlab benchmark.

Each workload turns a seed into plain input data (`generate`), does once per
input the work a caller does outside requests (`prepare`), answers one request
through the public fdlab API (`request`) and checks an answer against a
reference that does not use the code under test (`verify`).  fdlab receives
only the generated inputs.  Requests call `fdlab.<name>` at call time so that
a tracer can wrap those names.
"""

from __future__ import annotations

import itertools
import random

import fdlab
from fdlab import (
    AllDifferent,
    ConsistencyNotion,
    Domain,
    IntSet,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    ProductLe,
    SubsetSumInstance,
    Table,
    VarId,
)
from fdlab.oracle import oracle_solutions

NOTIONS = ("domain", "bounds-d", "bounds-z", "bounds-r")
INT_ONLY_NOTIONS = ("domain", "bounds-d", "bounds-z")
LINEAR_OPS = {"lineq": "=", "linle": "<=", "linne": "!="}
LINEAR_CLASSES = {"lineq": LinEq, "linle": LinLe, "linne": LinNe}


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, so inputs do not depend on PYTHONHASHSEED.
    return random.Random(f"fdlab-bench:{workload}:{seed}")


def _terms_text(coeffs: list[int], names: list[str]) -> str:
    parts = []
    for i, (a, v) in enumerate(zip(coeffs, names)):
        if i == 0:
            parts.append(f"{a}*{v}")
        else:
            parts.append(f"{'+' if a > 0 else '-'} {abs(a)}*{v}")
    return " ".join(parts)


def _linear(kind: str, coeffs: list[int], names: list[str], rhs: int,
            var_ids: dict[str, VarId]):
    terms = tuple(LinTerm(a, var_ids[v]) for a, v in zip(coeffs, names))
    return LINEAR_CLASSES[kind](terms, rhs)


class Workload:
    name = ""
    why = ""
    pool_size = 0  # distinct inputs; requests cycle through them in order
    round_size = 1  # a timed run ends only after a whole round of requests
    warmup = 1  # requests sent during set-up and not timed
    trace_requests = 0  # requests in a traced run; fixed so counts repeat

    def __init__(self) -> None:
        self._references: dict[int, object] = {}

    def generate(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def prepare(self, inputs: list[dict]) -> list:
        raise NotImplementedError

    def request(self, item):
        raise NotImplementedError

    def reference(self, item):
        raise NotImplementedError

    def matches(self, answer, reference) -> bool:
        raise NotImplementedError

    def verify(self, index: int, item, answer) -> bool:
        """Compare answer with the input's reference (computed once per input)."""
        if index not in self._references:
            self._references[index] = self.reference(item)
        return self.matches(answer, self._references[index])


class SolveCsp(Workload):
    """Model text -> parse_model -> solve, all solutions."""

    name = "solve-csp"
    why = (
        "closed loop, one caller: parse+solve of small mixed-catalog CSPs; "
        "search, engine, propagators and the pure-Python support scan do the work"
    )
    pool_size = 600
    warmup = 20
    trace_requests = 400

    NVARS = 5
    DOMAIN_SIZE = 3
    UNIVERSE = tuple(range(-2, 5))
    KINDS = ("lineq", "linle", "linne", "alldifferent", "table", "productle")

    def _instance(self, rng: random.Random) -> dict:
        # A planted solution keeps every instance satisfiable; five variables
        # with three values each bound the search tree and the solution count.
        names = [f"v{i}" for i in range(self.NVARS)]
        planted = dict(zip(names, rng.sample(self.UNIVERSE, self.NVARS)))
        domains = {
            v: sorted([planted[v]] + rng.sample(
                [u for u in self.UNIVERSE if u != planted[v]], self.DOMAIN_SIZE - 1))
            for v in names
        }
        while True:  # every variable is constrained
            scopes = []
            for kind in self.KINDS:
                if kind == "productle":
                    triples = [t for t in itertools.permutations(names, 3)
                               if planted[t[0]] * planted[t[1]] <= planted[t[2]]]
                    scopes.append(list(rng.choice(triples)))
                else:
                    scopes.append(rng.sample(names, rng.randint(2, 3)))
            if len(set().union(*scopes)) == self.NVARS:
                break
        constraints = []
        for kind, scope in zip(self.KINDS, scopes):
            entry = {"kind": kind, "vars": scope}
            if kind in LINEAR_OPS:
                coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in scope]
                at_planted = sum(a * planted[v] for a, v in zip(coeffs, scope))
                if kind == "lineq":
                    rhs = at_planted
                elif kind == "linle":
                    rhs = at_planted + rng.randint(0, 3)
                else:
                    rhs = at_planted + rng.choice((-2, -1, 1, 2))
                entry.update(coeffs=coeffs, rhs=rhs)
            elif kind == "table":
                row = [planted[v] for v in scope]
                others = [list(r) for r in itertools.product(*(domains[v] for v in scope))
                          if list(r) != row]
                entry["rows"] = sorted(rng.sample(others, len(others) // 3) + [row])
            allowed = INT_ONLY_NOTIONS if kind == "table" else NOTIONS
            entry["notion"] = rng.choice(allowed)
            constraints.append(entry)
        return {"vars": [[v, domains[v]] for v in names], "constraints": constraints}

    @staticmethod
    def model_text(inst: dict) -> str:
        lines = [f"var {v} in {{{','.join(map(str, vals))}}}" for v, vals in inst["vars"]]
        lines.append("")
        for k, c in enumerate(inst["constraints"], start=1):
            kind, scope = c["kind"], c["vars"]
            if kind in LINEAR_OPS:
                body = (f"{kind} {_terms_text(c['coeffs'], scope)} "
                        f"{LINEAR_OPS[kind]} {c['rhs']}")
            elif kind == "table":
                rows = " ".join("(" + ",".join(map(str, r)) + ")" for r in c["rows"])
                body = f"table {' '.join(scope)} : {rows}"
            else:
                body = f"{kind} {' '.join(scope)}"
            lines.append(f"constraint c{k}: {body} @ {c['notion']}")
        return "\n".join(lines) + "\n"

    def generate(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        return [self._instance(rng) for _ in range(self.pool_size)]

    def prepare(self, inputs: list[dict]) -> list:
        return [(inst, self.model_text(inst)) for inst in inputs]

    def request(self, item):
        model = fdlab.parse_model(item[1])
        return fdlab.solve(model)

    def reference(self, item):
        # Built from the generator's data, not from the parsed text, so the
        # parser is checked too.
        inst = item[0]
        var_ids = {v: VarId(i, v) for i, (v, _) in enumerate(inst["vars"])}
        domain = Domain(tuple(IntSet.of(vals) for _, vals in inst["vars"]))
        constraints = []
        for c in inst["constraints"]:
            scope = tuple(var_ids[v] for v in c["vars"])
            if c["kind"] in LINEAR_OPS:
                constraints.append(_linear(c["kind"], c["coeffs"], c["vars"], c["rhs"], var_ids))
            elif c["kind"] == "alldifferent":
                constraints.append(AllDifferent(scope))
            elif c["kind"] == "productle":
                constraints.append(ProductLe(*scope))
            else:
                constraints.append(Table(scope, tuple(tuple(r) for r in c["rows"])))
        solutions = oracle_solutions(list(var_ids.values()), domain, constraints)
        return sorted(_solution_key(s) for s in solutions)

    def matches(self, answer, reference) -> bool:
        solutions, stats = answer
        return stats.complete and sorted(_solution_key(s) for s in solutions) == reference


def _solution_key(theta) -> tuple:
    return tuple(sorted((v.name, theta.int_value(v)) for v in theta))


def subset_sum_reachable(items: list[int], target: int) -> bool:
    """Subset-sum decision by a bitset of reachable sums."""
    reachable = 1
    for a in items:
        reachable |= reachable << a
    return bool(reachable >> target & 1)


class SubsetSumCheck(Workload):
    """bounds-z check plus the bounds-r shave of one subset-sum gadget."""

    name = "subsetsum-check"
    why = (
        "closed loop, one caller: read-only bounds-z verdicts on subset-sum gadgets; "
        "one large numpy scan per bound dominates, next to the cheap bounds-r shave"
    )
    # One round: item counts chosen so that the median and the 90th percentile
    # each fall inside one size class, away from a class boundary.
    ROUND_SIZES = (12, 13, 13, 14, 14, 14, 14, 15, 15, 15)
    round_size = len(ROUND_SIZES)
    pool_size = 30 * len(ROUND_SIZES)
    warmup = 2
    trace_requests = 2 * len(ROUND_SIZES)

    def generate(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        inputs = []
        for i in range(self.pool_size):
            n = self.ROUND_SIZES[i % self.round_size]
            items = [rng.randint(1000, 9999) for _ in range(n)]
            want_yes = (i // self.round_size + i) % 2 == 0
            while True:
                if want_yes:
                    chosen = [a for a in items if rng.random() < 0.5] or [items[0]]
                    target = sum(chosen)
                else:
                    target = rng.randint(1, sum(items) - 1)
                if subset_sum_reachable(items, target) == want_yes:
                    break
            inputs.append({"items": items, "target": target})
        return inputs

    def prepare(self, inputs: list[dict]) -> list:
        prepared = []
        for inst in inputs:
            model, _, _ = fdlab.encode_subset_sum(
                SubsetSumInstance(tuple(inst["items"]), inst["target"])
            )
            constraint, _ = model.constraints[0]
            prepared.append((inst, model.initial, constraint))
        return prepared

    def request(self, item):
        _, domain, constraint = item
        verdict = fdlab.check(domain, constraint, ConsistencyNotion.BOUNDS_Z)
        return verdict.consistent, fdlab.propagate_linear_br(domain, constraint)

    def reference(self, item):
        inst, domain, constraint = item
        return (
            subset_sum_reachable(inst["items"], inst["target"]),
            fdlab.propagate(domain, constraint, ConsistencyNotion.BOUNDS_R),
        )

    def matches(self, answer, reference) -> bool:
        return answer == reference


class WideFixpoint(Workload):
    """propagate_all at bounds-r over wide intervals with tight right-hand sides."""

    name = "wide-fixpoint"
    why = (
        "closed loop, one caller: bounds-r fixpoints over wide intervals; many small "
        "support queries and an IntSet rebuild for every peeled endpoint value"
    )
    pool_size = 120
    warmup = 5
    trace_requests = 100

    NVARS = 8
    LINEAR = (("lineq", 2), ("linle", 3), ("lineq", 3), ("linle", 2), ("linle", 2), ("linle", 3))

    def _instance(self, rng: random.Random) -> dict:
        # Boxes of 250-350 values around a planted integer point that satisfies
        # every constraint, so the fixpoint is never empty.  The constraint mix
        # and scope sizes are fixed, so that inputs differ in coefficients and
        # boxes only and the cost per request varies little between seeds.
        names = [f"w{i}" for i in range(self.NVARS)]
        x1, x2, x3 = rng.sample(names, 3)
        box, planted = {}, {}
        for v in names:
            width = rng.randint(250, 350)
            if v in (x1, x2):  # positive factors, so x1*x2 <= x3 prunes
                lo = rng.randint(2, 4)
                planted[v] = rng.randint(lo, lo + 10)
            else:
                lo = rng.randint(-150, 50)
                planted[v] = rng.randint(lo + width // 4, lo + 3 * width // 4)
            box[v] = [lo, lo + width - 1]
        # x1's upper bound is cut to 40-60% of its box by x3's upper bound.
        hi3 = box[x2][0] * (box[x1][0] + (box[x1][1] - box[x1][0]) * rng.randint(40, 60) // 100)
        box[x3] = [hi3 - (box[x3][1] - box[x3][0]), hi3]
        planted[x3] = rng.randint(max(box[x3][0], planted[x1] * planted[x2]), hi3)
        constraints = []
        for kind, arity in self.LINEAR:
            scope = rng.sample(names, arity)
            coeffs = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in scope]
            rhs = sum(a * planted[v] for a, v in zip(coeffs, scope))
            if kind == "linle":
                rhs += rng.randint(0, 20)
            constraints.append({"kind": kind, "vars": scope, "coeffs": coeffs, "rhs": rhs})
        constraints.append({"kind": "productle", "vars": [x1, x2, x3]})
        while True:
            scope = rng.sample(names, 3)
            if len({planted[v] for v in scope}) == 3:
                break
        constraints.append({"kind": "alldifferent", "vars": scope})
        return {"vars": [[v, box[v]] for v in names], "constraints": constraints}

    @staticmethod
    def model_text(inst: dict) -> str:
        lines = [f"var {v} in [{lo},{hi}]" for v, (lo, hi) in inst["vars"]]
        lines.append("")
        for k, c in enumerate(inst["constraints"], start=1):
            kind = c["kind"]
            if kind in LINEAR_OPS:
                body = (f"{kind} {_terms_text(c['coeffs'], c['vars'])} "
                        f"{LINEAR_OPS[kind]} {c['rhs']}")
            else:
                body = f"{kind} {' '.join(c['vars'])}"
            lines.append(f"constraint c{k}: {body} @ bounds-r")
        return "\n".join(lines) + "\n"

    def generate(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        return [self._instance(rng) for _ in range(self.pool_size)]

    def prepare(self, inputs: list[dict]) -> list:
        return [(inst, fdlab.parse_model(self.model_text(inst))) for inst in inputs]

    def request(self, item):
        return fdlab.propagate_all(item[1])

    def reference(self, item):
        inst, model = item
        lifo = fdlab.propagate_all(model, filter_events=False, queue_policy="lifo")
        return reference_fixpoint(inst), lifo.domain

    def matches(self, answer, reference) -> bool:
        bounds, lifo_domain = reference
        if answer.failed or answer.domain != lifo_domain:
            return False
        return all(
            s.inf == lo and s.sup == hi and s.size == hi - lo + 1
            for s, (lo, hi) in zip(answer.domain.sets, bounds)
        )


def _product_supported(pin: int, box: list[list[int]], value: int) -> bool:
    """Real support of x[pin] = value for x0*x1 <= x2 over integer boxes.

    x0*x1 is bilinear, so its minimum over a box sits at a corner.
    """
    lo = [b[0] for b in box]
    hi = [b[1] for b in box]
    lo[pin] = hi[pin] = value
    least = min(a * b for a in (lo[0], hi[0]) for b in (lo[1], hi[1]))
    return least <= hi[2]


def _alldiff_supported(pin: int, box: list[list[int]], value: int) -> bool:
    """Real support of x[pin] = value for alldifferent over integer boxes.

    Boxes of positive length hold infinitely many reals, so only the pinned
    value and the fixed variables can collide.
    """
    points = [value] + [b[0] for i, b in enumerate(box) if i != pin and b[0] == b[1]]
    return len(set(points)) == len(points)


def _peel(box: list[list[int]], supported) -> bool:
    """Move each bound inward until it has support; True when a bound moved."""
    moved = False
    for pin, b in enumerate(box):
        while b[0] <= b[1] and not supported(pin, box, b[0]):
            b[0] += 1
            moved = True
        while b[0] <= b[1] and not supported(pin, box, b[1]):
            b[1] -= 1
            moved = True
        if b[0] > b[1]:
            raise ValueError("reference fixpoint emptied a domain")
    return moved


def reference_fixpoint(inst: dict) -> list[tuple[int, int]]:
    """bounds-r fixpoint of a wide-fixpoint input, as one interval per variable.

    Linear constraints are shaved by iterating propagate_linear_br; the product
    and alldifferent constraints use the closed forms above.  Starting from
    intervals, every step keeps each domain an interval.
    """
    names = [v for v, _ in inst["vars"]]
    index = {v: i for i, v in enumerate(names)}
    var_ids = {v: VarId(i, v) for i, v in enumerate(names)}
    bounds = [list(b) for _, b in inst["vars"]]
    changed = True
    while changed:
        changed = False
        for c in inst["constraints"]:
            scope = [index[v] for v in c["vars"]]
            if c["kind"] in LINEAR_OPS:
                domain = Domain(tuple(IntSet.interval(lo, hi) for lo, hi in bounds))
                res = fdlab.propagate_linear_br(
                    domain, _linear(c["kind"], c["coeffs"], c["vars"], c["rhs"], var_ids)
                )
                if res.failed:
                    raise ValueError("reference fixpoint emptied a domain")
                for i in scope:
                    s = res.domain.sets[i]
                    if [s.inf, s.sup] != bounds[i]:
                        bounds[i] = [s.inf, s.sup]
                        changed = True
            else:
                box = [bounds[i] for i in scope]
                check = _product_supported if c["kind"] == "productle" else _alldiff_supported
                changed |= _peel(box, check)
    return [tuple(b) for b in bounds]


WORKLOADS = {w.name: w for w in (SolveCsp, SubsetSumCheck, WideFixpoint)}
