"""Model container and the event-driven propagation engine.

The engine runs single-constraint propagators to a common fixpoint with a
FIFO queue deduplicated per propagator.  The queue starts with every
propagator, or, where the caller states that the domain was narrowed from
a common fixpoint on a few variables only (`changed`), with the watchers
of those variables: the others are still at their fixpoint, since every
propagator is idempotent and reads only its own variables.  Search seeds
each child node that way with the variable it split.  Each run's bound,
hole and fixed events are read once off the values it pruned, and serve
both `trace` and re-queueing: every propagator reacts to bound changes of
its variables, and only those whose notion searches supports in the
actual sets (`checkers.sees_holes`: domain, bounds(D)) also react to
holes.  Filtering is lossless and the fixpoint is queue-order independent;
both facts are exercised by tests via the `filter_events` and
`queue_policy` knobs.  The returned `pruned` compares only the variables
that some run narrowed, so a call costs what changed, not the model's
size; the others keep their sets.  A failed fixpoint prunes nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .checkers import ConsistencyNotion, sees_holes
from .constraints import Constraint, MonoBij, ReifLinLe
from .domains import Domain, IntSet, VarId
from .propagators import PropagationResult, propagate


class ModelError(ValueError):
    """Malformed model: bad variables, domains, or constraint attachments.
    `index` is the position of the constraint at fault, None for the model."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class EventKind(Enum):
    LOWER_BOUND = "lower"
    UPPER_BOUND = "upper"
    HOLE = "hole"
    FIXED = "fixed"


@dataclass(frozen=True)
class Event:
    var: VarId
    kind: EventKind


@dataclass(frozen=True)
class Model:
    vars: tuple[VarId, ...]
    initial: Domain
    constraints: tuple[tuple[Constraint, ConsistencyNotion], ...]
    labels: tuple[str, ...] = ()
    #: indices of the constraints on each variable, by variable index
    watchers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.labels == ():
            object.__setattr__(
                self, "labels", tuple(f"c{i + 1}" for i in range(len(self.constraints)))
            )
        self._validate()
        watchers: list[list[int]] = [[] for _ in self.vars]
        for i, (c, _) in enumerate(self.constraints):
            for v in c.scope:
                watchers[v.index].append(i)
        object.__setattr__(self, "watchers", tuple(map(tuple, watchers)))

    def _validate(self) -> None:
        for i, v in enumerate(self.vars):
            if v.index != i:
                raise ModelError(f"variable {v.name} has index {v.index}, expected {i}")
            if not v.name:
                raise ModelError("variable names must be non-empty")
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise ModelError("variable names must be unique")
        if len(self.initial.sets) != len(self.vars):
            raise ModelError("domain arity does not match variable count")
        if len(self.labels) != len(self.constraints):
            raise ModelError("constraint label arity mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("constraint labels must be unique")
        declared = set(self.vars)
        for i, (c, notion) in enumerate(self.constraints):
            for v in c.scope:
                if v not in declared:
                    raise ModelError(f"constraint uses undeclared variable {v.name}", i)
            if notion is ConsistencyNotion.BOUNDS_R and not c.real:
                raise ModelError(f"{type(c).__name__} cannot be attached at bounds(R)", i)
            if isinstance(c, ReifLinLe):
                s = self.initial.get(c.b)
                if s.inf < 0 or s.sup > 1:
                    raise ModelError(
                        f"reified bool {c.b.name} must range over a subset of {{0,1}}", i
                    )
            if isinstance(c, MonoBij) and c.func.nonneg:
                if self.initial.get(c.x2).inf < 0:
                    raise ModelError(f"{c.x2.name} must be non-negative for this function", i)

    @classmethod
    def build(
        cls,
        var_domains: list[tuple[str, IntSet]],
        constraints: list[tuple[Constraint, ConsistencyNotion]],
        labels: list[str] | None = None,
    ) -> "Model":
        vars_ = tuple(VarId(i, name) for i, (name, _) in enumerate(var_domains))
        dom = Domain(tuple(s for _, s in var_domains))
        return cls(
            vars_,
            dom,
            tuple(constraints),
            tuple(labels) if labels is not None else (),
        )

    def var(self, name: str) -> VarId:
        for v in self.vars:
            if v.name == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class TraceRecord:
    """One propagator run that changed the domain."""

    label: str
    events: tuple[Event, ...]
    domain: Domain


def _events(d: Domain, scope: tuple[VarId, ...], res: PropagationResult) -> list[Event]:
    """The events of a run from d to res, in scope order; a FIXED event
    always comes with a bound event."""
    lost = dict(res.pruned)
    events = []
    for v in (v for v in scope if v in lost):
        old, gone = d.get(v), lost[v]  # gone is ascending
        if gone[0] == old.inf:
            events.append(Event(v, EventKind.LOWER_BOUND))
        if gone[-1] == old.sup:
            events.append(Event(v, EventKind.UPPER_BOUND))
        if gone[0] != old.inf and gone[-1] != old.sup:
            events.append(Event(v, EventKind.HOLE))
        if len(gone) == old.size - 1:
            events.append(Event(v, EventKind.FIXED))
    return events


def _run(
    m: Model,
    d: Domain,
    record: bool,
    filter_events: bool,
    queue_policy: str,
    changed: Iterable[VarId] | None = None,
) -> tuple[PropagationResult, list[TraceRecord]]:
    if changed is None:
        pending = deque(range(len(m.constraints)))
    else:
        pending = deque(sorted({i for v in changed for i in m.watchers[v.index]}))
    if queue_policy not in ("fifo", "lifo"):
        raise ValueError(f"queue_policy must be 'fifo' or 'lifo', not {queue_policy!r}")
    take = pending.pop if queue_policy == "lifo" else pending.popleft
    queued = set(pending)
    start, touched = d, set()
    records: list[TraceRecord] = []

    while pending:
        i = take()
        queued.discard(i)
        c, notion = m.constraints[i]
        res = propagate(d, c, notion)
        if res.failed:
            return res, records
        if res.pruned:
            touched.update(v for v, _ in res.pruned)
            events = _events(d, c.scope, res)
            if record:
                records.append(TraceRecord(m.labels[i], tuple(events), res.domain))
            for ev in events:
                for j in m.watchers[ev.var.index]:
                    if j == i or j in queued:
                        continue
                    _, jnotion = m.constraints[j]
                    if not filter_events or ev.kind is not EventKind.HOLE or sees_holes(jnotion):
                        pending.append(j)
                        queued.add(j)
        d = res.domain
    return PropagationResult.between(start, d, touched), records


def propagate_all(
    m: Model,
    d: Domain | None = None,
    *,
    changed: Iterable[VarId] | None = None,
    filter_events: bool = True,
    queue_policy: str = "fifo",
) -> PropagationResult:
    """Common fixpoint of all attached propagators, or failure.

    `changed` states a fact about d, not a setting: d was narrowed from a
    common fixpoint of m on these variables only.  The queue then starts
    with their watchers, in constraint order, and every other propagator
    is taken to be at its fixpoint already; where that does not hold, the
    result may not be a fixpoint.  None (the default) runs every
    propagator.
    """
    res, _ = _run(
        m, d if d is not None else m.initial, False, filter_events, queue_policy, changed
    )
    return res


def trace(
    m: Model,
    d: Domain | None = None,
    *,
    filter_events: bool = True,
    queue_policy: str = "fifo",
) -> tuple[PropagationResult, list[TraceRecord]]:
    """Like propagate_all, also returning the ordered change records."""
    return _run(
        m, d if d is not None else m.initial, True, filter_events, queue_policy
    )


def format_trace(initial: Domain, records: list[TraceRecord]) -> str:
    """Line-oriented replay log: label, event kind, var, old/new bounds."""
    lines = []
    prev = initial
    for rec in records:
        for ev in rec.events:
            ob = prev.get(ev.var)
            nb = rec.domain.get(ev.var)
            lines.append(
                f"{rec.label} {ev.kind.value} {ev.var.name} "
                f"[{ob.inf},{ob.sup}] -> [{nb.inf},{nb.sup}]"
            )
        prev = rec.domain
    return "\n".join(lines)
