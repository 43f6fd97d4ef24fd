"""Engine tests: shared fixpoints, event filtering, queue policies, model
validation, and the replay trace format."""

import pytest

from conftest import fresh_rng, make_vars, random_domain, random_int_constraint
from fdlab import (
    Affine,
    BranchStrategy,
    Domain,
    IntSet,
    LinEq,
    LinLe,
    LinTerm,
    Mod,
    MonoBij,
    PowK,
    PropagationResult,
    ReifLinLe,
    VarId,
    format_trace,
    propagate_all,
    trace,
)
from fdlab.checkers import ConsistencyNotion as N
from fdlab.constraints import real_defined
from fdlab.engine import Model, ModelError
from fdlab.search import _split


def test_affine_chain_converges_to_the_common_interval():
    m = Model.build(
        [
            ("x", IntSet.interval(0, 9)),
            ("y", IntSet.interval(-3, 5)),
            ("z", IntSet.interval(2, 4)),
        ],
        [],
    )
    vx, vy, vz = m.vars
    m = Model(
        m.vars,
        m.initial,
        (
            (MonoBij(vx, Affine(1, 0), vy), N.BOUNDS_R),
            (MonoBij(vy, Affine(1, 0), vz), N.BOUNDS_R),
        ),
    )
    res = propagate_all(m)
    assert not res.failed
    for v in m.vars:
        assert res.domain.get(v).values == (2, 3, 4)


def test_no_constraints_leaves_domain_unchanged():
    m = Model.build([("x", IntSet.of([1, 4]))], [])
    res = propagate_all(m)
    assert res.domain == m.initial and res.pruned == ()


def test_failure_propagates_out():
    x = VarId(0, "x")
    m = Model.build(
        [("x", IntSet.of([1, 2]))],
        [(LinEq((LinTerm(1, x),), 9), N.DOMAIN)],
    )
    res = propagate_all(m)
    assert res.failed and res.domain is None


def test_failed_fixpoint_prunes_nothing_under_either_queue_policy():
    # fifo prunes x with c1 before c2 fails, lifo prunes y with c3 first
    x, y, z = make_vars(3)
    m = Model.build(
        [(v.name, IntSet.interval(0, 3)) for v in (x, y, z)],
        [
            (LinLe((LinTerm(1, x),), 1), N.DOMAIN),
            (LinEq((LinTerm(1, x), LinTerm(1, y), LinTerm(1, z)), 20), N.BOUNDS_R),
            (LinLe((LinTerm(1, y),), 1), N.DOMAIN),
        ],
    )
    failed = PropagationResult(None, ())
    assert propagate_all(m, queue_policy="fifo") == failed
    assert propagate_all(m, queue_policy="lifo") == failed
    assert trace(m, queue_policy="lifo")[0] == failed


@pytest.mark.parametrize("policy", ["LIFO", "stack", ""])
def test_an_unknown_queue_policy_is_refused(policy):
    x = VarId(0, "x")
    m = Model.build([("x", IntSet.of([1, 2]))], [(LinLe((LinTerm(1, x),), 1), N.DOMAIN)])
    with pytest.raises(ValueError, match="queue_policy"):
        propagate_all(m, queue_policy=policy)
    with pytest.raises(ValueError, match="queue_policy"):
        trace(m, queue_policy=policy)


def random_model(rng, nvars=3):
    d = random_domain(rng, nvars, max_size=4)
    vs = make_vars(nvars)
    constraints = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(1, nvars)
        sub = vs[:k]
        c = random_int_constraint(rng, sub)
        notions = [N.DOMAIN, N.BOUNDS_D, N.BOUNDS_Z]
        if real_defined(c):
            notions.append(N.BOUNDS_R)
        constraints.append((c, rng.choice(notions)))
    try:
        return Model(tuple(vs), d, tuple(constraints))
    except ModelError:
        return None  # reified bool or restricted argument out of range


def test_event_filtering_is_lossless():
    rng = fresh_rng(31)
    built = 0
    for _ in range(200):
        m = random_model(rng)
        if m is None:
            continue
        built += 1
        a = propagate_all(m, filter_events=True)
        b = propagate_all(m, filter_events=False)
        assert a.failed == b.failed
        if not a.failed:
            assert a.domain == b.domain
    assert built > 120


def test_queue_policy_does_not_change_the_fixpoint():
    rng = fresh_rng(32)
    for _ in range(150):
        m = random_model(rng)
        if m is None:
            continue
        a = propagate_all(m, queue_policy="fifo")
        b = propagate_all(m, queue_policy="lifo")
        assert a.failed == b.failed
        if not a.failed:
            assert a.domain == b.domain


def test_a_child_seeded_with_its_split_variable_reaches_the_same_fixpoint():
    # a search child differs from its parent's fixpoint on one variable only
    rng = fresh_rng(34)
    compared = 0
    for _ in range(200):
        m = random_model(rng, nvars=rng.randint(2, 4))
        if m is None:
            continue
        root = propagate_all(m)
        if root.failed:
            continue
        for i, s in enumerate(root.domain.sets):
            if s.is_singleton:
                continue
            for strategy in BranchStrategy:
                for child in _split(root.domain, i, strategy):
                    for policy in ("fifo", "lifo"):
                        for filter_events in (True, False):
                            kw = dict(queue_policy=policy, filter_events=filter_events)
                            seeded = propagate_all(m, child, changed=(m.vars[i],), **kw)
                            assert seeded == propagate_all(m, child, **kw)
                            compared += 1
    assert compared > 1000


def test_trace_replay_of_the_linear_example():
    x1, x2, x3 = make_vars(3)
    m = Model.build(
        [
            ("x1", IntSet.interval(2, 7)),
            ("x2", IntSet.interval(0, 2)),
            ("x3", IntSet.interval(-1, 2)),
        ],
        [(LinEq((LinTerm(1, x1), LinTerm(-3, x2), LinTerm(-5, x3)), 0), N.DOMAIN)],
    )
    res, records = trace(m)
    assert not res.failed
    assert [r.label for r in records] == ["c1"]
    text = format_trace(m.initial, records)
    assert text.splitlines() == [
        "c1 lower x1 [2,7] -> [3,6]",
        "c1 upper x1 [2,7] -> [3,6]",
        "c1 lower x3 [-1,2] -> [0,1]",
        "c1 upper x3 [-1,2] -> [0,1]",
    ]


def test_trace_records_reach_the_same_fixpoint():
    rng = fresh_rng(33)
    for _ in range(60):
        m = random_model(rng)
        if m is None:
            continue
        res, records = trace(m)
        plain = propagate_all(m)
        assert res.failed == plain.failed
        if not res.failed:
            assert res.domain == plain.domain
            if records:
                assert records[-1].domain == res.domain


def test_default_labels_are_generated():
    x = VarId(0, "x")
    m = Model.build(
        [("x", IntSet.of([0, 1]))],
        [
            (LinEq((LinTerm(1, x),), 0), N.DOMAIN),
            (LinEq((LinTerm(2, x),), 0), N.BOUNDS_Z),
        ],
    )
    assert m.labels == ("c1", "c2")
    assert m.var("x") == x
    with pytest.raises(KeyError):
        m.var("nope")


def test_model_validation():
    x, y = VarId(0, "x"), VarId(1, "y")
    with pytest.raises(ModelError):
        Model((VarId(1, "x"),), Domain((IntSet.of([0]),)), ())
    with pytest.raises(ModelError):
        Model.build(
            [("x", IntSet.of([0])), ("x", IntSet.of([1]))], []
        )
    with pytest.raises(ModelError):
        Model.build(
            [("x", IntSet.of([0, 1]))],
            [(LinEq((LinTerm(1, y),), 0), N.DOMAIN)],
        )
    with pytest.raises(ModelError):
        Model.build(
            [("x", IntSet.of([0, 1])), ("y", IntSet.of([0, 1])), ("z", IntSet.of([1, 2]))],
            [(Mod(x, y, VarId(2, "z")), N.BOUNDS_R)],
        )
    with pytest.raises(ModelError):
        Model.build(
            [("x", IntSet.of([0, 2])), ("y", IntSet.of([0, 1]))],
            [(ReifLinLe(x, (LinTerm(1, y),), 0), N.DOMAIN)],
        )
    with pytest.raises(ModelError):
        Model.build(
            [("x", IntSet.of([0, 4])), ("y", IntSet.of([-2, 1]))],
            [(MonoBij(x, PowK(1, 2), y), N.BOUNDS_Z)],
        )
