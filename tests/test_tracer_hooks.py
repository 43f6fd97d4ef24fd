"""The benchmark's tracer wraps fdlab names from outside the package; a
refactor that drops one of them breaks the traced benchmark only."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from conftest import make_vars
import fdlab.propagators
from fdlab import Affine, Domain, IntSet, LinLe, LinNe, LinTerm, MonoBij, ProductLe, propagate
from fdlab.checkers import ConsistencyNotion


def test_every_traced_name_is_an_attribute_of_its_owner():
    pytest.importorskip("numpy")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in tracing.BOUNDARIES
        if attr not in owner.__dict__
    ]
    assert tracing.BOUNDARIES and not missing


def test_each_support_query_of_propagate_reaches_one_traced_name(monkeypatch):
    # A bounds(R) support of <=, a product or x1 = g(x2) with x2 pinned runs
    # the integer search inside checkers; propagate must still count it
    # once, as a real query.  `!=` with two or more free variables, and a
    # scope with one free variable, are decided without any query.
    calls = Counter()

    def count(name):
        fn = getattr(fdlab.propagators, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(fdlab.propagators, name, counted)

    count("_find_int_support")
    count("_real_support")
    x1, x2, x3 = make_vars(3)
    d = Domain((IntSet.of([-2, 0, 3]), IntSet.interval(-1, 2), IntSet.of([-4, 1, 5])))
    terms = (LinTerm(2, x1), LinTerm(-1, x2), LinTerm(3, x3))
    bij = MonoBij(x1, Affine(1, -1), x2)
    for c in LinNe(terms, 5), LinNe(terms[:1], 0), LinLe(terms, 1), ProductLe(x1, x2, x3), bij:
        for notion in ConsistencyNotion:
            calls.clear()
            propagate(d, c, notion)
            queried, untouched = "_find_int_support", "_real_support"
            if notion is ConsistencyNotion.BOUNDS_R:
                queried, untouched = untouched, queried
            assert calls[untouched] == 0, (c, notion)
            if isinstance(c, LinNe):
                assert calls[queried] == 0, (c, notion)
            if isinstance(c, MonoBij):  # no closed form: each value is a query
                assert calls[queried] > 0, (c, notion)
