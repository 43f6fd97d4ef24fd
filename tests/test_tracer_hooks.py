"""The benchmark's tracer wraps fdlab names from outside the package; a
refactor that drops one of them breaks the traced benchmark only."""

import importlib.util
from pathlib import Path

import pytest


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
