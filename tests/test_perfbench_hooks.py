"""The benchmark's tracer (perfbench/tracer.py) wraps liejet functions by
attribute name.  A rename must fail here, in the test suite, rather than
crash a traced benchmark run."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")  # install() is not called
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer.TRACED if not hasattr(owner, attr)]
    assert tracer.TRACED and not missing
