"""Every name perfbench/tracing.py wraps still exists where it looks for it.

The tracer replaces functions and methods by name, so renaming or deleting
one breaks only a traced benchmark run.  This test reads the tracer's
tables without installing anything.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    """The tracer module, run from its source so nothing is written next
    to it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()


def _module(name):
    return importlib.import_module(f"privads.{name}")


def test_every_traced_function_exists():
    missing = [
        f"{module}.{name}"
        for module, names in tracing.FUNCTIONS.items()
        for name in names
        if not callable(getattr(_module(module), name, None))
    ]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class():
    missing = [
        f"{module}.{cls_name}.{method}"
        for module, cls_name, method, _ in tracing.METHODS
        if method not in getattr(_module(module), cls_name).__dict__
    ]
    assert missing == []
