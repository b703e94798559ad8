"""The benchmark still runs: every name perfbench/tracing.py wraps exists
where it looks for it, a traced child passes its checks, and the set-up
and plain children run.

The tracer replaces functions and methods by name, so renaming or deleting
one breaks only a traced benchmark run.  The perfbench modules are run
from their source, so nothing is written next to them.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name, **imports):
    """perfbench/<name>.py run from its source, with `imports` standing in
    for the perfbench modules it imports by name."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    with mock.patch.dict(sys.modules, imports):
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


tracing = _perfbench("tracing")
metrics = _perfbench("metrics", tracing=tracing)


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


def _child(workload, mode, *extra) -> dict:
    """The result line of one perfbench child run from its source."""
    cmd = [sys.executable, str(PERFBENCH / "child.py"), "--workload", workload, "--seed", "1", "--mode", mode]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd + list(extra), capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["pool", "users", "catalog"])
def test_a_traced_child_passes_its_checks(workload, tmp_path):
    # The run the traced benchmark makes: the correctness gate, and a root
    # span whose uncovered time stays under metrics.UNCOVERED_MAX.
    spans = tmp_path / "spans.json"
    assert _child(workload, "trace", "--spans", str(spans))["failures"] == []
    assert metrics.coverage_failures(tracing.load_spans(spans)[0]) == []


def test_a_setup_child_stops_at_the_first_claim():
    # --mode setup makes the parent's first UserAgent.claim raise, so it
    # needs the parent's own chunk to claim through that method.
    assert _child("tiny", "setup")["setup_s"] > 0


def test_a_plain_child_passes_its_checks():
    result = _child("tiny", "plain")
    assert result["setup_s"] > 0
    assert result["failures"] == []
    assert result["claim_s"]
