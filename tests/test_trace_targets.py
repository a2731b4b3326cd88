"""Every name the benchmark's tracer wraps exists where it looks for it.

``perfbench/tracer.py`` resolves a traced method in its class's own
namespace (``vars(cls)``), so an operator that is renamed, or inherited
without being named in the subclass body, is reported absent.  The traced
benchmark run then counts a failed operation; this test finds it first.
The tracer module is imported read-only; nothing is wrapped.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_no_trace_target_is_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    absent = []
    for mod_name, cls, attrs, _span in tracer.TARGETS:
        module = importlib.import_module(f"hekdv.{mod_name}")
        _found, missing = tracer._resolve(module, cls, attrs)
        absent.extend(f"{mod_name}.{name}" for name in missing)
    assert absent == []
