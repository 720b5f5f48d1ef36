"""Every binding that the benchmark tracer patches exists in the package."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_probed_binding_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    assert tracer.PROBES
    missing = []
    for module_name, path, _ in tracer.PROBES:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer rebinds the name in this namespace, so it must be bound here
        if name not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert not missing, f"probed names no longer bound: {missing}"
