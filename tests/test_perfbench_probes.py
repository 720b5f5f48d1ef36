"""The benchmark's tracer and output checks fit the package they run against."""

import importlib
import sys
from pathlib import Path

import pytest

from planecode.cover import build_cover_report
from planecode.serialize import cover_report_to_json, dumps_canonical

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


@pytest.mark.parametrize("text", ["x^2-2", "x^5-x-1"])
def test_benchmark_check_accepts_the_cover_report(built, text, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    checks = importlib.import_module("checks")
    cfg, _ = built(text)
    path = tmp_path / "report.json"
    report = cover_report_to_json(build_cover_report(cfg))
    path.write_text(dumps_canonical(report), encoding="utf-8")
    assert checks.cover_report(path, cfg.line_count) == ([], cfg.line_count)
