"""The benchmark's tracer and output checks fit the package they run against."""

import importlib
import sys
from pathlib import Path

import pytest

from planecode.cover import build_cover_report
from planecode.decode import separation_certificate
from planecode.numberfield import parse_poly
from planecode.serialize import (
    certificate_to_json,
    config_to_json,
    cover_report_to_json,
    dumps_canonical,
)

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


@pytest.fixture
def checks(monkeypatch):
    """perfbench/checks.py, imported the way the benchmark's runner imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    return importlib.import_module("checks")


@pytest.mark.parametrize("text", ["x^2-2", "x^5-x-1"])
def test_benchmark_check_accepts_the_cover_report(built, checks, text, tmp_path):
    cfg, _ = built(text)
    path = tmp_path / "report.json"
    report = cover_report_to_json(build_cover_report(cfg))
    path.write_text(dumps_canonical(report), encoding="utf-8")
    assert checks.cover_report(path, cfg.line_count) == ([], cfg.line_count)


def test_benchmark_check_accepts_the_configuration_file(built, checks, tmp_path):
    cfg, _ = built("x^2-2")
    path = tmp_path / "c.json"
    path.write_text(dumps_canonical(config_to_json(cfg)), encoding="utf-8")
    assert checks.config_file(path, "x^2-2") == ([], cfg.line_count)


# x^2-20000*x+99999998: roots 10^4 +- sqrt 2, close together and far from
# 0, whose centres isolate_roots finds at the absolute precision 2^-64
@pytest.mark.parametrize("text", ["x^5-x-1", "x^2-20000*x+99999998"])
def test_benchmark_check_accepts_the_certificate(checks, text, tmp_path):
    cert = separation_certificate(parse_poly(text))
    path = tmp_path / "cert.json"
    path.write_text(dumps_canonical(certificate_to_json(cert)), encoding="utf-8")
    assert checks.certificate(path, text) == ([], cert.line_count)
