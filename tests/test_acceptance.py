"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import random
from fractions import Fraction

from planecode.cli import main
from planecode.configuration import Configuration, valences
from planecode.cover import ALPHA, build_cover_report, group_elements, name, pairing, select_m
from planecode.decode import decode, separation_certificate
from planecode.numberfield import NumberField, parse_poly
from planecode.projgeom import cross_ratio, point, transform
from planecode.serialize import (
    certificate_to_json,
    config_to_json,
    dumps_canonical,
)
from planecode.slp_compiler import _Drawn, add_gadget, mul_gadget, register_point
from tests.conftest import ACCEPTANCE_POLYS

TIME_BUDGET_SECONDS = 30.0


def _verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_end_to_end_round_trip(built):
    times = {}
    for text in ACCEPTANCE_POLYS:
        cfg, seconds = built(text)
        times[text] = seconds
        assert decode(cfg) == cfg.field.gen, f"decode({text}) is not the generator"
        assert seconds < TIME_BUDGET_SECONDS, f"{text} took {seconds:.1f}s"
    detail = "decode == generator for " + ", ".join(
        f"{t} ({times[t]:.1f}s)" for t in ACCEPTANCE_POLYS
    )
    _verdict(1, True, detail)


def test_criterion_2_separation_certificates():
    cert = separation_certificate(parse_poly("x^2-2"))
    reals = sorted(v.center.real for v in cert.values)
    ok = (
        abs(reals[0] + 1.4142135624) < 1e-9
        and abs(reals[1] - 1.4142135624) < 1e-9
        and certificate_to_json(cert)["pairwise_disjoint"] is True
    )
    cert3 = separation_certificate(parse_poly("x^3-2"))
    real = [v for v in cert3.values if abs(v.center.imag) < 1e-9]
    cplx = [v for v in cert3.values if abs(v.center.imag) >= 1e-9]
    ok = ok and len(real) == 1 and len(cplx) == 2
    ok = ok and certificate_to_json(cert3)["pairwise_disjoint"] is True
    ok = ok and all(
        cert3.values[i].disjoint_from(cert3.values[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    _verdict(2, ok, "x^2-2 gives disjoint discs at +-1.4142135624; x^3-2 gives 3 disjoint discs")


def test_criterion_3_gadget_soundness():
    k = NumberField.create(parse_poly("x^2-2"))
    g = _Drawn(k)
    rng = random.Random(2024)
    checked = 0
    for _ in range(100):
        a = Fraction(rng.randint(-90, 90) or 11, rng.randint(1, 30))
        b = Fraction(rng.randint(-90, 90) or 13, rng.randint(1, 30))
        h = Fraction(rng.randint(2, 10))
        av, bv = register_point(k.from_rational(a)), register_point(k.from_rational(b))
        assert add_gadget(g, av, bv, h)[0] == register_point(k.from_rational(a + b))
        assert mul_gadget(g, av, bv)[0] == register_point(k.from_rational(a * b))
        checked += 1
    _verdict(3, checked == 100, f"{checked}/100 random rational pairs exact for add/mul")


def test_criterion_4_configuration_invariants(built):
    for text in ACCEPTANCE_POLYS:
        cfg, _ = built(text)
        assert all(v % 2 == 0 for v in cfg.all_valences()), f"odd valence in {text}"
        rep = valences(cfg)
        top = rep[:5]
        vals = [v for _, v in top]
        assert vals[0] > vals[1] > vals[2] > vals[3] > vals[4], f"ladder tie in {text}"
        expected = [cfg.marks[l] for l in ("zero", "one", "inf", "z")]
        assert [i for i, _ in top[:4]] == expected, f"marks out of order in {text}"
        unmarked = Configuration(
            cfg.field, cfg.lines, cfg.points, cfg.incidence, {}, cfg.seed, cfg.params_consumed,
        )
        assert decode(unmarked) == cfg.field.gen, f"marked decode in {text}"
    _verdict(4, True, "valences even, ladder strict on 0 > 1 > inf > z, decode needs no marks")


def test_criterion_5_cover_bookkeeping(built):
    for text in ACCEPTANCE_POLYS:
        cfg, _ = built(text)
        report = build_cover_report(cfg)  # raises ParityViolation on any odd class
        assert len(report.classes) == 8
        for chi in group_elements():
            if chi == 0:
                continue
            verdict = report.ampleness[chi]
            if pairing(chi, ALPHA) == 1:
                assert verdict.certified, f"{text}: chi={name(chi)} not certified"
            else:
                assert not verdict.certified
        assert report.m == select_m(cfg)
        assert len(report.nef_gap) == 3
    _verdict(5, True, "all 8 half classes integral; 4 certificates pass; 3 nef-only flagged")


def test_criterion_6_cross_ratio_convention():
    k = NumberField.create(parse_poly("x^2-2"))
    quad = lambda w: (
        point(k, 0, 0),
        point(k, 1, 0),
        point(k, 1, 0, 0),
        point(k, w, 0),
    )
    rng = random.Random(31)
    seen = set()
    while len(seen) < 100:
        w = Fraction(rng.randint(-500, 500), rng.randint(1, 50))
        if w in (0, 1) or w in seen:
            continue
        seen.add(w)
        assert cross_ratio(*quad(w)) == k.from_rational(w)

    base = quad(k.gen + 5)
    expected = cross_ratio(*base)
    matrices = 0
    while matrices < 20:
        m = [[k.from_rational(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det.is_zero:
            continue
        assert cross_ratio(*(transform(m, p) for p in base)) == expected
        matrices += 1
    _verdict(6, True, "cr(0,1,inf,w) = w for 100 w; invariant under 20 random matrices")


def test_criterion_7_reproducibility(built):
    from planecode.pipeline import run_pipeline

    cfg_a = run_pipeline(parse_poly("x^2-2"), seed=0)
    cfg_b = run_pipeline(parse_poly("x^2-2"), seed=0)
    bytes_a = dumps_canonical(config_to_json(cfg_a)).encode()
    bytes_b = dumps_canonical(config_to_json(cfg_b)).encode()
    cert_a = dumps_canonical(certificate_to_json(separation_certificate(parse_poly("x^2-2"))))
    cert_b = dumps_canonical(certificate_to_json(separation_certificate(parse_poly("x^2-2"))))
    ok = bytes_a == bytes_b and cert_a == cert_b
    _verdict(7, ok, "configuration and certificate JSON byte-identical across reruns")


def test_criterion_8_fault_injection(built, tmp_path):
    codes = {}
    codes["reducible"] = main(["build", "-p", "x^2-1", "-o", str(tmp_path / "r.json")])

    cfg, _ = built("x^2-2")
    data = json.loads(dumps_canonical(config_to_json(cfg)))
    busiest = cfg.marks["zero"]
    for target in sorted(cfg.incidence[busiest])[-2:][::-1]:
        del data["lines"][target]
    tie_path = tmp_path / "tie.json"
    tie_path.write_text(dumps_canonical(data), encoding="utf-8")
    codes["valence tie"] = main(["decode", str(tie_path)])

    data = json.loads(dumps_canonical(config_to_json(cfg)))
    data["lines"].append(data["lines"][-1])
    twice_path = tmp_path / "twice.json"
    twice_path.write_text(dumps_canonical(data), encoding="utf-8")
    codes["line listed twice"] = main(["cover", str(twice_path), "-o", str(tmp_path / "c.json")])

    ok = codes == {"reducible": 3, "valence tie": 5, "line listed twice": 6}
    _verdict(8, ok, f"distinct error codes: {codes}")
