"""Microbenchmarks of K arithmetic and P^2(K) geometry, warm-up excluded.

Operands come from configurations the program builds (compile + emit of a
fixed polynomial per degree), not from fresh small rationals: the size of
their coefficients is what makes exact arithmetic expensive. The seed picks
which operands are sampled.
"""

from __future__ import annotations

import random
import statistics
import time

DEGREES = {"d2": "x^2-2", "d4": "x^4-x-1", "d7": "x^7-x-1"}

# A cubic x^3 - c with c = 10^12 + 7: thirteen digits and not a cube, so it
# has no rational root and the rational-root search runs to the end.
BIG_CUBIC = "x^3-1000000000007"

ROUNDS = 5
SAMPLES = 100


def _per_op_us(fn, operands) -> float:
    """Median over rounds of the time per call, after one untimed round."""
    for args in operands:
        fn(*args)
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for args in operands:
            fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(operands) * 1e6


def _operands(poly_text: str):
    from planecode.numberfield import parse_poly
    from planecode.slp_compiler import compile_polynomial, emit_configuration

    cfg = emit_configuration(compile_polynomial(parse_poly(poly_text)))
    coords = [x for p in cfg.points for x in p.coords]
    coords += [x for l in cfg.lines for x in l.coeffs]
    elements = [x for x in dict.fromkeys(coords) if not x.is_rational]
    return elements, list(cfg.lines), list(cfg.points)


def run(seed: int) -> dict[str, float]:
    from planecode.numberfield import NFElement, check_irreducible, parse_poly
    from planecode.projgeom import incident, meet

    rng = random.Random(seed)
    out = {}
    for tag, poly_text in DEGREES.items():
        elements, lines, points = _operands(poly_text)
        pairs = [tuple(rng.sample(elements, 2)) for _ in range(SAMPLES)]
        singles = [(rng.choice(elements),) for _ in range(SAMPLES)]
        line_pairs = [tuple(rng.sample(lines, 2)) for _ in range(SAMPLES)]
        line_points = [(rng.choice(lines), rng.choice(points)) for _ in range(SAMPLES)]
        out[f"numberfield.mul_us.{tag}"] = _per_op_us(NFElement.__mul__, pairs)
        out[f"numberfield.inv_us.{tag}"] = _per_op_us(NFElement.inv, singles)
        out[f"projgeom.meet_us.{tag}"] = _per_op_us(meet, line_pairs)
        out[f"projgeom.incident_us.{tag}"] = _per_op_us(incident, line_points)

    big = parse_poly(BIG_CUBIC)
    out["numberfield.irreducible_bigc_s"] = _per_op_us(check_irreducible, [(big,)]) / 1e6
    return out
