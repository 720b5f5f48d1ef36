#!/usr/bin/env python3
"""Input survey: certify seeded families of polynomials, one child process at a time.

Each case runs `python -m planecode certify` in a fresh interpreter under a
per-case time limit and prints one row: the polynomial, the final line
count L, the seconds taken and the exit code, or "timeout". L is "-" when
the case did not certify; exit 4 names a build whose type colour
refinement did not prove rigid. The families:

- small: two seeded random irreducibles per degree 2-10, coefficients in [-9, 9];
- wide:  the same with 4-digit coefficients, up to 9999 in size;
- sd:    the Swinnerton-Dyer polynomials of degree 2, 4, ..., 32, the
         products of x + e1*sqrt(2) + e2*sqrt(3) + ... over all signs e,
         each from the last as A(x)^2 - p*B(x)^2.

Usage: python scripts/survey.py [--family small wide sd] [--max-degree D]
       [--timeout SECONDS]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from planecode.errors import UnprovenModulus  # noqa: E402
from planecode.numberfield import IntPoly, check_irreducible  # noqa: E402

SD_PRIMES = (2, 3, 5, 7, 11)
SEED, PER_DEGREE = 0, 2  # the random families: their seed, and cases per degree


def swinnerton_dyer(primes) -> IntPoly:
    """prod(x + e1*sqrt(p1) + ... + ek*sqrt(pk)) over all signs, exactly.

    With S the product for the primes before p, S(x + sqrt(p)) = A(x) +
    sqrt(p)*B(x) for integer A and B, found by Horner's rule on the pair
    (A, B), and the next product is S(x + sqrt(p)) * S(x - sqrt(p)) =
    A^2 - p*B^2.
    """
    x = s = IntPoly.from_coeffs((0, 1))
    for p in primes:
        q, a, b = IntPoly.from_coeffs((p,)), IntPoly.zero(), IntPoly.zero()
        for c in reversed(s.coeffs):
            # (A + sqrt(p)*B) * (x + sqrt(p)) + c
            a, b = a * x + q * b + IntPoly.from_coeffs((c,)), a + b * x
        s = a * a - q * b * b
    return s


def random_irreducibles(rng: random.Random, bound: int, max_degree: int):
    """PER_DEGREE irreducibles of each degree 2..max_degree, coefficients in [-bound, bound].

    A draw whose irreducibility the screen cannot settle is drawn again.
    """
    for n in range(2, max_degree + 1):
        found = 0
        while found < PER_DEGREE:
            p = IntPoly.from_coeffs([rng.randint(-bound, bound) for _ in range(n + 1)])
            try:
                irreducible = p.degree == n and p[0] != 0 and check_irreducible(p) is None
            except UnprovenModulus:
                irreducible = False
            if irreducible:
                found += 1
                yield p


def families(names, max_degree: int):
    rng = random.Random(SEED)
    for name in names:
        if name == "small":
            yield from random_irreducibles(rng, 9, min(max_degree, 10))
        elif name == "wide":
            yield from random_irreducibles(rng, 9999, min(max_degree, 10))
        else:
            for k in range(1, len(SD_PRIMES) + 1):
                if 2**k <= max_degree:
                    yield swinnerton_dyer(SD_PRIMES[:k])


def survey(p: IntPoly, timeout: float) -> tuple[str, float, str]:
    """(L, seconds, exit code) of certify for p in a child interpreter."""
    argv = [sys.executable, "-m", "planecode", "certify", f"--poly={p}"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "-", time.perf_counter() - t0, "timeout"
    seconds = time.perf_counter() - t0
    if out.returncode:
        return "-", seconds, str(out.returncode)
    return str(json.loads(out.stdout)["line_count"]), seconds, "0"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = ("small", "wide", "sd")
    ap.add_argument("--family", nargs="+", choices=names, default=list(names))
    ap.add_argument("--max-degree", type=int, default=32)
    ap.add_argument("--timeout", type=float, default=60.0, help="seconds per case")
    args = ap.parse_args(argv)

    print("polynomial\tL\tseconds\texit", flush=True)
    for p in families(args.family, args.max_degree):
        lines, seconds, code = survey(p, args.timeout)
        print(f"{p}\t{lines}\t{seconds:.2f}\t{code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
