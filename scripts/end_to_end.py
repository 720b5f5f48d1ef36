#!/usr/bin/env python3
"""Build, decode, and certify the four benchmark polynomials.

Usage: python scripts/end_to_end.py [--seed N]
"""

import argparse
import time

from planecode.cover import build_cover_report, name
from planecode.decode import decode, separation_certificate
from planecode.numberfield import parse_poly
from planecode.pipeline import run_pipeline
from planecode.serialize import format_certificate

POLYS = ["x^2-2", "x^2-x-1", "x^3-2", "x^4-x-1"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--polys", nargs="*", default=POLYS)
    args = ap.parse_args()

    for text in args.polys:
        poly = parse_poly(text)
        t0 = time.perf_counter()
        cfg = run_pipeline(poly, seed=args.seed)
        build_s = time.perf_counter() - t0
        w = decode(cfg)
        print(f"== {poly} ==")
        print(
            f"  {cfg.line_count} lines, {cfg.point_count} points, "
            f"built in {build_s:.2f}s"
        )
        print(f"  decode == generator: {w == cfg.field.gen}")

        cert = separation_certificate(poly, seed=args.seed)
        print("  " + format_certificate(cert).replace("\n", "\n  "))

        report = build_cover_report(cfg)
        certified = sum(1 for v in report.ampleness.values() if v.certified)
        print(
            f"  cover: {certified}/{len(report.ampleness)} nonzero characters "
            f"certified ample, nef-only gap at "
            f"{[name(chi) for chi in report.nef_gap]}"
        )
        print()


if __name__ == "__main__":
    main()
