#!/usr/bin/env python3
"""Render every embedding of a few configurations into out/ as SVG.

Usage: python scripts/render_gallery.py [--outdir out]
"""

import argparse
from pathlib import Path

from planecode.numberfield import isolate_roots, parse_poly
from planecode.pipeline import run_pipeline
from planecode.render import render_svg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--polys", nargs="*", default=["x^2-2", "x^3-2"])
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for text in args.polys:
        poly = parse_poly(text)
        cfg = run_pipeline(poly)
        embeddings = isolate_roots(poly)
        slug = text.replace("^", "").replace("*", "").replace("-", "m").replace("+", "p")
        for i in range(len(embeddings)):
            svg, warnings = render_svg(cfg, embeddings, i)
            path = outdir / f"{slug}_root{i}.svg"
            path.write_text(svg, encoding="utf-8")
            note = f" ({'; '.join(warnings)})" if warnings else ""
            print(f"wrote {path}{note}")


if __name__ == "__main__":
    main()
