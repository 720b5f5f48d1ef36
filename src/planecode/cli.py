"""Command line interface.

Subcommands: build, decode, certify, cover, render. Exit codes: 0 success,
1 failed self-check, 2 parse error or bad argument, 3 algebra (reducible
modulus, not a root), 4 genericity, including a built type that colour
refinement does not prove rigid, 5 a file whose type is not proven rigid,
a mark row that names no point, or incidences that do not force the
relation, 6 schema / data integrity, including an unreadable file and a
file of an older schema.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cover import build_cover_report
from .decode import decode, separation_certificate
from .errors import PlanecodeError
from .numberfield import isolate_roots, parse_poly
from .pipeline import run_pipeline
from .serialize import (
    certificate_to_json,
    config_from_json,
    config_to_json,
    cover_report_to_json,
    dumps_canonical,
    format_certificate,
    loads,
)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)


def _load_config(path: str):
    return config_from_json(loads(Path(path).read_text(encoding="utf-8")))


# argparse reads "-p -x^2+2" as two options; the attached form keeps the minus
_POLY_HELP = 'e.g. "x^2 - 2"; write a leading minus as --poly=-x^2+2'


def _cmd_build(args) -> int:
    cfg = run_pipeline(parse_poly(args.poly), seed=args.seed)
    _write_output(dumps_canonical(config_to_json(cfg)), args.out)
    print(
        f"built configuration for {cfg.source}: {cfg.line_count} lines, "
        f"{cfg.point_count} points",
        file=sys.stderr,
    )
    return 0


def _cmd_decode(args) -> int:
    cfg = _load_config(args.config)
    element = decode(cfg)
    print(f"decoded coefficients: ({', '.join(str(c) for c in element.coeffs)})")
    print(f"minimal polynomial:   {cfg.field.source}")
    print("the incidences force P(z) = N(z) in every realization")
    if element == cfg.field.gen:
        print("decoded element equals the field generator")
        return 0
    print("decoded element does NOT equal the field generator", file=sys.stderr)
    return 3


def _cmd_certify(args) -> int:
    cert = separation_certificate(parse_poly(args.poly), seed=args.seed)
    _write_output(dumps_canonical(certificate_to_json(cert)), args.out)
    print(format_certificate(cert), file=sys.stderr)
    return 0


def _cmd_cover(args) -> int:
    cfg = _load_config(args.config)
    report = build_cover_report(cfg)
    _write_output(dumps_canonical(cover_report_to_json(report)), args.out)
    certified = sum(1 for v in report.ampleness.values() if v.certified)
    print(
        f"cover report: L = {report.line_count}, "
        f"{certified}/{len(report.ampleness)} nonzero characters certified ample, "
        f"{len(report.nef_gap)} flagged nef-only",
        file=sys.stderr,
    )
    return 0


def _cmd_render(args) -> int:
    # imported here: no other command draws, so none of them compiles render
    from .render import render_svg

    cfg = _load_config(args.config)
    embeddings = isolate_roots(cfg.field.source)
    svg, warnings = render_svg(cfg, embeddings, args.embedding)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_output(svg, args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="planecode",
        description="encode algebraic numbers as point-line configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="compile a polynomial into a configuration")
    p_build.add_argument("-p", "--poly", required=True, help=_POLY_HELP)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("-o", "--out", default=None, help="output JSON (default stdout)")
    p_build.set_defaults(func=_cmd_build)

    p_decode = sub.add_parser("decode", help="recover the encoded number from a file")
    p_decode.add_argument("config", help="configuration JSON file")
    p_decode.set_defaults(func=_cmd_decode)

    p_cert = sub.add_parser("certify", help="build + decode + Galois separation certificate")
    p_cert.add_argument("-p", "--poly", required=True, help=_POLY_HELP)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("-o", "--out", default=None)
    p_cert.set_defaults(func=_cmd_certify)

    p_cover = sub.add_parser("cover", help="branched-cover divisor bookkeeping report")
    p_cover.add_argument("config", help="configuration JSON file")
    p_cover.add_argument("-o", "--out", default=None)
    p_cover.set_defaults(func=_cmd_cover)

    p_render = sub.add_parser("render", help="draw a configuration as SVG")
    p_render.add_argument("config", help="configuration JSON file")
    p_render.add_argument("--embedding", type=int, default=0)
    p_render.add_argument("-o", "--out", default=None)
    p_render.set_defaults(func=_cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
