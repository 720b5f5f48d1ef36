"""JSON encodings for configurations, certificates, and cover reports.

Rationals are encoded as {"n": "<decimal>", "d": "<decimal>"} so nothing
abstract ever passes through floats; floats appear only in certificate
embedding values, always next to their radii. Serialization is canonical
(sorted keys, fixed indentation), so identical objects give identical bytes.

A configuration file (schema v3) holds the polynomial, the seed, the stream
cursor and the lines: a configuration is its lines. Loading checks the
lines and then derives the multiple points, incidences and marks with the
code that built them (configuration.derive_points), which finds each point
by its key mod a prime and confirms it exactly; the simple crossings are
counted, not stored. So nothing in the file is trusted and nothing is
proven twice. Certificates are schema v2. A cover report (schema v2)
lists each valence once, and each class as h and one b per valence.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

from .configuration import Configuration, derive_points
from .cover import name
from .errors import DuplicateLine, SchemaError
from .numberfield import MAX_COEFF_DIGITS, IntPoly, NFElement, NumberField, check_bounds
from .projgeom import ProjLine

CONFIG_SCHEMA_VERSION = 3
CERTIFICATE_SCHEMA_VERSION = 2
COVER_SCHEMA_VERSION = 2
_DECIMAL = re.compile("[+-]?[0-9]+")


def fraction_to_json(q: Fraction) -> dict:
    return {"n": str(q.numerator), "d": str(q.denominator)}


def fraction_from_json(data) -> Fraction:
    """The rational {"n": n, "d": d}, each a JSON integer or a string of a sign and ASCII digits."""
    try:
        n, d = data["n"], data["d"]
        if not all(type(v) is int or type(v) is str and _DECIMAL.fullmatch(v) for v in (n, d)):
            raise TypeError(f"{n!r} and {d!r} must be JSON integers or decimal strings")
        return Fraction(int(n), int(d))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {data!r}") from exc


def nf_to_json(e: NFElement) -> list:
    return [fraction_to_json(c) for c in e.coeffs]


def nf_from_json(field: NumberField, data) -> NFElement:
    if not isinstance(data, list) or len(data) != field.n:
        raise SchemaError(f"field element needs {field.n} coefficients")
    return field.element([fraction_from_json(c) for c in data])


def poly_to_json(p: IntPoly) -> list:
    return [fraction_to_json(c) for c in p.coeffs]


def poly_from_json(data) -> IntPoly:
    """The polynomial of a file, held to the bounds of parse_poly before int() runs.

    Rational coefficients are read as their integer multiple by the lcm of
    the denominators (the same field), held to MAX_COEFF_DIGITS as well.
    """
    if not isinstance(data, list):
        raise SchemaError("polynomial must be a list of rationals")
    try:
        numerals = [str(c[k]) for c in data for k in ("n", "d")]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad rational in polynomial: {exc!r}") from exc
    check_bounds(len(data) - 1, numerals, SchemaError)
    qs = [fraction_from_json(c) for c in data]
    den = lcm(*(q.denominator for q in qs))
    p = IntPoly.from_coeffs(q.numerator * (den // q.denominator) for q in qs)
    if any(abs(c) >= 10**MAX_COEFF_DIGITS for c in p.coeffs):
        raise SchemaError(f"clearing denominators exceeds MAX_COEFF_DIGITS = {MAX_COEFF_DIGITS}")
    return p


def config_to_json(c: Configuration) -> dict:
    return {
        "v": CONFIG_SCHEMA_VERSION,
        "poly": poly_to_json(c.source),
        "seed": c.seed,
        "params_consumed": c.params_consumed,
        "lines": [[nf_to_json(x) for x in l.coeffs] for l in c.lines],
    }


def _line(field: NumberField, i: int, entry) -> ProjLine:
    """Line i of a file: three coordinates in canonical form."""
    if not isinstance(entry, list) or len(entry) != 3:
        raise SchemaError(f"line {i} needs 3 homogeneous coordinates")
    coeffs = tuple(nf_from_json(field, x) for x in entry)
    lead = next((x for x in coeffs if not x.is_zero), None)
    if lead is None or not lead.is_one:
        raise SchemaError(f"line {i} is not a canonical triple (first nonzero entry 1)")
    return ProjLine(coeffs)


def config_from_json(data) -> Configuration:
    """Decode a configuration file: check its lines, derive everything else.

    The lines must be canonical triples, pairwise distinct, and at least
    two; canonical form makes "distinct triples" mean "distinct lines", so
    every pair of lines meets in exactly one point. derive_points then
    derives the multiple points, incidences and marks as the build did.
    The seed and the stream cursor must be JSON integers, the cursor
    >= 0. A malformed file raises SchemaError (exit 6); so does a schema
    v1 file (it stored points) or v2 file (its seed drew grid heights),
    asking for a rebuild, and a certificate or report, named by its kind.
    A polynomial that defines no field exits 3, as it does for build.
    """
    if not isinstance(data, dict):
        raise SchemaError("configuration file must hold a JSON object")
    if "kind" in data:
        raise SchemaError(f"this is a {data['kind']} file, not a configuration")
    version = data.get("v")
    if type(version) is int and version in (1, 2):
        raise SchemaError(
            f"this is a schema v{version} configuration file, which planecode no longer "
            "reads; rebuild it with `planecode build`"
        )
    if version != CONFIG_SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    try:
        poly = poly_from_json(data["poly"])
        field = NumberField.create(poly)
        lines = [_line(field, i, e) for i, e in enumerate(data["lines"])]
        seed, params = data["seed"], data["params_consumed"]
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed configuration file: {exc}") from exc
    # the seed picks the add gadgets' heights, which decode's forcing check draws again
    if type(seed) is not int or type(params) is not int or params < 0:
        raise SchemaError(
            f"seed {seed!r} and params_consumed {params!r} must be JSON integers, "
            "params_consumed >= 0"
        )
    if len(lines) < 2:
        raise SchemaError(f"a configuration needs at least two lines, got {len(lines)}")
    try:
        return derive_points(lines, seed=seed, params_consumed=params)
    except DuplicateLine as exc:
        raise SchemaError(f"a line is listed twice: {exc}") from exc


def certificate_to_json(cert) -> dict:
    return {
        "v": CERTIFICATE_SCHEMA_VERSION,
        "kind": "separation-certificate",
        "poly": poly_to_json(cert.poly),
        "seed": cert.seed,
        "line_count": cert.line_count,
        "mark_valences": dict(cert.mark_valences),
        "max_other_valence": cert.max_other_valence,
        # separation_certificate checked that decode gave the generator z
        "decoded": [fraction_to_json(Fraction(int(i == 1))) for i in range(cert.poly.degree)],
        "equals_generator": True,
        "embeddings": [
            {
                "root_index": i,
                "root_center": [root.center.real, root.center.imag],
                "root_radius": root.radius,
                "value_center": [img.center.real, img.center.imag],
                "value_radius": img.radius,
            }
            for i, (root, img) in enumerate(zip(cert.roots, cert.values))
        ],
        "pairwise_disjoint": True,
        "statement": cert.statement,
    }


def format_certificate(cert) -> str:
    lines = [
        f"separation certificate for p = {cert.poly}",
        f"  seed {cert.seed}, {cert.line_count} lines",
        "  valence ladder: "
        + ", ".join(f"{k}={v}" for k, v in sorted(cert.mark_valences.items()))
        + f", next highest {cert.max_other_valence}",
        "  decoded element equals the field generator: True",
        "  embeddings of the decoded element:",
    ]
    for i, img in enumerate(cert.values):
        c = img.center
        lines.append(
            f"    root {i}: value {c.real:+.10f}{c.imag:+.10f}i"
            f"  (radius {img.radius:.2e})"
        )
    lines.append("  pairwise disjoint: True")
    lines.append(f"  {cert.statement}")
    return "\n".join(lines)


def cover_report_to_json(report) -> dict:
    def pic_to_json(cls):
        h, b = cls
        return {"h": h, "b": list(b)}

    return {
        "v": COVER_SCHEMA_VERSION,
        "kind": "cover-report",
        "poly": poly_to_json(report.source_poly),
        "seed": report.seed,
        "line_count": report.line_count,
        "valence_classes": [{"valence": v, "points": n} for v, n in report.valence_counts],
        "m": {name(g): v for g, v in report.m.items()},
        "D": {name(g): pic_to_json(cls) for g, cls in report.D.items()},
        "M": {name(chi): pic_to_json(cls) for chi, cls in report.classes.items()},
        "parity": "all-even",
        "hypotheses": {
            "proper_transform_smooth": report.hypotheses.proper_transform_smooth,
            "pairs_checked": report.hypotheses.pairs_checked,
            "independence": report.hypotheses.independence,
            "genericity_assumptions": list(report.hypotheses.genericity_assumptions),
        },
        "ampleness": {
            name(chi): {"certified": v.certified, "reason": v.reason}
            for chi, v in report.ampleness.items()
        },
        "nef_gap": {
            "characters": [name(chi) for chi in report.nef_gap],
            "note": (
                "for characters with (chi, alpha) = 0 the half class is a pure "
                "H-multiple: nef but trivial on every exceptional curve, so not "
                "certified ample; left open on purpose"
            ),
        },
    }


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    # ValueError also covers an integer past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
