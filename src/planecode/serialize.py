"""JSON encodings for configurations, certificates, and cover reports.

Rationals are encoded as {"n": "<decimal>", "d": "<decimal>"} so nothing
abstract ever passes through floats; floats appear only in certificate
embedding values, always next to their radii. Serialization is canonical
(sorted keys, fixed indentation), so identical objects give identical bytes.

A configuration file (schema v4) holds the polynomial, the seed, the stream
cursor, the lines and the marks: a configuration is its lines, and a mark
is a fact of their combinatorial type. The file names each mark by its
row, the sorted canonical ranks of the lines through it
(configuration.line_ranks), so the names do not change when the lines are
reordered or the file is Galois-conjugated. Loading checks the lines and
then derives the multiple points and incidences with the code that built
them (configuration.derive_points), which finds each point by its key mod
a prime and confirms it exactly; the simple crossings are counted, not
stored. It proves the type rigid and resolves each row to its point. So
nothing in the file is trusted and nothing is proven twice. Certificates
are schema v3. A cover report (schema v2) lists each valence once, and
each class as h and one b per valence.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

from .configuration import MARK_LABELS, Configuration, derive_points, line_ranks
from .cover import name
from .errors import DuplicateLine, SchemaError, UnnamedMark
from .numberfield import MAX_COEFF_DIGITS, IntPoly, NFElement, NumberField, check_bounds
from .projgeom import ProjLine, meet

CONFIG_SCHEMA_VERSION = 4
CERTIFICATE_SCHEMA_VERSION = 3
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
    """The file of c; a type that is not rigid raises NotRigid (exit 5), as loading it would."""
    rank = line_ranks(c)
    return {
        "v": CONFIG_SCHEMA_VERSION,
        "poly": poly_to_json(c.source),
        "seed": c.seed,
        "params_consumed": c.params_consumed,
        "lines": [[nf_to_json(x) for x in l.coeffs] for l in c.lines],
        "marks": {
            label: sorted(rank[i] for i in c.incidence[p]) for label, p in c.marks.items()
        },
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


def _mark_rows(data) -> dict[str, tuple[int, ...]]:
    """The marks of a file: per label, a strictly increasing row of two or more line ranks."""
    if not isinstance(data, dict) or sorted(data) != sorted(MARK_LABELS):
        raise SchemaError(f"marks must map exactly the labels {', '.join(MARK_LABELS)} to rows")
    for label, row in data.items():
        ok = isinstance(row, list) and len(row) >= 2 and all(type(r) is int for r in row)
        if not (ok and row == sorted(set(row)) and row[0] >= 0):
            raise SchemaError(
                f"mark {label}: {row!r} is not a strictly increasing list of two or more line ranks"
            )
    return {label: tuple(row) for label, row in data.items()}


def _resolved(rows: dict[str, tuple[int, ...]], c: Configuration) -> dict[str, int]:
    """Each mark of a file's rows resolved to its point of c, the marks hook of derive_points.

    The type must be rigid (line_ranks, NotRigid otherwise, exit 5); then
    each rank below L is one line of the file. A row names the point whose
    lines have exactly these ranks: a stored point, or for two lines their
    crossing, if no third line passes through it. A row that names no
    point raises UnnamedMark (exit 5).
    """
    line_of = {r: i for i, r in enumerate(line_ranks(c))}
    marks = {}
    for label, row in rows.items():
        lines = tuple(sorted(line_of[r] for r in row if r in line_of))
        simple = len(lines) == 2 and not any(set(lines) <= set(r) for r in c.incidence)
        if len(lines) < len(row) or not (simple or lines in c.incidence):
            raise UnnamedMark(
                f"mark {label}: no point lies on exactly the lines of ranks {list(row)}"
            )
        if simple:
            marks[label] = c.find(meet(c.lines[lines[0]], c.lines[lines[1]]))
        else:
            marks[label] = c.incidence.index(lines)
    return marks


def config_from_json(data) -> Configuration:
    """Decode a configuration file: check its lines and marks, derive everything else.

    The lines must be canonical triples, pairwise distinct, and at least
    two; canonical form makes "distinct triples" mean "distinct lines", so
    every pair of lines meets in exactly one point. derive_points then
    derives the multiple points and incidences as the build did, and
    resolves the rows of the marks (_resolved). The seed and the stream
    cursor must be JSON integers, the cursor >= 0. A malformed file raises
    SchemaError (exit 6); so does a file of schema v1 (it stored points),
    v2 (its seed drew grid heights) or v3 (it named the marks by a valence
    ladder), asking for a rebuild, and a certificate or report, named by
    its kind. A type that is not rigid, or a row that names no point,
    exits 5. A polynomial that defines no field exits 3, as it does for
    build.
    """
    if not isinstance(data, dict):
        raise SchemaError("configuration file must hold a JSON object")
    if "kind" in data:
        raise SchemaError(f"this is a {data['kind']} file, not a configuration")
    version = data.get("v")
    if type(version) is int and version in (1, 2, 3):
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
        seed, params, marks = data["seed"], data["params_consumed"], data["marks"]
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
    rows = _mark_rows(marks)
    try:
        return derive_points(
            lines, seed=seed, params_consumed=params, marks=lambda c: _resolved(rows, c)
        )
    except DuplicateLine as exc:
        raise SchemaError(f"a line is listed twice: {exc}") from exc


def certificate_to_json(cert) -> dict:
    return {
        "v": CERTIFICATE_SCHEMA_VERSION,
        "kind": "separation-certificate",
        "poly": poly_to_json(cert.poly),
        "seed": cert.seed,
        "line_count": cert.line_count,
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
        "  automorphism group of the type: trivial (colour refinement is discrete), "
        "so the marks are intrinsic",
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
