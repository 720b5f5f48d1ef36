"""JSON encodings for configurations, certificates, and cover reports.

Rationals are encoded as {"n": "<decimal>", "d": "<decimal>"} so nothing
abstract ever passes through floats; floats appear only in certificate
embedding values, always next to their radii. Serialization is canonical
(sorted keys, fixed indentation), so identical objects give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .configuration import Configuration, MARK_LABELS, check_incidences
from .cover import CoverReport
from .decode import SeparationCertificate
from .errors import SchemaError
from .numberfield import IntPoly, NFElement, NumberField
from .projgeom import ProjLine, ProjPoint

SCHEMA_VERSION = 1


def fraction_to_json(q: Fraction) -> dict:
    return {"n": str(q.numerator), "d": str(q.denominator)}


def fraction_from_json(data) -> Fraction:
    try:
        return Fraction(int(data["n"]), int(data["d"]))
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
    if not isinstance(data, list):
        raise SchemaError("polynomial must be a list of rationals")
    return IntPoly.from_coeffs([fraction_from_json(c) for c in data])


def config_to_json(c: Configuration) -> dict:
    if c.source is None:
        raise SchemaError("configuration has no source polynomial to serialize")
    return {
        "v": SCHEMA_VERSION,
        "poly": poly_to_json(c.source),
        "seed": c.seed,
        "params_consumed": c.params_consumed,
        "lines": [[nf_to_json(x) for x in l.coeffs] for l in c.lines],
        "points": [[nf_to_json(x) for x in p.coords] for p in c.points],
        "incidence": [list(rows) for rows in c.incidence],
        "marks": dict(c.marks),
    }


def _triple(field: NumberField, entry, kind: str) -> tuple:
    if not isinstance(entry, list) or len(entry) != 3:
        raise SchemaError(f"a {kind} needs 3 homogeneous coordinates")
    return tuple(nf_from_json(field, x) for x in entry)


def config_from_json(data) -> Configuration:
    """Decode a configuration file and prove its incidences (check_incidences).

    Shape errors raise SchemaError; an incidence that is false, or a line
    intersection that is not a listed point, raises MissedIntersection.
    Both exit 6.
    """
    if not isinstance(data, dict):
        raise SchemaError("configuration file must hold a JSON object")
    if data.get("v") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {data.get('v')!r}")
    try:
        poly = poly_from_json(data["poly"])
        field = NumberField.create(poly)
        lines = tuple(ProjLine(_triple(field, e, "line")) for e in data["lines"])
        points = tuple(ProjPoint(_triple(field, e, "point")) for e in data["points"])
        incidence = tuple(
            tuple(sorted(int(i) for i in rows)) for rows in data["incidence"]
        )
        if not isinstance(data["marks"], dict):
            raise SchemaError("marks must be a JSON object")
        marks = {str(k): int(v) for k, v in data["marks"].items()}
        seed = int(data["seed"])
        params = int(data["params_consumed"])
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed configuration file: {exc}") from exc
    if len(incidence) != len(points):
        raise SchemaError("incidence rows do not match the point list")
    for rows in incidence:
        if any(not (0 <= i < len(lines)) for i in rows):
            raise SchemaError("incidence references a missing line")
    for label, idx in marks.items():
        if label not in MARK_LABELS or not (0 <= idx < len(points)):
            raise SchemaError(f"bad mark {label!r} -> {idx}")
    c = Configuration(
        field=field,
        lines=lines,
        points=points,
        incidence=incidence,
        marks=marks,
        seed=seed,
        params_consumed=params,
        source=poly,
    )
    check_incidences(c)
    return c


def certificate_to_json(cert: SeparationCertificate) -> dict:
    return {
        "v": SCHEMA_VERSION,
        "kind": "separation-certificate",
        "poly": poly_to_json(cert.poly),
        "seed": cert.seed,
        "precision": cert.precision,
        "line_count": cert.line_count,
        "mark_valences": dict(cert.mark_valences),
        "max_other_valence": cert.max_other_valence,
        "decoded": [fraction_to_json(c) for c in cert.decoded],
        "equals_generator": cert.equals_generator,
        "embeddings": [
            {
                "root_index": root.root_index,
                "root_center": [root.center.real, root.center.imag],
                "root_radius": root.radius,
                "value_center": [img.center.real, img.center.imag],
                "value_radius": img.radius,
            }
            for root, img in zip(cert.roots, cert.values)
        ],
        "pairwise_disjoint": cert.pairwise_disjoint,
        "statement": cert.statement,
    }


def format_certificate(cert: SeparationCertificate) -> str:
    lines = [
        f"separation certificate for p = {cert.poly}",
        f"  seed {cert.seed}, precision {cert.precision:g}, {cert.line_count} lines",
        "  valence ladder: "
        + ", ".join(f"{k}={v}" for k, v in sorted(cert.mark_valences.items()))
        + f", next highest {cert.max_other_valence}",
        f"  decoded element equals the field generator: {cert.equals_generator}",
        "  embeddings of the decoded element:",
    ]
    for root, img in zip(cert.roots, cert.values):
        c = img.center
        lines.append(
            f"    root {root.root_index}: value {c.real:+.10f}{c.imag:+.10f}i"
            f"  (radius {img.radius:.2e})"
        )
    lines.append(f"  pairwise disjoint: {cert.pairwise_disjoint}")
    lines.append(f"  {cert.statement}")
    return "\n".join(lines)


def cover_report_to_json(report: CoverReport) -> dict:
    def pic_to_json(cls):
        return {"h": cls.h, "b": list(cls.b)}

    return {
        "v": SCHEMA_VERSION,
        "kind": "cover-report",
        "poly": poly_to_json(report.source_poly) if report.source_poly else None,
        "seed": report.seed,
        "line_count": report.branch.line_count,
        "m": {str(g): v for g, v in sorted(report.m.items(), key=lambda kv: kv[0].index)},
        "D": {
            str(g): pic_to_json(cls)
            for g, cls in sorted(report.branch.D.items(), key=lambda kv: kv[0].index)
        },
        "M": {
            str(chi): pic_to_json(cls)
            for chi, cls in sorted(report.classes.items(), key=lambda kv: kv[0].index)
        },
        "parity": "all-even",
        "hypotheses": {
            "proper_transform_smooth": report.hypotheses.proper_transform_smooth,
            "pairs_checked": report.hypotheses.pairs_checked,
            "independence": report.hypotheses.independence,
            "genericity_assumptions": list(report.hypotheses.genericity_assumptions),
        },
        "ampleness": {
            str(chi): {"certified": v.certified, "reason": v.reason}
            for chi, v in sorted(report.ampleness.items(), key=lambda kv: kv[0].index)
        },
        "nef_gap": {
            "characters": [str(chi) for chi in report.nef_gap],
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
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
