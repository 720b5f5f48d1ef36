"""Static SVG pictures of a configuration under one numeric embedding.

Lines are clipped to a bounding box around the finite real points; every
point, stored or simple (configuration.all_points), is drawn as a circle
sized by valence, with the four marks labeled. Under
a non-real embedding only lines with (numerically) real coefficients are
drawn, and a warning is returned for the rest. Coordinates are float
values at the centre of the root disc (numberfield.approximate): a picture
needs no certificate. A point is scaled to its canonical triple first, so
its float image, and the picture, do not depend on which triple it keeps.
"""

from __future__ import annotations

from .configuration import Configuration, all_points
from .errors import BadArgument
from .numberfield import Disc, approximate
from .projgeom import _canonicalize

_REAL_TOL = 1e-7
_VERSION_NOTE = "planecode svg v1"

_MARK_TEXT = {"zero": "0", "one": "1", "inf": "∞", "z": "z"}


def _is_real(x: complex, scale: float = 1.0) -> bool:
    return abs(x.imag) <= _REAL_TOL * (1.0 + abs(x) + scale)


def _clip_line(a: float, b: float, c: float, box) -> tuple | None:
    """Segment of a*x + b*y + c = 0 inside the box, or None."""
    x0, y0, x1, y1 = box
    hits = []
    if abs(b) > 1e-14:
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                hits.append((x, y))
    if abs(a) > 1e-14:
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                hits.append((x, y))
    unique = []
    for p in hits:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in unique):
            unique.append(p)
    if len(unique) < 2:
        return None
    return unique[0], unique[1]


def render_svg(
    c: Configuration, embeddings: list[Disc], index: int
) -> tuple[str, list[str]]:
    """Returns (svg text, warnings)."""
    if not (0 <= index < len(embeddings)):
        raise BadArgument(
            f"embedding index {index} out of range: the field has "
            f"{len(embeddings)} embeddings"
        )
    e = embeddings[index]
    warnings: list[str] = []
    if abs(e.center.imag) > _REAL_TOL:
        warnings.append(
            f"embedding {index} is complex; drawing the real 2-plane image of "
            "real-defined lines only"
        )

    numeric_points = []
    for p, rows in all_points(c):
        xs = [approximate(coord, e) for coord in _canonicalize(p.coords)]
        if abs(xs[2]) < 1e-12:
            continue
        x, y = xs[0] / xs[2], xs[1] / xs[2]
        if _is_real(x) and _is_real(y):
            numeric_points.append((rows, x.real, y.real))

    if not numeric_points:
        box = (-1.0, -1.0, 1.0, 1.0)
    else:
        xs = [x for _, x, _ in numeric_points]
        ys = [y for _, _, y in numeric_points]
        pad_x = 0.15 * max(max(xs) - min(xs), 1.0)
        pad_y = 0.15 * max(max(ys) - min(ys), 1.0)
        box = (min(xs) - pad_x, min(ys) - pad_y, max(xs) + pad_x, max(ys) + pad_y)

    width, height = 640.0, 640.0
    sx = width / (box[2] - box[0])
    sy = height / (box[3] - box[1])

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (x - box[0]) * sx, height - (y - box[1]) * sy

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f"<!-- {_VERSION_NOTE}; poly {c.source}; seed {c.seed}; embedding {index} -->",
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]

    skipped = 0
    for l in c.lines:
        cs = [approximate(coeff, e) for coeff in l.coeffs]
        scale = max(abs(v) for v in cs)
        if not all(_is_real(v, scale) for v in cs):
            skipped += 1
            continue
        seg = _clip_line(cs[0].real, cs[1].real, cs[2].real, box)
        if seg is None:
            continue
        (xa, ya), (xb, yb) = seg
        pa, pb = to_px(xa, ya), to_px(xb, yb)
        parts.append(
            f'<line x1="{pa[0]:.4f}" y1="{pa[1]:.4f}" x2="{pb[0]:.4f}" '
            f'y2="{pb[1]:.4f}" stroke="#3366aa" stroke-width="0.7"/>'
        )
    if skipped:
        warnings.append(f"skipped {skipped} lines with non-real coefficients")

    mark_of = {c.incidence[idx]: label for label, idx in c.marks.items()}
    for rows, x, y in numeric_points:
        px, py = to_px(x, y)
        radius = 1.2 + 0.5 * (len(rows) - 2)
        label = mark_of.get(rows)
        color = "#222222" if label is None else "#cc3311"
        parts.append(
            f'<circle cx="{px:.4f}" cy="{py:.4f}" r="{radius:.2f}" fill="{color}"/>'
        )
        if label is not None:
            parts.append(
                f'<text x="{px + 5:.4f}" y="{py - 5:.4f}" font-size="16" '
                f'fill="#cc3311">{_MARK_TEXT[label]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n", warnings
