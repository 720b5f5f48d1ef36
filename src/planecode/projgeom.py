"""The projective plane over K: points, lines, join/meet, cross-ratio.

Coordinates are homogeneous triples of NFElements in canonical form (first
nonzero coordinate scaled to 1), so equality and hashing are structural.
The cross-ratio convention is fixed so that cr(0, 1, inf, w) = w.

Every predicate is decided exactly. A configuration finds its points by
their images mod a prime l (NFElement.residue) and confirms each match
with `incident`, the exact test.
"""

from __future__ import annotations

from .errors import (
    DegenerateJoin,
    DegenerateMeet,
    DegenerateQuadruple,
    NotCollinear,
)
from .numberfield import NFElement, NumberField


def _canonicalize(coords: tuple[NFElement, NFElement, NFElement]):
    for c in coords:
        if not c.is_zero:
            if c.is_one:
                return tuple(coords)
            scale = c.inv()
            return tuple(x * scale for x in coords)
    raise ValueError("all-zero homogeneous triple")


class ProjPoint:
    """A point (x : y : z) in canonical form, immutable; == and hash are structural."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[NFElement, NFElement, NFElement]):
        _set_coords(self, coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"ProjPoint is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not ProjPoint:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    @classmethod
    def of(cls, x: NFElement, y: NFElement, z: NFElement) -> "ProjPoint":
        return cls(_canonicalize((x, y, z)))

    @property
    def is_infinite(self) -> bool:
        return self.coords[2].is_zero

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class ProjLine:
    """A line [a : b : c] in canonical form, immutable; == and hash are structural."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[NFElement, NFElement, NFElement]):
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"ProjLine is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not ProjLine:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @classmethod
    def of(cls, a: NFElement, b: NFElement, c: NFElement) -> "ProjLine":
        return cls(_canonicalize((a, b, c)))

    @property
    def field(self) -> NumberField:
        return self.coeffs[0].field

    def __str__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coeffs) + "]"


# Slot setters: points and lines forbid attribute assignment after construction.
_set_coords = ProjPoint.coords.__set__
_set_coeffs = ProjLine.coeffs.__set__


def point(field: NumberField, x, y, z=1) -> ProjPoint:
    """Point from rationals or NFElements; (x, y) means the affine point."""
    conv = lambda v: v if isinstance(v, NFElement) else field.from_rational(v)
    return ProjPoint.of(conv(x), conv(y), conv(z))


def line(field: NumberField, a, b, c) -> ProjLine:
    conv = lambda v: v if isinstance(v, NFElement) else field.from_rational(v)
    return ProjLine.of(conv(a), conv(b), conv(c))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    if p == q:
        raise DegenerateJoin(f"join of equal points {p}")
    return ProjLine.of(*_cross(p.coords, q.coords))


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    if l == m:
        raise DegenerateMeet(f"meet of equal lines {l}")
    return ProjPoint.of(*_cross(l.coeffs, m.coeffs))


def incident(l: ProjLine, p: ProjPoint) -> bool:
    """Whether p lies on l, i.e. a*x + b*y + c*z = 0 in K, decided exactly."""
    a, b, c = l.coeffs
    x, y, z = p.coords
    return (a * x + b * y + c * z).is_zero


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    u, v, w = p.coords, q.coords, r.coords
    det = (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )
    return det.is_zero


def _line_params(a: ProjPoint, b: ProjPoint, x: ProjPoint) -> tuple[NFElement, NFElement]:
    """Coordinates (lam : mu) of x = lam*a + mu*b on the line spanned by a, b."""
    A, B, X = a.coords, b.coords, x.coords
    for i in range(3):
        for j in range(i + 1, 3):
            if not (A[i] * B[j] - A[j] * B[i]).is_zero:
                lam = X[i] * B[j] - X[j] * B[i]
                mu = A[i] * X[j] - A[j] * X[i]
                return lam, mu
    raise DegenerateJoin("points do not span a line")


def cross_ratio(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> NFElement:
    """Image of d under the map of the common line sending (a, b, c) to (0, 1, inf).

    Computed through projective line parameters, so points at infinity need
    no special casing. The four points must be distinct: as a != b, the
    denominator vanishes exactly when d = c, which would map to infinity.
    """
    pts = (a, b, c, d)
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] == pts[j]:
                raise DegenerateQuadruple(f"coincident points at positions {i}, {j}")
    if not (collinear(a, b, c) and collinear(a, b, d)):
        raise NotCollinear("cross-ratio needs four collinear points")
    c1, c2 = _line_params(a, b, c)
    d1, d2 = _line_params(a, b, d)
    num = c1 * d2
    return num * (num - c2 * d1).inv()


def transform(matrix, p: ProjPoint) -> ProjPoint:
    """Apply an invertible 3x3 matrix of NFElements to a point."""
    x, y, z = p.coords
    rows = [matrix[i][0] * x + matrix[i][1] * y + matrix[i][2] * z for i in range(3)]
    return ProjPoint.of(*rows)
