"""The projective plane over K: points, lines, join/meet, cross-ratio.

Coordinates are homogeneous triples of NFElements. A point keeps the
nonzero triple it is given, such as the cross product of two lines, so
making one inverts nothing in K; two points are equal when their triples
are proportional, and a point is not hashable. A line is in canonical form
(first nonzero coefficient scaled to 1), so its equality and hash are
structural: a file lists its coefficients, and Configuration.line_index
keys it. The cross-ratio convention is fixed so that cr(0, 1, inf, w) = w.

Every predicate is decided exactly. A configuration finds its points by
their images mod a prime l (NFElement.residue) and confirms each match
with `incident`, the exact test.
"""

from __future__ import annotations

from .errors import DegenerateJoin, DegenerateMeet
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
    """A point (x : y : z), any nonzero triple of it, immutable; == is projective, no hash."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[NFElement, NFElement, NFElement]):
        _set_coords(self, coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"ProjPoint is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not ProjPoint:
            return NotImplemented
        return all(c.is_zero for c in _cross(self.coords, other.coords))

    __hash__ = None

    @classmethod
    def of(cls, x: NFElement, y: NFElement, z: NFElement) -> "ProjPoint":
        if x.is_zero and y.is_zero and z.is_zero:
            raise ValueError("all-zero homogeneous triple")
        return cls((x, y, z))

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
    a, b, c = _cross(p.coords, q.coords)
    if a.is_zero and b.is_zero and c.is_zero:
        raise DegenerateJoin(f"join of equal points {p}")
    return ProjLine.of(a, b, c)


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    x, y, z = _cross(l.coeffs, m.coeffs)
    if x.is_zero and y.is_zero and z.is_zero:
        raise DegenerateMeet(f"meet of equal lines {l}")
    return ProjPoint((x, y, z))


def incident(l: ProjLine, p: ProjPoint) -> bool:
    """Whether p lies on l, i.e. a*x + b*y + c*z = 0 in K, decided exactly."""
    a, b, c = l.coeffs
    x, y, z = p.coords
    return (a * x + b * y + c * z).is_zero


def cross_ratio(l: ProjLine, a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> NFElement:
    """Image of d under the map of the line l sending (a, b, c) to (0, 1, inf).

    The four points must be distinct and on l, which the caller reads where
    it has it (decode, from the table); nothing here checks that. The value
    is read in the coordinate on l that configuration._position takes mod
    l: l_i = 1 at its first nonzero entry i, (j, k) = (i + 1, i + 2) mod 3,
    and a point X of l is fixed by (X_j : X_k). With [P, Q] = P_j Q_k -
    P_k Q_j, the value is [a, d][c, b] / ([c, d][a, b]), at infinity too.
    """
    i = [x.is_zero for x in l.coeffs].index(False)
    j, k = (i + 1) % 3, (i + 2) % 3
    bracket = lambda p, q: p.coords[j] * q.coords[k] - p.coords[k] * q.coords[j]
    return bracket(a, d) * bracket(c, b) * (bracket(c, d) * bracket(a, b)).inv()
