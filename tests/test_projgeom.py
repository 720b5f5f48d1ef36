import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode.errors import DegenerateJoin, DegenerateMeet
from planecode.numberfield import NFElement, NumberField, parse_poly
from planecode.projgeom import (
    ProjLine,
    ProjPoint,
    cross_ratio,
    incident,
    join,
    line,
    meet,
    point,
)


@pytest.fixture(scope="module")
def k():
    return NumberField.create(parse_poly("x^2-2"))


def test_join_points_on_axis(k):
    assert join(point(k, 0, 0), point(k, 1, 0)) == line(k, 0, 1, 0)


def test_meet_axes(k):
    assert meet(line(k, 0, 1, 0), line(k, 1, 0, 0)) == point(k, 0, 0)


def test_join_origin_vertical(k):
    assert join(point(k, 0, 0), point(k, 0, 1, 0)) == line(k, 1, 0, 0)


def test_degenerate_join_meet(k):
    with pytest.raises(DegenerateJoin):
        join(point(k, 1, 2), point(k, 1, 2))
    with pytest.raises(DegenerateMeet):
        meet(line(k, 1, 0, 0), line(k, 1, 0, 0))


def test_incidence(k):
    l = join(point(k, 0, 0), point(k, 2, 3))
    assert incident(l, point(k, 0, 0)) and incident(l, point(k, 2, 3))
    assert not incident(l, point(k, 1, 0))


def _marked_quadruple(k, w):
    return (
        point(k, 0, 0),
        point(k, 1, 0),
        point(k, 1, 0, 0),
        point(k, w, 0),
    )


def test_cross_ratio_of_marked_quadruple_is_z(k):
    a, b, c, d = _marked_quadruple(k, k.gen)
    assert cross_ratio(line(k, 0, 1, 0), a, b, c, d) == k.gen


def test_cross_ratio_harmonic(k):
    a, b, c, d = _marked_quadruple(k, -1)
    assert cross_ratio(line(k, 0, 1, 0), a, b, c, d) == k.from_rational(-1)


def test_cross_ratio_identity_convention(k):
    a, b, c, d = _marked_quadruple(k, Fraction(1, 2))
    assert cross_ratio(line(k, 0, 1, 0), a, b, c, d) == k.from_rational(Fraction(1, 2))


# a quadruple with cr = w on x = 5, y = 0 and z = 0, whose canonical entry is
# the first, second and third; c is the point at infinity of the line's chart
ON_LINE = {
    0: lambda k, w: (point(k, 5, 0), point(k, 5, 1), point(k, 0, 1, 0), point(k, 5, w)),
    1: _marked_quadruple,
    2: lambda k, w: (point(k, 1, 0, 0), point(k, 1, 1, 0), point(k, 0, 1, 0), point(k, 1, w, 0)),
}


@pytest.mark.parametrize("w", [Fraction(-7, 3), 5, None])  # None is the generator z
@pytest.mark.parametrize("i", [0, 1, 2])
def test_cross_ratio_bracket_at_each_canonical_entry(k, i, w):
    w = k.gen if w is None else k.from_rational(w)
    a, b, c, d = ON_LINE[i](k, w)
    assert [x.is_zero for x in join(a, b).coeffs].index(False) == i
    assert cross_ratio(join(a, b), a, b, c, d) == w


def test_cross_ratio_convention_100_random(k):
    rng = random.Random(99)
    seen = set()
    while len(seen) < 100:
        w = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        if w in (0, 1) or w in seen:
            continue
        seen.add(w)
        a, b, c, d = _marked_quadruple(k, w)
        assert cross_ratio(line(k, 0, 1, 0), a, b, c, d) == k.from_rational(w)


def transform(matrix, p: ProjPoint) -> ProjPoint:
    """The image of p under a 3x3 matrix of NFElements."""
    x, y, z = p.coords
    return ProjPoint.of(*(row[0] * x + row[1] * y + row[2] * z for row in matrix))


def _random_invertible_matrix(k, rng):
    while True:
        m = [
            [k.from_rational(rng.randint(-4, 4)) for _ in range(3)]
            for _ in range(3)
        ]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if not det.is_zero:
            return m


def test_cross_ratio_projective_invariance(k):
    rng = random.Random(4)
    quad = _marked_quadruple(k, k.gen + k.from_rational(3))
    expected = cross_ratio(line(k, 0, 1, 0), *quad)
    for _ in range(20):
        m = _random_invertible_matrix(k, rng)
        imgs = [transform(m, p) for p in quad]
        assert cross_ratio(join(*imgs[:2]), *imgs) == expected


def test_join_meet_duality(k):
    rng = random.Random(8)
    for _ in range(30):
        p = point(k, rng.randint(-9, 9), rng.randint(-9, 9))
        q = point(k, rng.randint(-9, 9), rng.randint(-9, 9))
        r = point(k, rng.randint(-9, 9), rng.randint(-9, 9))
        if p in (q, r) or q == r or incident(join(p, q), r):
            continue
        assert meet(join(p, q), join(p, r)) == p


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=6, max_size=6))
def test_canonicalization_idempotent(raw):
    # a line is canonical; a point keeps the triple it is given
    k = NumberField.create(parse_poly("x^2-2"))
    coords = [k.element(raw[2 * i: 2 * i + 2]) for i in range(3)]
    if all(c.is_zero for c in coords):
        return
    l = ProjLine.of(*coords)
    again = ProjLine.of(*l.coeffs)
    assert l == again and again.coeffs == l.coeffs
    lead = next(c for c in again.coeffs if not c.is_zero)
    assert lead == k.one
    assert ProjPoint.of(*coords).coords == tuple(coords)


def test_meet_and_point_invert_nothing(monkeypatch):
    k = NumberField.create(parse_poly("x^5-x-1"))
    z, one = k.gen, k.one
    l, m = line(k, z, 1, 3), line(k, 1, z * z + one, -1)
    calls = []
    inv = NFElement.inv
    monkeypatch.setattr(NFElement, "inv", lambda self: calls.append(self) or inv(self))
    q = meet(l, m)
    assert calls == []
    p = point(k, z + one, 2, 3)
    assert calls == []
    scaled = ProjPoint.of(*(x * (z - k.from_rational(7)) for x in p.coords))
    assert p == scaled and not p != scaled and p != q
    with pytest.raises(TypeError):
        hash(p)
