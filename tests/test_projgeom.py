import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode.errors import (
    DegenerateJoin,
    DegenerateMeet,
    DegenerateQuadruple,
    NotCollinear,
)
from planecode.numberfield import NumberField, parse_poly
from planecode.projgeom import (
    ProjPoint,
    collinear,
    cross_ratio,
    incident,
    join,
    line,
    meet,
    point,
    transform,
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


def test_collinear_on_axis(k):
    assert collinear(point(k, 0, 0), point(k, 1, 0), point(k, 1, 0, 0))
    assert not collinear(point(k, 0, 0), point(k, 1, 0), point(k, 0, 1))
    assert collinear(point(k, 0, 0), point(k, k.gen, 0), point(k, 1, 0, 0))


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
    assert cross_ratio(a, b, c, d) == k.gen


def test_cross_ratio_harmonic(k):
    a, b, c, d = _marked_quadruple(k, -1)
    assert cross_ratio(a, b, c, d) == k.from_rational(-1)


def test_cross_ratio_identity_convention(k):
    a, b, c, d = _marked_quadruple(k, Fraction(1, 2))
    assert cross_ratio(a, b, c, d) == k.from_rational(Fraction(1, 2))


def test_cross_ratio_errors(k):
    a, b, c, _ = _marked_quadruple(k, 5)
    with pytest.raises(NotCollinear):
        cross_ratio(a, b, c, point(k, 0, 1))
    with pytest.raises(DegenerateQuadruple):
        cross_ratio(a, b, c, a)
    # d = c would map to infinity: the pairwise test refuses it, exit 5 as before
    with pytest.raises(DegenerateQuadruple, match="positions 2, 3") as err:
        cross_ratio(a, b, point(k, 5, 0), point(k, 5, 0, 1))
    assert err.value.exit_code == 5


def test_cross_ratio_convention_100_random(k):
    rng = random.Random(99)
    seen = set()
    while len(seen) < 100:
        w = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        if w in (0, 1) or w in seen:
            continue
        seen.add(w)
        a, b, c, d = _marked_quadruple(k, w)
        assert cross_ratio(a, b, c, d) == k.from_rational(w)


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
    quad = _marked_quadruple(k, k.gen + 3)
    expected = cross_ratio(*quad)
    for _ in range(20):
        m = _random_invertible_matrix(k, rng)
        imgs = [transform(m, p) for p in quad]
        assert cross_ratio(*imgs) == expected


def test_join_meet_duality(k):
    rng = random.Random(8)
    for _ in range(30):
        p = point(k, rng.randint(-9, 9), rng.randint(-9, 9))
        q = point(k, rng.randint(-9, 9), rng.randint(-9, 9))
        r = point(k, rng.randint(-9, 9), rng.randint(-9, 9))
        if p in (q, r) or q == r or collinear(p, q, r):
            continue
        assert meet(join(p, q), join(p, r)) == p


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=6, max_size=6))
def test_canonicalization_idempotent(raw):
    k = NumberField.create(parse_poly("x^2-2"))
    coords = [k.element(raw[2 * i: 2 * i + 2]) for i in range(3)]
    if all(c.is_zero for c in coords):
        return
    p = ProjPoint.of(*coords)
    again = ProjPoint.of(*p.coords)
    assert p == again
    lead = next(c for c in again.coords if not c.is_zero)
    assert lead == k.one
