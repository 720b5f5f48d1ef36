import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode import numberfield
from planecode.errors import (
    DivisionByZero,
    FieldMismatch,
    PolyParseError,
    PrecisionExhausted,
    ReducibleModulus,
    TrivialField,
    UnprovenModulus,
)
from planecode.numberfield import (
    MAX_COEFF_DIGITS,
    MAX_DEGREE,
    IntPoly,
    NumberField,
    check_irreducible,
    embed,
    isolate_roots,
    parse_poly,
)


@pytest.fixture(scope="module")
def k_sqrt2():
    return NumberField.create(parse_poly("x^2-2"))


@pytest.fixture(scope="module")
def k_cbrt2():
    return NumberField.create(parse_poly("x^3-2"))


# -- parsing -------------------------------------------------------------------

def test_parse_poly_forms():
    assert parse_poly("x^3 - 2") == IntPoly.from_coeffs([-2, 0, 0, 1])
    assert parse_poly("2*x^2 - 3*x + 1") == IntPoly.from_coeffs([1, -3, 2])
    assert parse_poly("2x^2-3x+1") == IntPoly.from_coeffs([1, -3, 2])
    assert parse_poly(" -x + 5 ") == IntPoly.from_coeffs([5, -1])


def test_parse_poly_degree_bound():
    assert parse_poly("x^32-2").degree == MAX_DEGREE == 32
    # x^1000000000-2 is left to the CLI test, which caps the child's memory
    for text in ("x^33-2", "x^1000000-2"):
        with pytest.raises(PolyParseError, match="MAX_DEGREE = 32"):
            parse_poly(text)


def test_parse_poly_coefficient_bound():
    nines = "9" * MAX_COEFF_DIGITS
    assert parse_poly(f"x^2-{nines}")[0] == -int(nines)
    assert parse_poly("x^2-" + "0" * 5000 + "2") == parse_poly("x^2-2")
    # more than 4300 digits would make int() itself raise ValueError
    for text in ("x^2-" + "9" * 5000, "1" + nines + "*x^2-2"):
        with pytest.raises(PolyParseError, match="MAX_COEFF_DIGITS = 1000"):
            parse_poly(text)


_POLY_PIECES = st.one_of(
    st.sampled_from(["x", "^", "*", "+", "-", " ", "x^", "2", "0", "32", "33", "**", "y"]),
    st.text("0123456789", min_size=1, max_size=5000),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_POLY_PIECES, max_size=12).map("".join))
def test_parse_poly_parses_or_refuses_quickly(text):
    t0 = time.perf_counter()
    try:
        p = parse_poly(text)
    except PolyParseError:
        pass
    else:
        assert p.degree <= MAX_DEGREE
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("bad", ["", "x^", "y^2", "x**2", "2^x", "x^-1"])
def test_parse_poly_rejects(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad)


def test_poly_str_round_trip():
    for text in ["x^2 - 2", "2*x^2 - 3*x + 1", "x^5 - x - 1"]:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


# -- field arithmetic ------------------------------------------------------------

def test_mul_example(k_sqrt2):
    # (1 + x)(1 - x) = 1 - x^2 = -1 once x^2 = 2
    a = k_sqrt2.element([1, 1])
    b = k_sqrt2.element([1, -1])
    assert a * b == k_sqrt2.from_rational(-1)


def test_additive_inverse(k_sqrt2):
    x = k_sqrt2.gen
    assert x + (-x) == k_sqrt2.zero


def test_gen_square_is_two(k_sqrt2):
    assert k_sqrt2.gen * k_sqrt2.gen == k_sqrt2.from_rational(2)


def test_inv_gen(k_sqrt2):
    assert k_sqrt2.gen.inv() == k_sqrt2.element([0, Fraction(1, 2)])


def test_inv_rational(k_sqrt2):
    assert k_sqrt2.from_rational(3).inv() == k_sqrt2.from_rational(Fraction(1, 3))


def test_inv_one_plus_gen(k_sqrt2):
    # oracle: (1 + x)(x - 1) = x^2 - 1 = 1, verified by direct multiplication
    a = k_sqrt2.element([1, 1])
    expected = k_sqrt2.element([-1, 1])
    assert a * expected == k_sqrt2.one
    assert a.inv() == expected


def test_inv_zero_raises(k_sqrt2):
    with pytest.raises(DivisionByZero):
        k_sqrt2.zero.inv()


def test_field_mismatch(k_sqrt2, k_cbrt2):
    with pytest.raises(FieldMismatch):
        k_sqrt2.gen + k_cbrt2.gen


def test_unproven_modulus_refused():
    # (x^2 + 1)(x^4 + x^2 + 1) has no rational root, and its factor degrees
    # mod every prime allow a proper factor: recombination names one
    p = parse_poly("x^6+2*x^4+2*x^2+1")
    factor = check_irreducible(p)
    assert 0 < factor.degree < 6 and factor.divides(p)
    with pytest.raises(ReducibleModulus, match="is reducible, factor") as exc:
        NumberField.create(p)
    assert exc.value.factor.divides(p)
    assert ReducibleModulus.exit_code == UnprovenModulus.exit_code == 3


def test_recombination_budget_exhausted_is_unproven(monkeypatch):
    # x^4 + 1 is irreducible but splits mod every prime, so only
    # recombination proves it; with no products to try it stays unproven
    monkeypatch.setattr(numberfield, "_RECOMBINATION_BUDGET", 0)
    with pytest.raises(UnprovenModulus, match="could not prove"):
        NumberField.create(parse_poly("x^4+1"))


def test_trivial_field():
    with pytest.raises(TrivialField):
        NumberField.create(parse_poly("x+3"))


def _random_element(field, rng):
    return field.element(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(field.n)]
    )


def test_field_axioms_random_samples(k_sqrt2, k_cbrt2):
    rng = random.Random(12345)
    for field in (k_sqrt2, k_cbrt2):
        for _ in range(100):
            a, b, c = (_random_element(field, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not a.is_zero:
                assert a * a.inv() == field.one


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=2, max_size=2))
def test_inverse_round_trip_hypothesis(coeffs):
    k = NumberField.create(parse_poly("x^2-2"))
    a = k.element(coeffs)
    if a.is_zero:
        return
    assert a * a.inv() == k.one


# -- irreducibility ---------------------------------------------------------------

def test_irreducible_x2_minus_2():
    assert check_irreducible(parse_poly("x^2-2")) is None


def test_reducible_x2_minus_1():
    factor = check_irreducible(parse_poly("x^2-1"))
    assert factor is not None
    assert factor.divides(parse_poly("x^2-1"))


def test_quartic_with_quadratic_factor():
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2), no rational root
    factor = check_irreducible(parse_poly("x^4+4"))
    assert factor is not None
    assert factor.degree == 2
    assert factor.divides(parse_poly("x^4+4"))


def test_quartic_irreducible_cases():
    assert check_irreducible(parse_poly("x^4+1")) is None
    assert check_irreducible(parse_poly("x^4-x-1")) is None


def _f3_brute_force_irreducible(coeffs):
    """Oracle: trial-divide by every monic polynomial of degree 1..2 over F3."""
    def mod3(f):
        f = [c % 3 for c in f]
        while f and f[-1] == 0:
            f.pop()
        return f

    def rem(f, g):
        # g monic, so plain subtract-shift works
        f = f[:]
        while len(f) >= len(g) and f:
            c = f[-1] % 3
            shift = len(f) - len(g)
            for i, b in enumerate(g):
                f[i + shift] = (f[i + shift] - c * b) % 3
            while f and f[-1] == 0:
                f.pop()
        return f

    f = mod3(coeffs)
    divisors = [[a, 1] for a in range(3)]
    divisors += [[c, b, 1] for b in range(3) for c in range(3)]
    return all(rem(f, g) for g in divisors)


def test_quintic_screen_matches_oracle():
    p = parse_poly("x^5-x-1")
    assert _f3_brute_force_irreducible([c.numerator for c in p.coeffs])
    assert check_irreducible(p) is None


def test_quintic_unverified_is_possible():
    # (x^2 + 1)(x^3 + x + 1) has no rational root; the factor search names a factor
    p = parse_poly("x^2+1") * parse_poly("x^3+x+1")
    factor = check_irreducible(p)
    assert factor.degree in (2, 3) and factor.divides(p)
    with pytest.raises(ReducibleModulus):
        NumberField.create(p)


# The Swinnerton-Dyer polynomials: the minimal polynomials of sqrt2 + sqrt3 +
# sqrt5 and of sqrt2 + sqrt3 + sqrt5 + sqrt7 + sqrt11. They are irreducible,
# but their Galois groups have exponent 2, so they split into factors of
# degree at most 2 mod every prime and only recombination proves them.
SD8 = "x^8-40*x^6+352*x^4-960*x^2+576"
SD32 = [
    2000989041197056, 0, -44660812492570624, 0, 183876928237731840, 0,
    -255690851718529024, 0, 172580952324702208, 0, -65892492886671360, 0,
    15459151516270592, 0, -2349014746136576, 0, 239210760462336, 0,
    -16665641517056, 0, 801918722048, 0, -26625650688, 0, 602397952, 0,
    -9028096, 0, 84864, 0, -448, 0, 1,
]


def test_swinnerton_dyer_octic_is_a_field():
    p = parse_poly(SD8)
    assert check_irreducible(p) is None
    assert NumberField.create(p).n == 8


def test_swinnerton_dyer_degree_32_proven_quickly():
    t0 = time.perf_counter()
    assert check_irreducible(IntPoly.from_coeffs(SD32)) is None
    assert time.perf_counter() - t0 < 10.0


def test_degree_10_names_its_quadratic_factor():
    # (x^2 - 2)(x^8 - 8*x^6 + 19*x^4 - 12*x^2 + 1): no rational root
    p = parse_poly("x^10-10*x^8+35*x^6-50*x^4+25*x^2-2")
    with pytest.raises(ReducibleModulus) as exc:
        NumberField.create(p)
    assert exc.value.factor == parse_poly("x^2-2")


@pytest.mark.parametrize("c", [10**40 + 7, int("9" * 999 + "7")])
def test_huge_constant_term_is_decided_quickly(c):
    t0 = time.perf_counter()
    assert NumberField.create(IntPoly.from_coeffs([-c, 0, 1])).n == 2
    assert time.perf_counter() - t0 < 1.0


def _random_poly(rng, degree, size, lead=None):
    lead = lead or rng.choice([1, 1, 2, 3, -5, 6])
    return IntPoly.from_coeffs([rng.randint(-size, size) for _ in range(degree)] + [lead])


def test_intpoly_is_over_z():
    p = parse_poly("6*x^4-24")
    for q in (p, p.primitive(), check_irreducible(p)):
        assert all(type(c) is int for c in q.coeffs), q
    rng = random.Random(25)
    for _ in range(200):
        g = _random_poly(rng, rng.randint(1, 5), 20, rng.choice([2, 3, -5, 6])).primitive()
        if g.leading == 1:
            continue
        q = _random_poly(rng, rng.randint(0, 5), 20)
        assert g.divides(g * q)
        assert not g.divides(g * q + IntPoly.from_coeffs([1]))
    # 2x + 1 divides 4x^2 - 1, but not x^2 + x, whose leading 1 is no multiple of 2
    g = IntPoly.from_coeffs([1, 2])
    assert g.divides(parse_poly("4*x^2-1"))
    assert not g.divides(parse_poly("x^2+x"))
    # the test is in Z[x]: 2x + 2 divides x^2 + x only in Q[x]
    assert not IntPoly.from_coeffs([2, 2]).divides(parse_poly("x^2+x"))
    with pytest.raises(DivisionByZero):
        IntPoly.zero().divides(g)

def test_factor_search_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2024)
    reducible = 0
    for k in range(300):
        kind = k % 5
        if kind == 0:  # dense, mostly irreducible
            p = _random_poly(rng, rng.randint(2, 10), 20)
        elif kind == 1:  # a product of two, often non-monic
            p = _random_poly(rng, rng.randint(1, 5), 9) * _random_poly(rng, rng.randint(1, 5), 9)
        elif kind == 2:  # a repeated factor
            a = _random_poly(rng, rng.randint(1, 3), 5)
            p = a * a * _random_poly(rng, rng.randint(0, 3), 5)
        elif kind == 3:  # p(0) = 0
            p = IntPoly.from_coeffs([0, 1]) * _random_poly(rng, rng.randint(1, 6), 20)
        else:  # three monic factors with small coefficients, many factors mod q
            p = _random_poly(rng, rng.randint(1, 4), 3, 1) * _random_poly(rng, rng.randint(1, 4), 3, 1)
            p = p * _random_poly(rng, rng.randint(0, 3), 3, 1)
        if p.degree < 1:
            continue
        factor = check_irreducible(p)
        _, factors = sympy.factor_list(sum(int(c) * x**i for i, c in enumerate(p.coeffs)))
        assert (factor is None) == (len(factors) == 1 and factors[0][1] == 1), str(p)
        if factor is not None:
            reducible += 1
            assert 0 < factor.degree < p.degree and factor.divides(p)
    assert reducible > 100


# -- root isolation ----------------------------------------------------------------

def _newton_real(coeffs, start, steps=60):
    """Oracle: plain float Newton iteration for one real root."""
    x = start
    for _ in range(steps):
        f = 0.0
        for c in reversed(coeffs):
            f = f * x + c
        df = 0.0
        for i in range(len(coeffs) - 1, 0, -1):
            df = df * x + i * coeffs[i]
        if df == 0:
            break
        x -= f / df
    return x


def test_isolate_sqrt2():
    roots = isolate_roots(parse_poly("x^2-2"))
    assert len(roots) == 2
    oracle = _newton_real([-2.0, 0.0, 1.0], 1.5)
    assert abs(roots[1].center - oracle) <= 1e-9
    assert abs(roots[0].center + oracle) <= 1e-9
    assert all(r.radius <= 1e-9 for r in roots)


def test_isolate_pure_imaginary_pair():
    roots = isolate_roots(parse_poly("x^2+1"))
    centers = sorted((r.center.real, r.center.imag) for r in roots)
    assert abs(centers[0][1] + 1) < 1e-12 and abs(centers[1][1] - 1) < 1e-12
    assert all(abs(c[0]) < 1e-12 for c in centers)


def test_isolate_cbrt2():
    roots = isolate_roots(parse_poly("x^3-2"))
    real = [r for r in roots if abs(r.center.imag) < 1e-12]
    cplx = [r for r in roots if abs(r.center.imag) >= 1e-12]
    assert len(real) == 1 and len(cplx) == 2
    oracle = _newton_real([-2.0, 0.0, 0.0, 1.0], 1.5)
    assert abs(real[0].center.real - oracle) <= 1e-9
    assert abs(cplx[0].center - cplx[1].center.conjugate()) < 1e-9


def _shifted(text: str, s: int) -> IntPoly:
    """p(x - s) for p = parse_poly(text): the roots of p moved by s."""
    out, lin = IntPoly.zero(), IntPoly.from_coeffs([-s, 1])
    for c in reversed(parse_poly(text).coeffs):
        out = out * lin + IntPoly.from_coeffs([c])
    return out


def test_isolate_discs_disjoint_and_indexed():
    # x^8-3: eight roots of one modulus, symmetric under rotation and
    # conjugation; x^3-1000003: a root of modulus ~100; x^2-2000*x+999998:
    # well-separated roots 1000 +- sqrt 2, far from 0. The shifted ones put
    # close roots far from 0, where a float iteration loses the absolute
    # precision that tells them apart; the first is x^4+2*x^3+4*x^2+1
    # shifted by 10^4. The next two have small roots beside one of 10^10 or
    # 10^9, where a float iteration on p shifted to the centroid loses the
    # small ones. The last, x^2*(x-10^6)^2+1, has both: two roots 2e-6
    # apart near 10^6 and two near 0.
    polys = [parse_poly(text) for text in (
        "x^4-x-1", "x^5-x-1", "x^7-x-1", "x^8-3", "x^3-1000003", "x^2-2000*x+999998",
        "x^4-39998*x^3+599940004*x^2-3999400080000*x+9998000400000001",
        "x^3-10000000000*x^2+1", "x^6-1000000000*x^5+x+1",
        "x^4-2000000*x^3+1000000000000*x^2+1",
    )]
    polys += [
        _shifted(text, s)
        for text in ("x^4+2*x^3+4*x^2+1", "x^5-x-1", "x^3-3*x+1")
        for s in (10**2, 10**4, 10**6)
    ]
    for p in polys:
        text, n = str(p), p.degree
        roots = isolate_roots(p)
        # a root's index is its place in the list, sorted by centre
        keys = [(r.center.real, r.center.imag) for r in roots]
        assert len(roots) == n and keys == sorted(keys), text
        for i in range(n):
            assert roots[i].radius <= 1e-9, text
            for j in range(i + 1, n):
                d = abs(roots[i].center - roots[j].center)
                assert d > roots[i].radius + roots[j].radius, text


def test_isolate_large_roots_by_disjointness_alone():
    # roots of modulus ~4.6e6: two certified radii exceed 1e-9, and the
    # three discs are disjoint, which is all a root disc must be
    roots = isolate_roots(parse_poly("x^3-100000000000000000000"))
    assert len(roots) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert roots[i].disjoint_from(roots[j])
    # roots 10^8 +- sqrt 2: close, and large, so the radii exceed 1e-9 but stay small
    roots = isolate_roots(parse_poly("x^2-200000000*x+9999999999999998"))
    assert len(roots) == 2 and roots[0].disjoint_from(roots[1])
    assert all(r.radius <= 1e-6 for r in roots), [r.radius for r in roots]


def _survey_member(rng: random.Random) -> IntPoly:
    """x^k*(x - s)^m + e(x): k roots near 0 and m near s, e of degree < 3."""
    k, m = rng.randint(1, 4), rng.randint(1, 4)
    s = rng.randint(-10**5, 10**5)
    e = [rng.randint(-3, 3) for _ in range(3)]
    out = IntPoly.from_coeffs([0] * k + [1])
    for _ in range(m):
        out = out * IntPoly.from_coeffs([-s, 1])
    return out + IntPoly.from_coeffs(e)


def test_isolate_survey_of_clusters_near_0_and_far_from_it():
    # k roots near 0 and m near s, up to 10^5 away, each cluster narrow
    # beside that distance: an iteration in floats, which keep relative
    # precision, tells such roots apart only where its absolute precision
    # suffices.
    rng = random.Random(0)
    members = []
    while len(members) < 80:
        p = _survey_member(rng)
        if p.degree >= 2 and check_irreducible(p) is None:
            members.append(p)
    t0 = time.perf_counter()
    for p in members:
        roots = isolate_roots(p)
        assert len(roots) == p.degree, str(p)
        for i in range(p.degree):
            for j in range(i + 1, p.degree):
                assert roots[i].disjoint_from(roots[j]), str(p)
    assert time.perf_counter() - t0 < 10.0


def test_isolate_refuses_roots_closer_than_the_float_spacing_at_their_size():
    # (x - 10^20)^2 - 2: roots 10^20 +- sqrt 2, and floats near 10^20 are
    # 16,384 apart, so no two float centres tell them apart
    p = parse_poly("x^2-200000000000000000000*x+9999999999999999999999999999999999999998")
    t0 = time.perf_counter()
    with pytest.raises(PrecisionExhausted):
        isolate_roots(p)
    assert time.perf_counter() - t0 < 1.0


# -- integer representation: property test against a Fraction reference --------

PROPERTY_FIELDS = ("x^2-2", "3*x^2-5", "2*x^3+x-7", "x^7-x-1")


@lru_cache(maxsize=None)
def _property_field(text):
    return NumberField.create(parse_poly(text))


def _reference_mul(field, xs, ys):
    """Schoolbook product of Fraction coefficients, reduced by the monic modulus."""
    n = field.n
    out = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] += a * b
    mod = [Fraction(c, field.source.leading) for c in field.source.coeffs]
    for i in range(2 * n - 2, n - 1, -1):
        for j in range(n):
            out[i - n + j] -= out[i] * mod[j]
    return tuple(out[:n])


def _reference_residue(field, coeffs):
    """sum c_i r^i mod l, None when some coefficient has a denominator divisible by l."""
    ell, powers = field.residue_map
    if any(c.denominator % ell == 0 for c in coeffs):
        return None
    return sum(c.numerator * pow(c.denominator, -1, ell) * rp for c, rp in zip(coeffs, powers)) % ell


def _coefficients(ell):
    """Rationals of up to 30 digits; some are 0, and some have l in the denominator."""
    nonzero = st.builds(
        lambda num, den, lifted: Fraction(num, den * (ell if lifted else 1)),
        st.integers(-10**30, 10**30),
        st.integers(1, 10**6),
        st.integers(0, 7).map(lambda k: k == 0),
    )
    return st.one_of(st.just(Fraction(0)), nonzero)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PROPERTY_FIELDS), st.data())
def test_integer_arithmetic_matches_fraction_reference(text, data):
    field = _property_field(text)
    ell = field.residue_map[0]
    vectors = st.lists(_coefficients(ell), min_size=field.n, max_size=field.n)
    xs, ys = data.draw(vectors), data.draw(vectors)
    a, b = field.element(xs), field.element(ys)
    assert a.coeffs == tuple(xs)
    assert (a * b).coeffs == _reference_mul(field, xs, ys)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(xs, ys))
    for e in (a, b, a * b, a + b, a - b, -a):
        assert e.den > 0 and gcd(e.den, *e.nums) == 1
        assert e.residue == _reference_residue(field, e.coeffs)
    if not a.is_zero:
        assert a * a.inv() == field.one


# -- embeddings ----------------------------------------------------------------------

def test_embed_gen(k_sqrt2):
    roots = isolate_roots(k_sqrt2.source)
    images = sorted(embed(k_sqrt2.gen, e).center.real for e in roots)
    assert abs(images[0] + 1.4142135623730951) < 1e-9
    assert abs(images[1] - 1.4142135623730951) < 1e-9


def test_embed_rational_is_sharp(k_sqrt2):
    roots = isolate_roots(k_sqrt2.source)
    img = embed(k_sqrt2.from_rational(Fraction(7, 2)), roots[0])
    assert img.center == 3.5
    assert img.radius < 1e-12


def test_embed_respects_modulus(k_sqrt2):
    roots = isolate_roots(k_sqrt2.source)
    sq = k_sqrt2.gen * k_sqrt2.gen
    for e in roots:
        img = embed(sq, e)
        assert abs(img.center - 2.0) <= img.radius + 1e-12


# Rational points of the closed unit disc: the centre, points of the
# boundary circle, and points inside.
UNIT_DISC_POINTS = tuple(
    (Fraction(u), Fraction(v))
    for u, v in (
        (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(-5, 13), Fraction(-12, 13)), (Fraction(1, 2), Fraction(-1, 3)),
    )
)


def _exact_value(a, re, im):
    """(Re, Im) of a at re + i*im, by Horner's rule in Fraction."""
    vr = vi = Fraction(0)
    for c in reversed(a.coeffs):
        vr, vi = vr * re - vi * im + c, vr * im + vi * re
    return vr, vi


@pytest.mark.parametrize("text", ["x^3-2", "x^5-x-1"])
def test_embed_contains_the_image_of_the_whole_root_disc(text):
    """|a(w') - centre| <= radius for rational w' in the root disc, decided in Fraction."""
    field = NumberField.create(parse_poly(text))
    rng = random.Random(7)
    roots = isolate_roots(field.source)
    # 1/3 and z/3: the float centre slips off the exact value
    third = field.from_rational(Fraction(1, 3))
    elements = [field.gen, third, field.gen * third]
    elements += [_random_element(field, rng) for _ in range(20)]
    for a in elements:
        for d in roots:
            img = embed(a, d)
            cx, cy = Fraction(img.center.real), Fraction(img.center.imag)
            r = Fraction(d.radius)
            for u, v in UNIT_DISC_POINTS:
                re = Fraction(d.center.real) + r * u
                im = Fraction(d.center.imag) + r * v
                vr, vi = _exact_value(a, re, im)
                assert (vr - cx) ** 2 + (vi - cy) ** 2 <= Fraction(img.radius) ** 2, (a, u, v)


def test_embed_of_a_small_nonzero_element_excludes_zero(k_sqrt2):
    a = k_sqrt2.element([Fraction(1, 10**6), Fraction(1, 10**6)])
    assert not a.is_zero
    for e in isolate_roots(k_sqrt2.source):
        img = embed(a, e)
        assert abs(img.center) > img.radius


def test_gen_images_pairwise_distinct(k_cbrt2):
    roots = isolate_roots(k_cbrt2.source)
    discs = [embed(k_cbrt2.gen, e) for e in roots]
    for i in range(len(discs)):
        for j in range(i + 1, len(discs)):
            assert discs[i].disjoint_from(discs[j])
