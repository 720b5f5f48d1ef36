"""The residue map K -> F_l and the point fingerprints built on it.

A residue may only ever prove a value nonzero. These tests force the map
onto tiny primes, where zero and undefined residues are common, and check
that every incidence the builder derives still equals the exact one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode import _ffpoly, numberfield
from planecode.configuration import all_points
from planecode.cover import valence_counts
from planecode.decode import decode
from planecode.numberfield import NumberField, parse_poly
from planecode.pipeline import run_pipeline
from planecode.projgeom import incident, line, point
from planecode.serialize import config_from_json, config_to_json, dumps_canonical, loads
from planecode.slp_compiler import compile_polynomial, emit_configuration

ROOT_POLYS = ("x^2-2", "x^3-2", "x^2-x-1", "x^4-x-1", "3*x^2-5", "x^7-x-1")
SMALL_PRIMES = [q for q in range(2, 120) if all(q % d for d in range(2, q))]


def _eval_mod(coeffs, x, q):
    return sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q


# x^32+1 has a root mod l only when l = 1 mod 64: its walk scans 1,214 integers below 2^61 - 1
@pytest.mark.parametrize("text", ROOT_POLYS + ("x^16-x-1", "x^32-x-1", "x^32+1"))
def test_residue_map_root(text):
    field = NumberField.create(parse_poly(text))
    ell, powers = field.residue_map
    assert numberfield._is_prime(ell) and ell <= 2**61 - 1
    coeffs = field.source.coeffs
    assert coeffs[-1] % ell
    r = powers[1]
    assert _eval_mod(coeffs, r, ell) == 0
    assert _eval_mod([i * c for i, c in enumerate(coeffs)][1:], r, ell)  # simple root
    assert powers == tuple(pow(r, i, ell) for i in range(field.n))


def test_residue_map_skips_a_multiple_root(monkeypatch):
    # x^2 - 7 = x^2 mod 7: the root 0 is double there, so l = 7 is skipped
    # for the next prime with a simple root, 3 (x^2 - 1 has roots 1, 2).
    monkeypatch.setattr(numberfield, "_RESIDUE_PRIME_START", 7)
    assert _ffpoly.root([-7, 0, 1], 7) == 0
    field = NumberField.create(parse_poly("x^2-7"))
    ell, powers = field.residue_map
    assert ell == 3
    assert powers[1] in (1, 2)


@pytest.mark.parametrize("text", ROOT_POLYS)
def test_ffpoly_root_against_brute_force(text):
    coeffs = list(parse_poly(text).coeffs)
    for q in SMALL_PRIMES:
        r = _ffpoly.root(coeffs, q)
        roots = [x for x in range(q) if _eval_mod(coeffs, x, q) == 0]
        if roots:
            assert r in roots
        else:
            assert r is None


@pytest.mark.parametrize("q", [3, 7, 11, 19, 2**61 - 1])
def test_ffpoly_root_none_for_x2_plus_1(q):
    assert q % 4 == 3
    assert _ffpoly.root([1, 0, 1], q) is None


def _pow_mod_right_to_left(f, e, modulus, q):
    """f(x)^e mod modulus by squaring the base from the low bit of e up."""
    result, base = [1], _ffpoly.rem(f, modulus, q)
    while e:
        if e & 1:
            result = _ffpoly.rem(_ffpoly.mul(result, base, q), modulus, q)
        base = _ffpoly.rem(_ffpoly.mul(base, base, q), modulus, q)
        e >>= 1
    return result


@pytest.mark.parametrize("q", [7, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("f", [[0, 1], [3, 0, 5, 1, 2, 6]])
def test_pow_mod_equals_the_right_to_left_ladder(q, f):
    modulus = [5, 2, 0, 1]  # x^3 + 2x + 5, monic
    d = _ffpoly.deg(modulus)
    for e in (0, 1, q, (q**d - 1) // 2):
        assert _ffpoly.pow_mod(f, e, modulus, q) == _pow_mod_right_to_left(f, e, modulus, q)


def test_is_prime_small_range():
    assert [n for n in range(120) if numberfield._is_prime(n)] == SMALL_PRIMES


def test_is_prime_refuses_the_least_strong_pseudoprime_to_the_bases_2_to_37():
    # Sorenson and Webster, Math. Comp. 86 (2017): the base 41 refuses it
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not numberfield._is_prime(318665857834031151167461)
    assert numberfield._is_prime(798330580441)


def _tiny_field(text, start):
    """A field whose residue map sits at the largest suitable prime <= start."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numberfield, "_RESIDUE_PRIME_START", start)
        field = NumberField.create(parse_poly(text))
        assert field.residue_map is not None
    return field


TINY_FIELDS = [_tiny_field("x^2-2", 7), _tiny_field("x^3-2", 5)]
_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(TINY_FIELDS),
    st.lists(_fractions, min_size=3, max_size=3),
    st.lists(_fractions, min_size=3, max_size=3),
)
def test_residue_is_a_ring_homomorphism(field, xs, ys):
    ell = field.residue_map[0]
    a = field.element(xs[: field.n])
    b = field.element(ys[: field.n])
    for e in (a, b):
        vanishing = any(c.denominator % ell == 0 for c in e.coeffs)
        assert (e.residue is None) == vanishing
    if a.residue is None or b.residue is None:
        return
    assert (a + b).residue == (a.residue + b.residue) % ell
    assert (a * b).residue == (a.residue * b.residue) % ell
    assert (-a).residue == (-a.residue) % ell


def test_residue_zero_for_zero_and_one_for_one():
    field = TINY_FIELDS[0]
    assert field.zero.residue == 0
    assert field.one.residue == 1
    assert field.gen.residue == field.residue_map[1][1]


def _exact_incident(l, p):
    a, b, c = l.coeffs
    x, y, z = p.coords
    return (a * x + b * y + c * z).is_zero


def test_incident_matches_exact_on_tiny_prime(monkeypatch):
    monkeypatch.setattr(numberfield, "_RESIDUE_PRIME_START", 7)
    cfg = emit_configuration(compile_polynomial(parse_poly("x^2-2")))
    assert cfg.field.residue_map[0] == 7
    residues = [e.residue for l in cfg.lines for e in l.coeffs]
    points = list(all_points(cfg))
    residues += [e.residue for p, _ in points for e in p.coords]
    assert 0 in residues and None in residues  # both fall-through cases occur
    hits = 0
    for p, rows in points:
        for i, l in enumerate(cfg.lines):
            got = incident(l, p)
            assert got == _exact_incident(l, p)
            assert got == (i in rows)
            hits += got
    assert hits == sum(v * n for v, n in valence_counts(cfg))


def test_pipeline_on_tiny_prime_equals_default(monkeypatch, built):
    default, _ = built("x^2-2")
    monkeypatch.setattr(numberfield, "_RESIDUE_PRIME_START", 7)
    forced = run_pipeline(parse_poly("x^2-2"))
    assert forced.field.residue_map[0] == 7
    assert dumps_canonical(config_to_json(forced)) == dumps_canonical(config_to_json(default))


def test_no_prime_found_means_exact_only(monkeypatch):
    # x^2+1 has no root mod 7, the only prime tried.
    monkeypatch.setattr(numberfield, "_RESIDUE_PRIME_START", 7)
    monkeypatch.setattr(numberfield, "_RESIDUE_PRIME_TRIES", 1)
    field = NumberField.create(parse_poly("x^2+1"))
    assert field.residue_map is None
    assert field.gen.residue is None
    assert incident(line(field, 0, 1, 0), point(field, field.gen, 0))
    assert not incident(line(field, 0, 1, 0), point(field, 0, field.gen))


def test_loading_with_and_without_the_map_agree(built, monkeypatch):
    # Load finds points by fingerprint; with no residue map it computes every
    # meet exactly. Both must give the same points, rows and marks.
    cfg, _ = built("x^2-2")
    text = dumps_canonical(config_to_json(cfg))
    fingerprinted = config_from_json(loads(text))
    assert fingerprinted.field.residue_map is not None
    monkeypatch.setattr(numberfield, "_RESIDUE_PRIME_TRIES", 0)
    exact = config_from_json(loads(text))
    assert exact.field.residue_map is None
    assert list(exact.points) == list(fingerprinted.points) == list(cfg.points)
    assert exact.incidence == fingerprinted.incidence == cfg.incidence
    assert exact.marks == fingerprinted.marks == cfg.marks
    assert decode(exact) == decode(fingerprinted) == exact.field.gen
