import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecode import configuration, numberfield, projgeom, slp_compiler
from planecode.errors import (
    GadgetDegenerate,
    NotARoot,
    ReducibleModulus,
    TrivialField,
)
from planecode.numberfield import IntPoly, NumberField, parse_poly
from planecode.pipeline import run_pipeline
from planecode.projgeom import incident, line
from planecode.serialize import config_to_json, dumps_canonical
from planecode.slp_compiler import (
    ADD, LOAD_Z, MUL, ONE, SLP, _Counted, _Drawn, add_gadget, anchor_count, compile_polynomial,
    emit_configuration, mul_gadget, register_point, split_anchors, tie_line,
)

from tests.test_serialize_cli import assert_same_configuration


@pytest.fixture(scope="module")
def k():
    return NumberField.create(parse_poly("x^2-2"))


# -- compilation ---------------------------------------------------------------

def test_compile_x2_minus_2_exact_shape():
    # P = z^2 on the left, N = 2 on the right: the power table, then the chain
    slp = compile_polynomial(parse_poly("x^2-2"))
    assert slp.instructions == ((LOAD_Z,), (MUL, 0, 0), (ONE,), (ADD, 2, 2))
    assert (slp.lhs, slp.rhs) == (1, 3)


@pytest.mark.parametrize("c", [2, 3, 5, 7, 12, 1000003])
def test_constants_are_double_and_add_chains(k, c):
    slp = compile_polynomial(IntPoly.from_coeffs([-c, 0, 1]))  # z^2 = c
    assert sum(i[0] == ONE for i in slp.instructions) == 1
    # one doubling per binary digit after the first, one unit per further 1
    adds = sum(i[0] == ADD for i in slp.instructions)
    assert adds == (c.bit_length() - 1) + (bin(c).count("1") - 1)
    assert slp.evaluate(k.gen, k.one)[slp.rhs] == k.from_rational(c)


def test_a_constant_is_built_once():
    slp = compile_polynomial(parse_poly("2*x^3+2*x+1"))
    assert sum(i[0] == ONE for i in slp.instructions) == 1
    # 2 = 1 + 1 once, then one Horner Add each for the coefficients of x and 1
    assert sum(i[0] == ADD for i in slp.instructions) == 1 + 2


def test_constants_share_one_chain(k):
    slp = compile_polynomial(parse_poly("3*x^3-5*x+7"))
    values = slp.evaluate(k.gen, k.one)
    chain = [v for i, v in zip(slp.instructions, values) if i[0] == ADD][:4]
    # 3 = 2 + 1 by double-and-add, then 5 = 2 + 3 and 7 = 2 + 5 by one Add each
    assert chain == [k.from_rational(c) for c in (2, 3, 5, 7)]
    # and one Horner Add for the 7 of P = 3*z^3 + 7; N = 5*z needs none
    assert sum(i[0] == ADD for i in slp.instructions) == 4 + 1


def test_compile_evaluates_to_zero():
    """P(z) - N(z) = p(z) is zero: the two sides agree."""
    for text in ("x^2-x-1", "x^3-2", "x^4-x-1", "2*x^2-3", "x^3-x+1", "x^2+x+1"):
        poly = parse_poly(text)
        slp = compile_polynomial(poly)
        field = NumberField.create(poly)
        values = slp.evaluate(field.gen, field.one)
        rhs = field.zero if slp.rhs is None else values[slp.rhs]
        assert values[slp.lhs] == rhs, text
    assert compile_polynomial(parse_poly("x^3-x+1")).rhs == 0  # N = z
    assert compile_polynomial(parse_poly("x^2+x+1")).rhs is None  # N = 0


def test_sides_need_no_negation_and_no_repeats():
    assert not hasattr(slp_compiler, "NEG")
    for text in ("x^2-x-1", "x^4-x-1", "3*x^3-5*x+7", "x^7-x-1", "x^3-1000003"):
        slp = compile_polynomial(parse_poly(text))
        assert {i[0] for i in slp.instructions} <= {LOAD_Z, ONE, ADD, MUL}, text
        assert len(set(slp.instructions)) == len(slp.instructions), text


def test_compile_x3_minus_2_two_muls():
    slp = compile_polynomial(parse_poly("x^3-2"))
    assert sum(i[0] == MUL for i in slp.instructions) == 2


def test_powers_by_squaring():
    # z^16 = (((z^2)^2)^2)^2 on the left, z + 1 on the right
    slp = compile_polynomial(parse_poly("x^16-x-1"))
    assert sum(i[0] == MUL for i in slp.instructions) == 4


def test_compile_rejects_trivial_and_reducible():
    with pytest.raises(TrivialField):
        compile_polynomial(parse_poly("x+3"))
    with pytest.raises(ReducibleModulus):
        emit_configuration(compile_polynomial(parse_poly("x^2-1")))


def test_register_point_identification(k):
    from planecode.projgeom import point

    assert register_point(k.gen) == point(k, k.gen, 0)
    assert register_point(k.zero) == point(k, 0, 0)
    assert register_point(k.from_rational(-2)) == point(k, -2, 0)


# -- independent affine oracles for the gadget geometry -------------------------

def _line_through(p, q):
    (x1, y1), (x2, y2) = p, q
    return (y1 - y2, x2 - x1, x1 * y2 - x2 * y1)


def _intersect(l1, l2):
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    assert det != 0
    return (Fraction(b1 * c2 - b2 * c1, det), Fraction(a2 * c1 - a1 * c2, det))


def _parallel_through(l, p):
    a, b, _ = l
    return (a, b, -(a * p[0] + b * p[1]))


def _add_oracle(a, b, h):
    ell = (Fraction(0), Fraction(1), Fraction(0))
    l2 = (Fraction(1), Fraction(0), -b)           # x = b
    hline = (Fraction(0), Fraction(1), -h)        # y = h
    corner = _intersect(l2, hline)
    l3 = _line_through((Fraction(0), h), (a, Fraction(0)))
    l4 = _parallel_through(l3, corner)
    return _intersect(l4, ell)


def _mul_oracle(a, b, j=1):
    ell = (Fraction(0), Fraction(1), Fraction(0))
    yaxis = (Fraction(1), Fraction(0), Fraction(0))
    t1 = _line_through((b, Fraction(0)), (b - 1, Fraction(j)))  # slope -j, through S_j
    lifted = _intersect(t1, yaxis)
    m1 = _line_through((Fraction(0), Fraction(j)), (a, Fraction(0)))  # through U_j
    m2 = _parallel_through(m1, lifted)
    return _intersect(m2, ell)


def _add(a, b, h):
    """The add gadget of the numbers a and b drawn in K: its output point, its lines by role."""
    return add_gadget(_Drawn(a.field), register_point(a), register_point(b), h)


def _mul(a, b, j=1):
    return mul_gadget(_Drawn(a.field, j), register_point(a), register_point(b), j)


def test_add_gadget_against_oracle(k):
    a, b, h = Fraction(1, 2), Fraction(1, 3), Fraction(2)
    assert _add_oracle(a, b, h) == (Fraction(5, 6), 0)
    out, lines = _add(k.from_rational(a), k.from_rational(b), h)
    assert out == register_point(k.from_rational(Fraction(5, 6)))
    assert len(lines) == 4  # l2, l3, l4 and y = h; the y-axis is a seed line


def test_mul_gadget_against_oracle(k):
    a, b = Fraction(2), Fraction(3)
    assert _mul_oracle(a, b) == (Fraction(6), 0)
    out, lines = _mul(k.from_rational(a), k.from_rational(b))
    assert out == register_point(k.from_rational(6))
    assert len(lines) == 3


@pytest.mark.parametrize("j", [2, 3])
def test_mul_gadget_on_a_later_anchor_against_oracle(k, j):
    a, b = Fraction(2), Fraction(3)
    assert _mul_oracle(a, b, j) == (Fraction(6), 0)
    out, lines = _mul(k.from_rational(a), k.from_rational(b), j)
    assert out == register_point(k.from_rational(6))
    g = _Drawn(k, j)
    assert g.ties[j - 1] == tie_line(k, j) == line(k, j, 1, -j)
    assert incident(lines["t1"], g.S[j - 1]) and incident(lines["m1"], g.U[j - 1])
    assert not incident(lines["t1"], g.S[0]) and not incident(lines["m1"], g.U[0])


def test_add_gadget_inverse_pair(k):
    assert _add(k.gen, -k.gen, Fraction(2))[0] == register_point(k.zero)


def test_mul_gadget_gen_squared(k):
    assert _mul(k.gen, k.gen)[0] == register_point(k.from_rational(2))


def test_mul_gadget_identity(k):
    rng = random.Random(3)
    for _ in range(10):
        w = k.element([Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20))])
        if w.is_zero:
            continue
        assert _mul(k.one, w)[0] == register_point(w)


def test_gadget_degeneracies(k):
    with pytest.raises(GadgetDegenerate):
        _add(k.zero, k.zero, Fraction(2))
    with pytest.raises(GadgetDegenerate):
        _mul(k.zero, k.gen)
    with pytest.raises(GadgetDegenerate):
        _add(k.gen, k.gen, Fraction(0))
    with pytest.raises(GadgetDegenerate):
        _add(k.gen, k.gen, Fraction(1))  # the auxiliary point would be U


def test_aux_on_a_later_anchor_is_refused(k):
    g = _Drawn(k, 2)
    with pytest.raises(GadgetDegenerate, match="anchor U_j"):  # y = 2 meets the y-axis at U_2
        add_gadget(g, g.z, g.one, Fraction(2))
    add_gadget(_Drawn(k), g.z, g.one, Fraction(2))  # one anchor: U_2 is no anchor


def test_a_check_that_holds_renders_no_point(monkeypatch):
    # the detail of each non-degeneracy check names points of P^2(K); it is
    # formatted only when the check fails
    def render(point):
        raise AssertionError("a point was rendered")

    monkeypatch.setattr(projgeom.ProjPoint, "__str__", render)
    emit_configuration(compile_polynomial(parse_poly("x^7-x-1")))


def _operands_per_anchor(slp, anchors):
    held = {}
    for (kind, *ops), j in zip(slp.instructions, anchors):
        assert (kind == MUL) == (j > 0)
        if j:
            left, right = held.setdefault(j, (set(), set()))
            left.add(ops[0])
            right.add(ops[1])
    return held


@pytest.mark.parametrize("text, anchors", [
    ("x^4-x-1", (0, 1, 1, 0, 0)),
    # z^2 = z z and z^3 = z^2 z fill anchor 1; z^5 = z^3 z^2 would give it
    # a third left operand
    ("x^5-x-1", (0, 1, 1, 2, 0, 0)),
    # z^4 = z^2 z^2 holds a = 1 on anchor 1 and b = 1 on anchor 2: the tie
    # goes to the lower anchor
    ("x^9-x-1", (0, 1, 1, 2, 1, 2, 0, 0)),
    ("x^32-x-1", (0, 1, 1, 2, 2, 3, 0, 0)),
])
def test_split_anchors_keep_each_anchor_at_valence_4(text, anchors):
    slp = compile_polynomial(parse_poly(text))
    assert split_anchors(slp) == anchors
    for left, right in _operands_per_anchor(slp, anchors).values():
        assert len(left) <= 2 and len(right) <= 2


OCTIC = "x^8-40*x^6+352*x^4-960*x^2+576"  # the Swinnerton-Dyer polynomial of 2, 3, 5


@pytest.mark.parametrize("text, anchors", [
    ("x^5-x-1", 2), ("x^7-x-1", 2), ("x^16-x-1", 2), ("x^32-x-1", 3),
    # the split layout would not lower the raw ladder base M: one anchor
    ("x^9-x-1", 1), ("x^12-x^5-1", 1), ("3*x^3-5*x+7", 1),
    (OCTIC, 1), ("x^5-3*x+7", 1), ("x^9-2", 1),
    # at most two products always fit one anchor
    ("x^2-2", 1), ("x^4-x-1", 1), ("3*x^2-5", 1),
])
def test_the_split_layout_is_kept_where_it_lowers_the_ladder(text, anchors):
    slp = compile_polynomial(parse_poly(text))
    raw = emit_configuration(slp, seed=0)
    f = raw.field
    ties = [j for j in range(2, 5) if raw.lines[2 + j] == tie_line(f, j)]
    assert ties == list(range(2, anchors + 1))
    values = slp.evaluate(f.gen, f.one)
    assert anchor_count(slp, values, 0) == anchors
    split = max(split_anchors(slp), default=1)
    if split > 1:
        # the drawn raw ladder bases agree with the choice made by counting
        shared, spread = (
            configuration.ladder_base(slp_compiler._drawn_configuration(slp, _Drawn(f, J), 0, values))
            for J in (1, split)
        )
        assert (spread < shared) == (anchors > 1)


@pytest.mark.parametrize("text, shared, split", [
    ("x^9-x-1", 56, 58), ("x^9-2", 56, 58), ("x^5-3*x+7", 67, 68), (OCTIC, 275, 278),
])
def test_always_splitting_would_cost_lines(monkeypatch, text, shared, split):
    assert run_pipeline(parse_poly(text)).line_count == shared
    monkeypatch.setattr(slp_compiler, "anchor_count", lambda slp, values, seed: max(split_anchors(slp)))
    assert run_pipeline(parse_poly(text)).line_count == split


@pytest.mark.parametrize("seed", [0, 3, -3])
@pytest.mark.parametrize("text", [
    "x^2-2", "x^3-2", "x^2-x-1", "x^4-x-1", "3*x^2-5", "x^5-x-1", "x^7-x-1",
    "x^9-x-1", "x^16-x-1", "x^32-x-1", "3*x^3-5*x+7", "x^3-1000003", OCTIC,
])
def test_the_count_equals_the_drawn_raw_table(text, seed):
    slp = compile_polynomial(parse_poly(text))
    f = NumberField.create(slp.source)
    values = slp.evaluate(f.gen, f.one)
    for J in sorted({1, max(split_anchors(slp), default=1)}):
        counted = _Counted(slp, values, seed, J)
        drawn = slp_compiler._drawn_configuration(slp, _Drawn(f, J), seed, values)
        assert len(counted.on) == drawn.line_count
        assert {label: len(counted.incidence[i]) for label, i in counted.marks.items()} == {
            label: drawn.valence(i) for label, i in drawn.marks.items()
        }
        assert configuration.max_other_valence(counted) == configuration.max_other_valence(drawn)
        assert configuration.ladder_base(counted) == configuration.ladder_base(drawn)


@pytest.mark.parametrize("text, anchors", [("x^5-x-1", 2), ("x^9-x-1", 1)])
def test_each_build_draws_once(monkeypatch, text, anchors):
    real, drawn = slp_compiler._drawn_configuration, []

    def counted(slp, g, seed, values):
        drawn.append(len(g.U))
        return real(slp, g, seed, values)

    monkeypatch.setattr(slp_compiler, "_drawn_configuration", counted)
    run_pipeline(parse_poly(text))
    assert drawn == [anchors]


def test_gadget_soundness_random_rationals(k):
    rng = random.Random(41)
    for _ in range(100):
        a = Fraction(rng.randint(-60, 60) or 7, rng.randint(1, 24))
        b = Fraction(rng.randint(-60, 60) or 5, rng.randint(1, 24))
        h = Fraction(rng.randint(2, 9))
        av, bv = k.from_rational(a), k.from_rational(b)
        assert _add(av, bv, h)[0] == register_point(
            k.from_rational(a + b)
        )
        assert _mul(av, bv)[0] == register_point(
            k.from_rational(a * b)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.integers(min_value=2, max_value=8),
)
def test_gadget_soundness_hypothesis(a, b, h_int):
    k = NumberField.create(parse_poly("x^2-2"))
    if a == 0 or b == 0:
        return
    h = Fraction(h_int)
    av, bv = k.from_rational(a), k.from_rational(b)
    assert _add(av, bv, h)[0] == register_point(
        k.from_rational(a + b)
    )
    assert _mul(av, bv)[0] == register_point(
        k.from_rational(a * b)
    )


# -- configuration emission -------------------------------------------------------

def test_emit_configuration_x2_minus_2():
    slp = compile_polynomial(parse_poly("x^2-2"))
    cfg = emit_configuration(slp, seed=0)
    field = cfg.field
    index = {p: i for i, p in enumerate(cfg.points)}
    origin = register_point(field.zero)
    assert origin in index
    assert cfg.marks["zero"] == index[origin]
    assert set(cfg.marks) == {"zero", "one", "inf", "z"}
    # marks sit on the coding axis and are distinct
    assert len(set(cfg.marks.values())) == 4


@pytest.mark.parametrize("rhs", [1, None])  # the unit, and N = 0
def test_emit_refuses_sides_that_differ(rhs):
    slp = SLP(((LOAD_Z,), (ONE,)), 0, rhs, parse_poly("x^2-2"))  # z = 1, z = 0
    with pytest.raises(NotARoot):
        emit_configuration(slp)


def test_emit_configuration_includes_axes():
    slp = compile_polynomial(parse_poly("x^2-2"))
    cfg = emit_configuration(slp, seed=0)
    f = cfg.field
    from planecode.projgeom import line

    assert cfg.lines[0] == line(f, 0, 1, 0)
    assert cfg.lines[1] == line(f, 1, 0, 0)
    # the line at infinity, and x + y = 1 through the mark 1, U and S
    assert cfg.lines[2] == line(f, 0, 0, 1)
    assert cfg.lines[3] == line(f, 1, 1, -1)


def test_mul_gadget_draws_no_parameter():
    # x^4 - x - 1 = x^4 - (x + 1): two squarings, one add, so one height
    cfg = emit_configuration(compile_polynomial(parse_poly("x^4-x-1")), seed=0)
    assert cfg.params_consumed == 1  # the stream value 1 gives h = 1001


def test_one_irreducibility_proof_per_build(monkeypatch):
    real = numberfield.check_irreducible
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(numberfield, "check_irreducible", counted)
    monkeypatch.setattr(slp_compiler, "check_irreducible", counted)
    run_pipeline(parse_poly("x^5-x-1"))
    assert len(calls) == 1


def test_emission_deterministic():
    slp = compile_polynomial(parse_poly("x^2-x-1"))
    a = emit_configuration(slp, seed=0)
    b = emit_configuration(slp, seed=0)
    assert_same_configuration(a, b)
    assert dumps_canonical(config_to_json(a)) == dumps_canonical(config_to_json(b))



# Gadgets whose outputs are read off the line y = 1 instead of the axis.
_SABOTAGED_GADGETS = """
import planecode.slp_compiler as sc
from planecode.errors import SelfCheckFailed
from planecode.numberfield import parse_poly
from planecode.projgeom import ProjLine
init = sc._Drawn.__init__
def init_off_axis(g, field, anchors=1):
    init(g, field, anchors)
    g.axis = ProjLine.of(field.zero, field.one, -field.one)
sc._Drawn.__init__ = init_off_axis
try:
    sc.emit_configuration(sc.compile_polynomial(parse_poly("x^2-2")))
except SelfCheckFailed:
    print("SelfCheckFailed")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_gadget_self_check_is_not_swallowed(flags):
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, *flags, "-c", _SABOTAGED_GADGETS],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.stdout.strip() == "SelfCheckFailed", out.stderr
