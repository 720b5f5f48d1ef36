import random

import pytest

from planecode import cover
from planecode.configuration import derive_points
from planecode.cover import (
    ALPHA,
    ZERO,
    ample_certificate,
    build_cover_report,
    check_cover_hypotheses,
    group_elements,
    name,
    pairing,
    select_m,
    valence_counts,
)
from planecode.errors import ParityViolation, SelfCheckFailed
from planecode.numberfield import NumberField, parse_poly
from planecode.projgeom import line
from tests.conftest import ACCEPTANCE_POLYS


def g(bits):
    return int(bits, 2)


def _odd_sum(m):
    """sum m_g * g in (Z/2)^3: the XOR of the g with m_g odd."""
    total = ZERO
    for x, v in m.items():
        if v % 2:
            total ^= x
    return total


# -- group plumbing ----------------------------------------------------------------

def test_group_enumeration_and_alpha():
    els = group_elements()
    assert len(els) == 8 and els[0] == ZERO and els[4] == ALPHA
    assert name(ALPHA) == "100" and name(g("011")) == "011"


def test_xor_and_pairing():
    assert g("010") ^ g("011") == g("001")
    assert pairing(g("101"), g("100")) == 1
    assert pairing(g("011"), g("100")) == 0


def test_xor_triple_example_by_hand_enumeration():
    # the triple (010), (001), (011) XORs to zero: check against a brute
    # force over the whole group table
    total = ZERO
    for el in (g("010"), g("001"), g("011")):
        total = total ^ el
    assert total == ZERO
    table = {(a, b): a ^ b for a in group_elements() for b in group_elements()}
    step = table[(g("010"), g("001"))]
    assert table[(step, g("011"))] == ZERO


# -- branch divisors and half classes ------------------------------------------------

def _valences(cfg):
    """The valence of every point: the stored points in order, then a 2 per simple crossing."""
    return [len(rows) for rows in cfg.incidence] + [2] * cfg.simple_count


def _per_point(cls, report, cfg):
    """A class written by valence class, expanded to one coefficient per point."""
    h, b = cls
    at = {v: x for (v, _), x in zip(report.valence_counts, b)}
    return h, tuple(at[v] for v in _valences(cfg))


def test_assign_branch_divisors(built):
    cfg, _ = built("x^2-2")
    L = cfg.line_count
    report = build_cover_report(cfg)
    # D_alpha read against H gives L, against E_q gives the valence e_q
    e = tuple(v for v, _ in report.valence_counts)
    assert report.D[ALPHA] == (L, e)
    expanded = _per_point(report.D[ALPHA], report, cfg)
    for idx, rows in enumerate(cfg.incidence):
        assert expanded[1][idx] == len(rows)
    zero_b = (0,) * len(e)
    assert report.D[ZERO] == (0, zero_b)
    for x in group_elements():
        if x != ALPHA:
            assert report.D[x] == (report.m[x], zero_b)


def test_compute_M_trivial_character(built):
    cfg, _ = built("x^2-2")
    report = build_cover_report(cfg)
    assert report.classes[ZERO] == (0, (0,) * len(report.valence_counts))


def test_compute_M_pairing_one_characters(built):
    cfg, _ = built("x^2-2")
    report = build_cover_report(cfg)
    halves = tuple(v // 2 for v, _ in report.valence_counts)
    for chi in group_elements():
        if chi == ZERO:
            continue
        if pairing(chi, ALPHA) == 1:
            assert report.classes[chi][1] == halves
        else:
            assert all(x == 0 for x in report.classes[chi][1])  # pure H multiple


@pytest.mark.parametrize("text", ACCEPTANCE_POLYS)
def test_valence_counts_count_every_point_and_every_pair(built, text):
    cfg, _ = built(text)
    counts = valence_counts(cfg)
    assert [v for v, _ in counts] == sorted(set(_valences(cfg)))
    assert sum(n for _, n in counts) == cfg.point_count
    L = cfg.line_count
    assert sum(n * v * (v - 1) // 2 for v, n in counts) == L * (L - 1) // 2
    assert build_cover_report(cfg).valence_counts == counts


def _half_sum(chi, D):
    """The definition M_chi = (1/2) sum_g (chi, g) D_g, coordinate by coordinate."""
    h = sum(D[x][0] for x in group_elements() if pairing(chi, x))
    b = [0] * len(D[ZERO][1])
    for x in group_elements():
        if pairing(chi, x):
            b = [s + y for s, y in zip(b, D[x][1])]
    assert h % 2 == 0 and all(s % 2 == 0 for s in b)
    return h // 2, tuple(s // 2 for s in b)


@pytest.mark.parametrize("text", ACCEPTANCE_POLYS)
def test_half_classes_match_the_definition(built, text):
    # every class, expanded to one coefficient per point, is the per-point
    # class of the definition: D_alpha = (L, e) and D_g = (m_g, 0)
    cfg, _ = built(text)
    report = build_cover_report(cfg)
    e = tuple(_valences(cfg))
    D = {x: (cfg.line_count, e) if x == ALPHA else (report.m[x], (0,) * len(e))
         for x in group_elements()}
    for x in group_elements():
        assert _per_point(report.D[x], report, cfg) == D[x]
    for chi in group_elements():
        assert _per_point(report.classes[chi], report, cfg) == _half_sum(chi, D)


# -- the two parity checks -------------------------------------------------------------

def test_parity_violation_on_odd_valences():
    # three concurrent lines: one point, of valence 3
    k = NumberField.create(parse_poly("x^2-2"))
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, 0)])
    assert _valences(cfg) == [3]
    with pytest.raises(ParityViolation, match="odd valence 3"):
        build_cover_report(cfg)


def test_invalid_m_odd_line_count(built, monkeypatch):
    # an odd L at alpha and nothing to cancel it: S_chi = L for (chi, alpha) = 1
    cfg, _ = built("x^2-2")
    assert cfg.line_count % 2 == 1, "the test needs an input with an odd line count"
    bare = {x: 0 for x in group_elements()}
    bare[ALPHA] = cfg.line_count
    monkeypatch.setattr(cover, "select_m", lambda c: bare)
    with pytest.raises(ParityViolation, match=f"S_100 = {cfg.line_count} is odd"):
        build_cover_report(cfg)


def test_cover_report_refuses_an_m_whose_odd_entries_do_not_cancel(built, monkeypatch):
    cfg, _ = built("x^2-2")
    m = select_m(cfg)
    bumped = {**m, g("011"): m[g("011")] + 1}
    assert _odd_sum(bumped) != ZERO
    monkeypatch.setattr(cover, "select_m", lambda c: bumped)
    with pytest.raises(ParityViolation, match="does not vanish"):
        build_cover_report(cfg)


def test_parity_theorem_over_every_m_mod_2():
    # the S_chi depend on m mod 2 only, so {0,1}^7 covers every map
    nonzero = [x for x in group_elements() if x != ZERO]
    for bits in range(1 << len(nonzero)):
        m = {x: (bits >> i) & 1 for i, x in enumerate(nonzero)}
        all_even = all(
            sum(v for x, v in m.items() if pairing(chi, x)) % 2 == 0
            for chi in group_elements()
        )
        assert all_even == (_odd_sum(m) == ZERO), m


# -- hypothesis report -----------------------------------------------------------------

def test_hypotheses_on_pipeline(built):
    cfg, _ = built("x^2-2")
    report = check_cover_hypotheses(select_m(cfg), cfg.line_count)
    assert report.proper_transform_smooth
    assert report.pairs_checked == cfg.line_count * (cfg.line_count - 1) // 2
    assert "independent" in report.independence
    assert report.genericity_assumptions  # the selected m uses general curves


def test_hypotheses_with_bare_m():
    # L even and m supported only at alpha: branch divisor is the proper
    # transform alone, so no genericity assumptions are needed
    k = NumberField.create(parse_poly("x^2-2"))
    lines = [line(k, 1, 0, -c) for c in range(3)] + [line(k, 0, 1, -1)]
    cfg = derive_points(lines)
    report = check_cover_hypotheses({ALPHA: 4}, cfg.line_count)
    assert report.proper_transform_smooth
    assert report.genericity_assumptions == ()


# -- ampleness ----------------------------------------------------------------------

def test_ample_certificate_examples():
    # two points of valence 2 and one of valence 4: sum b_q = 2 * 1 + 1 * 2 = 4
    counts = ((2, 2), (4, 1))
    assert ample_certificate((10, (1, 2)), counts).certified
    assert ample_certificate((5, (1, 2)), counts).certified
    v = ample_certificate((4, (1, 2)), counts)
    assert not v.certified and "h = 4 <= sum of b_q = 4" in v.reason
    v = ample_certificate((7, (0, 2)), counts)
    assert not v.certified and "points of valence 2" in v.reason


def test_ample_certificate_monotone_in_h():
    rng = random.Random(5)
    for _ in range(40):
        counts = tuple((2 * i + 2, rng.randint(1, 9)) for i in range(5))
        b = tuple(rng.randint(1, 4) for _ in range(5))
        h = rng.randint(1, 90)
        before = ample_certificate((h, b), counts).certified
        after = ample_certificate((h + rng.randint(0, 30), b), counts).certified
        assert after >= before


# -- m selection and the full report ---------------------------------------------------

def test_select_m_certifies(built):
    cfg, _ = built("x^2-2")
    report = build_cover_report(cfg)
    E = sum(_valences(cfg))
    for chi in group_elements():
        if pairing(chi, ALPHA) == 1:
            assert ample_certificate(report.classes[chi], report.valence_counts).certified
            assert 2 * report.classes[chi][0] > E


def test_select_m_sum_condition(built):
    cfg, _ = built("x^2-2")
    m = select_m(cfg)
    assert m[ZERO] == 0 and m[ALPHA] == cfg.line_count
    assert _odd_sum(m) == ZERO


class _Valences:
    """Stand-in for a configuration: only what select_m reads, every point stored."""

    simple_count = 0

    def __init__(self, line_count, valences):
        self.line_count = line_count
        self.incidence = tuple(tuple(range(v)) for v in valences)


def _oracle_m(L, need):
    """Least total, then lex-least, free m with sum m_g g = 0 and all S_chi >= need.

    Plain enumeration of every free m with total <= 2 * need + 2, in the
    order of group_elements().
    """
    free = [x for x in group_elements() if x not in (ZERO, ALPHA)]
    x1 = [chi for chi in group_elements() if pairing(chi, ALPHA) == 1]
    top = 2 * need + 2

    def tuples(slots, budget):
        if slots == 0:
            yield ()
            return
        for v in range(budget + 1):
            for rest in tuples(slots - 1, budget - v):
                yield (v,) + rest

    best = None
    for vals in tuples(len(free), top):
        total = ALPHA if L % 2 else ZERO
        for x, v in zip(free, vals):
            if v % 2:
                total = total ^ x
        if total != ZERO:
            continue
        if any(sum(v for x, v in zip(free, vals) if pairing(chi, x)) < need for chi in x1):
            continue
        if best is None or (sum(vals), vals) < best:
            best = (sum(vals), vals)
    return dict(zip(free, best[1]))


@pytest.mark.parametrize("need", range(7))
def test_select_m_matches_brute_force_oracle(need):
    # need = E + 1 - L, and E is even (every valence is), so a positive
    # need has the parity of L + 1; need = 0 is reached for every L
    for L in range(4, 14):
        if need == 0:
            valences = (2,) * ((L - 1) // 2)
        elif (need - L) % 2 == 1:
            valences = (2,) * ((L - 1 + need) // 2)
        else:
            continue
        m = select_m(_Valences(L, valences))
        assert max(0, sum(valences) + 1 - L) == need
        oracle = _oracle_m(L, need)
        assert m == {ZERO: 0, ALPHA: L, **oracle}, (L, need)


def test_cover_report_flags_nef_gap(built):
    cfg, _ = built("x^2-2")
    report = build_cover_report(cfg)
    assert len(report.ampleness) == 7
    certified = {chi for chi, v in report.ampleness.items() if v.certified}
    assert certified == {chi for chi in group_elements() if pairing(chi, ALPHA) == 1}
    assert set(report.nef_gap) == {
        chi for chi in group_elements() if chi != ZERO and pairing(chi, ALPHA) == 0
    }


def test_cover_report_refuses_a_selected_m_that_is_not_ample(built, monkeypatch):
    cfg, _ = built("x^2-2")
    m = select_m(cfg)
    # two less keeps the parity, so every S_chi stays even
    short = {**m, g("011"): m[g("011")] - 2, g("111"): m[g("111")] - 2}
    assert _odd_sum(short) == ZERO
    monkeypatch.setattr(cover, "select_m", lambda c: short)
    with pytest.raises(SelfCheckFailed):
        build_cover_report(cfg)
