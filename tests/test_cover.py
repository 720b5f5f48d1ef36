import random

import pytest

from planecode import (
    ALPHA,
    Configuration,
    NumberField,
    PicClass,
    ample_certificate,
    assign_branch_divisors,
    build_cover_report,
    check_cover_hypotheses,
    compute_M,
    derive_points,
    group_elements,
    line,
    pairing,
    parse_poly,
    select_m,
    valences,
)
from planecode import cover
from planecode.cover import ZERO, name, validate_m
from planecode.errors import (
    InvalidMMap,
    MissedIntersection,
    ParityViolation,
    SelfCheckFailed,
)


def g(bits):
    return int(bits, 2)


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


# -- m-map validation ---------------------------------------------------------------

def test_valid_m_even_line_count():
    validate_m({ALPHA: 20}, 20)


def test_invalid_m_odd_line_count():
    with pytest.raises(InvalidMMap):
        validate_m({ALPHA: 21}, 21)


def test_valid_m_with_xor_null_triple():
    m = {ALPHA: 20, g("010"): 3, g("001"): 3, g("011"): 3}
    validate_m(m, 20)


def test_doubling_free_masses_keeps_validity():
    m = {ALPHA: 20, g("010"): 3, g("001"): 3, g("011"): 3}
    doubled = {k: (v if k == ALPHA else 2 * v) for k, v in m.items()}
    validate_m(doubled, 20)


def test_invalid_m_wrong_alpha():
    with pytest.raises(InvalidMMap):
        validate_m({ALPHA: 19}, 20)
    with pytest.raises(InvalidMMap):
        validate_m({ZERO: 1, ALPHA: 20}, 20)


# -- branch divisors and half classes ------------------------------------------------

def test_assign_branch_divisors(built):
    cfg, _ = built("x^2-2")
    L = cfg.line_count
    m = select_m(cfg)
    branch = assign_branch_divisors(cfg, m)
    # D_alpha read against H gives L, against E_q gives the valence e_q
    assert branch.D[ALPHA].h == L
    assert branch.D[ALPHA].b == tuple(cfg.all_valences())
    rep = valences(cfg)
    for idx, val in rep:
        assert branch.D[ALPHA].b[idx] == val
    assert branch.D[ZERO] == PicClass.zero(len(cfg.points))


def test_compute_M_trivial_character(built):
    cfg, _ = built("x^2-2")
    branch = assign_branch_divisors(cfg, select_m(cfg))
    classes = compute_M(branch)
    assert classes[ZERO] == PicClass.zero(len(cfg.points))


def test_compute_M_pairing_one_characters(built):
    cfg, _ = built("x^2-2")
    branch = assign_branch_divisors(cfg, select_m(cfg))
    classes = compute_M(branch)
    halves = tuple(v // 2 for v in cfg.all_valences())
    for chi in group_elements():
        if chi == ZERO:
            continue
        if pairing(chi, ALPHA) == 1:
            assert classes[chi].b == halves
        else:
            assert all(x == 0 for x in classes[chi].b)  # pure H multiple


def test_parity_violation_on_odd_valences():
    k = NumberField.create(parse_poly("x^2-2"))
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, 0)])
    m = {ALPHA: 3, g("101"): 1, g("001"): 1}
    branch = assign_branch_divisors(cfg, m)
    with pytest.raises(ParityViolation):
        compute_M(branch)


def test_parity_theorem_random_valid_m():
    # for every valid m the weighted sums are even for all 8 characters
    rng = random.Random(17)
    free = [x for x in group_elements() if x not in (ZERO, ALPHA)]
    for _ in range(50):
        L = 2 * rng.randint(1, 40)
        m = {ALPHA: L}
        for x in free:
            m[x] = 2 * rng.randint(0, 9)
        flips = rng.choice([(), ("001", "010", "011"), ("101", "110", "011")])
        for bits in flips:
            m[g(bits)] += 1
        validate_m(m, L)
        for chi in group_elements():
            s = sum(pairing(chi, x) * v for x, v in m.items())
            assert s % 2 == 0


def test_compute_M_linear_in_m_on_h_part():
    for chi in group_elements():
        for trial in range(10):
            rng = random.Random(trial)
            m1 = {x: rng.randint(0, 9) for x in group_elements()}
            m2 = {x: rng.randint(0, 9) for x in group_elements()}
            s1 = sum(pairing(chi, x) * v for x, v in m1.items())
            s2 = sum(pairing(chi, x) * v for x, v in m2.items())
            s12 = sum(pairing(chi, x) * (m1[x] + m2[x]) for x in group_elements())
            assert s12 == s1 + s2


# -- hypothesis report -----------------------------------------------------------------

def test_hypotheses_on_pipeline(built):
    cfg, _ = built("x^2-2")
    branch = assign_branch_divisors(cfg, select_m(cfg))
    report = check_cover_hypotheses(branch, cfg)
    assert report.proper_transform_smooth
    assert report.pairs_checked == cfg.line_count * (cfg.line_count - 1) // 2
    assert "independent" in report.independence
    assert report.genericity_assumptions  # the selected m uses general curves


def test_missed_intersection_detected(built):
    cfg, _ = built("x^2-2")
    branch = assign_branch_divisors(cfg, select_m(cfg))
    broken = Configuration(
        cfg.field, cfg.lines, cfg.points[:-1], cfg.incidence[:-1], cfg.marks,
        cfg.seed, cfg.params_consumed, cfg.source,
    )
    with pytest.raises(MissedIntersection):
        check_cover_hypotheses(branch, broken)


def test_hypotheses_with_bare_m():
    # L even and m supported only at alpha: branch divisor is the proper
    # transform alone, so no genericity assumptions are needed
    k = NumberField.create(parse_poly("x^2-2"))
    lines = [line(k, 1, 0, -c) for c in range(3)] + [line(k, 0, 1, -1)]
    cfg = derive_points(lines)
    branch = assign_branch_divisors(cfg, {ALPHA: 4})
    report = check_cover_hypotheses(branch, cfg)
    assert report.proper_transform_smooth
    assert report.genericity_assumptions == ()


# -- ampleness ----------------------------------------------------------------------

def test_ample_certificate_examples():
    assert ample_certificate(PicClass(10, (1, 1, 1))).certified
    v = ample_certificate(PicClass(2, (1, 1, 1)))
    assert not v.certified and "<=" in v.reason
    v = ample_certificate(PicClass(7, (0, 0, 0)))
    assert not v.certified and "E_0" in v.reason


def test_ample_certificate_monotone_in_h():
    rng = random.Random(5)
    for _ in range(40):
        b = tuple(rng.randint(1, 4) for _ in range(5))
        h = rng.randint(1, 25)
        before = ample_certificate(PicClass(h, b)).certified
        after = ample_certificate(PicClass(h + rng.randint(0, 10), b)).certified
        assert after >= before


# -- m selection and the full report ---------------------------------------------------

def test_select_m_certifies(built):
    cfg, _ = built("x^2-2")
    m = select_m(cfg)
    validate_m(m, cfg.line_count)
    branch = assign_branch_divisors(cfg, m)
    classes = compute_M(branch)
    E = sum(cfg.all_valences())
    for chi in group_elements():
        if pairing(chi, ALPHA) == 1:
            assert ample_certificate(classes[chi]).certified
            assert 2 * classes[chi].h > E


def test_select_m_sum_condition(built):
    cfg, _ = built("x^2-2")
    m = select_m(cfg)
    total = ZERO
    for x, v in m.items():
        if v % 2:
            total = total ^ x
    assert total == ZERO


class _Valences:
    """Stand-in for a configuration: only what select_m reads."""

    def __init__(self, line_count, valences):
        self.line_count = line_count
        self._valences = valences

    def all_valences(self):
        return list(self._valences)


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
    # two less keeps the parity, so m stays a valid multiplicity map
    short = {**m, g("011"): m[g("011")] - 2, g("111"): m[g("111")] - 2}
    validate_m(short, cfg.line_count)
    monkeypatch.setattr(cover, "select_m", lambda c: short)
    with pytest.raises(SelfCheckFailed):
        build_cover_report(cfg)
