from math import comb

import pytest

from planecode import configuration
from planecode.configuration import (
    MARK_LABELS,
    ParamStream,
    amplify_marks,
    augment_even_valence,
    derive_points,
    valences,
)
from planecode.errors import DuplicateLine, GenericityExhausted
from planecode.numberfield import NumberField, parse_poly
from planecode.projgeom import incident, line
from planecode.slp_compiler import compile_polynomial, emit_configuration


@pytest.fixture(scope="module")
def k():
    return NumberField.create(parse_poly("x^2-2"))


@pytest.fixture(scope="module")
def raw_cfg():
    return emit_configuration(compile_polynomial(parse_poly("x^2-2")), seed=0)


def test_param_stream():
    s = ParamStream(seed=3)
    assert [s.next() for _ in range(3)] == [4, 5, 6]
    assert s.cursor == 3


def test_three_generic_lines(k):
    # three simple crossings; two of them are the marks 0 and 1, which are stored
    lines = [line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)]
    cfg = derive_points(lines)
    assert cfg.point_count == 3
    assert len(cfg.points) == 2 and sorted(cfg.marks) == ["one", "zero"]
    assert cfg.all_valences() == [2, 2, 2]
    assert cfg.line_count == 3


def test_three_concurrent_lines(k):
    lines = [line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, 0)]
    cfg = derive_points(lines)
    assert len(cfg.points) == 1
    assert cfg.all_valences() == [3]


def test_duplicate_line_rejected(k):
    with pytest.raises(DuplicateLine):
        derive_points([line(k, 1, 0, 0), line(k, 1, 0, 0)])


def test_derive_deterministic(raw_cfg):
    again = emit_configuration(compile_polynomial(parse_poly("x^2-2")), seed=0)
    assert raw_cfg.lines == again.lines
    assert raw_cfg.points == again.points
    assert raw_cfg.incidence == again.incidence


def test_pair_count_identity(raw_cfg, k):
    for cfg in (
        raw_cfg,
        derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)]),
    ):
        lhs = sum(comb(v, 2) for v in cfg.all_valences())
        assert lhs == comb(cfg.line_count, 2)
        assert min(cfg.all_valences()) >= 2


def test_augment_concurrent_triple(k):
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, 0)])
    out = augment_even_valence(cfg)
    assert out.all_valences() == [4]
    assert out.line_count == 4


def test_augment_identity_when_even(k):
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)])
    assert augment_even_valence(cfg) is cfg


def test_augment_pipeline_all_even(raw_cfg):
    out = augment_even_valence(raw_cfg)
    assert all(v % 2 == 0 for v in out.all_valences())


def test_amplify_ladder(raw_cfg):
    cfg = amplify_marks(augment_even_valence(raw_cfg))
    rep = valences(cfg)
    top = rep[:5]
    vals = [v for _, v in top]
    assert vals[0] > vals[1] > vals[2] > vals[3] > vals[4]
    order = [i for i, _ in top[:4]]
    assert order == [cfg.marks[l] for l in ("zero", "one", "inf", "z")]
    # targets are the minimal even ladder above the rest
    assert vals[0] - vals[1] == vals[1] - vals[2] == vals[2] - vals[3] == 2
    assert all(v % 2 == 0 for v in cfg.all_valences())


def test_augment_and_amplify_leave_their_input_unchanged():
    # each stage extends a copy: the lines and parameters a stage added are
    # the difference of what it returns and what it was given
    def state(c):
        return list(c.lines), list(c.points), list(c.incidence), dict(c.marks), c.params_consumed

    raw = emit_configuration(compile_polynomial(parse_poly("x^5-x-1")), seed=0)
    before = state(raw)
    even = augment_even_valence(raw)
    assert even is not raw and even.line_count > raw.line_count
    assert state(raw) == before
    before = state(even)
    final = amplify_marks(even)
    assert final is not even and final.line_count > even.line_count
    assert final.params_consumed > even.params_consumed
    assert state(even) == before


def test_amplify_requires_even(raw_cfg):
    if any(v % 2 for v in raw_cfg.all_valences()):
        with pytest.raises(ValueError):
            amplify_marks(raw_cfg)


def test_marks_present_and_collinear(raw_cfg, k):
    assert set(raw_cfg.marks) == set(MARK_LABELS)
    axis = line(k, 0, 1, 0)
    marked = [raw_cfg.points[i] for i in raw_cfg.marks.values()]
    assert all(incident(axis, p) for p in marked)
    assert len(set(marked)) == 4


def test_no_duplicate_points_or_lines(raw_cfg):
    cfg = amplify_marks(augment_even_valence(raw_cfg))
    assert len(set(cfg.points)) == len(cfg.points)
    assert len(set(cfg.lines)) == len(cfg.lines)


def test_incidence_reproducible_from_coordinates(raw_cfg):
    # recompute the full boolean matrix and compare with the stored sets
    for i, p in enumerate(raw_cfg.points):
        stored = set(raw_cfg.incidence[i])
        actual = {j for j, l in enumerate(raw_cfg.lines) if incident(l, p)}
        assert stored == actual


def test_points_are_exactly_pairwise_meets(raw_cfg):
    rebuilt = derive_points(raw_cfg.lines)
    assert rebuilt.points == raw_cfg.points
    assert rebuilt.incidence == raw_cfg.incidence


def test_genericity_exhausted(k, monkeypatch):
    # With the budget cut to 64 tries, 71 horizontals pin every candidate
    # line through the horizontal pencil point: candidate y = c always hits
    # the existing point (1, c). The real budget would need a pencil of
    # about RETRY_BUDGET lines, too many for a quick test.
    monkeypatch.setattr(configuration, "RETRY_BUDGET", 64)
    lines = [line(k, 1, 0, -1)] + [line(k, 0, 1, -c) for c in range(1, 72)]
    cfg = derive_points(lines)
    inf_pt_valences = sorted(cfg.all_valences())
    assert inf_pt_valences[-1] == 71
    with pytest.raises(GenericityExhausted):
        augment_even_valence(cfg)


GOLDEN_POLYS = ("x^2-2", "x^3-2", "x^2-x-1", "x^4-x-1", "3*x^2-5", "x^5-x-1", "x^7-x-1")

# Final line counts at seed 0; augment joining fewer odd points, or a longer
# SLP, raises them. x^16-x-1 pins the power table: z^16 costs four squarings.
# Seed-0 L; no polynomial may get worse. x^5-x-1, x^7-x-1, x^16-x-1 and
# x^32-x-1 draw their products on two or three anchors, which lowers the
# ladder base M (50, 53, 53 and 65 on one shared anchor); x^9-x-1,
# x^12-x^5-1 and 3*x^3-5*x+7 keep the shared anchor, where the split
# layout would not lower M.
FINAL_LINES = {
    "x^2-2": 36,
    "x^3-2": 39,
    "x^4-x-1": 39,
    "3*x^2-5": 45,
    "x^5-x-1": 42,
    "x^7-x-1": 45,
    "x^9-x-1": 56,
    "x^12-x^5-1": 56,
    "x^16-x-1": 45,
    "x^32-x-1": 48,
    "3*x^3-5*x+7": 67,
}


@pytest.fixture(scope="module")
def augmented():
    """(raw, augmented) configurations of the golden polynomials, built once."""
    cache = {}

    def get(text):
        if text not in cache:
            raw = emit_configuration(compile_polynomial(parse_poly(text)), seed=0)
            cache[text] = (raw, augment_even_valence(raw))
        return cache[text]

    return get


@pytest.mark.parametrize("text", GOLDEN_POLYS)
def test_augment_keeps_ladder_targets(augmented, text):
    raw, out = augmented(text)
    targets = configuration._ladder_targets(raw)
    assert configuration._ladder_targets(out) == targets
    for label in MARK_LABELS:
        deficit = targets[label] - out.valence(out.marks[label])
        assert deficit >= 0 and deficit % 2 == 0


@pytest.mark.parametrize("text", GOLDEN_POLYS)
def test_augment_joins_pass_through_exactly_their_two_points(augmented, text):
    raw, out = augmented(text)
    old = len(raw.points)
    odd = {i for i, v in enumerate(raw.all_valences()) if v % 2}
    marked = set(raw.marks.values())
    joins = 0
    for k in range(raw.line_count, out.line_count):
        through = [p for p in range(old) if k in out.incidence[p]]
        # exact incidences, not only the derived rows
        assert through == [p for p in range(old) if incident(out.lines[k], out.points[p])]
        if len(through) == 2:
            joins += 1
            assert not set(through) <= marked
            assert set(through) <= odd | marked
        else:
            assert len(through) == 1  # a general line through one odd point
    assert joins > 0
    assert all(v == 2 for v in out.all_valences()[old:])
    assert all(v % 2 == 0 for v in out.all_valences())


@pytest.mark.parametrize("text", sorted(FINAL_LINES))
def test_final_line_count_pinned(built, text):
    cfg, _ = built(text)
    assert cfg.line_count == FINAL_LINES[text]


def test_augment_tries_no_pair_twice(raw_cfg, monkeypatch):
    tried = []
    add_if_generic = configuration.Configuration.add_if_generic

    def record(c, l, through):
        if len(through) == 2:
            tried.append(frozenset(through))
        return add_if_generic(c, l, through)

    monkeypatch.setattr(configuration.Configuration, "add_if_generic", record)
    augment_even_valence(raw_cfg)
    assert tried and len(set(tried)) == len(tried)


def test_augment_pairs_odd_points_without_marks(k):
    # Two triple points, the origin on y = 0 and (1, 2) off it; their join
    # y = 2x passes through no other point, so one line fixes both.
    lines = [
        line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, -1, 0),
        line(k, 1, 0, -1), line(k, 0, 1, -2), line(k, 1, 1, -3),
    ]
    cfg = derive_points(lines)
    assert set(cfg.marks) < set(MARK_LABELS)  # the origin is mark zero, but no ladder
    assert sorted(cfg.all_valences())[-2:] == [3, 3]
    out = augment_even_valence(cfg)
    assert out.line_count == 7
    assert out.lines[6] == line(k, 2, -1, 0)
    assert out.params_consumed == cfg.params_consumed
    assert all(v % 2 == 0 for v in out.all_valences())
