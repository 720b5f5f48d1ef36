import random
from math import comb

import pytest

from planecode import configuration, pipeline
from planecode.configuration import (
    MARK_LABELS,
    all_points,
    augment_even_valence,
    derive_points,
    line_ranks,
    name_marks,
)
from planecode.cover import valence_counts
from planecode.errors import DuplicateLine, GenericityExhausted, NotRigid
from planecode.numberfield import NumberField, parse_poly
from planecode.pipeline import amplify_marks
from planecode.projgeom import incident, line, meet, point
from planecode.serialize import config_from_json, config_to_json, dumps_canonical, loads
from planecode.slp_compiler import ADD, compile_polynomial, emit_configuration
from tests.conftest import canonical


@pytest.fixture(scope="module")
def k():
    return NumberField.create(parse_poly("x^2-2"))


@pytest.fixture(scope="module")
def raw_cfg():
    return emit_configuration(compile_polynomial(parse_poly("x^2-2")), seed=0)


def test_three_generic_lines(k):
    # three simple crossings; two of them are the marks 0 and 1, which are stored
    lines = [line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)]
    cfg = derive_points(lines)
    assert cfg.point_count == 3
    assert len(cfg.points) == 2 and sorted(cfg.marks) == ["one", "zero"]
    assert valence_counts(cfg) == ((2, 3),)
    assert cfg.line_count == 3


def test_three_concurrent_lines(k):
    lines = [line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, 0)]
    cfg = derive_points(lines)
    assert len(cfg.points) == 1
    assert valence_counts(cfg) == ((3, 1),)


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
        counts = valence_counts(cfg)
        lhs = sum(n * comb(v, 2) for v, n in counts)
        assert lhs == comb(cfg.line_count, 2)
        assert min(v for v, _ in counts) >= 2


def test_augment_concurrent_triple(k):
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, 0)])
    out = augment_even_valence(cfg)
    assert valence_counts(out) == ((4, 1),)
    assert out.line_count == 4


def test_augment_identity_when_even(k):
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)])
    assert augment_even_valence(cfg) is cfg


def test_augment_pipeline_all_even(raw_cfg):
    out = augment_even_valence(raw_cfg)
    assert all(v % 2 == 0 for v, _ in valence_counts(out))


def test_amplify_ladder(raw_cfg):
    # amplify_marks, the pipeline's name for its last stage, no longer climbs
    # a valence ladder: it proves the type rigid, every line in a class of
    # its own, and adds no line, so the valences stay even
    cfg = amplify_marks(augment_even_valence(raw_cfg))
    assert sorted(line_ranks(cfg)) == list(range(cfg.line_count))
    assert all(v % 2 == 0 for v, _ in valence_counts(cfg))


def test_amplify_requires_even(monkeypatch):
    # the last stage adds no line, so the pipeline hands it augment's even
    # output and returns what it returns: each final valence is even
    seen = []
    monkeypatch.setattr(pipeline, "amplify_marks", lambda c: seen.append(c) or name_marks(c))
    final = pipeline.run_pipeline(parse_poly("x^5-x-1"))
    assert seen == [final]
    assert all(v % 2 == 0 for v, _ in valence_counts(final))


def _four_pencils(k):
    """Pencils of 10, 8, 6 and 4 lines at four points in general position.

    Any two lines of one pencil are exchanged by an automorphism of the type.
    """
    centres = [((0, 0), 100, 10), ((1, 0), 200, 8), ((0, 1), 300, 6), ((5, 7), 400, 4)]
    return derive_points(
        [line(k, s, -1, y - s * x) for (x, y), base, n in centres for s in range(base, base + n)]
    )


def test_the_last_stage_refuses_a_type_with_an_automorphism(k):
    cfg = _four_pencils(k)
    with pytest.raises(GenericityExhausted, match="not singletons, 4 in all") as caught:
        name_marks(cfg)
    assert caught.value.exit_code == 4
    assert "lines 0, 1, 2, 3, 4, 5 and 4 more" in str(caught.value)
    with pytest.raises(NotRigid, match="rigidity check failed") as caught:
        line_ranks(cfg)
    assert caught.value.exit_code == 5


@pytest.mark.parametrize("text", ["x^2-2", "x^5-x-1"])
def test_a_line_keeps_its_rank_when_the_lines_are_shuffled(built, text):
    cfg, _ = built(text)
    lines = list(cfg.lines)
    random.Random(7).shuffle(lines)
    rank = dict(zip(cfg.lines, line_ranks(cfg)))
    assert dict(zip(lines, line_ranks(derive_points(lines)))) == rank


def test_augment_and_amplify_leave_their_input_unchanged():
    # augment extends a copy: the lines and parameters it added are the
    # difference of what it returns and what it was given; the last stage,
    # bound as amplify_marks in the pipeline, adds nothing and returns its input
    def state(c):
        return list(c.lines), list(c.points), list(c.incidence), dict(c.marks), c.params_consumed

    raw = emit_configuration(compile_polynomial(parse_poly("x^5-x-1")), seed=0)
    before = state(raw)
    even = augment_even_valence(raw)
    assert even is not raw and even.line_count > raw.line_count
    assert state(raw) == before
    before = state(even)
    assert amplify_marks(even) is even
    assert state(even) == before


@pytest.mark.parametrize("text, seed", [
    ("x^5-x-1", 0), ("x^5-x-1", 3), ("x^5-x-1", -1),
    # at -5 the heights skip the value 0; at -40 the general lines draw it
    ("x^3-1000003", 0), ("x^3-1000003", -5), ("x^3-1000003", -40),
])
def test_the_cursor_counts_every_parameter(monkeypatch, text, seed):
    # emission draws one height per add, one more where the heights skip 0;
    # augment draws one parameter per try of a general line,
    # and each try is one add_if_generic call through a single point
    slp = compile_polynomial(parse_poly(text))
    adds = sum(kind == ADD for kind, *_ in slp.instructions)
    raw = emit_configuration(slp, seed=seed)
    assert raw.params_consumed == adds + (-adds <= seed <= -1)
    tries = []
    real = configuration.Configuration.add_if_generic

    def counting(c, l, through):
        tries.append(len(through) == 1)
        return real(c, l, through)

    monkeypatch.setattr(configuration.Configuration, "add_if_generic", counting)
    final = name_marks(augment_even_valence(raw))
    assert final.params_consumed - raw.params_consumed == sum(tries)


def test_marks_present_and_collinear(raw_cfg, k):
    assert set(raw_cfg.marks) == set(MARK_LABELS)
    axis = line(k, 0, 1, 0)
    marked = [raw_cfg.points[i] for i in raw_cfg.marks.values()]
    assert all(incident(axis, p) for p in marked)
    assert len({canonical(p.coords) for p in marked}) == 4


def test_no_duplicate_points_or_lines(raw_cfg):
    cfg = name_marks(augment_even_valence(raw_cfg))
    assert len({canonical(p.coords) for p in cfg.points}) == len(cfg.points)
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
    assert max(v for v, _ in valence_counts(cfg)) == 71
    with pytest.raises(GenericityExhausted):
        augment_even_valence(cfg)


GOLDEN_POLYS = ("x^2-2", "x^3-2", "x^2-x-1", "x^4-x-1", "3*x^2-5", "x^5-x-1", "x^7-x-1")

# Final line counts at seed 0; augment joining fewer odd points, or a longer
# SLP, raises them. x^16-x-1 pins the power table: z^16 costs four squarings.
# Seed-0 L; no polynomial may get worse. With the marks named by a rigid
# type, no line serves a valence ladder: L is the raw lines and augment's.
FINAL_LINES = {
    "x^2-2": 17,
    "x^3-2": 20,
    "x^4-x-1": 20,
    "3*x^2-5": 31,
    "x^5-x-1": 23,
    "x^7-x-1": 26,
    "x^9-x-1": 28,
    "x^12-x^5-1": 29,
    "x^16-x-1": 29,
    "x^32-x-1": 33,
    "3*x^3-5*x+7": 48,
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
    # the marks, once the targets of a valence ladder, are points like any
    # other: each odd point, mark or not, gains one line, no even point
    # gains any, and each mark stays where it was
    raw, out = augmented(text)
    for p, rows in enumerate(raw.incidence):
        assert out.valence(p) == len(rows) + len(rows) % 2
    assert out.marks == raw.marks


@pytest.mark.parametrize("text", GOLDEN_POLYS)
def test_augment_joins_pass_through_exactly_their_two_points(augmented, text):
    raw, out = augmented(text)
    old = len(raw.points)
    odd = {i for i, rows in enumerate(raw.incidence) if len(rows) % 2}
    joins = 0
    for k in range(raw.line_count, out.line_count):
        through = [p for p in range(old) if k in out.incidence[p]]
        # exact incidences, not only the derived rows
        assert through == [p for p in range(old) if incident(out.lines[k], out.points[p])]
        if len(through) == 2:
            joins += 1
            assert set(through) <= odd
        else:
            assert len(through) == 1  # a general line through one odd point
    assert joins > 0
    assert all(len(rows) == 2 for rows in out.incidence[old:])
    assert all(v % 2 == 0 for v, _ in valence_counts(out))


@pytest.mark.parametrize("text", sorted(FINAL_LINES))
def test_final_line_count_pinned(built, text):
    cfg, _ = built(text)
    assert cfg.line_count == FINAL_LINES[text]


@pytest.mark.parametrize("text", GOLDEN_POLYS)
def test_find_reads_the_incidence_table(built, text):
    cfg, _ = built(text)
    c = config_from_json(loads(dumps_canonical(config_to_json(cfg))))
    n = len(c.points)
    assert [c.find(q) for q in c.points] == list(range(n))
    assert len(c.points) == n
    # a simple crossing is stored with its two lines
    q, rows = next((q, rows) for q, rows in all_points(c) if rows not in c.incidence)
    assert c.find(q) == n
    assert (c.points[n], c.incidence[n]) == (q, rows)
    # a point on one line, or on none, is not stored
    f = c.field
    on_one = next(
        q for t in range(1000, 2000) for q in [meet(c.lines[0], line(f, 1, 3, t))]
        if sum(incident(m, q) for m in c.lines) == 1
    )
    on_none = next(
        q for t in range(1000, 2000) for q in [point(f, t, -t - 1)]
        if not any(incident(m, q) for m in c.lines)
    )
    assert c.find(on_one) is None and c.find(on_none) is None
    assert len(c.points) == n + 1


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
    assert set(cfg.marks) < set(MARK_LABELS)  # the origin is mark zero
    assert sorted(len(rows) for rows in cfg.incidence)[-2:] == [3, 3]
    out = augment_even_valence(cfg)
    assert out.line_count == 7
    assert out.lines[6] == line(k, 2, -1, 0)
    assert out.params_consumed == cfg.params_consumed
    assert all(v % 2 == 0 for v, _ in valence_counts(out))
