"""The keyed builder against the all-pairs exact derivation it replaced.

derive_points finds the multiple points on a new line by their position on
it mod a prime l, and confirms every match exactly; it stores those and the
marks, and counts the simple crossings. The oracle below computes the exact
meet of every pair of lines instead, and lists every point. The same oracle
judges add_if_generic, which must refuse a line through any point but its
own. On tiny primes keys collide and residues are undefined often, so the
exact fallbacks run too.
"""

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from planecode import numberfield
from planecode.configuration import (
    MARK_INF, MARK_ONE, MARK_Z, MARK_ZERO, _position, all_points, derive_points,
)
from planecode.numberfield import NumberField, parse_poly
from planecode.pipeline import run_pipeline
from planecode.projgeom import incident, join, line, meet, point
from planecode.serialize import config_to_json, dumps_canonical
from tests.conftest import canonical


def _field(text, start=None, tries=None):
    """A field whose residue map is found with the given search settings."""
    with pytest.MonkeyPatch.context() as mp:
        if start is not None:
            mp.setattr(numberfield, "_RESIDUE_PRIME_START", start)
        if tries is not None:
            mp.setattr(numberfield, "_RESIDUE_PRIME_TRIES", tries)
        field = NumberField.create(parse_poly(text))
        field.residue_map  # found now, under the patched settings
    return field


# The default prime, l forced to 7, 11 and 13, and no residue map at all.
FIELDS = {
    "default": _field("x^2-2"),
    "l=7": _field("x^2-2", start=7),
    "l=11": _field("x^3-2", start=11),
    "l=13": _field("x^2-3", start=13),
    "exact": _field("x^2-2", tries=0),
}
EXPECTED_ELL = {"default": 2**61 - 1, "l=7": 7, "l=11": 11, "l=13": 13, "exact": None}


def test_forced_primes():
    for name, field in FIELDS.items():
        rmap = field.residue_map
        assert (rmap and rmap[0]) == EXPECTED_ELL[name]


def _cross(u, v, ell):
    return (
        (u[1] * v[2] - u[2] * v[1]) % ell,
        (u[2] * v[0] - u[0] * v[2]) % ell,
        (u[0] * v[1] - u[1] * v[0]) % ell,
    )


def test_position_keys_a_crossing_by_its_point():
    # every line of P^2(F_7) as w, u and v, its first nonzero entry 1 as in a reduced canonical line
    ell = 7
    lines = [(1, a, b) for a in range(ell) for b in range(ell)]
    lines += [(0, 1, b) for b in range(ell)] + [(0, 0, 1)]
    assert len(lines) == 57
    for w in lines:
        keys = [_position(u, w, ell) for u in lines]
        crossings = [_cross(u, w, ell) for u in lines]
        for u, key, p in zip(lines, keys, crossings):
            assert (key is None) == (u == w)
            for v, other, q in zip(lines, keys, crossings):
                if u != w and v != w:
                    assert (key == other) == (_cross(p, q, ell) == (0, 0, 0)), (u, v, w)


def _oracle(lines):
    """Points, sorted incidence rows and marks from the exact meet of every pair."""
    points, index, rows = [], {}, []
    for k, l in enumerate(lines):
        for i in range(k):
            q = meet(lines[i], l)
            key = canonical(q.coords)
            if key not in index:
                index[key] = len(points)
                points.append(q)
                rows.append(set())
            rows[index[key]].update((i, k))
    f = lines[0].field
    markers = {
        MARK_ZERO: point(f, 0, 0),
        MARK_ONE: point(f, 1, 0),
        MARK_INF: point(f, 1, 0, 0),
        MARK_Z: point(f, f.gen, 0),
    }
    keys = {label: canonical(q.coords) for label, q in markers.items()}
    marks = {label: index[key] for label, key in keys.items() if key in index}
    return points, tuple(tuple(sorted(r)) for r in rows), marks


def _assert_matches_oracle(cfg, lines):
    """cfg stores the oracle's points on three or more lines and its marks, and lists the rest."""
    points, rows, marks = _oracle(lines)
    assert cfg.point_count == len(points)
    assert list(all_points(cfg)) == list(zip(points, rows))
    kept = [i for i, r in enumerate(rows) if len(r) >= 3 or i in marks.values()]
    assert list(cfg.points) == [points[i] for i in kept]
    assert cfg.incidence == [rows[i] for i in kept]
    assert cfg.marks == {label: kept.index(i) for label, i in marks.items()}


# a failing example is reported as drawn: shrinking a configuration takes minutes
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

_small = st.fractions(min_value=-6, max_value=6, max_denominator=14)


@st.composite
def _elements(draw, field):
    return field.element([draw(_small) for _ in range(field.n)])


@st.composite
def _lines(draw, field):
    """The coding axis, pencils through a few shared points, and free lines."""
    gen = field.gen
    centres = [point(field, 0, 0), point(field, 1, 0), point(field, gen, 0), point(field, 1, 0, 0)]
    for _ in range(draw(st.integers(1, 3))):
        centres.append(point(field, draw(_elements(field)), draw(_elements(field))))
    out = [line(field, 0, 1, 0)]
    for centre in draw(st.lists(st.sampled_from(centres), min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 4))):
            aux = point(field, draw(_elements(field)), draw(_elements(field)))
            if aux != centre:
                out.append(join(centre, aux))
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [draw(_elements(field)) for _ in range(3)]
        if any(not c.is_zero for c in coeffs):
            out.append(line(field, *coeffs))
    return list(dict.fromkeys(out))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(data=st.data())
def test_derive_points_matches_the_exact_oracle(name, data):
    field = FIELDS[name]
    lines = data.draw(_lines(field))
    if len(lines) < 2:
        return
    _assert_matches_oracle(derive_points(lines), lines)


@st.composite
def _candidate(draw, cfg):
    """(l, through): l joins the stored points of through to stored points, crossings or others."""
    f, stored = cfg.field, range(len(cfg.points))
    through = draw(st.lists(st.sampled_from(stored), max_size=2, unique=True)) if stored else []
    ends = [cfg.points[i] for i in through]
    while len(ends) < 2:
        kind = draw(st.sampled_from(["stored", "crossing", "free"]))
        if kind == "stored" and stored:
            ends.append(cfg.points[draw(st.sampled_from(stored))])
        elif kind == "crossing":
            pair = st.lists(st.sampled_from(cfg.lines), min_size=2, max_size=2, unique=True)
            ends.append(meet(*draw(pair)))
        else:
            ends.append(point(f, draw(_elements(f)), draw(_elements(f))))
    assume(ends[0] != ends[1])
    return join(*ends), through


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(data=st.data())
def test_add_if_generic_matches_the_exact_oracle(name, data):
    # refused when l meets a stored point outside through, or a simple crossing
    lines = data.draw(_lines(FIELDS[name]))
    assume(len(lines) >= 2)
    cfg = derive_points(lines)
    l, through = data.draw(_candidate(cfg))
    points, _, _ = _oracle(lines)
    kept = {canonical(cfg.points[i].coords) for i in through}
    generic = l not in lines and all(canonical(q.coords) in kept for q in points if incident(l, q))
    before = (list(cfg.lines), list(cfg.points), list(cfg.incidence), dict(cfg.marks))
    assert cfg.add_if_generic(l, list(through)) == generic
    if not generic:
        assert (cfg.lines, cfg.points, cfg.incidence, cfg.marks) == before
        return
    k = len(lines)
    assert cfg.lines == lines + [l] and cfg.points == before[1] and cfg.marks == before[3]
    rows = before[2]
    assert cfg.incidence == [(*r, k) if i in through else r for i, r in enumerate(rows)]
    _assert_matches_oracle(cfg, lines + [l])


def test_a_pencil_on_a_tiny_prime():
    # six lines through (0 : 0 : 1) and three parallels, with l = 7
    field = FIELDS["l=7"]
    lines = [line(field, 0, 1, 0)] + [line(field, 1, c, 0) for c in range(1, 6)]
    lines += [line(field, 1, 1, c) for c in range(1, 4)]
    cfg = derive_points(lines)
    assert max(len(rows) for rows in cfg.incidence) == 6
    _assert_matches_oracle(cfg, lines)


def test_only_multiple_points_and_marks_are_stored(built):
    # x^3-1000003 (L = 159) has 11,317 points; 119 of them are stored
    cfg, _ = built("x^3-1000003")
    assert cfg.point_count == 11_317
    assert len(cfg.points) == 119
    marked = set(cfg.marks.values())
    assert all(len(rows) >= 3 or i in marked for i, rows in enumerate(cfg.incidence))


@pytest.mark.parametrize("text", ["x^2-2", "x^3-2", "x^5-x-1"])
def test_pipeline_without_residue_map_equals_default(built, monkeypatch, text):
    default, _ = built(text)
    monkeypatch.setattr(numberfield, "_RESIDUE_PRIME_TRIES", 0)
    exact = run_pipeline(parse_poly(text))
    assert exact.field.residue_map is None
    assert dumps_canonical(config_to_json(exact)) == dumps_canonical(config_to_json(default))
    assert exact.incidence == default.incidence
    assert exact.points == default.points
