"""The forcing check: the incidence table alone proves P(z) = N(z) in every realization."""

import importlib
import json
import random
from fractions import Fraction
from functools import cache

import pytest

from planecode import configuration, serialize
from planecode.cli import main
from planecode.configuration import Configuration, derive_points, line_ranks
from planecode.decode import decode
from planecode.errors import NotCollinear, NotForced, UnnamedMark
from planecode.numberfield import NFElement, parse_poly
from planecode.pipeline import run_pipeline
from planecode.projgeom import line, point
from planecode.serialize import config_from_json, config_to_json, dumps_canonical
from planecode.slp_compiler import (
    SLP,
    _Drawn,
    add_gadget,
    compile_polynomial,
    emit_configuration,
    mul_gadget,
    realize,
)
from tests.conftest import canonical
from tests.test_decode import _pencils

GOLDEN_POLYS = ("x^2-2", "x^3-2", "x^2-x-1", "x^4-x-1", "3*x^2-5", "x^5-x-1", "x^7-x-1")
# the polynomials whose digests or line counts are pinned, besides the golden set
PINNED_POLYS = ("x^9-x-1", "x^12-x^5-1", "x^16-x-1", "x^32-x-1", "3*x^3-5*x+7", "x^3-1000003")
# x^2+x+1 and 2*x^3+2*x+1 have no negative coefficient, so N = 0
MORE_POLYS = PINNED_POLYS + ("x^2+x+1", "2*x^3+2*x+1")


# the package binds the name decode to the function, not the module
decode_module = importlib.import_module("planecode.decode")


def _loaded(cfg):
    return config_from_json(config_to_json(cfg))


@cache
def _final_at(text, seed):
    """The loaded final configuration of text at a seed other than 0."""
    return _loaded(run_pipeline(parse_poly(text), seed=seed))


def _raw_line_count(cfg):
    return emit_configuration(compile_polynomial(cfg.source), seed=cfg.seed).line_count


def _moved(cfg, moves):
    """cfg with each (line, from point, to point) moved in the table; None is nowhere.

    The lines and their coordinates stay as they are: only the table changes.
    """
    rows = [set(r) for r in cfg.incidence]
    for i, p, q in moves:
        if p is not None:
            rows[p].remove(i)
        if q is not None:
            rows[q].add(i)
    return Configuration(
        cfg.field, cfg.lines, cfg.points, tuple(tuple(sorted(r)) for r in rows), cfg.marks,
        cfg.seed, cfg.params_consumed,
    )


@pytest.mark.parametrize(
    "text, seed", [(t, s) for t in GOLDEN_POLYS for s in (0, 1, 2)] + [(t, 0) for t in MORE_POLYS]
)
def test_check_passes_on_loaded_final_configurations(built, text, seed):
    decode(_loaded(built(text)[0]) if seed == 0 else _final_at(text, seed))


@pytest.mark.parametrize("text, seed", [(t, s) for t in GOLDEN_POLYS for s in (0, 1, 2)])
def test_the_table_and_the_drawing_name_the_same_objects(built, text, seed):
    # one recipe, two geometries: each index the table names holds what K drew
    cfg = _loaded(built(text)[0]) if seed == 0 else _final_at(text, seed)
    slp = compile_polynomial(cfg.source)
    drawing, table = _Drawn(cfg.field), decode_module._Incidences(cfg)
    drawn_reg, drawn_lines, _ = realize(slp, drawing, seed)
    table_reg, table_lines, _ = realize(slp, table, cfg.seed)
    assert [cfg.points[p] for p in table_reg] == drawn_reg
    assert [{role: cfg.lines[i] for role, i in d.items()} for d in table_lines] == drawn_lines
    for name in ("axis", "yaxis", "linf", "tie"):
        assert cfg.lines[getattr(table, name)] == getattr(drawing, name), name
    for name in ("V", "U", "S", "zero", "one", "z"):
        assert cfg.points[getattr(table, name)] == getattr(drawing, name), name


def test_forcing_check_does_no_field_arithmetic(built, monkeypatch):
    # every gadget line is named by a join in the table, never re-emitted in
    # K, and no register is evaluated in K (SLP.evaluate runs over Z[x]
    # only); the proven number is read by the one cross_ratio at the end
    cfg = _loaded(built("x^7-x-1")[0])
    inside, evaluations, ratios = [], [], []

    def guarded(name):
        real = getattr(NFElement, name)

        def method(*args):
            assert inside, "the forcing check multiplied or inverted in K"
            return real(*args)

        return method

    def evaluate(slp, z, one, real=SLP.evaluate):
        inside.append(z)
        try:
            return real(slp, z, one)
        finally:
            evaluations.append(inside.pop())

    def cross_ratio(*args, real=decode_module.cross_ratio):
        inside.append(None)
        try:
            return real(*args)
        finally:
            ratios.append(inside.pop())

    for name in ("__mul__", "__rmul__", "inv"):
        monkeypatch.setattr(NFElement, name, guarded(name))
    monkeypatch.setattr(SLP, "evaluate", evaluate)
    monkeypatch.setattr(decode_module, "cross_ratio", cross_ratio)
    assert decode(cfg) == cfg.field.gen
    assert evaluations and not any(isinstance(z, NFElement) for z in evaluations)
    assert len(ratios) == 1


def test_marks_on_no_common_line_refuse():
    # the marks are the centres of four pencils, but no line holds them all:
    # the proof has no axis
    with pytest.raises(NotCollinear, match="collinearity check failed") as caught:
        decode(_pencils((10, 8, 6, 4)))
    assert isinstance(caught.value, NotForced)


def test_without_the_unit_line_the_check_refuses(built):
    # without x + y = 1 nothing ties U to the slope -1 direction, so every
    # product is lambda*a*b for a free lambda: z is not forced
    cfg = built("x^2-2")[0]
    unit_line = line(cfg.field, 1, 1, -1)
    rest = derive_points(l for l in cfg.lines if l != unit_line)
    with pytest.raises(NotForced, match="u1"):
        decode(rest)


def test_dropping_any_raw_line_refuses(built):
    cfg = built("x^5-x-1")[0]
    raw = _raw_line_count(cfg)
    assert raw == 16
    accepted = []
    for k in range(raw):
        rest = derive_points(l for i, l in enumerate(cfg.lines) if i != k)
        try:
            decode(rest)
            accepted.append(k)
        except (NotForced, UnnamedMark):  # without the axis no mark is a point
            pass
    assert accepted == []


@pytest.mark.parametrize("text", ["x^2-2", "x^5-x-1"])
def test_deleting_any_gadget_incidence_from_the_table_refuses(built, text):
    # The check reads incidences from the table, never from coordinates:
    # each incidence of a point on three or more raw lines is one that a
    # gadget or the seed needs, so deleting it from the table (the lines
    # and coordinates unchanged) must make the check refuse.
    cfg = built(text)[0]
    raw = _raw_line_count(cfg)
    accepted, tried = [], 0
    for p, row in enumerate(cfg.incidence):
        on_raw = [i for i in row if i < raw]
        if len(on_raw) < 3:
            continue
        for i in on_raw:
            tried += 1
            try:
                decode(_moved(cfg, [(i, p, None)]))
                accepted.append((p, i))
            except NotForced:
                pass
    assert tried > 30
    assert accepted == []


def _degenerate_tables(cfg, text):
    """Tables edited so that one non-degeneracy of the lemma fails: (cfg, expected message)."""
    f = cfg.field

    def pt(x, y, w=1):
        q = point(f, x, y, w)
        return next(i for i, p in enumerate(cfg.points) if p == q)

    def ln(a, b, c):
        return cfg.lines.index(line(f, a, b, c))

    axis, yaxis, u1 = ln(0, 1, 0), ln(1, 0, 0), ln(1, 1, -1)
    zero, one, inf, z = (cfg.marks[k] for k in ("zero", "one", "inf", "z"))
    U, V = pt(0, 1), pt(0, 1, 0)
    if text == "x^2-2":  # registers z, z*z, 1, 1+1; the add draws h = 1001
        g = _Drawn(f)
        l3 = cfg.lines.index(add_gadget(g, g.one, g.one, 1001)[1]["l3"])
        corner = pt(1, 1001)
        return [
            (_moved(cfg, [(u1, U, V)]), "U is point"),
            (_moved(cfg, [(yaxis, None, one), (yaxis, None, inf), (yaxis, None, z),
                          (axis, z, None)]), "also a seed line"),
            (_moved(cfg, [(ln(0, 1, -1001), pt(0, 1001), U)]), "aux is point"),
            # l3 meets ell_inf at the corner (1, 1001), which l4 must join to itself
            (_moved(cfg, [(l3, pt(1, -1001, 0), corner), (ln(0, 0, 1), None, corner)]),
             "join point .* to itself"),
        ]
    # x^3-2: registers z, z*z, z*z*z, 1, 1+1; the line m2 of z*z moves off its output
    g = _Drawn(f)
    m2 = cfg.lines.index(mul_gadget(g, g.z, g.z)[1]["m2"])
    return [(_moved(cfg, [(m2, pt(f.gen * f.gen, 0), zero)]), "an operand is the mark 0")]


@pytest.mark.parametrize("text, case", [("x^2-2", k) for k in range(4)] + [("x^3-2", 0)])
def test_each_non_degeneracy_of_the_lemma_is_tested(built, text, case):
    tampered, message = _degenerate_tables(built(text)[0], text)[case]
    with pytest.raises(NotForced, match=message):
        decode(tampered)


# Each line that the recipes find by its coordinates: its role, the mark it
# must pass through and its coefficients in x^2-2, whose add draws y = 1001.
SEED_PREMISES = [
    ("y-axis", "zero", (1, 0, 0)),
    ("ell_inf", "inf", (0, 0, 1)),
    ("u1", "one", (1, 1, -1)),
    ("hline", "inf", (0, 1, -1001)),
]


def _off_its_mark(cfg, mark, coeffs):
    """cfg with the line of coeffs dropped from the row of the mark, and the line index."""
    i, m = cfg.lines.index(line(cfg.field, *coeffs)), cfg.marks[mark]
    return _moved(cfg, [(i, m, None)]), i


@pytest.mark.parametrize("role, mark, coeffs", SEED_PREMISES, ids=[r for r, *_ in SEED_PREMISES])
def test_a_line_found_by_coordinates_off_its_mark_refuses(built, role, mark, coeffs):
    cfg = built("x^2-2")[0]
    tampered, i = _off_its_mark(cfg, mark, coeffs)
    message = f"{role} {i} misses the mark {mark}, point {cfg.marks[mark]}"
    with pytest.raises(NotForced, match=message):
        decode(tampered)


def test_cli_decode_of_a_y_axis_off_the_mark_0_exits_5(built, tmp_path, capsys, monkeypatch):
    # a file's table follows from its coordinates, so no file holds this
    # table: the CLI reads it from the loader instead
    cfg = built("x^2-2")[0]
    tampered, i = _off_its_mark(cfg, "zero", (1, 0, 0))
    path = tmp_path / "c.json"
    path.write_text(dumps_canonical(config_to_json(cfg)), encoding="utf-8")
    monkeypatch.setattr(importlib.import_module("planecode.cli"), "config_from_json", lambda data: tampered)
    capsys.readouterr()
    assert main(["decode", str(path)]) == 5
    err = capsys.readouterr().err
    assert f"y-axis {i} misses the mark zero, point {cfg.marks['zero']}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["x^5-x-1", "x^2+x+1"])
def test_a_wrong_relation_refuses(built, monkeypatch, text):
    cfg = built(text)[0]
    slp = compile_polynomial(cfg.source)
    # P against itself: one point, but P - P = 0 is not p
    monkeypatch.setattr(
        decode_module, "compile_polynomial",
        lambda p: SLP(slp.instructions, slp.lhs, slp.lhs, slp.source),
    )
    with pytest.raises(NotForced, match="P - N"):
        decode(cfg)
    # P against the register of z, which P does not land on
    monkeypatch.setattr(
        decode_module, "compile_polynomial",
        lambda p: SLP(slp.instructions, slp.lhs, 0, slp.source),
    )
    with pytest.raises(NotForced, match="lands on point"):
        decode(cfg)


def test_cli_decode_of_a_file_with_moved_heights_exits_5(built, tmp_path, capsys):
    data = config_to_json(built("x^5-x-1")[0])
    data["seed"] = 3  # the add gadget draws h = 4001, not 1001
    path = tmp_path / "seed.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    with pytest.raises(NotForced, match="register 5, the add"):
        decode(config_from_json(data))
    capsys.readouterr()
    assert main(["decode", str(path)]) == 5
    captured = capsys.readouterr()
    assert "do not force" in captured.err
    assert "equals the field generator" not in captured.out


def test_a_seed_that_draws_the_same_heights_passes(built):
    # x^2-2 at seed -1 refuses h = 1, the height of U_1, and takes h = 1001,
    # as seed 0 does
    data = config_to_json(built("x^2-2")[0])
    data["seed"] = -1
    decode(config_from_json(data))


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("text", GOLDEN_POLYS + PINNED_POLYS)
def test_pinned_polynomials_decode_and_are_forced(built, text, seed):
    # seed 3 draws other heights and generic lines than seed 0
    cfg = _loaded(built(text)[0]) if seed == 0 else _final_at(text, seed)
    assert decode_module.decode(cfg) == cfg.field.gen
    decode(cfg)
    assert all(len(rows) % 2 == 0 for rows in cfg.incidence)
    assert sorted(line_ranks(cfg)) == list(range(cfg.line_count))


# The gadget lines by role, in the order add_gadget and mul_gadget draw them.
RECIPE_ORDER = ("l2", "hline", "l3", "l4", "t1", "m1", "m2")
# The lines that _lines_beyond_their_recipe finds, by polynomial: register,
# role and old points (x, y). In 3*x^2-5 the product 3 * z^2 draws
# m1 = U 3 through t1 ^ l2 = (1, 2/3), l2 the line x = 1 of the add
# 2 + 1: t1 passes there because z^2 = 5/3 and U is (0, 1), whatever the
# add heights are.
SURVIVORS = {"3*x^2-5": [(6, "m1", {(0, 1), (3, 0), (1, Fraction(2, 3))})]}


def _lines_beyond_their_recipe(cfg):
    """(register, role, old points) of each line with three or more old points, but closures.

    Lines are taken in construction order: the seed lines and the tie
    line, each gadget's lines in recipe order, then augment's in file
    order. An old point of a line is a table point on it that two
    earlier lines already define. A gadget line has at most two, the
    points its recipe names, except at a closure: l4 or m2 has its output
    as a third when that register point is already defined.
    """
    t = decode_module._Incidences(cfg)
    reg, drawn, _ = realize(compile_polynomial(cfg.source), t, cfg.seed)
    roles = dict.fromkeys((t.axis, t.yaxis, t.linf, t.tie), (None, "seed"))
    for k, lines in enumerate(drawn):
        for role in sorted(lines, key=RECIPE_ORDER.index):
            roles.setdefault(lines[role], (k, role))
    for i in range(len(cfg.lines)):
        roles.setdefault(i, (None, "augment"))
    order = {i: n for n, i in enumerate(roles)}
    found = []
    for i, (k, role) in roles.items():
        old = {p for p in t.on[i] if sum(order[j] < order[i] for j in t.rows[p]) >= 2}
        closure = role in ("l4", "m2") and len(old) == 3 and reg[k] in old
        if len(old) >= 3 and not closure:
            found.append((k, role, {canonical(cfg.points[p].coords) for p in old}))
    return found


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("text", GOLDEN_POLYS + ("3*x^3-5*x+7", "x^3-1000003"))
def test_no_line_holds_points_beyond_its_recipe(built, text, seed):
    # with the add heights on the integer grid, 3*x^2-5 had 3 such lines,
    # 3*x^3-5*x+7 3 and x^3-1000003 25 at seed 0
    cfg = _loaded(built(text)[0]) if seed == 0 else _final_at(text, seed)
    expected = [
        (k, role, {canonical(point(cfg.field, x, y).coords) for x, y in old})
        for k, role, old in SURVIVORS.get(text, [])
    ]
    assert _lines_beyond_their_recipe(cfg) == expected


@pytest.mark.parametrize("seed", [-3, 3])
@pytest.mark.parametrize("text", ["x^2-2", "x^7-x-1"])
def test_build_and_decode_at_a_negative_and_a_positive_seed(text, seed, tmp_path, capsys):
    # each has one add: at seed -3 it draws y = -1999, below the axis, and at
    # seed 3 y = 4001
    path = tmp_path / "c.json"
    assert main(["build", "-p", text, f"--seed={seed}", "-o", str(path)]) == 0
    assert main(["decode", str(path)]) == 0
    assert "equals the field generator" in capsys.readouterr().out
    cfg = config_from_json(json.loads(path.read_text(encoding="utf-8")))
    assert cfg.seed == seed
    decode(cfg)


def _point(cfg, x, y, w=1):
    q = point(cfg.field, x, y, w)
    return next(i for i, p in enumerate(cfg.points) if p == q)


def test_an_add_refuses_the_height_of_an_anchor():
    # seed -1 streams 0, 1, ...: the add of x^5-x-1 refuses y = 1000*0 + 1,
    # which meets the y-axis at U, and takes y = 1001
    raw = emit_configuration(compile_polynomial(parse_poly("x^5-x-1")), seed=-1)
    f = raw.field
    assert line(f, 0, 1, -1001) in raw.lines and line(f, 0, 1, -1) not in raw.lines
    assert raw.params_consumed == 2
    cfg = _final_at("x^5-x-1", -1)
    assert decode_module.decode(cfg) == cfg.field.gen
    decode(cfg)


@pytest.mark.parametrize("order", [("z", "one", "zero", "inf"), ("inf", "z", "one", "zero")])
@pytest.mark.parametrize("text", ["x^2-2", "x^5-x-1"])
def test_a_permuted_ladder_order_decodes_and_is_forced(text, order):
    # no order of the marks is read, as a valence ladder once read one: a
    # file names each mark by its row, so a file that lists its labels in
    # another order, its lines shuffled too, names the same points
    cfg = run_pipeline(parse_poly(text), seed=0)
    data = config_to_json(cfg)
    data["marks"] = {label: data["marks"][label] for label in order}
    random.Random(len(text)).shuffle(data["lines"])
    loaded = config_from_json(data)
    assert {label: canonical(loaded.points[p].coords) for label, p in loaded.marks.items()} == {
        label: canonical(cfg.points[p].coords) for label, p in cfg.marks.items()
    }
    assert decode(loaded) == cfg.field.gen


def test_the_check_runs_the_recipe_once(built, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return realize(*args)

    monkeypatch.setattr(decode_module, "realize", counted)
    for text in ("x^9-x-1", "x^5-x-1"):
        calls.clear()
        decode(_loaded(built(text)[0]))
        assert len(calls) == 1


def test_a_broken_shared_anchor_file_names_its_own_failure(built):
    # hline 19, y = 1001, dropped from the row of the mark inf: the refusal
    # names that add
    cfg = _loaded(built("x^9-x-1")[0])
    assert cfg.lines[19] == line(cfg.field, 0, 1, -1001)
    inf = cfg.marks["inf"]
    message = f"register 7, the add .*: hline 19 misses the mark inf, point {inf}"
    with pytest.raises(NotForced, match=message):
        decode(_moved(cfg, [(19, inf, None)]))


def _edited_file(built, tmp_path, keep: bool):
    """The x^5-x-1 file with its fourth line, u1, moved to the end (keep) or deleted.

    Without u1 the type is another one, so its marks are named afresh, by
    the coordinates the build drew them at.
    """
    cfg = built("x^5-x-1")[0]
    assert cfg.lines[3] == line(cfg.field, 1, 1, -1)
    data = config_to_json(cfg)
    u1 = data["lines"].pop(3)
    if keep:
        data["lines"].append(u1)
    else:
        data = config_to_json(derive_points(cfg.lines[:3] + cfg.lines[4:], seed=cfg.seed))
    path = tmp_path / "edited.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    return path


def test_a_file_with_u1_moved_to_the_end_decodes(built, tmp_path, capsys):
    # the marks are named by the type, not by the order of the lines
    path = _edited_file(built, tmp_path, keep=True)
    assert main(["decode", str(path)]) == 0
    assert "equals the field generator" in capsys.readouterr().out


def test_a_file_without_u1_exits_5_naming_it(built, tmp_path):
    # without u1 the mark 1, U and S turn odd, which decode does not
    # check: its proof names the missing tie line
    path = _edited_file(built, tmp_path, keep=False)
    with pytest.raises(NotForced, match=r"at the seed lines: u1 .* is not a line of the file") as caught:
        decode(config_from_json(json.loads(path.read_text(encoding="utf-8"))))
    assert caught.value.exit_code == 5


def test_cli_decode_of_a_file_without_u1_exits_5_naming_it(built, tmp_path, capsys):
    # odd valences do not stop decode: its proof names the missing tie line
    path = _edited_file(built, tmp_path, keep=False)
    capsys.readouterr()
    assert main(["decode", str(path)]) == 5
    out, err = capsys.readouterr()
    assert "u1 [1 : 1 : -1] is not a line of the file" in err
    assert "equals the field generator" not in out
    assert "Traceback" not in err


def test_the_ladder_is_read_once_per_decode_and_per_certify(built, tmp_path, capsys, monkeypatch):
    # the type's refinement, which names the marks where a valence ladder
    # once did, runs once: the loader proves the file's type rigid, the
    # build its own, and decode reads the marks those named
    path = tmp_path / "c.json"
    path.write_text(dumps_canonical(config_to_json(built("x^5-x-1")[0])), encoding="utf-8")
    calls = []
    ranks = configuration.line_ranks

    def counted(c, *args):
        calls.append(c)
        return ranks(c, *args)

    monkeypatch.setattr(configuration, "line_ranks", counted)
    monkeypatch.setattr(serialize, "line_ranks", counted)
    assert main(["decode", str(path)]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["certify", "-p", "x^5-x-1"]) == 0
    assert len(calls) == 1
