"""The forcing check: the incidence table alone proves P(z) = N(z) in every realization."""

import importlib
from fractions import Fraction
from functools import cache

import pytest

from planecode import (
    Configuration, NFElement, derive_points, line, parse_poly, point, run_pipeline,
)
from planecode.cli import main
from planecode.decode import check_forcing
from planecode.errors import NotForced
from planecode.serialize import config_from_json, config_to_json, dumps_canonical
from planecode.slp_compiler import (
    SLP,
    _Drawn,
    compile_polynomial,
    emit_add_gadget,
    emit_configuration,
    emit_mul_gadget,
    realize,
)

GOLDEN_POLYS = ("x^2-2", "x^3-2", "x^2-x-1", "x^4-x-1", "3*x^2-5", "x^5-x-1", "x^7-x-1")
# x^2+x+1 and 2*x^3+2*x+1 have no negative coefficient, so N = 0
MORE_POLYS = ("x^16-x-1", "x^32-x-1", "3*x^3-5*x+7", "x^3-1000003", "x^2+x+1", "2*x^3+2*x+1")


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
        cfg.seed, cfg.params_consumed, cfg.source,
    )


@pytest.mark.parametrize(
    "text, seed", [(t, s) for t in GOLDEN_POLYS for s in (0, 1, 2)] + [(t, 0) for t in MORE_POLYS]
)
def test_check_passes_on_loaded_final_configurations(built, text, seed):
    check_forcing(_loaded(built(text)[0]) if seed == 0 else _final_at(text, seed))


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
    for name in ("axis", "yaxis", "linf", "u1"):
        assert cfg.lines[getattr(table, name)] == getattr(drawing, name), name
    for name in ("U", "S", "V", "zero", "one", "z"):
        assert cfg.points[getattr(table, name)] == getattr(drawing, name), name


def test_forcing_check_does_no_field_arithmetic(built, monkeypatch):
    # every gadget line is named by a join in the table, never re-emitted in K
    cfg = _loaded(built("x^7-x-1")[0])

    def refuse(*args):
        raise AssertionError("the forcing check multiplied or inverted in K")

    for name in ("__mul__", "__rmul__", "inv"):
        monkeypatch.setattr(NFElement, name, refuse)
    check_forcing(cfg)


def test_without_the_unit_line_the_check_refuses(built):
    # without x + y = 1 nothing ties U to the slope -1 direction, so every
    # product is lambda*a*b for a free lambda: z is not forced
    cfg = built("x^2-2")[0]
    unit_line = line(cfg.field, 1, 1, -1)
    rest = derive_points((l for l in cfg.lines if l != unit_line), source=cfg.source)
    with pytest.raises(NotForced, match="u1"):
        check_forcing(rest)


def test_dropping_any_raw_line_refuses(built):
    cfg = built("x^5-x-1")[0]
    raw = _raw_line_count(cfg)
    assert raw == 16
    accepted = []
    for k in range(raw):
        rest = derive_points(
            (l for i, l in enumerate(cfg.lines) if i != k), source=cfg.source
        )
        try:
            check_forcing(rest)
            accepted.append(k)
        except NotForced:
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
                check_forcing(_moved(cfg, [(i, p, None)]))
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
    if text == "x^2-2":  # registers z, z*z, 1, 1+1; the add draws h = 2
        l3 = cfg.lines.index(emit_add_gadget(f.one, f.one, Fraction(2)).emitted_lines[1])
        corner, raw = pt(1, 2), _raw_line_count(cfg)
        return [
            (_moved(cfg, [(u1, U, V)]), "U is point"),
            (_moved(cfg, [(yaxis, None, one), (yaxis, None, inf), (yaxis, None, z),
                          (axis, z, None)]), "also a seed line"),
            (_moved(cfg, [(ln(0, 1, -2), pt(0, 2), U)]), "aux is point"),
            # l3 meets ell_inf at the corner (1, 2), which l4 must join to itself;
            # the corner drops its later lines, so that the ladder stays strict
            (_moved(cfg, [(l3, pt(1, -2, 0), corner), (ln(0, 0, 1), None, corner)]
                    + [(i, corner, None) for i in cfg.incidence[corner] if i >= raw]),
             "join point .* to itself"),
        ]
    # x^3-2: registers z, z*z, z*z*z, 1, 1+1; the line m2 of z*z moves off its output
    m2 = cfg.lines.index(emit_mul_gadget(f.gen, f.gen).emitted_lines[2])
    return [(_moved(cfg, [(m2, pt(f.gen * f.gen, 0), zero)]), "an operand is the mark 0")]


@pytest.mark.parametrize("text, case", [("x^2-2", k) for k in range(4)] + [("x^3-2", 0)])
def test_each_non_degeneracy_of_the_lemma_is_tested(built, text, case):
    tampered, message = _degenerate_tables(built(text)[0], text)[case]
    with pytest.raises(NotForced, match=message):
        check_forcing(tampered)


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
        check_forcing(cfg)
    # P against the register of z, which P does not land on
    monkeypatch.setattr(
        decode_module, "compile_polynomial",
        lambda p: SLP(slp.instructions, slp.lhs, 0, slp.source),
    )
    with pytest.raises(NotForced, match="lands on point"):
        check_forcing(cfg)


def test_cli_decode_of_a_file_with_moved_heights_exits_5(built, tmp_path, capsys):
    data = config_to_json(built("x^5-x-1")[0])
    data["seed"] = 3  # the add gadget draws h = 4, not 2
    path = tmp_path / "seed.json"
    path.write_text(dumps_canonical(data), encoding="utf-8")
    with pytest.raises(NotForced, match="register 5, the add"):
        check_forcing(config_from_json(data))
    capsys.readouterr()
    assert main(["decode", str(path)]) == 5
    captured = capsys.readouterr()
    assert "do not force" in captured.err
    assert "equals the field generator" not in captured.out


def test_a_seed_that_draws_the_same_heights_passes(built):
    # x^2-2 at seed -1 refuses h = 0 and h = 1 and takes h = 2, as seed 0 does
    data = config_to_json(built("x^2-2")[0])
    data["seed"] = -1
    check_forcing(config_from_json(data))
