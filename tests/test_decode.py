import importlib
import json
import math
import random

import pytest

from planecode import projgeom
from planecode.cli import main
from planecode.configuration import MARK_LABELS, Configuration, derive_points, line_ranks
from planecode.cover import build_cover_report
from planecode.decode import decode, separation_certificate
from planecode.errors import (
    NotCollinear,
    NotRigid,
    ParityViolation,
    SelfCheckFailed,
    TrivialField,
    UnnamedMark,
)
from planecode.numberfield import NumberField, embed, isolate_roots, parse_poly
from planecode.projgeom import line
from planecode.serialize import (
    certificate_to_json,
    config_from_json,
    config_to_json,
    dumps_canonical,
    loads,
    nf_to_json,
    poly_to_json,
)

from tests.test_golden import GOLDEN


def test_round_trip_x2_minus_2(built):
    cfg, _ = built("x^2-2")
    assert decode(cfg) == cfg.field.gen


def test_round_trip_golden_field(built):
    cfg, _ = built("x^2-x-1")
    assert decode(cfg) == cfg.field.gen


def test_decode_reads_the_axis_from_the_table_and_joins_nothing(built, monkeypatch):
    # the seed-0 file, as the decode command loads it
    cfg = config_from_json(loads(dumps_canonical(config_to_json(built("x^2-2")[0]))))
    joins = []
    join = projgeom.join
    monkeypatch.setattr(projgeom, "join", lambda p, q: joins.append((p, q)) or join(p, q))
    assert decode(cfg) == cfg.field.gen
    assert joins == []


def test_decode_reads_the_marks(built):
    # decode names no mark itself: without the configuration's marks it has no axis
    cfg, _ = built("x^2-2")
    stripped = Configuration(
        cfg.field, cfg.lines, cfg.points, cfg.incidence, {}, cfg.seed, cfg.params_consumed,
    )
    with pytest.raises(UnnamedMark, match="names no point as the mark zero, one, inf, z") as caught:
        decode(stripped)
    assert caught.value.exit_code == 5


def _shuffled(data, seed):
    """A copy of the file data with its lines in another order."""
    data = json.loads(json.dumps(data))
    random.Random(seed).shuffle(data["lines"])
    return data


@pytest.mark.parametrize("text", ["x^2-2", "x^5-x-1", "x^7-x-1"])
def test_a_file_with_its_lines_shuffled_decodes_to_the_same_value(built, text):
    # the marks are named by the canonical ranks of their lines, facts of
    # the type that no order of the lines changes
    cfg, _ = built(text)
    data = config_to_json(cfg)
    for seed in range(3):
        shuffled = _shuffled(data, seed)
        assert shuffled["lines"] != data["lines"]
        assert shuffled["marks"] == data["marks"]
        assert decode(config_from_json(shuffled)) == cfg.field.gen


def test_the_conjugate_file_with_its_lines_shuffled_decodes_to_the_conjugate_root(built):
    # z -> -z sends a + b z to a - b z, and keeps each triple canonical and
    # each incidence: the rows still name the marks, now of the conjugate
    cfg, _ = built("x^2-2")
    data = config_to_json(cfg)
    for line_ in data["lines"]:
        for entry in line_:
            entry[1]["n"] = str(-int(entry[1]["n"]))
    conjugate = config_from_json(_shuffled(data, 1))
    assert decode(conjugate) == -cfg.field.gen


def test_round_trip_non_monic():
    from planecode.pipeline import run_pipeline

    cfg = run_pipeline(parse_poly("2*x^2-3"), seed=0)
    assert decode(cfg) == cfg.field.gen


def test_decode_three_line_config_ambiguous():
    # a triangle: every permutation of its lines is an automorphism, and
    # only the marks 0 and 1 are points of it
    k = NumberField.create(parse_poly("x^2-2"))
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)])
    with pytest.raises(NotRigid, match="1 in all.*: lines 0, 1, 2$"):
        line_ranks(cfg)
    with pytest.raises(UnnamedMark, match="names no point as the mark inf, z"):
        decode(cfg)


def test_decode_four_pencil_tie_ambiguous():
    # four pencils of three lines each: an automorphism exchanges any two
    # lines, and any two centres, so colour refinement leaves one class of
    # twelve lines and the file names no mark by facts of its type
    k = NumberField.create(parse_poly("x^2-2"))
    lines = []
    centres = [(0, 0), (10, 0), (0, 10), (17, 13)]
    slope = 1
    for ax, ay in centres:
        for _ in range(3):
            lines.append(line(k, slope, -1, ay - slope * ax))
            slope += 1
    cfg = derive_points(lines)
    assert [len(rows) for rows in cfg.incidence if len(rows) > 2] == [3, 3, 3, 3]
    with pytest.raises(NotRigid, match="1 in all.*lines 0, 1, 2, 3, 4, 5 and 6 more$"):
        line_ranks(cfg)


def _pencils(sizes):
    """Pencils of the given sizes at four points not on a common line, marked at their centres."""
    k = NumberField.create(parse_poly("x^2-2"))
    lines = []
    centres = [((0, 0), 100), ((1, 0), 200), ((0, 1), 300), ((5, 7), 400)]
    for ((ax, ay), base), size in zip(centres, sizes):
        for i in range(size):
            s = base + i
            lines.append(line(k, s, -1, ay - s * ax))
    cfg = derive_points(lines)
    cfg.marks = {label: cfg.incidence.index(tuple(range(sum(sizes[:n]), sum(sizes[:n + 1]))))
                 for n, label in enumerate(MARK_LABELS)}
    return cfg


def pencils_file(sizes) -> dict:
    """A hand-written configuration file of _pencils(sizes), its mark rows at the centres."""
    cfg = _pencils(sizes)
    return {
        "v": 4, "poly": poly_to_json(cfg.source), "seed": 0, "params_consumed": 0,
        "lines": [[nf_to_json(x) for x in l.coeffs] for l in cfg.lines],
        "marks": {label: list(cfg.incidence[p]) for label, p in cfg.marks.items()},
    }


def test_decode_non_collinear_tops():
    # the marks are the four centres, but no line holds them all
    cfg = _pencils((10, 8, 6, 4))
    # the centres are stored; the other crossings are simple, of valence 2
    assert [len(rows) for rows in cfg.incidence] == [10, 8, 6, 4] and cfg.simple_count > 0
    with pytest.raises(NotCollinear) as err:
        decode(cfg)
    assert str(err.value) == (
        "collinearity check failed: no one line passes through the marks 0, 1, inf and z, "
        "points 0, 1, 2, 3"
    )


def test_decode_odd_valence_refused():
    # 7 and 5 are odd: decode has no parity check, and refuses the centres
    # for lying on no common line; cover, whose D_alpha / 2 needs even
    # valences, refuses the parity
    for sizes in ((8, 7, 6, 5), (8, 5, 6, 7)):
        cfg = _pencils(sizes)
        with pytest.raises(NotCollinear, match="collinearity check failed"):
            decode(cfg)
        with pytest.raises(ParityViolation, match=r"1 point\(s\) of odd valence 5"):
            build_cover_report(cfg)


def test_decode_tie_message_names_check_and_ladder():
    # a tie that colour refinement leaves, a class of lines that is not a
    # singleton, takes the place a tie of the valence ladder had: the
    # refusal names the check, then shows each such class
    data = pencils_file((6, 6, 4, 4))
    with pytest.raises(NotRigid) as err:
        config_from_json(data)
    assert str(err.value).startswith("rigidity check failed: colour refinement leaves classes")
    assert str(err.value).endswith(
        "2 in all, so the type may have an automorphism: "
        "lines 0, 1, 2, 3, 4, 5 and 6 more; lines 12, 13, 14, 15, 16, 17 and 2 more"
    )


def test_a_file_whose_type_has_an_automorphism_exits_5_naming_its_classes(tmp_path, capsys):
    # the lines of each pencil are exchanged by automorphisms, so no mark
    # row is a fact of the type: loading refuses before decode reads a mark
    path = tmp_path / "pencils.json"
    path.write_text(dumps_canonical(pencils_file((10, 8, 6, 4))), encoding="utf-8")
    with pytest.raises(NotRigid):
        config_from_json(loads(path.read_text(encoding="utf-8")))
    capsys.readouterr()
    assert main(["decode", str(path)]) == 5
    err = capsys.readouterr().err
    assert "rigidity check failed" in err and "not singletons, 4 in all" in err
    assert "lines 0, 1, 2, 3, 4, 5 and 4 more; lines 10, 11, 12, 13, 14, 15 and 2 more" in err
    assert "Traceback" not in err


# -- separation certificates -----------------------------------------------------

def test_certificate_x2_minus_2():
    cert = separation_certificate(parse_poly("x^2-2"))
    data = certificate_to_json(cert)
    assert data["equals_generator"] is True and data["pairwise_disjoint"] is True
    reals = sorted(v.center.real for v in cert.values)
    assert abs(reals[0] + 1.4142135624) < 1e-9
    assert abs(reals[1] - 1.4142135624) < 1e-9
    assert all(abs(v.center.imag) < 1e-9 for v in cert.values)


def test_a_build_that_does_not_decode_to_z_is_a_failed_self_check(monkeypatch):
    # the certificate builds its own configuration, so a wrong decode is a
    # defect in planecode: SelfCheckFailed, exit 1
    monkeypatch.setattr(importlib.import_module("planecode.decode"), "decode", lambda c: c.field.one)
    with pytest.raises(SelfCheckFailed, match="decoded element is not the field generator") as caught:
        separation_certificate(parse_poly("x^2-2"))
    assert caught.value.exit_code == 1


def test_certificate_golden_ratio():
    # oracle: the two roots of x^2 - x - 1 are (1 +- sqrt 5)/2
    cert = separation_certificate(parse_poly("x^2-x-1"))
    phi = (1 + math.sqrt(5)) / 2
    reals = sorted(v.center.real for v in cert.values)
    assert abs(reals[0] - (1 - phi)) < 1e-9
    assert abs(reals[1] - phi) < 1e-9


def test_certificate_cbrt2_three_disjoint_discs():
    cert = separation_certificate(parse_poly("x^3-2"))
    assert len(cert.values) == 3
    real = [v for v in cert.values if abs(v.center.imag) < 1e-9]
    cplx = [v for v in cert.values if abs(v.center.imag) >= 1e-9]
    assert len(real) == 1 and len(cplx) == 2
    for i in range(3):
        for j in range(i + 1, 3):
            assert cert.values[i].disjoint_from(cert.values[j])


@pytest.mark.parametrize("text", sorted(GOLDEN))
def test_value_disc_of_the_generator_is_its_root_disc(built, text):
    # z evaluated exactly at the centre w is w, and the majorant of z over
    # the root disc is its radius: embed gives the root disc back unwidened
    cfg, _ = built(text)
    w = decode(cfg)
    for d in isolate_roots(cfg.field.source):
        img = embed(w, d)
        assert (img.center, img.radius) == (d.center, d.radius), text


def test_certificate_records_inputs():
    cert = separation_certificate(parse_poly("x^2-2"), seed=0)
    assert cert.seed == 0
    assert cert.poly == parse_poly("x^2-2")
    assert cert.line_count > 0
    assert "trivial automorphism group, shown by discrete colour refinement" in cert.statement


def test_certificate_degree_one_rejected():
    with pytest.raises(TrivialField):
        separation_certificate(parse_poly("x+3"))


def _numeric_cross_ratio(quad):
    best, pair = None, None
    a, b = quad[0], quad[1]
    for i in range(3):
        for j in range(i + 1, 3):
            minor = abs(a[i] * b[j] - a[j] * b[i])
            if best is None or minor > best:
                best, pair = minor, (i, j)
    i, j = pair

    def params(x):
        return x[i] * b[j] - x[j] * b[i], a[i] * x[j] - a[j] * x[i]

    c1, c2 = params(quad[2])
    d1, d2 = params(quad[3])
    return (c1 * d2) / (c1 * d2 - c2 * d1)


def test_embedding_equivariance(built):
    # embedding the abstract decode equals numerically decoding the embedded points
    cfg, _ = built("x^2-2")
    w = decode(cfg)
    quad_pts = [cfg.points[cfg.marks[label]] for label in MARK_LABELS]
    for e in isolate_roots(cfg.field.source):
        numeric = _numeric_cross_ratio(
            [[embed(c, e).center for c in p.coords] for p in quad_pts]
        )
        img = embed(w, e)
        assert abs(numeric - img.center) <= img.radius + 1e-9
