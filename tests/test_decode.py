import math

import pytest

from planecode.configuration import Configuration, derive_points, valences
from planecode.decode import decode, separation_certificate
from planecode.errors import AmbiguousValences, NotCollinear, ParityViolation, TrivialField
from planecode.numberfield import NumberField, embed, isolate_roots, parse_poly
from planecode.projgeom import line
from planecode.serialize import certificate_to_json

from tests.test_golden import GOLDEN


def test_round_trip_x2_minus_2(built):
    cfg, _ = built("x^2-2")
    assert decode(cfg) == cfg.field.gen


def test_round_trip_golden_field(built):
    cfg, _ = built("x^2-x-1")
    assert decode(cfg) == cfg.field.gen


def test_decode_ignores_marks(built):
    cfg, _ = built("x^2-2")
    stripped = Configuration(
        cfg.field, cfg.lines, cfg.points, cfg.incidence, {}, cfg.seed, cfg.params_consumed,
    )
    assert decode(stripped) == cfg.field.gen


def test_round_trip_non_monic():
    from planecode.pipeline import run_pipeline

    cfg = run_pipeline(parse_poly("2*x^2-3"), seed=0)
    assert decode(cfg) == cfg.field.gen


def test_decode_three_line_config_ambiguous():
    k = NumberField.create(parse_poly("x^2-2"))
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)])
    with pytest.raises(AmbiguousValences):
        decode(cfg)


def test_decode_four_pencil_tie_ambiguous():
    # four pencils of three lines each: the top four valences all equal 3
    k = NumberField.create(parse_poly("x^2-2"))
    lines = []
    anchors = [(0, 0), (10, 0), (0, 10), (17, 13)]
    slope = 1
    for ax, ay in anchors:
        for _ in range(3):
            lines.append(line(k, slope, -1, ay - slope * ax))
            slope += 1
    cfg = derive_points(lines)
    rep = valences(cfg)
    assert [v for _, v in rep[:4]] == [3, 3, 3, 3]
    with pytest.raises(AmbiguousValences):
        decode(cfg)


def _pencils(sizes):
    """Pencils of the given sizes at four points not on a common line."""
    k = NumberField.create(parse_poly("x^2-2"))
    lines = []
    anchors = [((0, 0), 100), ((1, 0), 200), ((0, 1), 300), ((5, 7), 400)]
    for ((ax, ay), base), size in zip(anchors, sizes):
        for i in range(size):
            s = base + i
            lines.append(line(k, s, -1, ay - s * ax))
    return derive_points(lines)


def test_decode_non_collinear_tops():
    # even sizes, so the parity check passes and the collinearity check fails
    cfg = _pencils((10, 8, 6, 4))
    rep = valences(cfg)
    # the centres are stored; the other crossings are simple, of valence 2
    assert [v for _, v in rep] == [10, 8, 6, 4] and cfg.simple_count > 0
    with pytest.raises(NotCollinear) as err:
        decode(cfg)
    message = str(err.value)
    assert message.startswith("collinearity check failed")
    shown = ", ".join(f"point {i}: {v}" for i, v in rep[:6])
    assert message.endswith(f"top of the valence ladder: {shown}")


def test_decode_odd_valence_refused():
    # the ladder 8 > 7 > 6 > 5 > 2 is strict, but 7 and 5 are odd
    cfg = _pencils((8, 7, 6, 5))
    with pytest.raises(ParityViolation, match="parity check failed") as err:
        decode(cfg)
    assert str(err.value).count("point ") == 1 + 4  # the odd point, and the four centres
    # the same ladder with the 5-pencil drawn first: the message still names
    # the first odd point in ladder order, not the one of lowest index
    cfg = _pencils((8, 5, 6, 7))
    first = next(i for i, v in valences(cfg) if v % 2)
    assert first != min(i for i, rows in enumerate(cfg.incidence) if len(rows) % 2)
    with pytest.raises(ParityViolation, match=f"the first is point {first};"):
        decode(cfg)


def test_decode_tie_message_names_check_and_ladder():
    k = NumberField.create(parse_poly("x^2-2"))
    cfg = derive_points([line(k, 1, 0, 0), line(k, 0, 1, 0), line(k, 1, 1, -1)])
    # the ladder shows the stored points: the marks 0 and 1, simple crossings
    with pytest.raises(AmbiguousValences, match="point count check failed: 3 points.*point 1: 2$"):
        decode(cfg)
    cfg = _pencils((4, 4, 2, 2))
    with pytest.raises(AmbiguousValences) as err:
        decode(cfg)
    assert str(err.value).startswith("strict ladder check failed")
    shown = ", ".join(f"point {i}: {v}" for i, v in valences(cfg)[:6])
    assert str(err.value).endswith(shown)


# -- separation certificates -----------------------------------------------------

def test_certificate_x2_minus_2():
    cert = separation_certificate(parse_poly("x^2-2"))
    data = certificate_to_json(cert)
    assert data["equals_generator"] is True and data["pairwise_disjoint"] is True
    reals = sorted(v.center.real for v in cert.values)
    assert abs(reals[0] + 1.4142135624) < 1e-9
    assert abs(reals[1] - 1.4142135624) < 1e-9
    assert all(abs(v.center.imag) < 1e-9 for v in cert.values)


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
    assert cert.mark_valences["zero"] > cert.mark_valences["one"]


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
    rep = valences(cfg)
    quad_pts = [cfg.points[i] for i, _ in rep[:4]]
    for e in isolate_roots(cfg.field.source):
        numeric = _numeric_cross_ratio(
            [[embed(c, e).center for c in p.coords] for p in quad_pts]
        )
        img = embed(w, e)
        assert abs(numeric - img.center) <= img.radius + 1e-9
