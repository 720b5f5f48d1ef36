"""The first-order rigidity probe: the incidences pin cr(0, 1, inf, z)."""

import pytest

from planecode import derive_points, line, parse_poly, run_pipeline
from planecode import rigidity
from planecode.configuration import MARK_LABELS
from planecode.slp_compiler import compile_polynomial, emit_configuration

GOLDEN_POLYS = ("x^2-2", "x^3-2", "x^2-x-1", "x^4-x-1", "3*x^2-5", "x^5-x-1", "x^7-x-1")


def _raw(text):
    return emit_configuration(compile_polynomial(parse_poly(text)))


@pytest.mark.parametrize("text", GOLDEN_POLYS + ("3*x^3-5*x+7",))
def test_raw_configuration_pinned(text):
    result = rigidity.probe(_raw(text))
    assert result.pinned, str(result)


def test_finished_configuration_stays_pinned():
    # augment and amplify only add lines through existing points
    assert rigidity.probe(run_pipeline(parse_poly("x^2-2"))).pinned


def test_without_the_unit_line_z_is_free():
    # without x + y = 1 nothing ties U to the slope -1 direction, so every
    # product comes out as lambda*a*b for a free lambda
    cfg = _raw("x^2-2")
    unit_line = line(cfg.field, 1, 1, -1)
    result = rigidity.probe(derive_points(l for l in cfg.lines if l != unit_line))
    assert not result.pinned
    assert result.full_rank  # so this is a proof, not only evidence


def test_cross_ratio_gradient_against_dual_numbers():
    # an independent derivative: evaluate cr over F_l[e]/(e^2), one variable at a time
    cfg = _raw("x^5-x-1")
    ell = cfg.field.residue_map[0]
    charts = rigidity._chart_lines(cfg, ell)
    gradient = rigidity._cross_ratio_gradient(cfg, charts, ell)

    def mul(x, y):
        return x[0] * y[0] % ell, (x[0] * y[1] + x[1] * y[0]) % ell

    def sub(x, y):
        return (x[0] - y[0]) % ell, (x[1] - y[1]) % ell

    def cross(u, v):
        return tuple(
            sub(mul(u[(i + 1) % 3], v[(i + 2) % 3]), mul(u[(i + 2) % 3], v[(i + 1) % 3]))
            for i in range(3)
        )

    def bracket(p, q):  # det(p, q, r) with r = (0 : 1 : 0), which is off the axis y = 0
        return cross(p, q)[1]

    rows = {label: set(cfg.incidence[cfg.marks[label]]) for label in MARK_LABELS}
    (axis,) = set.intersection(*rows.values())
    other = {label: min(rows[label] - {axis}) for label in MARK_LABELS}
    for col in range(2 * len(cfg.lines)):
        i, slot = divmod(col, 2)
        k = charts[i][1]
        j = [t for t in range(3) if t != k][slot]

        def dual(m):
            return tuple((charts[m][0][t], int(m == i and t == j)) for t in range(3))

        pts = {label: cross(dual(axis), dual(other[label])) for label in MARK_LABELS}
        num = mul(bracket(pts["z"], pts["zero"]), bracket(pts["one"], pts["inf"]))
        den = mul(bracket(pts["z"], pts["inf"]), bracket(pts["one"], pts["zero"]))
        cr = num[0] * pow(den[0], -1, ell) % ell
        assert cr == cfg.field.gen.residue  # the convention cr(0, 1, inf, z) = z
        dcr = (num[1] * den[0] - num[0] * den[1]) * pow(den[0], -2, ell) % ell
        assert dcr * pow(cr, -1, ell) % ell == gradient.get(col, 0)


def test_main_exit_status(capsys):
    assert rigidity.main(["x^2-2"]) == 0
    assert "pinned" in capsys.readouterr().out
