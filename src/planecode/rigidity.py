"""Does a configuration pin z? A first-order rigidity probe over F_l.

The paper needs every realization of a configuration's incidences to
encode a Galois conjugate of z: moving the lines while keeping every
incidence must not move the cross-ratio cr(0, 1, inf, z) of the marks.
This module tests that property to first order, at the image of the
configuration under the field's residue map K -> F_l (NFElement.residue).

- Each line is a point of the dual plane. In the chart where its first
  coordinate with a nonzero image is 1, the other two coordinates are its
  variables, so L lines give 2L variables.
- A point on k >= 3 lines l_0, ..., l_(k-1) gives the k - 2 conditions
  det(l_0, l_1, l_j) = 0 for j = 2, ..., k-1. Points of valence 2 give
  none. J is the Jacobian of all conditions at the configuration.
- Each mark is the meet of the axis (the line through all four marks)
  with another line through it, so cr(0, 1, inf, z) is a function of the
  variables, and g is the gradient of its logarithm.
- z is pinned to first order when g lies in the row space of J: every
  tangent vector of the realization space then leaves cr unchanged.

What an answer proves. The rank of J mod l is a lower bound for its rank
over K. So when J mod l has full row rank, J has full row rank over K too,
and the realization space is smooth at the configuration, of dimension
2L - rank.
- There, "not pinned" is a proof that the incidences leave z free: g is
  then outside the row space over K as well, so cr varies along the
  realization space.
- There, "pinned" proves the first-order claim for the image of the
  configuration over F_l, and is evidence for it over K: g could leave
  the row space over K by a vector that vanishes mod l. The exact, global
  argument is the von Staudt forcing of the gadgets themselves.
- Below full row rank either answer is evidence, not proof.

Lines added through existing points cannot un-pin z, since cr depends on
lines that are already constrained, so probing the raw configuration of
emit_configuration is enough. Stdlib only; nothing in the package imports
this module. Run as

    python -m planecode.rigidity "x^3-1000003"

to probe the raw seed-0 configuration of a polynomial; the exit status is 0
when it is pinned and 1 when not.
"""

from __future__ import annotations

import argparse
import sys

from .configuration import MARK_INF, MARK_LABELS, MARK_ONE, MARK_ZERO, MARK_Z, Configuration
from .numberfield import parse_poly
from .slp_compiler import compile_polynomial, emit_configuration


class Rigidity:
    """The probe's verdict and the numbers behind it."""

    __slots__ = ("pinned", "rank", "conditions", "ell")

    def __init__(self, pinned: bool, rank: int, conditions: int, ell: int):
        self.pinned = pinned
        self.rank = rank
        self.conditions = conditions
        self.ell = ell

    @property
    def full_rank(self) -> bool:
        """Whether J mod l has full row rank; see the module docstring."""
        return self.rank == self.conditions

    def __str__(self) -> str:
        return (
            f"{'pinned' if self.pinned else 'not pinned'} mod {self.ell}: "
            f"rank {self.rank} of {self.conditions} conditions "
            f"({'full' if self.full_rank else 'not full'})"
        )


def _cross(u, v, ell):
    return (
        (u[1] * v[2] - u[2] * v[1]) % ell,
        (u[2] * v[0] - u[0] * v[2]) % ell,
        (u[0] * v[1] - u[1] * v[0]) % ell,
    )


def _dot(u, v, ell):
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % ell


def _chart_lines(c: Configuration, ell: int):
    """Per line, its image mod l and its chart index, where that image is 1.

    A line is stored in canonical form, its first nonzero coefficient 1, so
    the first nonzero entry of its image is 1 too.
    """
    charts = []
    for l in c.lines:
        rs = [x.residue for x in l.coeffs]
        if None in rs:
            raise ValueError(f"line {l} has no image mod {ell}")
        charts.append((rs, next(k for k, r in enumerate(rs) if r)))
    return charts


def _gradient_row(charts, grads: dict[int, tuple], ell: int) -> dict[int, int]:
    """The row over the variables of a function with gradient grads[i] in line i."""
    row: dict[int, int] = {}
    for i, grad in grads.items():
        k = charts[i][1]
        for slot, col in enumerate(j for j in range(3) if j != k):
            if grad[col] % ell:
                row[2 * i + slot] = grad[col] % ell
    return row


def _conditions(c: Configuration, charts, ell: int) -> list[dict[int, int]]:
    rows = []
    for lines in c.incidence:
        if len(lines) < 3:
            continue
        a, b = charts[lines[0]][0], charts[lines[1]][0]
        ab = _cross(a, b, ell)
        for j in lines[2:]:
            x = charts[j][0]
            grads = {lines[0]: _cross(b, x, ell), lines[1]: _cross(x, a, ell), j: ab}
            rows.append(_gradient_row(charts, grads, ell))
    return rows


def _cross_ratio_gradient(c: Configuration, charts, ell: int) -> dict[int, int]:
    """The gradient of log cr(0, 1, inf, z), each mark the meet of the axis and one line.

    With [p, q] = det(p, q, r) for a fixed point r off the axis,
    cr = [z, 0][1, inf] / ([z, inf][1, 0]), which is z at the marks
    (0 : 0 : 1), (1 : 0 : 1), (1 : 0 : 0) and (z : 0 : 1).
    """
    for label in MARK_LABELS:
        if label not in c.marks:
            raise ValueError(f"configuration is missing mark {label!r}")
    rows = {label: set(c.incidence[c.marks[label]]) for label in MARK_LABELS}
    (axis,) = set.intersection(*rows.values())
    other = {label: min(rows[label] - {axis}) for label in MARK_LABELS}
    A = charts[axis][0]
    r = next(e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if _dot(A, e, ell))
    pts = {label: _cross(A, charts[other[label]][0], ell) for label in MARK_LABELS}
    pairs = (  # (p, q, sign): log cr = sum of sign * log [p, q]
        (MARK_Z, MARK_ZERO, 1), (MARK_ONE, MARK_INF, 1),
        (MARK_Z, MARK_INF, -1), (MARK_ONE, MARK_ZERO, -1),
    )
    grads: dict[int, list[int]] = {}

    def add(i, vec, scale):
        acc = grads.setdefault(i, [0, 0, 0])
        for k in range(3):
            acc[k] = (acc[k] + scale * vec[k]) % ell

    for p, q, sign in pairs:
        bracket = _dot(_cross(pts[p], pts[q], ell), r, ell)
        if not bracket:
            raise ValueError(f"marks {p} and {q} coincide mod {ell}")
        scale = sign * pow(bracket, -1, ell)
        # d[p, q] = (q x r) . dp + (r x p) . dq, and d(A x m) = dA x m + A x dm,
        # so (w . d(A x m)) = (m x w) . dA + (w x A) . dm
        for mark, w in ((p, _cross(pts[q], r, ell)), (q, _cross(r, pts[p], ell))):
            m = charts[other[mark]][0]
            add(axis, _cross(m, w, ell), scale)
            add(other[mark], _cross(w, A, ell), scale)
    return _gradient_row(charts, grads, ell)


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]], ell: int) -> dict[int, int]:
    """row minus the pivot rows that clear each of its pivot columns, in column order.

    A pivot row has 1 at its pivot column and entries only at larger ones,
    so clearing a column adds entries only to the right of it.
    """
    row = dict(row)
    while True:
        col = min((k for k in row if k in pivots), default=None)
        if col is None:
            return row
        f = row.pop(col)
        for k, v in pivots[col].items():
            if k != col:
                w = (row.get(k, 0) - f * v) % ell
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)


def probe(c: Configuration) -> Rigidity:
    """Whether the incidences of c pin cr(0, 1, inf, z) to first order, mod l."""
    rmap = c.field.residue_map
    if rmap is None:
        raise ValueError("the field has no residue map to probe with")
    ell = rmap[0]
    charts = _chart_lines(c, ell)
    rows = _conditions(c, charts, ell)
    gradient = _cross_ratio_gradient(c, charts, ell)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _reduce(row, pivots, ell)
        if not row:
            continue
        col = min(row)
        s = pow(row[col], -1, ell)
        pivots[col] = {k: v * s % ell for k, v in row.items()}
    # with every pivot column cleared, a nonzero remainder is outside the row space
    pinned = not _reduce(gradient, pivots, ell)
    return Rigidity(pinned, len(pivots), len(rows), ell)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m planecode.rigidity",
        description="Probe whether the raw configuration of a polynomial pins z.",
    )
    ap.add_argument("poly")
    args = ap.parse_args(argv)
    cfg = emit_configuration(compile_polynomial(parse_poly(args.poly)))
    result = probe(cfg)
    print(f"{args.poly}: L = {cfg.line_count}, {result}")
    return 0 if result.pinned else 1


if __name__ == "__main__":
    sys.exit(main())
