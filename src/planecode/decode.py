"""Recovery of the encoded number, its forcing, and the Galois separation certificate.

decode reads nothing but valences and coordinates: find the four points
with the most lines, check that they are collinear, take their cross-ratio.
check_forcing runs the gadget recipes over the incidence table: every
realization of the configuration puts a root of p there, not the file's alone.
The separation certificate then evaluates the decoded element under every
embedding of K and certifies that the resulting discs are pairwise
disjoint, which is the machine-checkable form of "the conjugate
configuration encodes a different number". Each value is exact at the
centre of its root disc, and its radius is a majorant of the element over
the whole root disc, rounded up once (numberfield.embed).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations

from .configuration import Configuration
from .errors import (
    AmbiguousValences,
    DegenerateQuadruple,
    NotCollinear,
    NotForced,
    ParityViolation,
    PlanecodeError,
    SelfCheckFailed,
)
from .numberfield import Disc, IntPoly, NFElement, embed, isolate_roots
from .pipeline import run_pipeline
from .projgeom import ProjLine, cross_ratio, line
from .slp_compiler import compile_polynomial, realize, seed_lines


LADDER_SHOWN = 6


def _failed(error: type, check: str, detail, entries) -> PlanecodeError:
    """error naming the failed check and showing the top of the valence ladder."""
    shown = ", ".join(f"point {i}: {v}" for i, v in entries[:LADDER_SHOWN])
    return error(f"{check} check failed: {detail}; top of the valence ladder: {shown}")


def _ladder(c: Configuration) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """The top of the valence ladder and its top four points, the marks 0, 1, inf and z.

    The marks of c are never consulted; the valence ladder alone must
    single out the quadruple, and any tie among or directly below the top
    four is an error rather than a tie-break. The ladder orders points by
    valence, highest first, ties by index, as configuration.valences does.
    """
    vals = list(map(len, c.incidence))
    top = heapq.nlargest(LADDER_SHOWN, range(len(vals)), key=vals.__getitem__)
    entries = [(i, vals[i]) for i in top]
    if len(entries) < 4:
        raise _failed(AmbiguousValences, "point count", f"{len(entries)} points, 4 needed", entries)
    ladder = [v for _, v in entries[:5]] + ([0] if len(entries) == 4 else [])
    if not all(ladder[i] > ladder[i + 1] for i in range(4)):
        detail = f"the top five valences {ladder[:5]} do not strictly decrease"
        raise _failed(AmbiguousValences, "strict ladder", detail, entries)
    return entries, tuple(i for i, _ in entries[:4])


def decode(c: Configuration) -> NFElement:
    """Cross-ratio of the four highest-valence points, in valence order (_ladder).

    Every valence must be even, as in every configuration the pipeline
    builds: a file whose lines were altered usually breaks that, even
    where the ladder survives.
    """
    entries, marks = _ladder(c)
    odd = [i for i, rows in enumerate(c.incidence) if len(rows) % 2]
    if odd:
        first = min(odd, key=lambda i: (-len(c.incidence[i]), i))
        detail = f"{len(odd)} points have an odd valence, the first is point {first}"
        raise _failed(ParityViolation, "parity", detail, entries)
    pts = [c.points[i] for i in marks]
    try:
        return cross_ratio(pts[0], pts[1], pts[2], pts[3])
    except NotCollinear as exc:
        raise _failed(NotCollinear, "collinearity", exc, entries) from exc
    except DegenerateQuadruple as exc:
        raise _failed(DegenerateQuadruple, "distinct points", exc, entries) from exc


class _Incidences:
    """The geometry of slp_compiler.realize in a table: objects are indices.

    Building it finds the seed objects, as check_forcing describes. Each
    failed lookup raises NotForced naming self.at, the step under check.
    """

    def __init__(self, c: Configuration):
        zero, one, inf, z = _ladder(c)[1]
        self.field, self.rows, self.at = c.field, c.incidence, "the seed lines"
        self.index = {l: i for i, l in enumerate(c.lines)}
        self.on: list[list[int]] = [[] for _ in c.lines]  # per line, its points
        appends = [points.append for points in self.on]
        for p, rows in enumerate(c.incidence):
            for i in rows:
                appends[i](p)
        axes = set.intersection(*(set(c.incidence[m]) for m in (zero, one, inf, z)))
        if len(axes) != 1:
            raise self.fail(f"{len(axes)} lines pass through all four marks, not one")
        (axis,) = axes
        yaxis, linf, u1 = map(self.line, seed_lines(c.field)[1:], ("y-axis", "ell_inf", "u1"))
        if axis in (yaxis, linf, u1):
            raise self.fail(f"the line {axis} through the marks is also a seed line")
        for i, role, mark in ((yaxis, "y-axis", zero), (linf, "ell_inf", inf), (u1, "u1", one)):
            if i not in c.incidence[mark]:
                raise self.fail(f"{role} line {i} misses the mark at point {mark}")
        U, V = self.meet(u1, yaxis, "U"), self.meet(yaxis, linf, "V")
        if U in (zero, V):
            raise self.fail(f"U is point {U}, which is 0 or V")
        self.axis, self.yaxis, self.linf, self.u1 = axis, yaxis, linf, u1
        self.U, self.S, self.V = U, self.meet(u1, linf, "S"), V
        self.zero, self.one, self.inf, self.z = zero, one, inf, z

    def fail(self, detail: str) -> NotForced:
        return NotForced(f"the incidences do not force the relation at {self.at}: {detail}")

    def line(self, l: ProjLine, role: str) -> int:
        """The index of the file line l, which plays role."""
        if l not in self.index:
            raise self.fail(f"{role} {l} is not a line of the file")
        return self.index[l]

    def meet(self, i: int, j: int, role: str) -> int:
        """The one point whose row holds lines i and j.

        A line named here carries at least two points of the table, so a
        line never passes as its own meet.
        """
        both = [p for p in self.on[i] if j in self.rows[p]]
        if len(both) != 1:
            raise self.fail(f"{role}: lines {i} and {j} do not meet in one point")
        return both[0]

    def join(self, p: int, q: int, role: str) -> int:
        """The one line whose row set holds the distinct points p and q."""
        if p == q:
            raise self.fail(f"{role} would join point {p} to itself")
        both = set(self.rows[p]).intersection(self.rows[q])
        if len(both) != 1:
            raise self.fail(f"{role}: points {p} and {q} are not on one line")
        return next(iter(both))

    def height_line(self, h: Fraction) -> int:
        """The file line y = h, which must pass through the mark inf."""
        hline = self.line(line(self.field, 0, 1, -h), "hline")
        if hline not in self.rows[self.inf]:
            raise self.fail(f"hline {hline} misses the mark inf, point {self.inf}")
        return hline

    def check_operands(self, a: int, b: int) -> None:
        if self.zero in (a, b):
            raise self.fail(f"an operand is the mark 0, point {self.zero}")

    def check_aux(self, aux: int) -> None:
        if self.axis in self.rows[aux] or aux in (self.U, self.V):
            raise self.fail(f"aux is point {aux}, which is on the axis, U or V")


def check_forcing(c: Configuration) -> None:
    """Prove from the incidence table that every realization of c encodes a root of p.

    A realization is a choice of lines, over any field, with the incidences
    of the table; distinct indices are distinct points and lines, which
    the file's own table supplies. The check finds the seed objects, then
    runs the gadget recipes (slp_compiler.realize) over the table: each
    gadget line is the one table line through two named points, each
    point the one point whose row holds two named lines. Only the seed
    lines and each add's line y = h are found by coordinates, h drawn from
    the file's seed as emission draws it. No arithmetic in K is done.

    - Seed. The marks 0, 1, inf, z are the top four points of the ladder,
      and the axis is the one line through all four. The y-axis passes
      through 0, ell_inf through inf and u1 through 1; S = u1 ^ ell_inf,
      U = u1 ^ y-axis, V = y-axis ^ ell_inf, and U is neither 0 nor V.
      These are the seed objects of the von Staudt lemma
      (slp_compiler.add_gadget), whose chart puts z at (w, 0) for
      w = cr(0, 1, inf, z), the number decode reads.
    - Gadgets. By the lemma each add and mul lands on the sum or product
      of its operands, given the non-degeneracy tested here: the axis,
      y-axis, ell_inf and u1 are four distinct lines; aux is off the axis
      and is neither V (hline is not ell_inf) nor U; no operand is the
      mark 0; every join is of two distinct points.

    So register k sits at (R_k(w), 0), R_k = slp.evaluate(x, 1)[k] the
    polynomial in z built from the gadget kinds alone. The registers of P
    and N must be one point, the mark 0 when N = 0, and P - N must be the
    primitive p: then p(w) = 0 in every realization. Raises NotForced,
    naming the register, the gadget kind, and the line and point that
    broke.
    """
    t = _Incidences(c)
    slp = compile_polynomial(c.field.source)
    reg = realize(slp, t, c.seed)[0]
    t.at = "the relation P(z) = N(z)"
    rhs = t.zero if slp.rhs is None else reg[slp.rhs]
    if reg[slp.lhs] != rhs:
        raise t.fail(f"P lands on point {reg[slp.lhs]} and N on point {rhs}")
    poly = slp.evaluate(IntPoly.from_coeffs((0, 1)), IntPoly.from_coeffs((1,)))
    n = IntPoly.zero() if slp.rhs is None else poly[slp.rhs]
    if poly[slp.lhs] - n != c.field.source.primitive():
        raise t.fail(f"P - N = {poly[slp.lhs] - n} is not {c.field.source}")


class SeparationCertificate:
    __slots__ = (
        "poly", "seed", "precision", "line_count", "mark_valences", "max_other_valence",
        "decoded", "equals_generator", "roots", "values", "pairwise_disjoint", "statement"
    )

    def __init__(
        self,
        poly: IntPoly,
        seed: int,
        precision: float,
        line_count: int,
        mark_valences: dict[str, int],
        max_other_valence: int,
        decoded: tuple[Fraction, ...],
        equals_generator: bool,
        roots: tuple[Disc, ...],
        values: tuple[Disc, ...],
        pairwise_disjoint: bool,
        statement: str,
    ):
        self.poly = poly
        self.seed = seed
        self.precision = precision
        self.line_count = line_count
        self.mark_valences = mark_valences
        self.max_other_valence = max_other_valence
        self.decoded = decoded
        self.equals_generator = equals_generator
        self.roots = roots
        self.values = values
        self.pairwise_disjoint = pairwise_disjoint
        self.statement = statement


def separation_certificate(
    p: IntPoly, precision: float = 1e-9, seed: int = 0
) -> SeparationCertificate:
    """Build once, decode, check the forcing, embed at every root, certify disjointness.

    The root discs are isolated once, to the requested precision. The
    decoded element is the generator, so each value disc is its root disc
    and the disjointness of the values is a self-check of that claim.
    """
    cfg = run_pipeline(p, seed=seed)
    decoded = decode(cfg)
    if decoded != cfg.field.gen:
        raise PlanecodeError("decoded element is not the field generator")
    check_forcing(cfg)

    roots = tuple(isolate_roots(p, precision))
    images = tuple(embed(decoded, d) for d in roots)
    if not all(a.disjoint_from(b) for a, b in combinations(images, 2)):
        raise SelfCheckFailed("the value discs of the generator overlap")

    marked = set(cfg.marks.values())
    mark_valences = {label: cfg.valence(i) for label, i in cfg.marks.items()}
    max_other = max(
        (cfg.valence(i) for i in range(len(cfg.points)) if i not in marked), default=0
    )
    return SeparationCertificate(
        poly=cfg.source if cfg.source is not None else p,
        seed=seed,
        precision=precision,
        line_count=cfg.line_count,
        mark_valences=mark_valences,
        max_other_valence=max_other,
        decoded=decoded.coeffs,
        equals_generator=True,
        roots=roots,
        values=images,
        pairwise_disjoint=True,
        statement=(
            "the incidences force P(z) = N(z), so every realization of the "
            "configuration encodes a root of p; for every pair of embeddings "
            "i != j the decoded invariants differ: the certified value discs "
            "are pairwise disjoint"
        ),
    )
