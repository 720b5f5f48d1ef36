"""Recovery of the encoded number, its forcing, and the Galois separation certificate.

decode reads nothing but valences and coordinates: find the four points
with the most lines, check that they are collinear, take their cross-ratio.
check_forcing runs the gadget recipes over the incidence table of the
multiple points and the marks: every realization of the configuration puts
a root of p there, not the file's alone.
The separation certificate then evaluates the decoded element, the
generator, under every embedding of K: its value discs are the root discs,
which numberfield.isolate_roots proves pairwise disjoint, once. That is the
machine-checkable form of "the conjugate configuration encodes a different
number". Each value is exact at the centre of its root disc, its radius a
majorant over the whole disc, rounded up once (numberfield.embed).
"""

from __future__ import annotations

from fractions import Fraction

from .configuration import Configuration, max_other_valence, valences
from .errors import (
    AmbiguousValences,
    DegenerateQuadruple,
    NotCollinear,
    NotForced,
    ParityViolation,
    PlanecodeError,
)
from .numberfield import Disc, IntPoly, NFElement, embed, isolate_roots
from .pipeline import run_pipeline
from .projgeom import cross_ratio, line
from .slp_compiler import anchor_count, compile_polynomial, realize, seed_objects


LADDER_SHOWN = 6


def _failed(error: type, check: str, detail, entries) -> PlanecodeError:
    """error naming the failed check and showing the top of the valence ladder."""
    shown = ", ".join(f"point {i}: {v}" for i, v in entries[:LADDER_SHOWN])
    return error(f"{check} check failed: {detail}; top of the valence ladder: {shown}")


def _ladder(c: Configuration) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The top of the valence ladder and its top four points, the marks 0, 1, inf and z.

    The marks of c are never consulted; the valence ladder alone must
    single out the quadruple, and any tie among or directly below the top
    four is an error rather than a tie-break. The ladder is the head of
    configuration.valences: valence, highest first, ties by index. It
    shows the stored points; below them come the simple crossings, of 2.
    """
    entries = valences(c)[:LADDER_SHOWN]
    if c.point_count < 4:
        raise _failed(AmbiguousValences, "point count", f"{c.point_count} points, 4 needed", entries)
    ladder = ([v for _, v in entries[:5]] + [2] * min(5, c.simple_count) + [0])[:5]
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
    """A geometry with the hooks of slp_compiler.realize, in a table: objects are indices.

    Building it finds the axis through the four marks and runs
    seed_objects, as check_forcing describes. Each failed lookup and each
    failed check raises NotForced naming self.at, the step under check.
    """

    at = "the seed lines"

    def __init__(self, c: Configuration, J: int):
        self.zero, self.one, self.inf, self.z = marks = _ladder(c)[1]
        self.field, self.rows, self.index = c.field, list(c.incidence), c.line_index
        self.on: list[list[int]] = [[] for _ in c.lines]  # per line, its points
        appends = [points.append for points in self.on]
        for p, rows in enumerate(c.incidence):
            for i in rows:
                appends[i](p)
        axes = set.intersection(*(set(c.incidence[m]) for m in marks))
        self.check(len(axes) == 1, "{} lines pass through all four marks, not one", len(axes))
        (self.axis,) = axes
        seed_objects(self, J)

    def check(self, ok: bool, detail: str, *args) -> None:
        if not ok:
            detail = detail.format(*args)
            raise NotForced(f"the incidences do not force the relation at {self.at}: {detail}")

    def line(self, coeffs, role: str, mark: str) -> int:
        """The index of the file line with these coefficients, which must pass through the mark."""
        l, p = line(self.field, *coeffs), getattr(self, mark)
        self.check(l in self.index, "{} {} is not a line of the file", role, l)
        i = self.index[l]
        self.check(i in self.rows[p], "{} {} misses the mark {}, point {}", role, i, mark, p)
        return i

    def lies_on(self, p: int, i: int) -> bool:
        return i in self.rows[p]

    def meet(self, i: int, j: int, role: str) -> int:
        """The one point whose row holds lines i and j.

        Two lines that share no stored point cross at a simple crossing,
        on them alone, which is named by the next index.
        """
        both = [p for p in self.on[i] if j in self.rows[p]]
        self.check(i != j and len(both) < 2, "{}: lines {} and {} do not meet in one point", role, i, j)
        if not both:
            both = [len(self.rows)]
            self.rows.append((i, j))
            self.on[i] += both
            self.on[j] += both
        return both[0]

    def join(self, p: int, q: int, role: str) -> int:
        """The one line whose row set holds the distinct points p and q."""
        self.check(p != q, "{} would join point {} to itself", role, p)
        both = set(self.rows[p]).intersection(self.rows[q])
        self.check(len(both) == 1, "{}: points {} and {} are not on one line", role, p, q)
        return next(iter(both))


def check_forcing(c: Configuration) -> None:
    """Prove from the incidence table that every realization of c encodes a root of p.

    A realization is a choice of lines, over any field, with the incidences
    of the table; distinct indices are distinct points and lines, which
    the file's own table supplies; two lines that share no point of the
    table meet on no other line. The check runs the recipes of
    slp_compiler over the table, through the hooks of realize: each
    gadget line is the one table line through two named points, each
    point the one point whose row holds two named lines. Only the seed
    lines, the tie lines and each add's line y = h are found by
    coordinates, h from the file's seed. The proof does no arithmetic in
    K; the layout choice alone reads the registers' values in K, once.

    - Seed. The marks 0, 1, inf, z are the top four points of the ladder,
      and the axis is the one line through all four. seed_objects finds
      the y-axis, ell_inf, V and, per anchor j = 1..J, uj, U_j and S_j,
      and checks that they are the seed objects of the von Staudt lemma
      (slp_compiler.add_gadget), whose chart puts z at (w, 0) for
      w = cr(0, 1, inf, z), the number decode reads.
    - Anchors. J and the anchor of each product follow from the program
      and the file's seed, as emission chooses them
      (slp_compiler.anchor_count and split_anchors), so the order of the
      file's lines does not matter. A wrong J can only make the check
      fail, never pass.
    - Gadgets. By the lemma each add and mul lands on the sum or product
      of its operands, given the non-degeneracy conditions its recipe
      checks; every join is of two distinct points.

    So register k sits at (R_k(w), 0), R_k = slp.evaluate(x, 1)[k] the
    polynomial in z built from the gadget kinds alone, whichever anchor
    each product drew on. The registers of P and N must be one point, the
    mark 0 when N = 0, and P - N must be the primitive p: then p(w) = 0
    in every realization. Raises NotForced, naming the register, the
    gadget kind, the anchor of a product, and the line and point that
    broke.
    """
    slp, p, d = compile_polynomial(c.field.source), c.field.source, c.field.n
    poly = slp.evaluate(IntPoly.from_coeffs((0, 1)), IntPoly.from_coeffs((1,)))
    values = [c.field.element([r[i] - Fraction(r[d] * p[i], p[d]) for i in range(d)]) for r in poly]
    t = _Incidences(c, anchor_count(slp, values, c.seed))
    reg = realize(slp, t, c.seed)[0]
    t.at = "the relation P(z) = N(z)"
    rhs = t.zero if slp.rhs is None else reg[slp.rhs]
    t.check(reg[slp.lhs] == rhs, "P lands on point {} and N on point {}", reg[slp.lhs], rhs)
    n = IntPoly.zero() if slp.rhs is None else poly[slp.rhs]
    t.check(poly[slp.lhs] - n == p, "P - N = {} is not {}", poly[slp.lhs] - n, p)


class SeparationCertificate:
    __slots__ = (
        "poly", "seed", "line_count", "mark_valences", "max_other_valence",
        "roots", "values",
    )
    statement = (
        "the incidences force P(z) = N(z), so every realization of the "
        "configuration encodes a root of p; for every pair of embeddings "
        "i != j the decoded invariants differ: the certified value discs "
        "are pairwise disjoint"
    )

    def __init__(
        self,
        poly: IntPoly,
        seed: int,
        line_count: int,
        mark_valences: dict[str, int],
        max_other_valence: int,
        roots: tuple[Disc, ...],
        values: tuple[Disc, ...],
    ):
        self.poly = poly
        self.seed = seed
        self.line_count = line_count
        self.mark_valences = mark_valences
        self.max_other_valence = max_other_valence
        self.roots = roots
        self.values = values


def separation_certificate(p: IntPoly, seed: int = 0) -> SeparationCertificate:
    """Build once, decode, check the forcing, isolate the roots, embed at every root.

    Each claim is checked once and raises when it fails: decode equals the
    generator, the incidences force the relation, and isolate_roots proves
    the root discs pairwise disjoint; each value disc is its root disc (embed).
    """
    cfg = run_pipeline(p, seed=seed)
    decoded = decode(cfg)
    if decoded != cfg.field.gen:
        raise PlanecodeError("decoded element is not the field generator")
    check_forcing(cfg)
    roots = tuple(isolate_roots(p))
    return SeparationCertificate(
        poly=cfg.source,
        seed=seed,
        line_count=cfg.line_count,
        mark_valences={label: cfg.valence(i) for label, i in cfg.marks.items()},
        max_other_valence=max_other_valence(cfg),
        roots=roots,
        values=tuple(embed(decoded, d) for d in roots),
    )
