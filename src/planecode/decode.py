"""Recovery of the encoded number, proven forced, and the Galois separation certificate.

decode reads nothing but valences, the incidence table and coordinates:
find the four points with the most lines, name them as marks by
configuration.LADDER_ORDER, read the line through them from the table,
and run the gadget recipes over the incidence table of the multiple
points and the marks: every realization of the configuration puts a root
of p there, not the file's alone. Only then does it take the marks'
cross-ratio on that line, the encoded number: decode builds no line in K.
The separation certificate then evaluates the decoded element, the
generator, under every embedding of K: its value discs are the root discs,
which numberfield.isolate_roots proves pairwise disjoint, once. That is the
machine-checkable form of "the conjugate configuration encodes a different
number". Each value is exact at the centre of its root disc, its radius a
majorant over the whole disc, rounded up once (numberfield.embed).
"""

from __future__ import annotations

from .configuration import LADDER_ORDER, MARK_LABELS, Configuration, max_other_valence, valences
from .errors import AmbiguousValences, NotCollinear, NotForced, PlanecodeError, SelfCheckFailed
from .numberfield import Disc, IntPoly, NFElement, embed, isolate_roots
from .pipeline import run_pipeline
from .projgeom import cross_ratio, line
from .slp_compiler import anchor_count, compile_polynomial, realize, seed_objects


LADDER_SHOWN = 6


def _failed(error: type, check: str, detail, entries) -> PlanecodeError:
    """error naming the failed check and showing the top of the valence ladder."""
    shown = ", ".join(f"point {i}: {v}" for i, v in entries[:LADDER_SHOWN])
    return error(f"{check} check failed: {detail}; top of the valence ladder: {shown}")


def _ladder(c: Configuration) -> tuple[tuple[tuple[int, int], ...], dict[str, int]]:
    """The top of the valence ladder and its top four points by mark label.

    The marks of c are never consulted; the valence ladder alone must
    single out the quadruple, and any tie among or directly below the top
    four is an error rather than a tie-break. The ladder is the head of
    configuration.valences: valence, highest first, ties by index. It
    shows the stored points; below them come the simple crossings, of 2.
    configuration.LADDER_ORDER names the marks from the bottom of the
    ladder up, so the top four, highest first, are its reverse.
    """
    entries = valences(c)[:LADDER_SHOWN]
    if c.point_count < 4:
        raise _failed(AmbiguousValences, "point count", f"{c.point_count} points, 4 needed", entries)
    ladder = ([v for _, v in entries[:5]] + [2] * min(5, c.simple_count) + [0])[:5]
    if not all(ladder[i] > ladder[i + 1] for i in range(4)):
        detail = f"the top five valences {ladder[:5]} do not strictly decrease"
        raise _failed(AmbiguousValences, "strict ladder", detail, entries)
    return entries, dict(zip(reversed(LADDER_ORDER), (i for i, _ in entries[:4])))


class _Incidences:
    """A geometry with the hooks of slp_compiler.realize, in a table: objects are indices.

    Building it reads the valence ladder (_ladder), takes the one table
    line through the four marks as the axis and runs seed_objects, as
    decode describes. Marks on no common line raise NotCollinear; each
    later failed lookup and failed check raises NotForced naming self.at,
    the step under check.
    """

    at = "the seed lines"

    def __init__(self, c: Configuration, J: int):
        entries, marks = _ladder(c)
        self.zero, self.one, self.inf, self.z = (marks[label] for label in MARK_LABELS)
        self.field, self.rows, self.index = c.field, list(c.incidence), c.line_index
        self.on: list[list[int]] = [[] for _ in c.lines]  # per line, its points
        appends = [points.append for points in self.on]
        for p, rows in enumerate(c.incidence):
            for i in rows:
                appends[i](p)
        # two lines share at most one point, so a table with two lines
        # through the marks has no realization either
        axes = set.intersection(*(set(c.incidence[m]) for m in marks.values()))
        if len(axes) != 1:
            detail = "no line passes through the top four points"
            raise _failed(NotCollinear, "collinearity", detail, entries)
        self.axis = axes.pop()
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


def decode(c: Configuration) -> NFElement:
    """Prove from the incidence table that every realization of c encodes a root of p, and read it.

    A realization is a choice of lines, over any field, with the incidences
    of the table; distinct indices are distinct points and lines, which
    the file's own table supplies; two lines that share no point of the
    table meet on no other line. decode runs the recipes of slp_compiler
    over the table, through the hooks of realize: each gadget line is the
    one table line through two named points, each point the one point
    whose row holds two named lines. Only the seed lines, the tie lines
    and each add's line y = h are found by coordinates, h from the file's
    seed. The proof does no arithmetic in K; the layout choice alone
    reads register values in K (SLP.evaluate).

    - Seed. The marks 0, 1, inf, z are the top four points of the ladder,
      named by configuration.LADDER_ORDER (_ladder), and the axis is the
      one line through all four (else NotCollinear). seed_objects finds
      the y-axis, ell_inf, V and, per anchor j = 1..J, uj, U_j and S_j,
      and checks that they are the seed objects of the von Staudt lemma
      (slp_compiler.add_gadget), whose chart puts z at (w, 0) for
      w = cr(0, 1, inf, z).
    - Anchors. J and the anchor of each product follow from the polynomial
      alone, as emission chooses them (slp_compiler.anchor_count and
      split_anchors), so neither the seed nor the order of the file's
      lines changes them. A wrong J can only make the proof fail, never
      pass.
    - Gadgets. By the lemma each add and mul lands on the sum or product
      of its operands, given the non-degeneracy conditions its recipe
      checks; every join is of two distinct points.

    So register k sits at (R_k(w), 0), R_k = slp.evaluate(x, 1)[k] the
    polynomial in z built from the gadget kinds alone, whichever anchor
    each product drew on. The registers of P and N must be one point, the
    mark 0 when N = 0, and P - N must be the primitive p: then p(w) = 0
    in every realization. Raises NotForced, naming the register, the
    gadget kind, the anchor of a product, and the line and point that
    broke. Only then is w read: the cross-ratio of the marks on the
    table's axis, in the file's coordinates.
    """
    slp, p = compile_polynomial(c.field.source), c.field.source
    t = _Incidences(c, anchor_count(slp, slp.evaluate(c.field.gen, c.field.one)))
    reg = realize(slp, t, c.seed)[0]
    t.at = "the relation P(z) = N(z)"
    rhs = t.zero if slp.rhs is None else reg[slp.rhs]
    t.check(reg[slp.lhs] == rhs, "P lands on point {} and N on point {}", reg[slp.lhs], rhs)
    poly = slp.evaluate(IntPoly.from_coeffs((0, 1)), IntPoly.from_coeffs((1,)))
    n = IntPoly.zero() if slp.rhs is None else poly[slp.rhs]
    t.check(poly[slp.lhs] - n == p, "P - N = {} is not {}", poly[slp.lhs] - n, p)
    return cross_ratio(c.lines[t.axis], *(c.points[m] for m in (t.zero, t.one, t.inf, t.z)))


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
    """Build once, decode, isolate the roots, embed at every root.

    Each claim is checked once and raises when it fails: the incidences
    force the relation and decode equals the generator (decode), and
    isolate_roots proves the root discs pairwise disjoint; each value disc
    is its root disc (embed).
    """
    cfg = run_pipeline(p, seed=seed)
    decoded = decode(cfg)
    if decoded != cfg.field.gen:
        raise SelfCheckFailed("decoded element is not the field generator")
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
