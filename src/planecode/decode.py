"""Recovery of the encoded number, proven forced, and the Galois separation certificate.

decode reads nothing but the marks, the incidence table and coordinates.
The marks are facts of the combinatorial type: a file names each by the
canonical ranks of the lines through it, which loading resolves once the
type is proven rigid (configuration.line_ranks). decode reads the line
through the four marks from the table and runs the gadget recipes over
the incidence table of the multiple points and the marks: every
realization of the configuration puts a root of p there, not the file's
alone. Only then does it take the marks' cross-ratio on that line, the
encoded number: decode does no arithmetic in K before it, and builds no
line in K.
The separation certificate then evaluates the decoded element, the
generator, under every embedding of K: its value discs are the root discs,
which numberfield.isolate_roots proves pairwise disjoint, once. That is the
machine-checkable form of "the conjugate configuration encodes a different
number". Each value is exact at the centre of its root disc, its radius a
majorant over the whole disc, rounded up once (numberfield.embed).
"""

from __future__ import annotations

from .configuration import MARK_LABELS, Configuration
from .errors import NotCollinear, NotForced, SelfCheckFailed, UnnamedMark
from .numberfield import Disc, IntPoly, NFElement, embed, isolate_roots
from .pipeline import run_pipeline
from .projgeom import cross_ratio, line
from .slp_compiler import compile_polynomial, realize, seed_objects


class _Incidences:
    """A geometry with the hooks of slp_compiler.realize, in a table: objects are indices.

    Building it reads the marks of c, takes the one table line through
    all four as the axis and runs seed_objects, as decode describes. A
    mark c does not name raises UnnamedMark, marks on no common line
    NotCollinear; each later failed lookup and failed check raises
    NotForced naming self.at, the step under check.
    """

    at = "the seed lines"

    def __init__(self, c: Configuration):
        missing = [label for label in MARK_LABELS if label not in c.marks]
        if missing:
            raise UnnamedMark(f"the configuration names no point as the mark {', '.join(missing)}")
        marks = [c.marks[label] for label in MARK_LABELS]
        self.zero, self.one, self.inf, self.z = marks
        self.field, self.rows, self.index = c.field, list(c.incidence), c.line_index
        self.on: list[list[int]] = [[] for _ in c.lines]  # per line, its points
        appends = [points.append for points in self.on]
        for p, rows in enumerate(c.incidence):
            for i in rows:
                appends[i](p)
        # two lines share at most one point, so a table with two lines
        # through the marks has no realization either
        axes = set.intersection(*(set(c.incidence[m]) for m in marks))
        if len(axes) != 1:
            raise NotCollinear(
                "collinearity check failed: no one line passes through the marks 0, 1, inf "
                f"and z, points {', '.join(map(str, marks))}"
            )
        self.axis = axes.pop()
        seed_objects(self)

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
    whose row holds two named lines. Only the seed lines and each add's
    line y = h are found by coordinates, h from the file's seed. The proof
    does no arithmetic in K.

    - Marks. The surface of the paper recalls the lines of its
      configuration but not their labels, so the marks 0, 1, inf, z must
      be facts of the combinatorial type T, its lines and multiple points
      (R. Vakil, Invent. Math. 164, 2006). The build and the loader prove
      by colour refinement that T has no automorphism (line_ranks; M.
      Grohe, K. Kersting, M. Mladenov and P. Schweitzer, "Color refinement
      and its applications", 2017), and a file names each mark by the
      canonical ranks of the lines through it. With Aut(T) trivial, the
      space of realizations of T without labels equals the space of
      realizations with them, so the marks decode reads are intrinsic.
    - Seed. The axis is the one line through all four marks (else
      NotCollinear). seed_objects finds the y-axis, ell_inf, the tie line
      u1, V, U and S, and checks that they are the seed objects of the von
      Staudt lemma (slp_compiler.add_gadget), whose chart puts z at (w, 0)
      for w = cr(0, 1, inf, z).
    - Gadgets. By the lemma each add and mul lands on the sum or product
      of its operands, given the non-degeneracy conditions its recipe
      checks; every join is of two distinct points.

    So register k sits at (R_k(w), 0), R_k = slp.evaluate(x, 1)[k] the
    polynomial in z built from the gadget kinds alone. The registers of P
    and N must be one point, the mark 0 when N = 0, and P - N must be the
    primitive p: then p(w) = 0 in every realization. Raises NotForced,
    naming the register, the gadget kind, and the line and point that
    broke. Only then is w read: the cross-ratio of the marks on the
    table's axis, in the file's coordinates.
    """
    slp, p = compile_polynomial(c.field.source), c.field.source
    t = _Incidences(c)
    reg = realize(slp, t, c.seed)[0]
    t.at = "the relation P(z) = N(z)"
    rhs = t.zero if slp.rhs is None else reg[slp.rhs]
    t.check(reg[slp.lhs] == rhs, "P lands on point {} and N on point {}", reg[slp.lhs], rhs)
    poly = slp.evaluate(IntPoly.from_coeffs((0, 1)), IntPoly.from_coeffs((1,)))
    n = IntPoly.zero() if slp.rhs is None else poly[slp.rhs]
    t.check(poly[slp.lhs] - n == p, "P - N = {} is not {}", poly[slp.lhs] - n, p)
    return cross_ratio(c.lines[t.axis], *(c.points[m] for m in (t.zero, t.one, t.inf, t.z)))


class SeparationCertificate:
    __slots__ = ("poly", "seed", "line_count", "roots", "values")
    statement = (
        "the incidences force P(z) = N(z), so every realization of the "
        "configuration encodes a root of p; its combinatorial type has a trivial "
        "automorphism group, shown by discrete colour refinement, so the marks "
        "named by their canonical rows are intrinsic; for every pair of embeddings "
        "i != j the decoded invariants differ: the certified value discs are "
        "pairwise disjoint"
    )

    def __init__(
        self,
        poly: IntPoly,
        seed: int,
        line_count: int,
        roots: tuple[Disc, ...],
        values: tuple[Disc, ...],
    ):
        self.poly = poly
        self.seed = seed
        self.line_count = line_count
        self.roots = roots
        self.values = values


def separation_certificate(p: IntPoly, seed: int = 0) -> SeparationCertificate:
    """Build once, decode, isolate the roots, embed at every root.

    Each claim is checked once and raises when it fails: the type is
    rigid (the build's last stage, configuration.name_marks), the
    incidences force the relation and decode equals the generator (decode), and
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
        roots=roots,
        values=tuple(embed(decoded, d) for d in roots),
    )
