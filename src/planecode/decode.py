"""Recovery of the encoded number, its forcing, and the Galois separation certificate.

decode reads nothing but valences and coordinates: find the four points
with the most lines, check that they are collinear, take their cross-ratio.
check_forcing proves from the incidence table that every realization of
the configuration puts a root of p there, not only the file's own.
The separation certificate then evaluates the decoded element under every
embedding of K and certifies that the resulting discs are pairwise
disjoint, which is the machine-checkable form of "the conjugate
configuration encodes a different number". Each value is exact at the
centre of its root disc, and its radius is a majorant of the element over
the whole root disc, rounded up once (numberfield.embed).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .configuration import Configuration, ParamStream, valences
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
from .slp_compiler import Add, LoadZ, One, add_height, compile_polynomial, seed_lines


LADDER_SHOWN = 6


def _failed(error: type, check: str, detail, entries) -> PlanecodeError:
    """error naming the failed check and showing the top of the valence ladder."""
    shown = ", ".join(f"point {i}: {v}" for i, v in entries[:LADDER_SHOWN])
    return error(f"{check} check failed: {detail}; top of the valence ladder: {shown}")


def _ladder(c: Configuration) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The valence ladder and its top four points, the marks 0, 1, inf and z.

    The marks of c are never consulted; the valence ladder alone must
    single out the quadruple, and any tie among or directly below the top
    four is an error rather than a tie-break.
    """
    entries = valences(c)
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
    odd = [i for i, v in entries if v % 2]
    if odd:
        detail = f"{len(odd)} points have an odd valence, the first is point {odd[0]}"
        raise _failed(ParityViolation, "parity", detail, entries)
    pts = [c.points[i] for i in marks]
    try:
        return cross_ratio(pts[0], pts[1], pts[2], pts[3])
    except NotCollinear as exc:
        raise _failed(NotCollinear, "collinearity", exc, entries) from exc
    except DegenerateQuadruple as exc:
        raise _failed(DegenerateQuadruple, "distinct points", exc, entries) from exc


class _Incidences:
    """Lookups in the incidence table of a configuration.

    Each failed lookup raises NotForced naming self.at, the register or
    seed step under check.
    """

    def __init__(self, c: Configuration):
        self.index = {l: i for i, l in enumerate(c.lines)}
        self.rows = c.incidence
        self.on: list[set[int]] = [set() for _ in c.lines]
        for p, rows in enumerate(c.incidence):
            for i in rows:
                self.on[i].add(p)
        self.at = "the seed lines"

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
        both = self.on[i] & self.on[j]
        if len(both) != 1:
            raise self.fail(f"{role}: lines {i} and {j} do not meet in one point")
        return next(iter(both))

    def join(self, p: int, q: int, role: str) -> int:
        """The one line whose row set holds the distinct points p and q."""
        if p == q:
            raise self.fail(f"{role} would join point {p} to itself")
        both = set(self.rows[p]).intersection(self.rows[q])
        if len(both) != 1:
            raise self.fail(f"{role}: points {p} and {q} are not on one line")
        return next(iter(both))


def check_forcing(c: Configuration) -> None:
    """Prove from the incidence table that every realization of c encodes a root of p.

    A realization is a choice of lines, over any field, with the incidences
    of the table; distinct indices are distinct points and lines, which
    the file's own table supplies. Every gadget line is named as the lemma
    names it, the one table line through two points already named, and
    every point as the one point whose row holds two named lines. Only the
    seed lines and each add's line y = h are looked up by coordinates, h
    drawn from the file's seed by slp_compiler.add_height as emission
    draws it. No arithmetic in K is done.

    - Seed. The marks 0, 1, inf, z are the top four points of the ladder,
      and the axis is the one line through all four. The y-axis passes
      through 0, ell_inf through inf and u1 through 1; S = u1 ^ ell_inf,
      U = u1 ^ y-axis, V = y-axis ^ ell_inf, and U is neither 0 nor V. In
      any realization there is then one affine chart, ell_inf at infinity,
      with 0 = (0, 0), 1 = (1, 0), U = (0, 1), the axis and y-axis the
      coordinate axes and u1 the line x + y = 1, and z at (w, 0) for
      w = cr(0, 1, inf, z), the number decode reads.
    - Add of registers a and b (von Staudt): l2 = b V is x = b; hline
      through inf is y = h, and aux = hline ^ y-axis = (0, h); l3 = aux a;
      l4 joins (l2 ^ hline) = (b, h) and (l3 ^ ell_inf), so it is the
      parallel of l3 through (b, h) and meets the axis at (a + b, 0).
    - Mul: t1 = b S is x + y = b, so t1 ^ y-axis = (0, b); m1 = U a; m2
      joins (0, b) and (m1 ^ ell_inf), so by similar triangles it meets
      the axis at (a*b, 0).

    The non-degeneracy the lemma needs is tested: the axis, y-axis,
    ell_inf and u1 are four distinct lines; aux is off the axis (h != 0)
    and is neither V (hline is not ell_inf) nor U; no operand is the mark
    0; every join is of two distinct points. So register k sits at
    (R_k(w), 0), with R_k the polynomial in z built from the gadget kinds
    alone. The registers of P and N must be one point, the mark 0 when
    N = 0, and P - N must be the primitive p: then p(w) = 0 in every
    realization. Raises NotForced, naming the register, the gadget kind,
    and the line and point that broke.
    """
    zero, one, inf, z = _ladder(c)[1]
    t = _Incidences(c)
    axes = set.intersection(*(set(c.incidence[m]) for m in (zero, one, inf, z)))
    if len(axes) != 1:
        raise t.fail(f"{len(axes)} lines pass through all four marks, not one")
    (axis,) = axes
    _, yaxis, linf, u1 = seed_lines(c.field)
    yaxis, linf, u1 = t.line(yaxis, "y-axis"), t.line(linf, "ell_inf"), t.line(u1, "u1")
    if axis in (yaxis, linf, u1):
        raise t.fail(f"the line {axis} through the marks is also a seed line")
    for i, role, mark in ((yaxis, "y-axis", zero), (linf, "ell_inf", inf), (u1, "u1", one)):
        if mark not in t.on[i]:
            raise t.fail(f"{role} line {i} misses the mark at point {mark}")
    U, V = t.meet(u1, yaxis, "U"), t.meet(yaxis, linf, "V")
    if U in (zero, V):
        raise t.fail(f"U is point {U}, which is 0 or V")
    S = t.meet(u1, linf, "S")

    slp = compile_polynomial(c.field.source)
    stream = ParamStream(c.seed)
    reg: list[int] = []  # per register, its point and its polynomial in z
    poly: list[IntPoly] = []
    for k, instr in enumerate(slp.instructions):
        if isinstance(instr, (LoadZ, One)):  # a mark, no gadget
            is_z = isinstance(instr, LoadZ)
            reg.append(z if is_z else one)
            poly.append(IntPoly.from_coeffs((0, 1) if is_z else (1,)))
            continue
        kind = "add" if isinstance(instr, Add) else "mul"
        t.at = f"register {k}, the {kind} of registers {instr.left} and {instr.right}"
        a, b = reg[instr.left], reg[instr.right]
        if zero in (a, b):
            raise t.fail(f"an operand is the mark 0, point {zero}")
        if kind == "add":
            l2 = t.join(b, V, "l2")
            hline = t.line(line(c.field, 0, 1, -add_height(stream)), "hline")
            if inf not in t.on[hline]:
                raise t.fail(f"hline {hline} misses the mark inf, point {inf}")
            aux = t.meet(hline, yaxis, "aux")
            if aux in t.on[axis] or aux in (U, V):
                raise t.fail(f"aux is point {aux}, which is on the axis, U or V")
            l3 = t.join(aux, a, "l3")
            l4 = t.join(t.meet(l2, hline, "corner"), t.meet(l3, linf, "l3 direction"), "l4")
            out, value = t.meet(l4, axis, "output"), poly[instr.left] + poly[instr.right]
        else:
            t1, m1 = t.join(b, S, "t1"), t.join(U, a, "m1")
            m2 = t.join(t.meet(t1, yaxis, "lift"), t.meet(m1, linf, "m1 direction"), "m2")
            out, value = t.meet(m2, axis, "output"), poly[instr.left] * poly[instr.right]
        reg.append(out)
        poly.append(value)

    t.at = "the relation P(z) = N(z)"
    rhs = zero if slp.rhs is None else reg[slp.rhs]
    if reg[slp.lhs] != rhs:
        raise t.fail(f"P lands on point {reg[slp.lhs]} and N on point {rhs}")
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
