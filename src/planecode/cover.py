"""Divisor bookkeeping for the (Z/2)^3 cover of the blown-up plane.

The plane is blown up at every configuration point; Pic is Z*H plus one
exceptional class E_q per point q, and a class h*H - sum b_q E_q is
written (h, b). With L lines, valences e_q and m = select_m(c), the branch
divisors are D_alpha = (L, e), the proper transform of the line union,
and D_g = (m_g, 0) for every other g, a general curve of degree m_g.
The half classes M_chi = (1/2) sum_g (chi, g) D_g are then, with
S_chi = sum_g (chi, g) m_g, (S_chi / 2, e / 2) when (chi, alpha) = 1 and
(S_chi / 2, 0) otherwise. They are integral when every e_q is even and
every S_chi is even; as the pairing is nondegenerate, the latter is the
constraint sum m_g * g = 0 in (Z/2)^3. Ampleness of M_chi is certified by
a sufficient Nakai-Moishezon criterion.

Every class depends on a point only through its valence, so b holds one
coefficient per valence class of valence_counts(c): the b_q of each point
q of that valence. The simple crossings, which the configuration counts
but does not store, form the class of valence 2.
"""

from __future__ import annotations

from .configuration import Configuration
from .errors import ParityViolation, SelfCheckFailed
from .numberfield import IntPoly
# Unused here; bound only for the planecode.cover.meet probe of perfbench/tracer.py.
from .projgeom import meet  # noqa: F401


# An element of (Z/2)^3, or a character, is an int from 0 to 7: its three
# bits, most significant first, are its coordinates, the group law is ^ and
# the pairing is the dot product mod 2.
ZERO = 0
ALPHA = 0b100
# (valence, number of points) pairs by increasing valence, as valence_counts returns them
ValenceCounts = tuple[tuple[int, int], ...]


def group_elements() -> range:
    return range(8)


def name(g: int) -> str:
    """The coordinates of g as a bit string, alpha = "100"."""
    return format(g, "03b")


def pairing(chi: int, g: int) -> int:
    return (chi & g).bit_count() & 1


def valence_counts(c: Configuration) -> ValenceCounts:
    """The number of points of each valence of c, the simple crossings among those of valence 2."""
    counts = {2: c.simple_count} if c.simple_count else {}
    for rows in c.incidence:
        counts[len(rows)] = counts.get(len(rows), 0) + 1
    return tuple(sorted(counts.items()))


class HypothesisReport:
    """The number of pairs of lines and the recorded assumptions; (i) and (ii) always hold."""

    __slots__ = ("pairs_checked", "genericity_assumptions")
    proper_transform_smooth = True
    independence = (
        "any two distinct nonzero elements of (Z/2)^3 are independent, so the condition "
        "that two branch divisors meet only where their elements are independent holds vacuously"
    )

    def __init__(self, pairs_checked: int, genericity_assumptions: tuple[str, ...]):
        self.pairs_checked = pairs_checked
        self.genericity_assumptions = genericity_assumptions


def check_cover_hypotheses(m: dict[int, int], L: int) -> HypothesisReport:
    """Hypotheses of the branched-cover theorem for L lines, checked or recorded.

    (i) is exact: the proper transforms of the lines are pairwise disjoint
    because every pairwise intersection was blown up, a stored point or a
    simple crossing, whose number is defined by C(L, 2) (simple_count).
    (ii) is a tautology for distinct nonzero elements of (Z/2)^3. (iii)
    concerns general curves that exist only as classes, so it is recorded
    as assumptions.
    """
    assumptions = tuple(
        f"D_{name(g)}: a general smooth plane curve of degree {m[g]} meeting the "
        "lines transversally, through no blown-up point and no triple point"
        for g in group_elements()
        if g not in (ZERO, ALPHA) and m.get(g, 0) > 0
    )
    return HypothesisReport(L * (L - 1) // 2, assumptions)


class AmpleVerdict:
    __slots__ = ("certified", "reason")

    def __init__(self, certified: bool, reason: str):
        self.certified = certified
        self.reason = reason


_AMPLE_JUSTIFICATION = (
    "Nakai-Moishezon on a blow-up of P^2 at distinct points: an irreducible curve "
    "of degree e has multiplicity at most e at each point, so with b_q >= 1 for "
    "all q and h > sum b_q the class meets every curve and itself positively"
)


def ample_certificate(cls: tuple[int, tuple[int, ...]], counts: ValenceCounts) -> AmpleVerdict:
    """Sufficient criterion on (h, b): b_q >= 1 for every blown-up point and h > sum b_q.

    b has one coefficient per valence class of counts.
    """
    h, b = cls
    for x, (v, n) in zip(b, counts):
        if x < 1:
            return AmpleVerdict(False, f"degree on E_q is {x} < 1 at the {n} points of valence {v}")
    total = sum(x * n for x, (_, n) in zip(b, counts))
    if h <= total:
        return AmpleVerdict(False, f"h = {h} <= sum of b_q = {total}")
    return AmpleVerdict(True, _AMPLE_JUSTIFICATION)


def select_m(c: Configuration) -> dict[int, int]:
    """Smallest multiplicity map whose (chi, alpha) = 1 classes all certify.

    Let need = max(0, E + 1 - L) with E = sum e_q, and k the least integer
    >= need with k = L (mod 2). The result is m_011 = m_111 = k and m_g = 0
    for every other free g (g not in {0, alpha}).

    Proof of minimality. Write chi = (1, b, c) for the four characters with
    (chi, alpha) = 1, and F_chi for the sum of m_g over the free g with
    (chi, g) = 1, so that S_chi = L + F_chi and
    M_chi = ((L + F_chi) / 2) H - sum (e_q / 2) E_q. So ampleness
    (h > sum b_q) is F_chi >= need, and integrality is F_chi = L (mod 2);
    together F_chi >= k. Each free g pairs to 1 with exactly two of the
    four chi, so sum_g m_g = (1/2) sum_chi F_chi >= 2k, and the closed form
    reaches that bound. At total 2k every F_chi = k.
    Taking m_001 = m_010 = 0 (lexicographically first along the group
    enumeration) leaves F_111 = m_111, F_101 = m_011 + m_110,
    F_110 = m_011 + m_101 and F_100 = m_101 + m_110 + m_111, which forces
    m_101 = m_110 = 0 and m_011 = m_111 = k: the result is also the
    lexicographic minimum among the maps of least total degree.

    build_cover_report checks the (chi, alpha) = 1 verdicts of the result.
    """
    L = c.line_count
    need = max(0, sum(v * n for v, n in valence_counts(c)) + 1 - L)
    k = need + (need - L) % 2
    m = {g: 0 for g in group_elements()}
    m[ALPHA] = L
    m[0b011] = m[0b111] = k
    return m


class CoverReport:
    __slots__ = (
        "line_count", "valence_counts", "m", "D", "classes", "hypotheses", "ampleness",
        "nef_gap", "source_poly", "seed",
    )

    def __init__(
        self,
        line_count: int,
        valence_counts: ValenceCounts,
        m: dict[int, int],
        D: dict[int, tuple[int, tuple[int, ...]]],
        classes: dict[int, tuple[int, tuple[int, ...]]],
        hypotheses: HypothesisReport,
        ampleness: dict[int, AmpleVerdict],
        nef_gap: tuple[int, ...],
        source_poly: IntPoly,
        seed: int,
    ):
        self.line_count = line_count
        self.valence_counts = valence_counts
        self.m = m
        self.D = D
        self.classes = classes
        self.hypotheses = hypotheses
        self.ampleness = ampleness
        self.nef_gap = nef_gap
        self.source_poly = source_poly
        self.seed = seed


def build_cover_report(c: Configuration) -> CoverReport:
    """Full bookkeeping bundle: m, divisors, half classes, checks, verdicts.

    The classes are written in the closed form of the module docstring.
    An odd valence or an odd S_chi raises ParityViolation; m is select_m's,
    and every (chi, alpha) = 1 class must certify ample, or
    SelfCheckFailed. Nonzero characters with (chi, alpha) = 0 get a pure
    H-multiple, which is nef but trivial on every exceptional curve; they
    are reported as a known gap rather than certified.
    """
    L = c.line_count
    counts = valence_counts(c)
    for v, n in counts:
        if v % 2:
            raise ParityViolation(f"{n} point(s) of odd valence {v}: D_alpha is not divisible by 2")
    m = select_m(c)
    e = tuple(v for v, _ in counts)
    zero_b = (0,) * len(e)
    half_e = tuple(v // 2 for v in e)
    D = {g: (L, e) if g == ALPHA else (m[g], zero_b) for g in group_elements()}
    classes = {}
    for chi in group_elements():
        s = sum(v for g, v in m.items() if pairing(chi, g))
        if s % 2:
            raise ParityViolation(
                f"S_{name(chi)} = {s} is odd: sum m_g * g does not vanish in (Z/2)^3"
            )
        classes[chi] = (s // 2, half_e if pairing(chi, ALPHA) else zero_b)
    hypotheses = check_cover_hypotheses(m, L)
    ampleness = {chi: ample_certificate(classes[chi], counts) for chi in group_elements() if chi}
    nef_gap = tuple(chi for chi in group_elements() if chi and pairing(chi, ALPHA) == 0)
    for chi, verdict in ampleness.items():
        if pairing(chi, ALPHA) == 1 and not verdict.certified:
            raise SelfCheckFailed(f"selected m fails ampleness for chi = {name(chi)}")
    return CoverReport(
        line_count=L,
        valence_counts=counts,
        m=m,
        D=D,
        classes=classes,
        hypotheses=hypotheses,
        ampleness=ampleness,
        nef_gap=nef_gap,
        source_poly=c.source,
        seed=c.seed,
    )
