"""Divisor bookkeeping for the (Z/2)^3 cover of the blown-up plane.

The plane is blown up at every configuration point; Pic is Z*H plus one
exceptional class E_q per point q. The branch assignment takes D_alpha to
the proper transform of the line union (class L*H - sum e_q E_q) and every
other nonzero D_g to m_g * H for a general degree-m_g curve, where the
multiplicity map m satisfies m_0 = 0, m_alpha = L and sum m_g * g = 0.
That last constraint makes every class sum (chi, g) D_g even, so the half
classes M_chi are integral; ampleness of M_chi is certified by a sufficient
Nakai-Moishezon criterion.
"""

from __future__ import annotations

from .configuration import Configuration, check_pair_count
from .errors import InvalidMMap, ParityViolation, SelfCheckFailed
# Unused here; bound only for the planecode.cover.meet probe of perfbench/tracer.py.
from .projgeom import meet  # noqa: F401


# An element of (Z/2)^3, or a character, is an int from 0 to 7: its three
# bits, most significant first, are its coordinates, the group law is ^ and
# the pairing is the dot product mod 2.
ZERO = 0
ALPHA = 0b100


def group_elements() -> range:
    return range(8)


def name(g: int) -> str:
    """The coordinates of g as a bit string, alpha = "100"."""
    return format(g, "03b")


def pairing(chi: int, g: int) -> int:
    return (chi & g).bit_count() & 1


class PicClass:
    """The class h*H - sum_q b_q E_q on the blow-up, immutable."""

    __slots__ = ("h", "b")

    def __init__(self, h: int, b: tuple[int, ...]):
        _set_h(self, h)
        _set_b(self, b)

    def __setattr__(self, name, value):
        raise AttributeError(f"PicClass is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not PicClass:
            return NotImplemented
        return self.h == other.h and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.h, self.b))

    @classmethod
    def zero(cls, npoints: int) -> "PicClass":
        return cls(0, (0,) * npoints)

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.h + other.h, tuple(x + y for x, y in zip(self.b, other.b)))

    @property
    def all_even(self) -> bool:
        return self.h % 2 == 0 and all(x % 2 == 0 for x in self.b)

    def half(self) -> "PicClass":
        if not self.all_even:
            raise ParityViolation(f"class with h = {self.h} is not divisible by 2")
        return PicClass(self.h // 2, tuple(x // 2 for x in self.b))


_set_h = PicClass.h.__set__
_set_b = PicClass.b.__set__


class BranchData:
    __slots__ = ("m", "D", "line_count", "point_valences")

    def __init__(
        self,
        m: dict[int, int],
        D: dict[int, PicClass],
        line_count: int,
        point_valences: tuple[int, ...],
    ):
        self.m = m
        self.D = D
        self.line_count = line_count
        self.point_valences = point_valences


def validate_m(m: dict[int, int], line_count: int) -> None:
    """The three constraints: m_0 = 0, m_alpha = L, sum m_g * g = 0."""
    for g, v in m.items():
        if not isinstance(v, int) or v < 0:
            raise InvalidMMap(f"m_{name(g)} = {v!r} is not a nonnegative integer")
    if m.get(ZERO, 0) != 0:
        raise InvalidMMap(f"m_0 = {m[ZERO]}, must be 0")
    if m.get(ALPHA, 0) != line_count:
        raise InvalidMMap(f"m_alpha = {m.get(ALPHA, 0)}, must equal L = {line_count}")
    total = ZERO
    for g in group_elements():
        if m.get(g, 0) % 2 == 1:
            total ^= g
    if total:
        raise InvalidMMap(f"sum m_g * g = {name(total)}, must vanish in (Z/2)^3")


def assign_branch_divisors(c: Configuration, m: dict[int, int]) -> BranchData:
    """D_alpha is the proper transform class; other D_g are m_g * H."""
    L = c.line_count
    validate_m(m, L)
    e = tuple(c.all_valences())
    npoints = len(e)
    D: dict[int, PicClass] = {}
    for g in group_elements():
        if g == ZERO:
            D[g] = PicClass.zero(npoints)
        elif g == ALPHA:
            D[g] = PicClass(L, e)
        else:
            D[g] = PicClass(m.get(g, 0), (0,) * npoints)
    full_m = {g: m.get(g, 0) for g in group_elements()}
    return BranchData(m=full_m, D=D, line_count=L, point_valences=e)


def compute_M(b: BranchData) -> dict[int, PicClass]:
    """Half of sum_g (chi, g) D_g for each character, after an evenness check.

    Any odd coefficient indicates an upstream fault (odd valence or an
    invalid multiplicity map) and raises ParityViolation.
    """
    npoints = len(b.point_valences)
    out: dict[int, PicClass] = {}
    for chi in group_elements():
        raw = PicClass.zero(npoints)
        for g in group_elements():
            if pairing(chi, g):
                raw = raw + b.D[g]
        if not raw.all_even:
            raise ParityViolation(
                f"sum (chi, g) D_g for chi = {name(chi)} has an odd coefficient"
            )
        out[chi] = raw.half()
    return out


class HypothesisReport:
    __slots__ = (
        "proper_transform_smooth", "pairs_checked", "independence", "genericity_assumptions"
    )

    def __init__(
        self,
        proper_transform_smooth: bool,
        pairs_checked: int,
        independence: str,
        genericity_assumptions: tuple[str, ...],
    ):
        self.proper_transform_smooth = proper_transform_smooth
        self.pairs_checked = pairs_checked
        self.independence = independence
        self.genericity_assumptions = genericity_assumptions


def check_cover_hypotheses(b: BranchData, c: Configuration) -> HypothesisReport:
    """Hypotheses of the branched-cover theorem, checked or recorded.

    (i) is exact: the proper transforms of the lines are pairwise disjoint
    because every pairwise intersection was blown up. Every pair of lines
    is counted at exactly one point (configuration.derive_points, also on
    load), so this is the pair-count identity sum_q C(e_q, 2) = C(L, 2),
    kept as a cheap self-check; MissedIntersection otherwise. (ii) is a
    tautology for distinct nonzero elements of (Z/2)^3. (iii) concerns
    general curves that exist only as classes, so it is recorded as
    assumptions.
    """
    pairs = check_pair_count(c)
    assumptions = []
    for g in group_elements():
        if g in (ZERO, ALPHA):
            continue
        if b.m.get(g, 0) > 0:
            assumptions.append(
                f"D_{name(g)}: a general smooth plane curve of degree {b.m[g]} meeting the "
                "lines transversally, through no blown-up point and no triple point"
            )
    return HypothesisReport(
        proper_transform_smooth=True,
        pairs_checked=pairs,
        independence=(
            "any two distinct nonzero elements of (Z/2)^3 are independent, so the "
            "condition 'D_g meets D_g' only for independent g, g'' holds vacuously"
        ),
        genericity_assumptions=tuple(assumptions),
    )


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


def ample_certificate(cls: PicClass) -> AmpleVerdict:
    """Sufficient criterion: b_q >= 1 for every blown-up point and h > sum b_q."""
    low = [q for q, x in enumerate(cls.b) if x < 1]
    if low:
        return AmpleVerdict(
            False, f"degree on exceptional curve E_{low[0]} is {cls.b[low[0]]} < 1"
        )
    total = sum(cls.b)
    if cls.h <= total:
        return AmpleVerdict(False, f"h = {cls.h} <= sum of b_q = {total}")
    return AmpleVerdict(True, _AMPLE_JUSTIFICATION)


def select_m(c: Configuration) -> dict[int, int]:
    """Smallest multiplicity map whose (chi, alpha) = 1 classes all certify.

    Let need = max(0, E + 1 - L) with E = sum e_q, and k the least integer
    >= need with k = L (mod 2). The result is m_011 = m_111 = k and m_g = 0
    for every other free g (g not in {0, alpha}).

    Proof of minimality. Write chi = (1, b, c) for the four characters with
    (chi, alpha) = 1, and S_chi for the sum of m_g over the free g with
    (chi, g) = 1. Then M_chi = ((L + S_chi) / 2) H - sum (e_q / 2) E_q, so
    ampleness (h > sum b_q) is S_chi >= need, and integrality is
    S_chi = L (mod 2); together S_chi >= k. Each free g pairs to 1 with
    exactly two of the four chi, so sum_g m_g = (1/2) sum_chi S_chi >= 2k,
    and the closed form reaches that bound. At total 2k every S_chi = k.
    Taking m_001 = m_010 = 0 (lexicographically first along the group
    enumeration) leaves S_111 = m_111, S_101 = m_011 + m_110,
    S_110 = m_011 + m_101 and S_100 = m_101 + m_110 + m_111, which forces
    m_101 = m_110 = 0 and m_011 = m_111 = k: the result is also the
    lexicographic minimum among the maps of least total degree.

    build_cover_report checks the (chi, alpha) = 1 verdicts of the result.
    """
    L = c.line_count
    need = max(0, sum(c.all_valences()) + 1 - L)
    k = need + (need - L) % 2
    m = {g: 0 for g in group_elements()}
    m[ALPHA] = L
    m[0b011] = m[0b111] = k
    return m


class CoverReport:
    __slots__ = ("branch", "classes", "hypotheses", "ampleness", "nef_gap", "source_poly", "seed")

    def __init__(
        self,
        branch: BranchData,
        classes: dict[int, PicClass],
        hypotheses: HypothesisReport,
        ampleness: dict[int, AmpleVerdict],
        nef_gap: tuple[int, ...],
        source_poly: object = None,
        seed: int = 0,
    ):
        self.branch = branch
        self.classes = classes
        self.hypotheses = hypotheses
        self.ampleness = ampleness
        self.nef_gap = nef_gap
        self.source_poly = source_poly
        self.seed = seed


def build_cover_report(c: Configuration) -> CoverReport:
    """Full bookkeeping bundle: m, divisors, half classes, checks, verdicts.

    m is select_m's, and every (chi, alpha) = 1 class must certify ample,
    or SelfCheckFailed. Nonzero characters with (chi, alpha) = 0 get a pure
    H-multiple, which is nef but trivial on every exceptional curve; they
    are reported as a known gap rather than certified.
    """
    branch = assign_branch_divisors(c, select_m(c))
    classes = compute_M(branch)
    hypotheses = check_cover_hypotheses(branch, c)
    ampleness = {chi: ample_certificate(classes[chi]) for chi in group_elements() if chi}
    nef_gap = tuple(chi for chi in group_elements() if chi and pairing(chi, ALPHA) == 0)
    for chi, verdict in ampleness.items():
        if pairing(chi, ALPHA) == 1 and not verdict.certified:
            raise SelfCheckFailed(f"selected m fails ampleness for chi = {name(chi)}")
    return CoverReport(
        branch=branch,
        classes=classes,
        hypotheses=hypotheses,
        ampleness=ampleness,
        nef_gap=nef_gap,
        source_poly=c.source,
        seed=c.seed,
    )
