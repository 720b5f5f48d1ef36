"""Recovery of the encoded number and the Galois separation certificate.

decode reads nothing but valences and coordinates: find the four points
with the most lines, check that they are collinear, take their cross-ratio.
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

from .configuration import Configuration, valences
from .errors import (
    AmbiguousValences,
    DegenerateQuadruple,
    NotCollinear,
    ParityViolation,
    PlanecodeError,
    SelfCheckFailed,
)
from .numberfield import Disc, IntPoly, NFElement, embed, isolate_roots
from .pipeline import run_pipeline
from .projgeom import cross_ratio


LADDER_SHOWN = 6


def _failed(error: type, check: str, detail, entries) -> PlanecodeError:
    """error naming the failed check and showing the top of the valence ladder."""
    shown = ", ".join(f"point {i}: {v}" for i, v in entries[:LADDER_SHOWN])
    return error(f"{check} check failed: {detail}; top of the valence ladder: {shown}")


def decode(c: Configuration) -> NFElement:
    """Cross-ratio of the four highest-valence points, in valence order.

    The marks are never consulted; the valence ladder alone must single
    out the quadruple, and any tie among or directly below the top four is
    an error rather than a tie-break. Every valence must be even, as in
    every configuration the pipeline builds: a file whose lines were
    altered usually breaks that, even where the ladder survives.
    """
    entries = valences(c)
    if len(entries) < 4:
        raise _failed(AmbiguousValences, "point count", f"{len(entries)} points, 4 needed", entries)
    ladder = [v for _, v in entries[:5]] + ([0] if len(entries) == 4 else [])
    if not all(ladder[i] > ladder[i + 1] for i in range(4)):
        detail = f"the top five valences {ladder[:5]} do not strictly decrease"
        raise _failed(AmbiguousValences, "strict ladder", detail, entries)
    odd = [i for i, v in entries if v % 2]
    if odd:
        detail = f"{len(odd)} points have an odd valence, the first is point {odd[0]}"
        raise _failed(ParityViolation, "parity", detail, entries)
    pts = [c.points[i] for i, _ in entries[:4]]
    try:
        return cross_ratio(pts[0], pts[1], pts[2], pts[3])
    except NotCollinear as exc:
        raise _failed(NotCollinear, "collinearity", exc, entries) from exc
    except DegenerateQuadruple as exc:
        raise _failed(DegenerateQuadruple, "distinct points", exc, entries) from exc


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
    """Build once, decode, embed at every root, certify disjointness.

    The root discs are isolated once, to the requested precision. The
    decoded element is the generator, so each value disc is its root disc
    and the disjointness of the values is a self-check of that claim.
    """
    cfg = run_pipeline(p, seed=seed)
    decoded = decode(cfg)
    if decoded != cfg.field.gen:
        raise PlanecodeError("decoded element is not the field generator")

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
            "for every pair of embeddings i != j the decoded invariants differ: "
            "the certified value discs are pairwise disjoint"
        ),
    )
