"""Line configurations: derived intersection points, valences, augmentation.

A configuration is its lines. Everything else is derived from them by one
code path, _Builder.add_line: the points are the pairwise meets of the
lines, computed exactly in K, and a point's incidence row is the set of
lines whose meets produced it. find_marks then looks up the four marked
points 0, 1, inf, z of the coding axis among those points. The builder
derives a configuration this way, and so does loading a configuration
file, which stores only the lines (see serialize).

Two passes turn the raw gadget output into the final object:
augment_even_valence makes every valence even, amplify_marks pushes the
four marks to the strict top of the valence ladder.

New "general" lines take their free parameters from a deterministic
rational stream, and genericity is checked exactly, never assumed: a
candidate is rejected if it hits any existing point other than its target.
`incident` screens most of those tests with residues mod a prime, but a
residue only ever proves a value nonzero, i.e. a miss; every hit, and every
test the residues cannot settle, is decided by exact arithmetic in K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DuplicateLine, GenericityExhausted, MissedIntersection, SelfCheckFailed
from .numberfield import IntPoly, NumberField
from .projgeom import ProjLine, ProjPoint, incident, join, meet, point

RETRY_BUDGET = 64

MARK_ZERO = "zero"
MARK_ONE = "one"
MARK_INF = "inf"
MARK_Z = "z"
MARK_LABELS = (MARK_ZERO, MARK_ONE, MARK_INF, MARK_Z)


class ParamStream:
    """Deterministic rational parameters 1 + seed + k for k = 0, 1, 2, ..."""

    def __init__(self, seed: int = 0, start: int = 0):
        self.seed = seed
        self.cursor = start

    def next(self) -> Fraction:
        value = Fraction(1 + self.seed + self.cursor)
        self.cursor += 1
        return value


@dataclass(frozen=True)
class Configuration:
    field: NumberField
    lines: tuple[ProjLine, ...]
    points: tuple[ProjPoint, ...]
    incidence: tuple[tuple[int, ...], ...]  # per point: sorted incident line indices
    marks: dict[str, int]
    seed: int = 0
    params_consumed: int = 0
    source: IntPoly | None = None

    def valence(self, point_index: int) -> int:
        return len(self.incidence[point_index])

    def all_valences(self) -> list[int]:
        return [len(rows) for rows in self.incidence]

    @property
    def line_count(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class ValenceReport:
    """(point index, valence) pairs, highest valence first."""

    entries: tuple[tuple[int, int], ...]

    def top(self, k: int) -> tuple[tuple[int, int], ...]:
        return self.entries[:k]


def valences(c: Configuration) -> ValenceReport:
    pairs = sorted(
        ((i, len(rows)) for i, rows in enumerate(c.incidence)),
        key=lambda iv: (-iv[1], iv[0]),
    )
    return ValenceReport(tuple(pairs))


def check_pair_count(c: Configuration) -> int:
    """Check sum_q C(e_q, 2) = C(L, 2) and return C(L, 2), the number of line pairs.

    This reads valences only. For incidences derived by _Builder.add_line,
    where every pair of lines is counted at exactly one point, it always
    holds; it fails on a Configuration whose points or rows were edited.
    """
    pairs = c.line_count * (c.line_count - 1) // 2
    counted = sum(e * (e - 1) // 2 for e in c.all_valences())
    if counted != pairs:
        raise MissedIntersection(
            f"the listed points account for {counted} of the {pairs} pairs of lines"
        )
    return pairs


class _Builder:
    """Mutable accumulation of lines, points, and incidences."""

    def __init__(self, field: NumberField):
        self.field = field
        self.lines: list[ProjLine] = []
        self.line_index: dict[ProjLine, int] = {}
        self.points: list[ProjPoint] = []
        self.point_index: dict[ProjPoint, int] = {}
        self.incidence: list[set[int]] = []

    @classmethod
    def from_config(cls, c: Configuration) -> "_Builder":
        b = cls(c.field)
        b.lines = list(c.lines)
        b.line_index = {l: i for i, l in enumerate(c.lines)}
        b.points = list(c.points)
        b.point_index = {p: i for i, p in enumerate(c.points)}
        b.incidence = [set(rows) for rows in c.incidence]
        return b

    def has_line(self, l: ProjLine) -> bool:
        return l in self.line_index

    def add_line(self, l: ProjLine) -> int:
        if l in self.line_index:
            raise DuplicateLine(f"line {l} already present")
        k = len(self.lines)
        for i, other in enumerate(self.lines):
            q = meet(other, l)
            idx = self.point_index.get(q)
            if idx is None:
                idx = len(self.points)
                self.points.append(q)
                self.point_index[q] = idx
                self.incidence.append(set())
            self.incidence[idx].update((i, k))
        self.lines.append(l)
        self.line_index[l] = k
        return k

    def freeze(
        self,
        marks: dict[str, int],
        seed: int,
        params_consumed: int,
        source: IntPoly | None,
    ) -> Configuration:
        return Configuration(
            field=self.field,
            lines=tuple(self.lines),
            points=tuple(self.points),
            incidence=tuple(tuple(sorted(rows)) for rows in self.incidence),
            marks=dict(marks),
            seed=seed,
            params_consumed=params_consumed,
            source=source,
        )


def find_marks(field: NumberField, point_index: dict[ProjPoint, int]) -> dict[str, int]:
    """Indices of the marked points 0, 1, inf and z that are among the points.

    The marks are (0 : 0 : 1), (1 : 0 : 1), (1 : 0 : 0) and (z : 0 : 1) on
    the coding axis y = 0, z the generator of K. A label whose point is not
    an intersection point is left out; the builder insists on all four.
    """
    marker_points = {
        MARK_ZERO: point(field, 0, 0),
        MARK_ONE: point(field, 1, 0),
        MARK_INF: point(field, 1, 0, 0),
        MARK_Z: point(field, field.gen, 0),
    }
    return {
        label: point_index[pt] for label, pt in marker_points.items() if pt in point_index
    }


def derive_points(
    lines,
    *,
    seed: int = 0,
    params_consumed: int = 0,
    source: IntPoly | None = None,
) -> Configuration:
    """All pairwise intersections of the given lines, exact incidences and marks.

    A point may lie on lines beyond the pair that created it; processing
    every pair registers the full incidence set. The lines must be pairwise
    distinct (DuplicateLine otherwise), and points are numbered in the
    order their first pair of lines appears.
    """
    lines = list(lines)
    if len(lines) < 2:
        raise ValueError("need at least two lines")
    builder = _Builder(lines[0].field)
    for l in lines:
        builder.add_line(l)
    marks = find_marks(builder.field, builder.point_index)
    return builder.freeze(marks, seed, params_consumed, source)


def _generic_line_through(
    builder: _Builder, target_index: int, stream: ParamStream
) -> None:
    """Add one line through the target hitting no other existing point."""
    target = builder.points[target_index]
    f = builder.field
    for _ in range(RETRY_BUDGET):
        t = stream.next()
        if target.is_infinite:
            vertical_pencil = target.coords[0].is_zero
            aux = point(f, t, 0) if vertical_pencil else point(f, 0, t)
        else:
            aux = point(f, 1, t, 0)
        candidate = join(target, aux)
        if builder.has_line(candidate):
            continue
        if any(
            idx != target_index and incident(candidate, q)
            for idx, q in enumerate(builder.points)
        ):
            continue
        builder.add_line(candidate)
        return
    raise GenericityExhausted(
        f"no generic line through point {target_index} within {RETRY_BUDGET} tries"
    )


def augment_even_valence(c: Configuration) -> Configuration:
    """One general line through every point of odd valence.

    New crossings have valence 2 and other old points are untouched, so a
    single sweep over the initially odd points leaves every valence even.
    """
    odd = [i for i, rows in enumerate(c.incidence) if len(rows) % 2 == 1]
    if not odd:
        return c
    builder = _Builder.from_config(c)
    stream = ParamStream(c.seed, c.params_consumed)
    for target in odd:
        _generic_line_through(builder, target, stream)
    out = builder.freeze(c.marks, c.seed, stream.cursor, c.source)
    bad = [i for i, rows in enumerate(out.incidence) if len(rows) % 2 == 1]
    if bad:
        raise GenericityExhausted(f"odd valences persist at points {bad}")
    return out


def amplify_marks(c: Configuration) -> Configuration:
    """Push the marks to the strict top of the valence ladder.

    With M the largest non-marked valence (rounded up to even), the final
    valences are e_z = M+2, e_inf = M+4, e_1 = M+6, e_0 = M+8, reached by
    adding an even number of general lines through each mark.
    """
    for label in MARK_LABELS:
        if label not in c.marks:
            raise ValueError(f"configuration is missing mark {label!r}")
    if any(len(rows) % 2 for rows in c.incidence):
        raise ValueError("amplify_marks requires all valences even")

    marked = set(c.marks.values())
    others = [len(rows) for i, rows in enumerate(c.incidence) if i not in marked]
    m_cap = max(others) if others else 0
    m_cap += m_cap % 2
    # The ladder must clear every current mark valence; bump in steps of two
    # if a mark already sits above its slot.
    ladder_order = (MARK_Z, MARK_INF, MARK_ONE, MARK_ZERO)
    while True:
        targets = {label: m_cap + 2 * (i + 1) for i, label in enumerate(ladder_order)}
        if all(targets[lb] >= len(c.incidence[c.marks[lb]]) for lb in ladder_order):
            break
        m_cap += 2

    builder = _Builder.from_config(c)
    stream = ParamStream(c.seed, c.params_consumed)
    for label in ladder_order:
        idx = c.marks[label]
        deficit = targets[label] - len(builder.incidence[idx])
        if deficit < 0 or deficit % 2:
            raise SelfCheckFailed(f"mark {label} has deficit {deficit}, not even and >= 0")
        for _ in range(deficit):
            _generic_line_through(builder, idx, stream)
    out = builder.freeze(c.marks, c.seed, stream.cursor, c.source)

    for label in ladder_order:
        if len(out.incidence[out.marks[label]]) != targets[label]:
            raise GenericityExhausted(f"mark {label} missed its valence target")
    if any(len(rows) % 2 for rows in out.incidence):
        raise GenericityExhausted("amplification broke valence parity")
    return out
