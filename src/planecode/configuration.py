"""Line configurations: lines, multiple points, marks, augmentation.

A configuration is its lines. Everything else is derived from them by one
code path, Configuration.add_line, also when a file is loaded (see
serialize).
Two lines meet in one point, so the only incidences the lines do not imply
are the points on three or more lines: a configuration stores those, with
their incidence rows, and the four marks 0, 1, inf, z of the coding axis
at any valence (find_marks). Every other point is a simple crossing of two
lines, counted by simple_count and listed by all_points.

Two passes turn the raw gadget output into the final object:
augment_even_valence makes every valence even, amplify_marks pushes the
four marks to the strict top of the valence ladder. New "general" lines
take their free parameters from a deterministic integer stream, and
genericity is checked exactly, never assumed: a candidate is rejected if
it passes through any existing point other than its target. The points
of a new line are found by their coordinate on it mod a prime l (see
Configuration); a key only ever proves two points different, and every
match is decided by exact arithmetic in K.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .errors import DuplicateLine, GenericityExhausted, SelfCheckFailed
from .numberfield import IntPoly, NumberField
from .projgeom import ProjLine, ProjPoint, incident, join, line, meet, point

RETRY_BUDGET = 1024

MARK_ZERO = "zero"
MARK_ONE = "one"
MARK_INF = "inf"
MARK_Z = "z"
MARK_LABELS = (MARK_ZERO, MARK_ONE, MARK_INF, MARK_Z)
# the marks from the bottom of the valence ladder to its top
LADDER_ORDER = (MARK_Z, MARK_INF, MARK_ONE, MARK_ZERO)


class ParamStream:
    """Deterministic integer parameters 1 + seed + k for k = 0, 1, 2, ..."""

    def __init__(self, seed: int = 0, start: int = 0):
        self.seed = seed
        self.cursor = start

    def next(self) -> int:
        self.cursor += 1
        return self.seed + self.cursor


class Configuration:
    """Lines over K, their stored points, incidences and marks, and the indexes that extend them.

    points are the points on three or more lines and the marks, in builder
    order: by their second-lowest line, then their lowest (derive_points
    sorts them once; augment_even_valence and amplify_marks store none).
    incidence[i] is the sorted tuple of the indices of the lines through
    point i, and marks maps a label to a point index. The constructor
    indexes the given lines and points, and add_line, add_if_generic and
    find extend them.

    With a residue map z -> r mod l (K is a field: NumberField.create
    proves it), crossings keys each line u by where it crosses the new
    line w mod l: the coordinate on the reduced line w' of the cross
    product u' x w' of the residue triples (_position), or None when a
    residue is undefined or u' = w'. Why the key depends only on the point:
    r is a simple root, so l is a regular prime and the local ring R_m of K
    is a discrete valuation ring to which the residue map extends
    (NFElement.residue). u' x w' is the image of u x w, a triple of the
    crossing. Two triples over R_m with nonzero images that represent one
    point differ by a factor lambda in K; each has an entry that is a unit
    of R_m, so lambda is a unit and the images differ by its nonzero image.
    So the crossing reduces to one point of w', which has one coordinate
    there. Different keys prove the crossings different; equal ones prove
    nothing, and every match is confirmed exactly. Without a residue map
    no crossing has a key.
    """

    __slots__ = (
        "field", "lines", "points", "incidence", "marks", "seed", "params_consumed",
        "line_index", "line_residues", "point_index", "ell",
    )

    def __init__(
        self,
        field: NumberField,
        lines: Iterable[ProjLine] = (),
        points: Iterable[ProjPoint] = (),
        incidence: Iterable[Iterable[int]] = (),
        marks: dict[str, int] | None = None,
        seed: int = 0,
        params_consumed: int = 0,
    ):
        self.field = field
        self.lines: list[ProjLine] = []
        self.line_index: dict[ProjLine, int] = {}
        self.line_residues: list[tuple[int, int, int] | None] = []
        self.points: list[ProjPoint] = []
        self.point_index: dict[ProjPoint, int] = {}
        # a row only ever gains the newest line, so it stays sorted
        self.incidence: list[tuple[int, ...]] = []
        self.marks = {} if marks is None else dict(marks)
        self.seed = seed
        self.params_consumed = params_consumed
        rmap = field.residue_map
        self.ell = None if rmap is None else rmap[0]
        for l in lines:
            self._append_line(l)
        for q, rows in zip(points, incidence):
            self._store(q, tuple(rows))

    @property
    def source(self) -> IntPoly:
        """p, the modulus of the field."""
        return self.field.source

    def valence(self, point_index: int) -> int:
        return len(self.incidence[point_index])

    @property
    def line_count(self) -> int:
        return len(self.lines)

    @property
    def simple_count(self) -> int:
        """The crossings of exactly two lines: each pair of lines meets at one point."""
        L = len(self.lines)
        return L * (L - 1) // 2 - sum(len(rows) * (len(rows) - 1) // 2 for rows in self.incidence)

    @property
    def point_count(self) -> int:
        """P, the number of points, stored or simple."""
        return len(self.points) + self.simple_count

    def _append_line(self, l: ProjLine) -> None:
        self.line_index[l] = len(self.lines)
        self.lines.append(l)
        self.line_residues.append(_residues(l.coeffs))

    def _store(self, q: ProjPoint, rows: tuple[int, ...]) -> int:
        self.point_index[q] = len(self.points)
        self.points.append(q)
        self.incidence.append(rows)
        return self.point_index[q]

    def _through(self, q: ProjPoint, candidates) -> list[int]:
        """The lines among candidates through q; those whose residues prove they miss it are skipped."""
        r, ell, out = _residues(q.coords), self.ell, []
        for j in candidates:
            u = self.line_residues[j]
            if r is not None and u is not None and (u[0] * r[0] + u[1] * r[1] + u[2] * r[2]) % ell:
                continue
            if incident(self.lines[j], q):
                out.append(j)
        return out

    def crossings(
        self, l: ProjLine, hits: list[int], generic: bool = False
    ) -> list[tuple[ProjPoint, list[int]]] | None:
        """Where l crosses the lines: stored points into hits, new multiple points returned.

        hits may start with stored points known to lie on l; every other
        stored point l passes through is appended to it. (q, rows) is
        returned for each simple crossing q of the two lines in rows that l
        passes through, which l makes a multiple point. With generic set, l
        is wanted through the points of hits only: the first other point
        found ends the search, and None is returned.

        A line through a point of hits meets l there and is skipped. The
        others are grouped by the key of their crossing with l, its position
        on l mod the residue prime (_position), so the lines through a point
        of l are in the group of its key or in the group None. Each line of
        a larger group is met with l exactly, and the meet is looked up
        among the stored points or else tested on the rest of its group;
        each line of the group None is met with l, and the meet tested on
        every line. A line alone in its group shares its points of l with
        lines of the group None.
        """
        w, ell = _residues(l.coeffs), self.ell
        covered = {i for p in hits for i in self.incidence[p]}
        groups: dict = {}
        for i, u in enumerate(self.line_residues):
            if i not in covered:
                key = None if u is None or w is None else _position(u, w, ell)
                groups.setdefault(key, []).append(i)
        # (lines to meet with l, lines to test on each meet)
        loose = groups.pop(None, [])
        tasks = [(g, g) for g in groups.values() if len(g) > 1] + [(loose, range(len(self.lines)))]
        promoted = []
        for group, pool in tasks:
            for a in group:
                if a in covered:
                    continue
                q = meet(self.lines[a], l)
                p = self.point_index.get(q)
                if p is None:
                    others = self._through(q, (j for j in pool if j != a and j not in covered))
                    if not others:
                        continue
                if generic:
                    return None
                if p is None:
                    promoted.append((q, sorted((a, *others))))
                else:
                    hits.append(p)
                    others = self.incidence[p]
                covered.update(others, (a,))
        return promoted

    def insert(self, l: ProjLine, hits: list[int], promoted: list[tuple[ProjPoint, list[int]]]) -> int:
        """Add l, given what crossings found for it."""
        k = len(self.lines)
        self._append_line(l)
        for p in hits:
            self.incidence[p] += (k,)
        for q, rows in promoted:
            self._store(q, (*rows, k))
        return k

    def add_if_generic(self, l: ProjLine, through: list[int]) -> bool:
        """Add l if it is new and passes through no existing point but those of through.

        l meets every line through a point of through at that point. Any
        other point on l lies on a line through none of them: a line through
        it and a point of through would be l itself, which is new. So
        crossings finds every such point, and the test is exact.
        """
        if l in self.line_index:
            return False
        promoted = self.crossings(l, through, generic=True)
        if promoted is None:
            return False
        self.insert(l, through, promoted)
        return True

    def add_line(self, l: ProjLine) -> int:
        if l in self.line_index:
            raise DuplicateLine(f"line {l} already present")
        hits: list[int] = []
        promoted = self.crossings(l, hits)
        return self.insert(l, hits, promoted)

    def find(self, q: ProjPoint) -> int | None:
        """Index of the point q, stored now if two or more lines pass through it, else None."""
        p = self.point_index.get(q)
        if p is None:
            rows = self._through(q, range(len(self.lines)))
            if len(rows) >= 2:
                p = self._store(q, tuple(rows))
        return p


def valences(c: Configuration) -> tuple[tuple[int, int], ...]:
    """(point index, valence) pairs of the stored points, highest valence first, ties by index."""
    return tuple(sorted(
        ((i, len(rows)) for i, rows in enumerate(c.incidence)),
        key=lambda iv: (-iv[1], iv[0]),
    ))


def max_other_valence(c: Configuration) -> int:
    """The largest valence of a point that is not a mark (2 at a simple crossing), or 0."""
    marked = set(c.marks.values())
    vals = [len(rows) for i, rows in enumerate(c.incidence) if i not in marked]
    return max(vals + [2] * (c.simple_count > 0), default=0)


def all_points(c: Configuration):
    """(point, row) for every point of c, stored or simple, in builder order.

    Builder order lists a point at the pair (a, b) of its two lowest lines,
    by b and then a. A simple crossing is met exactly when it is reached.
    """
    first = {}  # per pair of lines on a stored point: the point, if the pair is its first
    for p, rows in enumerate(c.incidence):
        first.update(dict.fromkeys(combinations(rows, 2)))
        first[rows[0], rows[1]] = p
    for b in range(len(c.lines)):
        for a in range(b):
            p = first.get((a, b), -1)
            if p == -1:
                yield meet(c.lines[a], c.lines[b]), (a, b)
            elif p is not None:
                yield c.points[p], c.incidence[p]


def _position(u, w, ell: int):
    """Where the line u crosses the line w in P^2(F_l): its coordinate in F_l, l for infinity.

    u and w are residue triples of canonical lines, so w_i = 1 at the first
    nonzero entry i of w; let (j, k) = (i + 1, i + 2) mod 3. A point X of w
    has X_i = -(w_j X_j + w_k X_k), so (X_j : X_k) is a coordinate on w.
    For P = u x w it is (u_k - u_i w_k : u_i w_j - u_j), the general
    (u_k w_i - u_i w_k : u_i w_j - u_j w_i) at w_i = 1. None if P vanishes,
    that is if u = w.
    """
    i = w.index(1)
    j, k = (i + 1) % 3, (i + 2) % 3
    pj = (u[k] - u[i] * w[k]) % ell
    pk = (u[i] * w[j] - u[j]) % ell
    if pk:
        return pj * pow(pk, -1, ell) % ell
    return ell if pj else None


def _residues(triple):
    """The residues of a triple, or None if one is undefined."""
    rs = tuple(x.residue for x in triple)
    return None if None in rs else rs


def find_marks(c: Configuration) -> dict[str, int]:
    """Indices of the marked points 0, 1, inf and z that are points of the lines.

    The marks are (0 : 0 : 1), (1 : 0 : 1), (1 : 0 : 0) and (z : 0 : 1) on
    the coding axis y = 0, z the generator of K; each one found is stored,
    at any valence. A label whose point is not an intersection point is
    left out; emission insists on all four.
    """
    field = c.field
    marker_points = {
        MARK_ZERO: point(field, 0, 0),
        MARK_ONE: point(field, 1, 0),
        MARK_INF: point(field, 1, 0, 0),
        MARK_Z: point(field, field.gen, 0),
    }
    found = {label: c.find(pt) for label, pt in marker_points.items()}
    return {label: i for label, i in found.items() if i is not None}


def derive_points(
    lines,
    *,
    seed: int = 0,
    params_consumed: int = 0,
) -> Configuration:
    """The configuration of the given lines: its multiple points, incidences and marks.

    Each line is added in turn (Configuration.add_line), so a point lying
    on more than two lines gets its full incidence set. The lines must be
    pairwise distinct (DuplicateLine otherwise). This is the only stage
    that stores points, so it alone sorts them into builder order.
    """
    lines = list(lines)
    if len(lines) < 2:
        raise ValueError("need at least two lines")
    c = Configuration(lines[0].field, seed=seed, params_consumed=params_consumed)
    for l in lines:
        c.add_line(l)
    marks = find_marks(c)
    inc = c.incidence
    order = sorted(range(len(inc)), key=lambda p: (inc[p][1], inc[p][0]))
    c.points = [c.points[p] for p in order]
    c.incidence = [inc[p] for p in order]
    c.point_index = {q: p for p, q in enumerate(c.points)}
    c.marks = {label: order.index(p) for label, p in marks.items()}
    return c


def _generic_line_through(c: Configuration, target_index: int, stream: ParamStream) -> None:
    """Add one line through the target that passes through no other existing point.

    Each try keys the crossing of the candidate with each line not through
    the target (Configuration.add_if_generic).
    """
    target = c.points[target_index]
    f = c.field
    for _ in range(RETRY_BUDGET):
        t = stream.next()
        if target.is_infinite:
            vertical_pencil = target.coords[0].is_zero
            aux = point(f, t, 0) if vertical_pencil else point(f, 0, t)
        else:
            aux = point(f, 1, t, 0)
        if c.add_if_generic(join(target, aux), [target_index]):
            return
    raise GenericityExhausted(
        f"no generic line through point {target_index} within {RETRY_BUDGET} tries"
    )


def ladder_base(c: Configuration) -> int:
    """M, the base of the ladder amplify_marks builds: the marks reach M+2 .. M+8.

    M is max_other_valence(c), rounded up to even. The ladder must clear
    every current mark valence, so it is bumped in steps of two while a
    mark already sits above its slot.
    """
    m_cap = max_other_valence(c)
    m_cap += m_cap % 2
    while any(
        len(c.incidence[c.marks[lb]]) > m_cap + 2 * (i + 1) for i, lb in enumerate(LADDER_ORDER)
    ):
        m_cap += 2
    return m_cap


def _ladder_targets(c: Configuration) -> dict[str, int]:
    """The mark valences amplify_marks reaches: M+2, M+4, M+6, M+8 for z, inf, one, zero.

    M is ladder_base(c). augment leaves these targets unchanged (see
    augment_even_valence).
    """
    m_cap = ladder_base(c)
    return {label: m_cap + 2 * (i + 1) for i, label in enumerate(LADDER_ORDER)}


def augment_even_valence(c: Configuration) -> Configuration:
    """Make every valence even, with as few new lines as the joins allow.

    The odd points that are not marks are fixed in this order:
    1. each odd point on the coding axis y = 0 is joined to an odd point
       off it (the join of two axis points is the axis itself);
    2. each remaining off-axis odd point is joined to a mark still below
       its ladder target, marks taken in the order z, inf, one, zero: a
       line amplify_marks would add anyway, now also fixing a parity;
    3. the points left are joined in pairs;
    4. one general line goes through each point still odd, and through
       each mark whose valence is odd.
    A join is taken only if it passes through no other existing point
    (Configuration.add_if_generic). Adding lines never makes a refused join
    generic, so no pair is tried twice. New crossings are simple, so the
    stored points and their order stay as they are; a
    fixed point gains one line and ends at most at M (M is even), and a
    mark never passes its target, so _ladder_targets is the same before
    and after, and amplify_marks fills each mark's remaining even deficit.
    The lines are added to a copy of c, which is returned; c is unchanged.
    """
    odd = [i for i, rows in enumerate(c.incidence) if len(rows) % 2 == 1]
    if not odd:
        return c
    out = Configuration(c.field, c.lines, c.points, c.incidence, c.marks, c.seed)
    # without all four marks there is no ladder, and a mark is a point like any other
    marks = c.marks if all(label in c.marks for label in MARK_LABELS) else {}
    room = {}  # per mark point, in ladder order: lines it may still gain
    if marks:
        targets = _ladder_targets(c)
        room = {marks[lb]: targets[lb] - len(c.incidence[marks[lb]]) for lb in LADDER_ORDER}
    axis = out.line_index.get(line(c.field, 0, 1, 0))
    marked = set(marks.values())
    free = [i for i in odd if i not in marked]
    on_axis = {i for i in free if axis in c.incidence[i]}
    off_axis = [i for i in free if i not in on_axis]
    left = set(free)  # the free points still odd
    refused: set[tuple[int, int]] = set()

    def join_first(s: int, partners: list[int]) -> int | None:
        """Join s to the first partner whose join is generic, and return that partner."""
        for t in partners:
            key = (s, t) if s < t else (t, s)
            if key in refused:
                continue
            if out.add_if_generic(join(out.points[s], out.points[t]), [s, t]):
                left.difference_update(key)
                return t
            refused.add(key)
        return None

    for s in free:
        if s in on_axis:
            join_first(s, [t for t in off_axis if t in left])
    for s in off_axis:
        if s in left:
            t = join_first(s, [m for m, r in room.items() if r > 0])
            if t is not None:
                room[t] -= 1
    for s in free:
        if s in left:
            join_first(
                s,
                [t for t in free if t > s and t in left and not (s in on_axis and t in on_axis)],
            )

    stream = ParamStream(c.seed, c.params_consumed)
    for target in range(len(c.incidence)):
        if len(out.incidence[target]) % 2:
            _generic_line_through(out, target, stream)
    out.params_consumed = stream.cursor
    bad = [i for i, rows in enumerate(out.incidence) if len(rows) % 2 == 1]
    if bad:
        raise GenericityExhausted(f"odd valences persist at points {bad}")
    return out


def amplify_marks(c: Configuration) -> Configuration:
    """Push the marks to the strict top of the valence ladder.

    The final valences are _ladder_targets(c), reached by adding an even
    number of general lines through each mark, to a copy of c, which is
    returned; c is unchanged.
    """
    for label in MARK_LABELS:
        if label not in c.marks:
            raise ValueError(f"configuration is missing mark {label!r}")
    if any(len(rows) % 2 for rows in c.incidence):
        raise ValueError("amplify_marks requires all valences even")

    targets = _ladder_targets(c)
    out = Configuration(c.field, c.lines, c.points, c.incidence, c.marks, c.seed)
    stream = ParamStream(c.seed, c.params_consumed)
    for label in LADDER_ORDER:
        idx = c.marks[label]
        deficit = targets[label] - len(out.incidence[idx])
        if deficit < 0 or deficit % 2:
            raise SelfCheckFailed(f"mark {label} has deficit {deficit}, not even and >= 0")
        for _ in range(deficit):
            _generic_line_through(out, idx, stream)
    out.params_consumed = stream.cursor

    for label in LADDER_ORDER:
        if len(out.incidence[out.marks[label]]) != targets[label]:
            raise GenericityExhausted(f"mark {label} missed its valence target")
    if any(len(rows) % 2 for rows in out.incidence):
        raise GenericityExhausted("amplification broke valence parity")
    return out
