"""Line configurations: lines, multiple points, marks, augmentation.

A configuration is its lines. Everything else is derived from them by one
code path, Configuration.add_line, also when a file is loaded (see
serialize); only the names of the marks are not.
Two lines meet in one point, so the only incidences the lines do not imply
are the points on three or more lines: a configuration stores those, with
their incidence rows, and the four marks 0, 1, inf, z of the coding axis
at any valence (find_marks at emission, a file's rows at load). Every
other point is a simple crossing of two lines, counted by simple_count
and listed by all_points.

Two passes turn the raw gadget output into the final object:
augment_even_valence makes every valence even, treating the marks as
points like any other, and name_marks proves by colour refinement that
the combinatorial type has no automorphism (line_ranks), so that the
marks are facts of the type and need no valence of their own. New
"general" lines take their free parameters from the integer stream
seed + 1, seed + 2, ..., after emission's adds; params_consumed counts
the values drawn.
Genericity is checked exactly, never assumed: a candidate is rejected if
it passes through any existing point other than its target. The points
of a new line are found by their coordinate on it mod a prime l (see
Configuration); a key only ever proves two points different, and every
match is decided by exact arithmetic in K. A stored point is found by its
incidence row, never by its coordinates: a new line can pass through it
only if the lowest two lines of its row cross the new line at one key, or
one of them has no key. Its coordinates are the triple meet gave it, the
cross product of two of its lines, unnormalised: incident, a dot product,
and the residue screen of Configuration._through read any triple of a
point alike.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .errors import DuplicateLine, GenericityExhausted, NotRigid
from .numberfield import IntPoly, NumberField
from .projgeom import ProjLine, ProjPoint, incident, join, line, meet, point

RETRY_BUDGET = 1024

MARK_ZERO = "zero"
MARK_ONE = "one"
MARK_INF = "inf"
MARK_Z = "z"
MARK_LABELS = (MARK_ZERO, MARK_ONE, MARK_INF, MARK_Z)
# the classes of lines, and the lines per class, that a refusal of line_ranks names
SHOWN = 6


class Configuration:
    """Lines over K, their stored points, incidences and marks, and the indexes of the lines.

    points are the points on three or more lines and the marks, in builder
    order: by their second-lowest line, then their lowest (derive_points
    sorts them once; augment_even_valence stores none).
    incidence[i] is the sorted tuple of the indices of all the lines
    through point i, and marks maps a label to a point index. Two lines
    meet in one point, so a row names its point: crossings and find look a
    point up by its row, and only the lines are indexed (line_index, and
    line_residues for the keys). The constructor takes the given lines and
    points, and add_line, add_if_generic and find extend them.

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
        "line_index", "line_residues", "ell",
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

    def valence(self, p: int) -> int:
        return len(self.incidence[p])

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
        self.points.append(q)
        self.incidence.append(rows)
        return len(self.points) - 1

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

        Each line not through a point of hits is keyed by its crossing with
        l, its position on l mod the residue prime (_position); a line
        through a point of hits meets l there. A stored point on l has the
        two lowest lines of its row keyed alike, or one of them keyed None,
        so only such points are tested on l, exactly; a point with a line
        through a point of hits is skipped, since that line would be l.
        Each point found joins hits. Any other point of l lies on at most
        two lines, and the lines not through a point of hits are grouped by
        key, so the lines through such a point are in the group of its key
        or in the group None. Each line of a larger group is met with l
        exactly, and the meet tested on the rest of its group; each line of
        the group None is met with l, and the meet tested on every line. A
        line alone in its group shares its points of l with lines of the
        group None.
        """
        w, ell = _residues(l.coeffs), self.ell
        covered = {i for p in hits for i in self.incidence[p]}
        keys = [
            None if w is None or u is None or i in covered else _position(u, w, ell)
            for i, u in enumerate(self.line_residues)
        ]
        for p, rows in enumerate(self.incidence):
            a, b = keys[rows[0]], keys[rows[1]]
            maybe = a == b or a is None or b is None
            if maybe and covered.isdisjoint(rows) and incident(l, self.points[p]):
                if generic:
                    return None
                hits.append(p)
                covered.update(rows)
        groups: dict = {}
        for i, key in enumerate(keys):
            if i not in covered:
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
                others = self._through(q, (j for j in pool if j != a and j not in covered))
                if not others:
                    continue
                if generic:
                    return None
                promoted.append((q, sorted((a, *others))))
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
        """Index of the point q, stored now if two or more lines pass through it, else None.

        A stored row lists every line through its point, and two lines meet
        in one point, so q is stored if and only if its row is.
        """
        rows = tuple(self._through(q, range(len(self.lines))))
        if len(rows) < 2:
            return None
        if rows in self.incidence:
            return self.incidence.index(rows)
        return self._store(q, rows)


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
    marks=find_marks,
) -> Configuration:
    """The configuration of the given lines: its multiple points, incidences and marks.

    Each line is added in turn (Configuration.add_line), so a point lying
    on more than two lines gets its full incidence set. The lines must be
    pairwise distinct (DuplicateLine otherwise). marks(c) then stores each
    mark and returns its index by label: find_marks finds them by their
    coordinates, as emission drew them; a file names them by facts of the
    type (serialize). This is the only stage that stores points, so it
    alone sorts them into builder order.
    """
    lines = list(lines)
    if len(lines) < 2:
        raise ValueError("need at least two lines")
    c = Configuration(lines[0].field, seed=seed, params_consumed=params_consumed)
    for l in lines:
        c.add_line(l)
    named = marks(c)
    inc = c.incidence
    order = sorted(range(len(inc)), key=lambda p: (inc[p][1], inc[p][0]))
    c.points = [c.points[p] for p in order]
    c.incidence = [inc[p] for p in order]
    c.marks = {label: order.index(p) for label, p in named.items()}
    return c


def _generic_line_through(c: Configuration, target_index: int) -> None:
    """Add one line through the target that passes through no other existing point.

    Each try draws the next parameter t = seed + params_consumed of c,
    counting it in c, and keys the crossing of the candidate with each
    line not through the target (Configuration.add_if_generic).
    """
    target = c.points[target_index]
    f = c.field
    for _ in range(RETRY_BUDGET):
        c.params_consumed += 1
        t = c.seed + c.params_consumed
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


def augment_even_valence(c: Configuration) -> Configuration:
    """Make every valence even, with as few new lines as the joins allow.

    The odd points, the marks among them, are fixed in this order:
    1. each odd point on the coding axis y = 0 is joined to an odd point
       off it (the join of two axis points is the axis itself);
    2. the points left are joined in pairs;
    3. one general line goes through each point still odd.
    A join is taken only if it passes through no other existing point
    (Configuration.add_if_generic). Adding lines never makes a refused join
    generic, so no pair is tried twice. New crossings are simple, so the
    stored points and their order stay as they are, and each odd point
    gains one line. The lines are added to a copy of c, which is returned;
    c is unchanged. When no valence is odd, c itself is returned.
    """
    odd = [i for i, rows in enumerate(c.incidence) if len(rows) % 2 == 1]
    if not odd:
        return c
    out = Configuration(c.field, c.lines, c.points, c.incidence, c.marks, c.seed, c.params_consumed)
    axis = out.line_index.get(line(c.field, 0, 1, 0))
    on_axis = {i for i in odd if axis in c.incidence[i]}
    off_axis = [i for i in odd if i not in on_axis]
    left = set(odd)  # the points still odd
    refused: set[tuple[int, int]] = set()

    def join_first(s: int, partners: list[int]) -> None:
        """Join s to the first partner whose join is generic."""
        for t in partners:
            key = (s, t) if s < t else (t, s)
            if key in refused:
                continue
            if out.add_if_generic(join(out.points[s], out.points[t]), [s, t]):
                left.difference_update(key)
                return
            refused.add(key)

    for s in odd:
        if s in on_axis:
            join_first(s, [t for t in off_axis if t in left])
    for s in odd:
        if s in left:
            join_first(
                s,
                [t for t in odd if t > s and t in left and not (s in on_axis and t in on_axis)],
            )

    for target in range(len(c.incidence)):
        if len(out.incidence[target]) % 2:
            _generic_line_through(out, target)
    bad = [i for i, rows in enumerate(out.incidence) if len(rows) % 2 == 1]
    if bad:
        raise GenericityExhausted(f"odd valences persist at points {bad}")
    return out


def line_ranks(c: Configuration, error: type = NotRigid) -> list[int]:
    """Each line's canonical rank, once colour refinement proves that the type has no automorphism.

    The combinatorial type of c is its lines and its points on three or
    more lines: two lines that share none of those points meet in a simple
    crossing, on them alone, and a stored point of valence 2 (a mark) is
    that crossing. Colour refinement (1-dimensional Weisfeiler-Leman)
    colours the incidence graph of the type. The lines and the points start
    in one colour each; each round gives every line and point the rank,
    among the signatures of its kind, of its signature: its colour and the
    sorted colours of its neighbours. The rounds stop when the number of
    classes stops growing. Every automorphism of the type keeps each
    round's colours, and the ranks read the type alone, not the order of
    the lines or their coordinates (M. Grohe, K. Kersting, M. Mladenov and
    P. Schweitzer, "Color refinement and its applications", 2017). So when
    every line ends in a class of its own, the only automorphism is the
    identity, and each line's rank, 0 to L - 1, is a fact of the type.
    Otherwise error is raised, naming the classes that are not singletons.
    """
    rows = [r for r in c.incidence if len(r) > 2]
    on: list[list[int]] = [[] for _ in c.lines]  # per line, its points in rows
    for p, r in enumerate(rows):
        for i in r:
            on[i].append(p)
    lines, points, classes = [0] * len(on), [0] * len(rows), 0
    while True:
        lines, points = (
            _ranks([(lines[i], tuple(sorted(points[p] for p in ps))) for i, ps in enumerate(on)]),
            _ranks([(points[p], tuple(sorted(lines[i] for i in r))) for p, r in enumerate(rows)]),
        )
        count = len(set(lines)) + len(set(points))
        if count == classes:
            break
        classes = count
    if len(set(lines)) < len(lines):
        members: dict[int, list[int]] = {}
        for i, rank in enumerate(lines):
            members.setdefault(rank, []).append(i)
        shared = [m for m in members.values() if len(m) > 1]
        shown = "; ".join(
            f"lines {', '.join(map(str, m[:SHOWN]))}" + f" and {len(m) - SHOWN} more" * (len(m) > SHOWN)
            for m in shared[:SHOWN]
        )
        raise error(
            "rigidity check failed: colour refinement leaves classes of lines that are not "
            f"singletons, {len(shared)} in all, so the type may have an automorphism: {shown}"
        )
    return lines


def _ranks(signatures: list) -> list[int]:
    """Each signature's rank among the distinct signatures, in sorted order."""
    rank = {s: k for k, s in enumerate(sorted(set(signatures)))}
    return [rank[s] for s in signatures]


def name_marks(c: Configuration) -> Configuration:
    """The last build stage: prove the type rigid, so that the marks are facts of it, and return c.

    It adds no line. With each line of the type in a class of its own
    (line_ranks), a file names each mark by the canonical ranks of the
    lines through it (serialize), which neither a reordering of the lines
    nor a Galois conjugation of the coordinates changes. A type whose
    refinement is not discrete raises GenericityExhausted (exit 4),
    naming the classes that are not singletons: there is no fallback.
    """
    line_ranks(c, GenericityExhausted)
    return c
