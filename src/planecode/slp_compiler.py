"""Straight-line programs for P(z) = N(z) and their geometric realization.

compile_polynomial splits the primitive p into its sign-sides, p = P - N,
and turns each side into a Horner-form SLP over registers: z, the unit,
and the sums and products of earlier registers. An instruction is a plain
tuple, (LOAD_Z,), (ONE,), (ADD, left, right) or (MUL, left, right), so
equal instructions are equal values and each is emitted once. The powers
of z that the Horner jumps need come from one table built by squaring,
and every integer constant c >= 2 comes from one chain built up from the
unit.
emit_configuration proves K = Q[x]/(p) a field (NumberField.create),
evaluates the program in K once, and draws every add and mul instruction
as a small line gadget on the marked axis ell = {y = 0}, where the point
(v : 0 : 1) stands for the number v; z and the unit are marks on that
axis and take no lines.

Four seed lines come first, each needed for every realization of the
configuration to encode a conjugate of z: the axis ell, which carries
the marks and every output; the y-axis x = 0, where the mul lifts its
second factor; the line at infinity z = 0, the only line on which a
gadget's "parallels" are forced to meet; and u1: x + y = 1, the tie line
of anchor 1. A mul draws through an anchor j, the pair U_j = (0 : j : 1)
and S_j = (1 : -j : 0), and the tie line uj: x + y/j = 1 joins the mark 1
to both, which ties the scale of the y-axis to the unit of the axis
(without it every product would be lambda*a*b for a free lambda); so u1
passes through the mark 1, U = U_1 and the slope -1 direction S = S_1.
Every mul draws on anchor 1, unless spreading the products over anchors
1..J, each held to valence 4 (split_anchors), lowers the raw ladder base:
then the tie lines u2..uJ follow u1. anchor_count decides, before the one
drawing, by counting both layouts over ids (_Counted).

The seed and each gadget are written once, as the recipes seed_objects,
add_gadget and mul_gadget over a geometry, with the von Staudt lemma
that forces them and its non-degeneracy conditions. Emission draws them
in K (_Drawn); decode.check_forcing runs them over a file's incidence
table. The add draws four lines, one of them y = h
off the grid of the registers (realize); the mul draws three and takes
no parameter. The last gadget of P lands on the point of N(z), so
the incidences force P(z) = N(z), that is p(z) = 0, without a negation,
and the whole construction is defined over K with Galois-stable choices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .configuration import MARK_LABELS, Configuration, ParamStream, derive_points, ladder_base
from .errors import GadgetDegenerate, NotARoot, SelfCheckFailed
from .numberfield import IntPoly, NFElement, NumberField, primitive_modulus
# Unused here; bound only for the planecode.slp_compiler.check_irreducible
# probe of perfbench/tracer.py.
from .numberfield import check_irreducible  # noqa: F401
from .projgeom import ProjLine, ProjPoint, incident, join, line, meet, point


# The kinds of instruction; left and right name earlier registers.
LOAD_Z, ONE, ADD, MUL = "z", "one", "add", "mul"


class SLP:
    """A program from compile_polynomial: each operand is an earlier register.

    It encodes p(z) = 0 as values[lhs] == values[rhs]: lhs computes P(z),
    rhs computes N(z), and rhs is None when N = 0.
    """

    __slots__ = ("instructions", "lhs", "rhs", "source")

    def __init__(
        self, instructions: tuple[tuple, ...], lhs: int, rhs: int | None, source: IntPoly
    ):
        self.instructions = instructions
        self.lhs = lhs
        self.rhs = rhs
        self.source = source

    def evaluate(self, z, one) -> list:
        """Every register's value, for z and the unit of any ring: K, Z[x], ..."""
        values: list = []
        for kind, *ops in self.instructions:
            if kind == LOAD_Z:
                values.append(z)
            elif kind == ONE:
                values.append(one)
            else:
                a, b = (values[i] for i in ops)
                values.append(a + b if kind == ADD else a * b)
        return values


def compile_polynomial(p: IntPoly) -> SLP:
    """SLP computing both sides of P(z) = N(z), where p = P - N.

    p is made primitive with a positive leading coefficient; P holds its
    positive coefficients and N the absolute values of its negative ones.
    Each side is in Horner form from its top term down: a jump from
    degree d to the next nonzero degree j multiplies by z^(d-j). Before
    any Horner step, the program builds
    - the power table: each z^k that a jump of either side needs, once,
      by squaring, z^k = z^(k - k//2) * z^(k//2);
    - the constant chain: every constant c >= 2 of p in increasing
      order, by one add when c is the sum of two constants already built
      and else by binary double-and-add from the unit, each intermediate
      kept by its value.
    No instruction is emitted twice. Irreducibility is proven where the
    field is created, in emit_configuration.
    """
    prim = primitive_modulus(p)

    instructions: list[tuple] = []
    registers: dict[tuple, int] = {}
    constants: dict[int, int] = {}

    def emit(*instr) -> int:
        if instr not in registers:
            registers[instr] = len(instructions)
            instructions.append(instr)
        return registers[instr]

    z = emit(LOAD_Z)

    def power(k: int) -> int:
        return z if k == 1 else emit(MUL, power(k - k // 2), power(k // 2))

    def chain(value: int, left: int, right: int) -> int:
        """The register of the constant value = left + right, added once."""
        if value not in constants:
            constants[value] = emit(ADD, left, right)
        return constants[value]

    def constant(c: int) -> int:
        if c in constants:
            return constants[c]
        if c == 1:
            constants[1] = emit(ONE)
            return constants[1]
        a = next((a for a in sorted(constants) if c - a in constants), None)
        if a is not None:
            return chain(c, constants[a], constants[c - a])
        one = reg = constant(1)
        value = 1
        for bit in bin(c)[3:]:
            value *= 2
            reg = chain(value, reg, reg)
            if bit == "1":
                value += 1
                reg = chain(value, reg, one)
        return reg

    def times_power(acc: int | None, k: int) -> int:
        """acc * z^k, where acc None stands for the unit."""
        if k == 0:
            return constant(1) if acc is None else acc
        return power(k) if acc is None else emit(MUL, acc, power(k))

    def horner(side: dict[int, int]) -> int | None:
        if not side:
            return None
        d, *lower = sorted(side, reverse=True)
        acc = None if side[d] == 1 else constant(side[d])
        for j in lower:
            acc = emit(ADD, times_power(acc, d - j), constant(side[j]))
            d = j
        return times_power(acc, d)

    positive = {d: c for d, c in enumerate(prim.coeffs) if c > 0}
    negative = {d: -c for d, c in enumerate(prim.coeffs) if c < 0}
    for side in (positive, negative):
        degrees = sorted(side, reverse=True) + [0]
        for d, j in zip(degrees, degrees[1:]):
            if d > j:
                power(d - j)
    for c in sorted({abs(c) for c in prim.coeffs if abs(c) >= 2}):
        constant(c)
    lhs, rhs = horner(positive), horner(negative)
    return SLP(tuple(instructions), lhs, rhs, prim)


# ---------------------------------------------------------------------------
# the gadgets, written once
# ---------------------------------------------------------------------------

def register_point(value: NFElement) -> ProjPoint:
    """The point (v : 0 : 1) on the marked axis standing for the number v."""
    return point(value.field, value, 0)


def tie_line(field: NumberField, j: int) -> ProjLine:
    """uj: x + y/j = 1, the tie line of anchor j, through the mark 1, U_j and S_j."""
    return line(field, 1, Fraction(1, j), -1)


def seed_objects(g, J: int) -> None:
    """Set the seed objects of the lemma (add_gadget) on J anchors in g, from its axis and marks.

    yaxis, x = 0, passes through the mark 0 and linf, z = 0, through inf;
    V = yaxis ^ linf. Each tie line uj (tie_line) passes through the mark
    1; U_j = uj ^ yaxis and S_j = uj ^ linf. None of these lines is the
    axis, and no U_j is 0 or V.
    """

    def seed_line(coeffs, role: str, mark: str):
        l = g.line(coeffs, role, mark)
        g.check(l != g.axis, "the line through the marks is also a seed line, the {}", role)
        return l

    g.yaxis, g.linf = seed_line((1, 0, 0), "y-axis", "zero"), seed_line((0, 0, 1), "ell_inf", "inf")
    g.V = g.meet(g.yaxis, g.linf, "V")
    g.ties, g.U, g.S = (), (), ()
    for j in range(1, J + 1):
        g.at = f"anchor {j}"
        tie = seed_line(tie_line(g.field, j).coeffs, f"u{j}", "one")
        U = g.meet(tie, g.yaxis, "U")
        g.check(U not in (g.zero, g.V), "U is point {}, which is 0 or V", U)
        g.ties, g.U, g.S = g.ties + (tie,), g.U + (U,), g.S + (g.meet(tie, g.linf, "S"),)
    g.at = "a gadget"


def _check_operands(g, a, b) -> None:
    g.check(g.zero not in (a, b), "an operand is the mark 0")


def add_gadget(g, a, b, h: int):
    """The object of a + b, and the add's lines by role, in drawing order.

    The von Staudt lemma, for both gadgets. In any realization, over any
    field, of the seed objects (seed_objects), put linf at infinity: there
    is one affine chart with 0 = (0, 0), 1 = (1, 0), U_1 = (0, 1), the
    axis and yaxis the coordinate axes and u1 the line x + y = 1, and V
    the vertical direction. Each U_j is then (0, c_j) for some finite c_j not
    0, and S_j = uj ^ linf, on the line from 1 to U_j, is the slope -c_j
    direction. Let a = (a, 0), b = (b, 0), not 0.

    - Add. l2 = b V is x = b; hline passes through inf, so it is y = h'
      for some h', and aux = hline ^ yaxis = (0, h'), off the axis and not
      V, so h' is finite and nonzero. l4 joins the corner l2 ^ hline =
      (b, h') to l3 ^ linf, l3 = aux a: 0, b, the corner and aux form a
      parallelogram, and l4 meets the axis at (a + b, 0), whatever h' is.
    - Mul on anchor j (mul_gadget). t1 = b S_j is y = -c_j (x - b), so
      t1 ^ yaxis = (0, c_j b). m2 joins (0, c_j b) to m1 ^ linf,
      m1 = U_j a: the homothety at 0 that sends 1 to b sends U_j to
      (0, c_j b) and m1 to m2, so m2 meets the axis at (a*b, 0), whatever
      c_j is.

    So the incidences alone force each output (N. Mnev, LNM 1346, 1988;
    R. Vakil, Invent. Math. 164, 2006). aux is also kept off every U_j,
    so that no add draws through a mul's anchor. g is a geometry with the
    hooks of realize.
    """
    _check_operands(g, a, b)
    l2 = g.join(b, g.V, "l2")
    hline = g.line((0, 1, -h), "hline", "inf")
    aux = g.meet(hline, g.yaxis, "aux")
    g.check(
        not g.lies_on(aux, g.axis) and aux != g.V and aux not in g.U,
        "aux is point {}, which is on the axis, an anchor U_j or V", aux,
    )
    l3 = g.join(aux, a, "l3")
    l4 = g.join(g.meet(l2, hline, "corner"), g.meet(l3, g.linf, "l3 direction"), "l4")
    return g.meet(l4, g.axis, "output"), {"l2": l2, "l3": l3, "l4": l4, "hline": hline}


def mul_gadget(g, a, b, j: int = 1):
    """The object of a*b drawn on anchor j, and the mul's lines by role; the lemma is at add_gadget."""
    _check_operands(g, a, b)
    t1, m1 = g.join(b, g.S[j - 1], "t1"), g.join(g.U[j - 1], a, "m1")
    m2 = g.join(g.meet(t1, g.yaxis, "lift"), g.meet(m1, g.linf, "m1 direction"), "m2")
    return g.meet(m2, g.axis, "output"), {"t1": t1, "m1": m1, "m2": m2}


def split_anchors(slp: SLP) -> tuple[int, ...]:
    """Per instruction, the anchor j >= 1 of each product in the split layout, 0 for the rest.

    The products on anchor j draw one line m1 = U_j a per distinct left
    operand a and one line t1 = b S_j per distinct right operand b, so
    U_j and S_j have valence 2 + those counts. In instruction order, each
    product goes to an anchor that then holds at most two distinct left
    and two distinct right operands, so that U_j and S_j stay at valence
    <= 4: the one already holding most of its own operands, the lowest j
    on a tie. A new anchor opens only when none has room. The assignment
    reads the program alone.
    """
    held: list[tuple[set[int], set[int]]] = []  # per anchor, its left and right operands
    anchors = []
    for kind, *ops in slp.instructions:
        if kind != MUL:
            anchors.append(0)
            continue
        a, b = ops
        room = [
            (-(a in left) - (b in right), j)
            for j, (left, right) in enumerate(held, 1)
            if len(left | {a}) <= 2 and len(right | {b}) <= 2
        ]
        if room:
            j = min(room)[1]
        else:
            held.append((set(), set()))
            j = len(held)
        held[j - 1][0].add(a)
        held[j - 1][1].add(b)
        anchors.append(j)
    return tuple(anchors)


def realize(slp: SLP, g, seed: int) -> tuple[list, list[dict], int]:
    """Each register's object in g, its gadget's lines by role, and the stream cursor.

    A geometry g holds the field, the axis and the marks zero, one and z
    (and inf, where its line hook reads it), and runs seed_objects when
    built. The recipes reach it through five hooks: line(coeffs, role,
    mark), the line with these coefficients through the mark; join(p, q,
    role); meet(l, m, role); lies_on(p, l); and check(ok, detail, *args),
    which refuses a non-degeneracy condition of the lemma found false,
    naming g.at and, only then, detail.format(*args). _Drawn draws in K
    and raises GadgetDegenerate, _Counted counts over ids and checks
    nothing, decode._Incidences reads a file's incidence table and raises
    NotForced. With one anchor every product draws on it; with J > 1 on
    split_anchors(slp).
    z and the unit are the marks z and 1 and draw no lines. An add draws
    y = h, h = 1000v + 1 for the next stream value v = 1 + seed + k, off
    the grid of the registers and anchor heights (h = 2 put u1 ^ l4 of
    1 + 1 on x = 3; the survey in tests/test_forcing.py guards this). h is
    never 0 (hline would be the axis), and as J < 1001 it is an anchor
    height (aux would be U_j) only at v = 0, a negative seed's, skipped.
    """
    J = len(g.U)
    anchor = split_anchors(slp) if J > 1 else (1,) * len(slp.instructions)
    stream = ParamStream(seed)
    reg, lines = [], []  # per register, its object and its gadget's lines
    for k, (kind, *ops) in enumerate(slp.instructions):
        if kind in (LOAD_Z, ONE):
            out, drawn = (g.z if kind == LOAD_Z else g.one), {}
        else:
            g.at = f"register {k}, the {kind} of registers {ops[0]} and {ops[1]}"
            a, b = reg[ops[0]], reg[ops[1]]
            if kind == ADD:
                h = next(h for h in (1000 * v + 1 for v in iter(stream.next, None)) if not 1 <= h <= J)
                out, drawn = add_gadget(g, a, b, h)
            else:
                g.at += f" on anchor {anchor[k]}"
                out, drawn = mul_gadget(g, a, b, anchor[k])
        reg.append(out)
        lines.append(drawn)
    return reg, lines, stream.cursor


class _Drawn:
    """The gadgets drawn in K on J anchors: objects are points and lines of P^2(K)."""

    at = "the seed lines"

    def __init__(self, field: NumberField, anchors: int = 1):
        self.field, self.axis = field, line(field, 0, 1, 0)
        self.zero, self.one, self.z = map(register_point, (field.zero, field.one, field.gen))
        seed_objects(self, anchors)

    def line(self, coeffs, role: str, mark: str) -> ProjLine:
        return line(self.field, *coeffs)

    def join(self, p: ProjPoint, q: ProjPoint, role: str) -> ProjLine:
        return join(p, q)

    def meet(self, l: ProjLine, m: ProjLine, role: str) -> ProjPoint:
        return meet(l, m)

    def lies_on(self, p: ProjPoint, l: ProjLine) -> bool:
        return incident(l, p)

    def check(self, ok: bool, detail: str, *args) -> None:
        if not ok:
            raise GadgetDegenerate(f"{self.at}: {detail.format(*args)}")


def _drawn_configuration(slp: SLP, g: _Drawn, seed: int, values: list) -> Configuration:
    """The raw configuration of slp drawn in g, its registers and its relation self-checked.

    values holds each register's value in K. A register off the point of
    its value is a defect of the gadgets. The two sides must agree,
    P(z) = N(z): else the modulus was not the minimal polynomial of z.
    """
    reg, drawn, cursor = realize(slp, g, seed)
    for k, (p, value) in enumerate(zip(reg, values)):
        if p != register_point(value):
            raise SelfCheckFailed(f"register {k} lands on {p}, not on the point of {value}")

    lhs = values[slp.lhs]
    rhs = g.field.zero if slp.rhs is None else values[slp.rhs]
    if lhs != rhs:
        raise NotARoot(f"P(z) = {lhs} differs from N(z) = {rhs}")

    ordered = dict.fromkeys(chain((g.axis, g.yaxis, g.linf, *g.ties), *(d.values() for d in drawn)))
    cfg = derive_points(list(ordered), seed=seed, params_consumed=cursor)
    for label in MARK_LABELS:
        if label not in cfg.marks:
            raise NotARoot(f"marked point {label} is not an intersection point")
    return cfg


class _Counted:
    """The gadgets counted on J anchors: points and lines are ids, a line the set of its points.

    Building it runs realize over it. join and meet return the one known
    object through both arguments, or else a new one; an output is the
    axis point of its register's value in K, so equal values share one
    point, as in the drawing. ladder_base reads it as a raw configuration.
    """

    simple_count = 0  # an unnamed crossing has valence 2, as V has

    def __init__(self, slp: SLP, values: list, seed: int, anchors: int):
        self.field = f = values[0].field
        self.on, self.incidence = [], []  # per line, per point
        self.axis = self._put(self.on, ())
        marks = [self._put(self.incidence, (self.axis,)) for _ in MARK_LABELS]
        self.zero, self.one, self.inf, self.z = marks
        self.marks = dict(zip(MARK_LABELS, marks))
        seed_objects(self, anchors)
        self.points = {f.zero: self.zero, f.one: self.one, f.gen: self.z}  # the axis points by value
        self.outputs = (v for (kind, *_), v in zip(slp.instructions, values) if kind in (ADD, MUL))
        realize(slp, self, seed)

    def _put(self, table: list[set[int]], ids, known: int | None = None) -> int:
        other = self.incidence if table is self.on else self.on
        if known is None:
            known = len(table)
            table.append(set())
        table[known].update(ids)
        for i in ids:
            other[i].add(known)
        return known

    def join(self, p: int, q: int, role: str) -> int:
        return min(self.incidence[p] & self.incidence[q] or {self._put(self.on, (p, q))})

    def meet(self, l: int, m: int, role: str) -> int:
        if role == "output":
            value = next(self.outputs)
            self.points[value] = self._put(self.incidence, (l, m), self.points.get(value))
            return self.points[value]
        return min(self.on[l] & self.on[m] or {self._put(self.incidence, (l, m))})

    def line(self, coeffs, role: str, mark: str) -> int:
        return self._put(self.on, (getattr(self, mark),))

    def lies_on(self, p: int, l: int) -> bool:
        return l in self.incidence[p]

    check = staticmethod(lambda ok, detail, *args: None)  # the drawing refuses what the lemma excludes


def anchor_count(slp: SLP, values: list, seed: int) -> int:
    """J for emission and decode.check_forcing: split only where it lowers the counted ladder base."""
    split = max(split_anchors(slp), default=1)
    shared, spread = (ladder_base(_Counted(slp, values, seed, J)) for J in (1, split))
    return split if spread < shared else 1


def emit_configuration(slp: SLP, seed: int = 0) -> Configuration:
    """Prove K a field, draw each instruction's gadget once, return the raw configuration.

    The program is evaluated in K once; anchor_count reads those values
    to pick the layout, and the drawing self-checks against them.
    """
    field = NumberField.create(slp.source)
    values = slp.evaluate(field.gen, field.one)
    return _drawn_configuration(slp, _Drawn(field, anchor_count(slp, values, seed)), seed, values)
