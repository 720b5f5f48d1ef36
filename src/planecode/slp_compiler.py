"""Straight-line programs for P(z) = N(z) and their geometric realization.

compile_polynomial splits the primitive p into its sign-sides, p = P - N,
and turns each side into a Horner-form SLP over registers: z, the unit,
and the sums and products of earlier registers. The powers of z that
the Horner jumps need come from one table built by squaring, and every
integer constant c >= 2 comes from one chain built up from the unit.
emit_configuration proves K = Q[x]/(p) a field (NumberField.create) and
draws every add and mul instruction as a small line gadget on the marked
axis ell = {y = 0}, where the point (v : 0 : 1) stands for the number v;
z and the unit are marks on that axis and take no lines.

Four seed lines come first, each needed for every realization of the
configuration to encode a conjugate of z: the axis ell, which carries
the marks and every output; the y-axis x = 0, where the mul lifts its
second factor; the line at infinity z = 0, the only line on which a
gadget's "parallels" are forced to meet; and u1: x + y = 1, through the
mark 1, U = (0 : 1 : 1) and the slope -1 direction S = (1 : -1 : 0),
which ties the unit of the y-axis to that of the axis (without it every
product would be lambda*a*b for a free lambda).

Each gadget is written once, as add_gadget and mul_gadget over a
geometry, where the von Staudt lemma that forces it is stated. Emission
draws it in K (_Drawn); decode.check_forcing reads the same recipe from
a file's incidence table. The add draws four lines, one of them y = h,
with h from the deterministic rational stream; the mul draws three and
takes no parameter. The last gadget of P lands on the point of N(z), so
the incidences force P(z) = N(z), that is p(z) = 0, without a negation,
and the whole construction is defined over K with Galois-stable choices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Union

from .configuration import MARK_LABELS, Configuration, ParamStream, derive_points
from .errors import (
    GadgetDegenerate,
    NotARoot,
    SelfCheckFailed,
    TrivialField,
)
from .numberfield import IntPoly, NFElement, NumberField
# Unused here; bound only for the planecode.slp_compiler.check_irreducible
# probe of perfbench/tracer.py.
from .numberfield import check_irreducible  # noqa: F401
from .projgeom import ProjLine, ProjPoint, incident, join, line, meet, point


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------

# Instructions are immutable values: == and hash are structural, and
# instructions of different kinds are never equal.

class LoadZ:
    """The register z."""

    __slots__ = ()  # no fields: nothing can be set

    def __eq__(self, other):
        return True if other.__class__ is LoadZ else NotImplemented

    def __hash__(self) -> int:
        return hash(())


class One:
    """The unit register."""

    __slots__ = ()  # no fields: nothing can be set

    def __eq__(self, other):
        return True if other.__class__ is One else NotImplemented

    def __hash__(self) -> int:
        return hash(())


class Add:
    """The register left + right."""

    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        _set_add_left(self, left)
        _set_add_right(self, right)

    def __setattr__(self, name, value):
        raise AttributeError(f"Add is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not Add:
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class Mul:
    """The register left * right."""

    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        _set_mul_left(self, left)
        _set_mul_right(self, right)

    def __setattr__(self, name, value):
        raise AttributeError(f"Mul is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not Mul:
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))


_set_add_left = Add.left.__set__
_set_add_right = Add.right.__set__
_set_mul_left = Mul.left.__set__
_set_mul_right = Mul.right.__set__


Instr = Union[LoadZ, One, Add, Mul]


class SLP:
    """A program from compile_polynomial: each operand is an earlier register.

    It encodes p(z) = 0 as values[lhs] == values[rhs]: lhs computes P(z),
    rhs computes N(z), and rhs is None when N = 0.
    """

    __slots__ = ("instructions", "lhs", "rhs", "source")

    def __init__(
        self, instructions: tuple[Instr, ...], lhs: int, rhs: int | None, source: IntPoly
    ):
        self.instructions = instructions
        self.lhs = lhs
        self.rhs = rhs
        self.source = source

    def evaluate(self, z, one) -> list:
        """Every register's value, for z and the unit of any ring: K, Z[x], ..."""
        values: list = []
        for instr in self.instructions:
            if isinstance(instr, LoadZ):
                values.append(z)
            elif isinstance(instr, One):
                values.append(one)
            elif isinstance(instr, Add):
                values.append(values[instr.left] + values[instr.right])
            else:
                values.append(values[instr.left] * values[instr.right])
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
      order, by one Add when c is the sum of two constants already built
      and else by binary double-and-add from the unit, each intermediate
      kept by its value.
    No instruction is emitted twice. Irreducibility is proven where the
    field is created, in emit_configuration.
    """
    prim = p.primitive()
    if prim.degree < 2:
        raise TrivialField(f"need degree >= 2, got {prim.degree}")
    ints = prim.int_coeffs()

    instructions: list[Instr] = []
    registers: dict[Instr, int] = {}
    constants: dict[int, int] = {}

    def emit(instr: Instr) -> int:
        if instr not in registers:
            registers[instr] = len(instructions)
            instructions.append(instr)
        return registers[instr]

    z = emit(LoadZ())

    def power(k: int) -> int:
        return z if k == 1 else emit(Mul(power(k - k // 2), power(k // 2)))

    def chain(value: int, left: int, right: int) -> int:
        """The register of the constant value = left + right, added once."""
        if value not in constants:
            constants[value] = emit(Add(left, right))
        return constants[value]

    def constant(c: int) -> int:
        if c in constants:
            return constants[c]
        if c == 1:
            constants[1] = emit(One())
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
        return power(k) if acc is None else emit(Mul(acc, power(k)))

    def horner(side: dict[int, int]) -> int | None:
        if not side:
            return None
        d, *lower = sorted(side, reverse=True)
        acc = None if side[d] == 1 else constant(side[d])
        for j in lower:
            acc = emit(Add(times_power(acc, d - j), constant(side[j])))
            d = j
        return times_power(acc, d)

    positive = {d: c for d, c in enumerate(ints) if c > 0}
    negative = {d: -c for d, c in enumerate(ints) if c < 0}
    for side in (positive, negative):
        degrees = sorted(side, reverse=True) + [0]
        for d, j in zip(degrees, degrees[1:]):
            if d > j:
                power(d - j)
    for c in sorted({abs(c) for c in ints if abs(c) >= 2}):
        constant(c)
    lhs, rhs = horner(positive), horner(negative)
    return SLP(tuple(instructions), lhs, rhs, prim)


# ---------------------------------------------------------------------------
# the gadgets, written once
# ---------------------------------------------------------------------------

class GadgetTrace:
    __slots__ = ("emitted_lines", "output_point")

    def __init__(self, emitted_lines: tuple[ProjLine, ...], output_point: ProjPoint):
        self.emitted_lines = emitted_lines
        self.output_point = output_point


def register_point(value: NFElement) -> ProjPoint:
    """The point (v : 0 : 1) on the marked axis standing for the number v."""
    return point(value.field, value, 0)


def seed_lines(field: NumberField) -> tuple[ProjLine, ProjLine, ProjLine, ProjLine]:
    """The axis, the y-axis, the line at infinity z = 0 and u1: x + y = 1.

    The line at infinity carries every direction; u1 passes through the
    mark 1, U and the slope -1 direction S.
    """
    return line(field, 0, 1, 0), line(field, 1, 0, 0), line(field, 0, 0, 1), line(field, 1, 1, -1)


def add_gadget(g, a, b, h: Fraction):
    """The object of a + b, and the add's lines by role, in drawing order.

    The von Staudt lemma, for both gadgets. In any realization, over any
    field, of the seed objects (axis, yaxis, linf and u1 four distinct
    lines, U neither 0 nor V), put linf at infinity: there is one affine
    chart with 0 = (0, 0), 1 = (1, 0), U = (0, 1), the axis and yaxis the
    coordinate axes and u1 the line x + y = 1, so S is the slope -1
    direction and V the vertical one. Let a = (a, 0), b = (b, 0), not 0.

    - Add. l2 = b V is x = b; hline passes through inf, so it is y = h'
      for some h', and aux = hline ^ yaxis = (0, h'), off the axis and not
      V, so h' is finite and nonzero. l4 joins the corner l2 ^ hline =
      (b, h') to l3 ^ linf, l3 = aux a: 0, b, the corner and aux form a
      parallelogram, and l4 meets the axis at (a + b, 0), whatever h' is.
    - Mul (mul_gadget). t1 = b S is x + y = b, so t1 ^ yaxis = (0, b). m2
      joins (0, b) to m1 ^ linf, m1 = U a: the homothety at 0 that sends 1
      to b sends u1 to t1 and m1 to m2, so m2 meets the axis at (a*b, 0).

    So the incidences alone force each output (N. Mnev, LNM 1346, 1988;
    R. Vakil, Invent. Math. 164, 2006). aux is also kept off U, so that
    no add draws through the mul's anchor.
    """
    g.check_operands(a, b)
    l2 = g.join(b, g.V, "l2")
    hline = g.height_line(h)
    aux = g.meet(hline, g.yaxis, "aux")
    g.check_aux(aux)
    l3 = g.join(aux, a, "l3")
    l4 = g.join(g.meet(l2, hline, "corner"), g.meet(l3, g.linf, "l3 direction"), "l4")
    return g.meet(l4, g.axis, "output"), {"l2": l2, "l3": l3, "l4": l4, "hline": hline}


def mul_gadget(g, a, b):
    """The object of a*b, and the mul's lines by role; the lemma is at add_gadget."""
    g.check_operands(a, b)
    t1, m1 = g.join(b, g.S, "t1"), g.join(g.U, a, "m1")
    m2 = g.join(g.meet(t1, g.yaxis, "lift"), g.meet(m1, g.linf, "m1 direction"), "m2")
    return g.meet(m2, g.axis, "output"), {"t1": t1, "m1": m1, "m2": m2}


def realize(slp: SLP, g, seed: int) -> tuple[list, list[dict], int]:
    """Each register's object in g, its gadget's lines by role, and the stream cursor.

    The geometry g supplies the seed objects: the lines axis, yaxis, linf
    and u1, the points U, S and V, and the marks zero, one and z. It draws
    with join(p, q, role), meet(l, m, role) and height_line(h), the line
    y = h, and refuses what the lemma excludes with check_operands(a, b)
    and check_aux(aux); g.at names the register drawn, for messages.
    _Drawn draws in K, decode._Incidences reads a file's incidence table.
    z and the unit are the marks z and 1 and draw no lines. Each add takes
    its height from the stream of seed: the next value that is neither 0
    (hline would be the axis) nor 1 (aux would be U).
    """
    stream = ParamStream(seed)
    reg, lines = [], []  # per register, its object and its gadget's lines
    for k, instr in enumerate(slp.instructions):
        if isinstance(instr, (LoadZ, One)):
            out, drawn = (g.z if isinstance(instr, LoadZ) else g.one), {}
        else:
            kind = "add" if isinstance(instr, Add) else "mul"
            g.at = f"register {k}, the {kind} of registers {instr.left} and {instr.right}"
            a, b = reg[instr.left], reg[instr.right]
            if kind == "add":
                h = next(v for v in iter(stream.next, None) if v not in (0, 1))
                out, drawn = add_gadget(g, a, b, h)
            else:
                out, drawn = mul_gadget(g, a, b)
        reg.append(out)
        lines.append(drawn)
    return reg, lines, stream.cursor


class _Drawn:
    """The gadgets drawn in K: objects are points and lines of P^2(K)."""

    at = "a gadget"

    def __init__(self, field: NumberField):
        self.field = field
        self.axis, self.yaxis, self.linf, self.u1 = seed_lines(field)
        self.U, self.S, self.V = point(field, 0, 1), point(field, 1, -1, 0), point(field, 0, 1, 0)
        self.zero, self.one, self.z = map(register_point, (field.zero, field.one, field.gen))

    def join(self, p: ProjPoint, q: ProjPoint, role: str) -> ProjLine:
        return join(p, q)

    def meet(self, l: ProjLine, m: ProjLine, role: str) -> ProjPoint:
        return meet(l, m)

    def height_line(self, h: Fraction) -> ProjLine:
        return line(self.field, 0, 1, -h)

    def check_operands(self, a: ProjPoint, b: ProjPoint) -> None:
        if self.zero in (a, b):
            raise GadgetDegenerate(f"{self.at}: an operand is 0")

    def check_aux(self, aux: ProjPoint) -> None:
        if incident(self.axis, aux) or aux in (self.U, self.V):
            raise GadgetDegenerate(f"{self.at}: the auxiliary point {aux} is on the axis, U or V")


def emit_add_gadget(a: NFElement, b: NFElement, h: Fraction) -> GadgetTrace:
    out, lines = add_gadget(_Drawn(a.field), register_point(a), register_point(b), h)
    return GadgetTrace(tuple(lines.values()), out)


def emit_mul_gadget(a: NFElement, b: NFElement) -> GadgetTrace:
    out, lines = mul_gadget(_Drawn(a.field), register_point(a), register_point(b))
    return GadgetTrace(tuple(lines.values()), out)


def emit_configuration(slp: SLP, seed: int = 0) -> Configuration:
    """Prove K a field, draw each instruction's gadget, return the raw configuration.

    A register off the point of its value is a defect of the gadgets. The
    two sides must agree, P(z) = N(z): else the modulus was not the
    minimal polynomial of z.
    """
    field = NumberField.create(slp.source)
    g = _Drawn(field)
    reg, drawn, cursor = realize(slp, g, seed)
    values = slp.evaluate(field.gen, field.one)
    for k, (p, value) in enumerate(zip(reg, values)):
        if p != register_point(value):
            raise SelfCheckFailed(f"register {k} lands on {p}, not on the point of {value}")

    lhs = values[slp.lhs]
    rhs = field.zero if slp.rhs is None else values[slp.rhs]
    if lhs != rhs:
        raise NotARoot(f"P(z) = {lhs} differs from N(z) = {rhs}")

    ordered = dict.fromkeys(chain((g.axis, g.yaxis, g.linf, g.u1), *(d.values() for d in drawn)))
    cfg = derive_points(list(ordered), seed=seed, params_consumed=cursor, source=slp.source)
    for label in MARK_LABELS:
        if label not in cfg.marks:
            raise NotARoot(f"marked point {label} is not an intersection point")
    return cfg
