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

Four seed lines come first, and each is needed for the incidences to
force every gadget, so that every realization of the configuration
encodes a conjugate of z (decode.check_forcing proves it from the
incidence table):

  ell           y = 0, the axis that carries the marks and every output;
  y-axis        x = 0, where the mul gadget lifts its second factor;
  ell_inf       z = 0, the line at infinity: every "parallel" of a gadget
                is a line through a direction point, and only on ell_inf
                are those points forced to be directions;
  u1            x + y = 1, through the mark 1, the unit height point
                U = (0 : 1 : 1) and the slope -1 direction S = (1 : -1 : 0):
                it ties the unit of the y-axis to the unit of the axis,
                without which every product would come out as lambda*a*b
                for a free lambda.

The gadgets:

  addition      four lines through an auxiliary point P = (0 : h : 1):
                transfer b up the vertical pencil to height h, then slide
                the segment P-(a,0) over to it; the translated line meets
                ell at (a+b : 0 : 1). h = 1 is refused, since P would be
                U, a point of the seed lines.
  multiplication three lines: t1 lifts b to (0 : b : 1) along the slope -1
                pencil through S, m1 joins U to (a : 0 : 1), and the
                parallel of m1 through (0 : b : 1) meets ell at
                (a*b : 0 : 1) by similar triangles. It takes no parameter.

The last gadget of P lands on the point of N(z), so the incidences force
P(z) = N(z), that is p(z) = 0, without a negation. Auxiliary heights h
come from the deterministic rational stream (add_height), so the whole
construction is defined over K with Galois-stable choices.
"""

from __future__ import annotations

from fractions import Fraction
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
from .projgeom import ProjLine, ProjPoint, direction_of, join, meet, point


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

    def evaluate(self, field: NumberField) -> list[NFElement]:
        values: list[NFElement] = []
        for instr in self.instructions:
            if isinstance(instr, LoadZ):
                values.append(field.gen)
            elif isinstance(instr, One):
                values.append(field.one)
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
# gadget emission
# ---------------------------------------------------------------------------

class GadgetTrace:
    __slots__ = ("emitted_lines", "output_point")

    def __init__(self, emitted_lines: tuple[ProjLine, ...], output_point: ProjPoint):
        self.emitted_lines = emitted_lines
        self.output_point = output_point


def register_point(value: NFElement) -> ProjPoint:
    """The point (v : 0 : 1) on the marked axis standing for the number v."""
    return point(value.field, value, 0)


def _ell(field: NumberField) -> ProjLine:
    return ProjLine.of(field.zero, field.one, field.zero)


def _yaxis(field: NumberField) -> ProjLine:
    return ProjLine.of(field.one, field.zero, field.zero)


def seed_lines(field: NumberField) -> tuple[ProjLine, ProjLine, ProjLine, ProjLine]:
    """The axis, the y-axis, the line at infinity z = 0 and u1: x + y = 1.

    The line at infinity carries every direction; u1 passes through the
    mark 1, U and the slope -1 direction S.
    """
    return (
        _ell(field),
        _yaxis(field),
        ProjLine.of(field.zero, field.zero, field.one),
        ProjLine.of(field.one, field.one, -field.one),
    )


def _check_output(kind: str, out: ProjPoint, value: NFElement) -> None:
    """Raise unless a gadget landed on the register point of its value.

    Not GadgetDegenerate, which rejects an input: a wrong output is a
    defect of the gadget.
    """
    if out != register_point(value):
        raise SelfCheckFailed(f"{kind} gadget output {out} is not the point of {value}")


def emit_add_gadget(a: NFElement, b: NFElement, h: Fraction) -> GadgetTrace:
    f = a.field
    if h == 0:
        raise GadgetDegenerate("auxiliary height must be nonzero")
    if h == 1:
        raise GadgetDegenerate("auxiliary point would be U, a point of the seed lines")
    if a.is_zero or b.is_zero:
        raise GadgetDegenerate("addition gadget needs nonzero summands")
    aux = point(f, 0, h)
    l1 = join(point(f, 0, 0), aux)                 # the y-axis
    l2 = join(register_point(b), point(f, 0, 1, 0))  # vertical through (b, 0)
    hline = join(aux, point(f, 1, 0, 0))           # y = h
    corner = meet(l2, hline)                       # (b, h)
    l3 = join(aux, register_point(a))
    l4 = join(corner, direction_of(l3))
    out = meet(l4, _ell(f))
    _check_output("add", out, a + b)
    return GadgetTrace((l1, l2, l3, l4, hline), out)


def emit_mul_gadget(a: NFElement, b: NFElement) -> GadgetTrace:
    f = a.field
    if a.is_zero or b.is_zero:
        raise GadgetDegenerate("multiplication gadget needs nonzero factors")
    t1 = join(register_point(b), point(f, 1, -1, 0))  # slope -1, through S
    lifted = meet(t1, _yaxis(f))                   # (0 : b : 1)
    m1 = join(point(f, 0, 1), register_point(a))   # from U = (0 : 1 : 1)
    m2 = join(lifted, direction_of(m1))
    out = meet(m2, _ell(f))
    _check_output("mul", out, a * b)
    return GadgetTrace((t1, m1, m2), out)


def add_height(stream: ParamStream) -> Fraction:
    """The next stream value that is neither 0 nor 1, the height of an add gadget.

    emit_configuration and decode.check_forcing both draw heights here,
    so they agree on every add gadget's line y = h.
    """
    h = stream.next()
    while h in (0, 1):
        h = stream.next()
    return h


def emit_configuration(slp: SLP, seed: int = 0) -> Configuration:
    """Prove K a field, draw each instruction's gadget, return the raw configuration.

    Every gadget checks that it lands on the point of its value, and the
    two sides must agree, P(z) = N(z): anything else means the modulus
    was not the minimal polynomial of z.
    """
    field = NumberField.create(slp.source)
    values = slp.evaluate(field)
    stream = ParamStream(seed)

    ordered = dict.fromkeys(seed_lines(field))
    for instr in slp.instructions:
        if isinstance(instr, Add):
            a, b = values[instr.left], values[instr.right]
            trace = emit_add_gadget(a, b, add_height(stream))
        elif isinstance(instr, Mul):
            trace = emit_mul_gadget(values[instr.left], values[instr.right])
        else:  # z and the unit are marks on the axis: no lines
            continue
        for l in trace.emitted_lines:
            ordered.setdefault(l, None)

    lhs = values[slp.lhs]
    rhs = field.zero if slp.rhs is None else values[slp.rhs]
    if lhs != rhs:
        raise NotARoot(f"P(z) = {lhs} differs from N(z) = {rhs}")

    cfg = derive_points(
        list(ordered), seed=seed, params_consumed=stream.cursor, source=slp.source
    )
    for label in MARK_LABELS:
        if label not in cfg.marks:
            raise NotARoot(f"marked point {label} is not an intersection point")
    return cfg
