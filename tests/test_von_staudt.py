"""The von Staudt lemma of slp_compiler.add_gadget, checked by polynomial identity.

The recipes seed_objects, add_gadget and mul_gadget run unchanged over a
geometry whose coordinates are integer polynomials in the free parameters
of the lemma's chart: the operands a and b, the height h of an add's line
y = h, and the height c of the anchor U = (0 : c : 1), where the tie line
through the mark 1 meets the y-axis. The build draws U at c = 1, which
fixes the chart; the charts at c = c2 and c = c3 check that no recipe
leans on that choice. Points and lines are triples up to a factor; join
and meet are cross products, so nothing is divided, and two objects are
equal when their cross product vanishes. An add must land on
(a + b : 0 : 1) and a mul on (a*b : 0 : 1) as identities in these
parameters, so whatever h and c are (N. Mnev, LNM 1346, 1988; R. Vakil,
Invent. Math. 164, 2006).
"""

import random
from math import prod
from operator import add

import pytest

from planecode.slp_compiler import add_gadget, mul_gadget, seed_objects

VARIABLES = ("a", "b", "h", "c2", "c3")


class Poly:
    """An integer polynomial in VARIABLES: exponent tuples mapped to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], int]):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def of(cls, x) -> "Poly":
        return x if isinstance(x, Poly) else cls({(0,) * len(VARIABLES): x})

    def __add__(self, other) -> "Poly":
        terms = dict(self.terms)
        for e, c in Poly.of(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + -Poly.of(other)

    def __mul__(self, other) -> "Poly":
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            for f, d in Poly.of(other).terms.items():
                k = tuple(map(add, e, f))
                terms[k] = terms.get(k, 0) + c * d
        return Poly(terms)

    def __call__(self, at: dict[str, int]) -> int:
        """The value at integers for VARIABLES."""
        xs = [at[v] for v in VARIABLES]
        return sum(c * prod(x**k for x, k in zip(xs, e)) for e, c in self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return not self - other

    def __repr__(self) -> str:
        return f"Poly({self.terms})"


a, b, h, c2, c3 = (
    Poly({tuple(int(i == k) for i in range(len(VARIABLES))): 1}) for k in range(len(VARIABLES))
)
ANCHOR_HEIGHTS = (1, c2, c3)


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


class Obj:
    """A point or line (X : Y : Z) of the chart; two are equal when their cross product vanishes."""

    __slots__ = ("v",)

    def __init__(self, *v):
        self.v = tuple(map(Poly.of, v))

    def __eq__(self, other) -> bool:
        return not any(_cross(self.v, other.v))

    def __repr__(self) -> str:
        return f"Obj{self.v}"


class _Chart:
    """A geometry with the hooks of slp_compiler.realize, in the chart of the lemma.

    The line hook ignores the coefficients it is given and returns the
    chart's line of that role: the y-axis x = 0, ell_inf z = 0, the tie line
    u1 c x + y = c through the mark 1 and U = (0 : c : 1), c the j-th of
    ANCHOR_HEIGHTS, and each hline y = h. It refuses a line that misses its
    mark, as decode._Incidences does. Every join and meet is kept in drawn.
    """

    at = "the seed lines"

    def __init__(self, j: int = 1):
        self.j, c = j, ANCHOR_HEIGHTS[j - 1]
        self.lines = {
            "y-axis": Obj(1, 0, 0), "ell_inf": Obj(0, 0, 1), "u1": Obj(c, 1, -c), "hline": Obj(0, 1, -h),
        }
        self.axis = Obj(0, 1, 0)
        self.zero, self.one, self.inf = Obj(0, 0, 1), Obj(1, 0, 1), Obj(1, 0, 0)
        self.drawn: list[Obj] = []
        seed_objects(self)

    def line(self, coeffs, role: str, mark: str) -> Obj:
        l = self.lines[role]
        self.check(self.lies_on(getattr(self, mark), l), "{} misses the mark {}", role, mark)
        return l

    def _keep(self, o: Obj) -> Obj:
        self.drawn.append(o)
        return o

    def join(self, p: Obj, q: Obj, role: str) -> Obj:
        return self._keep(Obj(*_cross(p.v, q.v)))

    meet = join

    def lies_on(self, p: Obj, l: Obj) -> bool:
        return not sum((x * y for x, y in zip(p.v, l.v)), Poly.of(0))

    def check(self, ok: bool, detail: str, *args) -> None:
        if not ok:
            pytest.fail(f"{self.at}: {detail.format(*args)}")


def _on_axis_at(out: Obj, value: Poly, g: _Chart) -> None:
    """out is the finite axis point (value : 0 : 1), and no join or meet of g degenerated."""
    x, y, z = out.v
    assert z and not y and x == value * z
    assert all(any(o.v) for o in g.drawn)


def test_the_seed_objects_sit_where_the_chart_puts_them():
    for j, c in enumerate(ANCHOR_HEIGHTS, 1):
        g = _Chart(j)
        assert (g.V, g.U, g.S) == (Obj(0, 1, 0), Obj(0, c, 1), Obj(1, -c, 0))


def test_an_add_lands_on_the_sum_whatever_its_height():
    g = _Chart()
    out, lines = add_gadget(g, Obj(a, 0, 1), Obj(b, 0, 1), 1001)
    _on_axis_at(out, a + b, g)
    assert lines["hline"] == Obj(0, 1, -h)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_a_mul_lands_on_the_product_whatever_its_anchor_height(j):
    g = _Chart(j)
    out, _ = mul_gadget(g, Obj(a, 0, 1), Obj(b, 0, 1))
    _on_axis_at(out, a * b, g)


# ---------------------------------------------------------------------------
# the non-degeneracy conditions of the recipes' g.check calls
# ---------------------------------------------------------------------------

class _Named(_Chart):
    """_Chart that also names each point and line it holds by its role, per kind.

    U, S and the tie line take the number j of their anchor height, as
    U_j, S_j and uj; the marks and the axis are named too, so a gadget
    object landing on one of them is seen. A chart built into another
    names its objects, and keeps its joins and meets, in that one.
    """

    def __init__(self, j: int = 1, into: "_Named | None" = None):
        self.kinds: dict[str, dict[str, Obj]] = into.kinds if into else {"point": {}, "line": {}}
        super().__init__(j)
        if into:
            self.drawn = into.drawn
        self.kinds["line"]["axis"] = self.axis
        self.kinds["point"].update({"0": self.zero, "1": self.one, "inf": self.inf})

    def _name(self, kind: str, role: str, o: Obj) -> Obj:
        name = {"U": f"U_{self.j}", "S": f"S_{self.j}", "u1": f"u{self.j}"}.get(role, role)
        self.kinds[kind][name] = o
        return o

    def line(self, coeffs, role: str, mark: str) -> Obj:
        return self._name("line", role, super().line(coeffs, role, mark))

    def join(self, p: Obj, q: Obj, role: str) -> Obj:
        return self._name("line", role, super().join(p, q, role))

    def meet(self, l: Obj, m: Obj, role: str) -> Obj:
        return self._name("point", role, super().meet(l, m, role))


def _gadget(kind: str) -> _Named:
    """A chart after one mul on the anchor at height c_j for kind "mul j", or after one add.

    An add draws no line through the anchor, so its objects are the same
    at every anchor height: it is drawn on each of them into one chart,
    so that its aux landing on any U_j is seen.
    """
    x, y = Obj(a, 0, 1), Obj(b, 0, 1)
    if kind != "add":
        g = _Named(int(kind[-1]))
        mul_gadget(g, x, y)
        return g
    g = _Named()
    for chart in (g, _Named(2, g), _Named(3, g)):
        add_gadget(chart, x, y, 1001)
    return g


GADGETS = ("add", "mul 1", "mul 2", "mul 3")


def _degeneracies(g: _Named, at: dict[str, int]) -> set[str]:
    """What degenerates at the integer point at, by name.

    "zero X" when the object X is the zero triple there, and "X = Y" when
    two objects of one kind, distinct as polynomials, coincide there.
    """
    out = set()
    for objects in g.kinds.values():
        values = {n: tuple(x(at) for x in o.v) for n, o in objects.items()}
        names = sorted(values)
        for i, n in enumerate(names):
            if not any(values[n]):
                out.add(f"zero {n}")
            for m in names[i + 1:]:
                if any(values[m]) and not any(_cross(values[n], values[m])) and objects[n] != objects[m]:
                    out.add(f"{n} = {m}")
    return out


def _generic(rng: random.Random) -> dict[str, int]:
    """A seeded integer point where every condition holds: a, b, c2, c3 != 0, h not 0, 1, c2, c3."""
    at = {v: rng.choice([x for x in range(-30, 31) if x]) for v in ("a", "b", "c2", "c3")}
    at["h"] = rng.choice([x for x in range(-30, 31) if x not in (0, 1, at["c2"], at["c3"])])
    return at


def test_no_join_or_meet_vanishes_where_every_condition_holds():
    rng = random.Random(20)
    charts = [_gadget(kind) for kind in GADGETS]
    for _ in range(200):
        at = _generic(rng)
        for kind, g in zip(GADGETS, charts):
            zero = [o for o in g.drawn if not any(x(at) for x in o.v)]
            assert not zero, (kind, at, zero)


# one point off each condition, the rest as at BASE, and a degeneracy it causes
BASE = {"a": 3, "b": 5, "h": 7, "c2": 11, "c3": 13}
VIOLATIONS = [
    ({"a": 0}, "add", "l3 = y-axis"),
    ({"a": 0}, "mul 2", "m1 = y-axis"),
    ({"b": 0}, "add", "l2 = y-axis"),
    ({"b": 0}, "mul 3", "0 = lift"),
    ({"c2": 0}, "mul 2", "zero output"),
    ({"c3": 0}, "mul 3", "zero output"),
    ({"h": 0}, "add", "zero output"),
    ({"h": 1}, "add", "U_1 = aux"),
    ({"h": 11}, "add", "U_2 = aux"),
    ({"h": 13}, "add", "U_3 = aux"),
]


def test_base_point_degenerates_nowhere():
    assert {kind: _degeneracies(_gadget(kind), BASE) for kind in GADGETS} == dict.fromkeys(
        GADGETS, set()
    )


@pytest.mark.parametrize("change, kind, degeneracy", VIOLATIONS)
def test_each_condition_is_needed(change, kind, degeneracy):
    assert degeneracy in _degeneracies(_gadget(kind), {**BASE, **change})
