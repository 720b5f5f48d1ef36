"""Exact arithmetic in Z[x] and in K = Q[x]/(p), plus certified root isolation.

A polynomial (IntPoly) has int coefficients: every rational multiple of p
defines K, and K keeps the primitive one.

All construction arithmetic stays in the abstract field K; complex
embeddings (one per root of the modulus) are used only for numeric
certificates and rendering. Rationals are arbitrary precision throughout.
A root is certified by a Disc with a float centre, rounded from Aberth's
iteration, and a float radius. A float is a dyadic rational (x + iy)/2^k,
at which one integer Horner pass (_horner) gives every exact value: p and
p' for the iteration and the radius, an element and its majorant for
embed. Pictures read the float value at the centre (approximate) instead.

An element of K is an integer vector over one common denominator,
sum_i nums[i]*z^i / den with den > 0 and gcd(den, *nums) = 1 (H. Cohen,
A Course in Computational Algebraic Number Theory, 4.2), so a sum or a
product costs integer operations and one gcd instead of a gcd per
Fraction operation. Products are reduced by the primitive integer modulus
c*x^n + ..., scaling by c only when c != 1. The inverse solves the integer
multiplication matrix of the element by fraction-free elimination
(E. Bareiss, Math. Comp. 22, 1968). Every NumberField is proven a field
when it is created, so that matrix is invertible for every nonzero
element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from cmath import isfinite, rect
from itertools import combinations, count
from math import gcd as int_gcd, inf, isqrt, lcm, log2, nextafter, pi, prod, sqrt
from operator import index

from . import _ffpoly
from .errors import (
    DivisionByZero,
    FieldMismatch,
    PolyParseError,
    PrecisionExhausted,
    ReducibleModulus,
    SelfCheckFailed,
    TrivialField,
    UnprovenModulus,
)

# The most products of lifted factors check_irreducible tries: all 2^16 - 1
# of at most 8 of 17 factors. A Galois group of exponent 2 splits a degree-32
# modulus into 16 quadratics mod every prime that keeps it squarefree; the
# minimal polynomial of sqrt2 + sqrt3 + sqrt5 + sqrt7 + sqrt11 takes 39,202.
_RECOMBINATION_BUDGET = 2**16

# The residue map K -> F_l: primes are tried downward from here, at most
# _RESIDUE_PRIME_TRIES of them.
_RESIDUE_PRIME_START = 2**61 - 1
_RESIDUE_PRIME_TRIES = 64
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_PRECISION_CAP = 2048  # isolate_roots' finest precision 2^-2048: floats end at 2^-1074


# ---------------------------------------------------------------------------
# polynomials over Z
# ---------------------------------------------------------------------------

class IntPoly:
    """Univariate polynomial with integer coefficients, ascending degree, immutable.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        _set_coeffs(self, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"IntPoly is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not IntPoly:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @classmethod
    def from_coeffs(cls, seq) -> "IntPoly":
        cs = [index(c) for c in seq]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly.from_coeffs(self[i] + other[i] for i in range(n))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly.from_coeffs(self[i] - other[i] for i in range(n))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly.from_coeffs(out)

    def divides(self, f: "IntPoly") -> bool:
        """Whether self divides f in Z[x]: exact long division, which stops at the
        first leading coefficient that lead(self) does not divide. For a
        primitive self this is the test in Q[x] (Gauss's lemma)."""
        if self.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(f.coeffs)
        d, lead = self.degree, self.leading
        while len(rem) > d:
            c, r = divmod(rem[-1], lead)
            if r:
                return False
            shift = len(rem) - 1 - d
            for i, b in enumerate(self.coeffs):
                rem[i + shift] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return not rem

    def primitive(self) -> "IntPoly":
        """Divided by the gcd of the coefficients, with positive leading coefficient."""
        if self.is_zero:
            return self
        g = int_gcd(*self.coeffs)
        if self.leading < 0:
            g = -g
        return IntPoly(tuple(x // g for x in self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


_set_coeffs = IntPoly.coeffs.__set__


# ---------------------------------------------------------------------------
# polynomial input grammar:  "x^3 - 2",  "2*x^2 - 3*x + 1",  "2x^2-3x+1"
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)([0-9]+)?(\*?x(?:\^([0-9]+))?)?")

# The largest degree parse_poly and serialize.poly_from_json accept. A
# polynomial is a list of degree + 1 coefficients, so the degree is checked
# before that list exists.
MAX_DEGREE = 32

# The most decimal digits they accept in one coefficient, leading zeros
# aside. It is checked before int() runs, which would refuse more than 4300
# digits with a ValueError, and keeps every later exact step on numbers of
# a bounded size.
MAX_COEFF_DIGITS = 1000


def check_bounds(degree: int, numerals, error=PolyParseError) -> None:
    """Raise error past MAX_DEGREE, or for a numeral past MAX_COEFF_DIGITS digits."""
    if degree > MAX_DEGREE:
        raise error(f"the degree exceeds the limit MAX_DEGREE = {MAX_DEGREE}")
    for numeral in numerals:
        digits = numeral.strip().lstrip("+-").lstrip("0")
        if len(digits) > MAX_COEFF_DIGITS:
            raise error(
                f"a coefficient of {len(digits)} digits exceeds the limit "
                f"MAX_COEFF_DIGITS = {MAX_COEFF_DIGITS}"
            )


def parse_poly(text: str) -> IntPoly:
    s = re.sub(r"\s+", "", text)
    if not s:
        raise PolyParseError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise PolyParseError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM_RE.fullmatch(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise PolyParseError(f"bad term {term!r} in {text!r}")
        numeral = (m.group(2) or "1").lstrip("0") or "0"
        power = "0" if m.group(3) is None else (m.group(4) or "1").lstrip("0") or "0"
        # an exponent too long to convert is past the limit as well
        exp = int(power) if len(power) <= len(str(MAX_DEGREE)) else MAX_DEGREE + 1
        check_bounds(exp, [numeral])
        coeffs[exp] = coeffs.get(exp, 0) + (-1 if m.group(1) == "-" else 1) * int(numeral)
    top = max(coeffs)
    return IntPoly.from_coeffs([coeffs.get(i, 0) for i in range(top + 1)])


# ---------------------------------------------------------------------------
# irreducibility over Q
# ---------------------------------------------------------------------------

def _symmetric(x: int, m: int) -> int:
    return x - m if 2 * x > m else x


def _good_primes(c: int):
    """The odd primes that do not divide c, ascending."""
    return (q for q in count(3, 2) if c % q and _is_prime(q))


def _repeated_factor(prim: IntPoly, cs: list[int], bound: int) -> IntPoly | None:
    """gcd(f, f') over Q when it is not constant, None when f is squarefree.

    For q not dividing n*lc, gcd mod q is a multiple of the image of the gcd
    g over Q, and equal to it for all but finitely many q (W. Brown, J. ACM
    18, 1971). So a constant one proves f squarefree; those of least degree,
    times lc and joined by Chinese remainders past the bound, give
    lc/lc(g) * g once it divides f.
    """
    dcs = [i * c for i, c in enumerate(cs)][1:]
    least, image, modulus = len(cs), [], 1
    for q in _good_primes(len(dcs) * cs[-1]):
        g = _ffpoly.gcd([c % q for c in cs], [c % q for c in dcs], q)
        if len(g) == 1:
            return None
        g = _ffpoly.scale(cs[-1], g, q)
        if len(g) < least:
            least, image, modulus = len(g), g, q
        elif len(g) == least:
            image = [a + modulus * ((b - a) * pow(modulus, -1, q) % q) for a, b in zip(image, g)]
            modulus *= q
        if modulus > bound:
            g = IntPoly.from_coeffs([_symmetric(x, modulus) for x in image]).primitive()
            if g.divides(prim):
                return g


def check_irreducible(p: IntPoly) -> IntPoly | None:
    """A proper factor of p over Q, or None when p is irreducible, exact at every degree.

    f is the primitive integer model of p, of degree n and leading
    coefficient lc. A factor g of f has coefficients of size at most
    2^deg(g)*||f||_2 (M. Mignotte, Math. Comp. 28, 1974), so lc/lc(g) * g
    is known from its residues mod any m > B = 2*lc*2^n*||f||_2.
    1. f(0) = 0 gives the factor x, a non-squarefree f the factor gcd(f, f').
    2. f is factored mod the first 5 odd primes that do not divide lc and
       keep it squarefree. The degree of a factor of f is a sum of factor
       degrees mod each; when no 0 < d < n is one at all five, f is
       irreducible. Most inputs stop here.
    3. Else the r factors mod the prime with the fewest are lifted mod
       m = q^(2^j) > B, and every product of at most r/2 of them is tried
       (H. Zassenhaus, J. Number Theory 1, 1969), as of f = g*h, g or h takes
       at most r/2. One whose degree is no such sum, or whose constant term
       does not divide lc*f(0), is skipped; the rest are trial-divided.
    Past _RECOMBINATION_BUDGET products UnprovenModulus is raised instead.
    """
    if p.degree < 1:
        raise ValueError("irreducibility is undefined for constants")
    prim = p.primitive()
    n = prim.degree
    if n == 1:
        return None
    cs = prim.coeffs
    if cs[0] == 0:
        return IntPoly.from_coeffs([0, 1])
    lc = cs[-1]
    bound = 2 * lc * 2**n * (isqrt(sum(c * c for c in cs)) + 1)
    common = _repeated_factor(prim, cs, bound)
    if common is not None:
        return common

    allowed = set(range(1, n))
    splits = []  # (number of factors, q, factors mod q)
    for q in _good_primes(lc):
        factors = _ffpoly.factor(cs, q)
        if factors is None:
            continue
        sums = {0}  # the degrees of the products of the factors mod q
        for u in factors:
            sums |= {s + _ffpoly.deg(u) for s in sums}
        allowed &= sums
        if not allowed:
            return None
        splits.append((len(factors), q, factors))
        if len(splits) == 5:
            break

    r, q, factors = min(splits, key=lambda split: split[0])
    m, lifted = _ffpoly.hensel_lift(cs, factors, q, bound)
    target = lc * cs[0]
    tried = 0
    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            tried += 1
            if tried > _RECOMBINATION_BUDGET:
                raise UnprovenModulus(
                    f"could not prove {prim} irreducible: its {r} factors mod {q} have more "
                    f"than {_RECOMBINATION_BUDGET} products to try, so K might not be a field"
                )
            if sum(_ffpoly.deg(lifted[i]) for i in subset) not in allowed:
                continue
            c = _symmetric(lc * prod(lifted[i][0] for i in subset) % m, m)
            if c == 0 or target % c:
                continue
            g = [lc]
            for i in subset:
                g = _ffpoly.mul(g, lifted[i], m)
            g = IntPoly.from_coeffs([_symmetric(x, m) for x in g]).primitive()
            if g.divides(prim):
                return g
    return None


# ---------------------------------------------------------------------------
# the residue map K -> F_l
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen prime bases, 2 to 41.

    Exact for n < 3,317,044,064,679,887,385,961,981, the least strong
    pseudoprime to all thirteen (J. Sorenson and J. Webster, Math. Comp. 86,
    2017); the first twelve bases pass 318,665,857,834,031,151,167,461.
    """
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _residue_map(prim: IntPoly) -> tuple[int, tuple[int, ...]] | None:
    """(l, (r^0, ..., r^(n-1)) mod l) with prim(r) = 0 mod l, or None.

    l is the first prime below or at _RESIDUE_PRIME_START at which the
    integer polynomial prim has a simple root r: prim(r) = 0 and
    prim'(r) != 0 mod l. Primes dividing the leading coefficient are
    skipped, so prim divided by it has l-integral coefficients. A simple
    root makes l a regular prime of K (see NFElement.residue), which the
    crossing keys rely on. None when none of the first _RESIDUE_PRIME_TRIES
    primes qualifies; every residue is then None, and the configuration
    builder tests each crossing exactly against every point of the line.
    """
    dics = [i * c for i, c in enumerate(prim.coeffs)][1:]
    tried = 0
    ell = _RESIDUE_PRIME_START + 1
    while tried < _RESIDUE_PRIME_TRIES and ell > 2:
        ell -= 1
        if not _is_prime(ell) or prim.leading % ell == 0:
            continue
        tried += 1
        r = _ffpoly.root(prim.coeffs, ell)
        if r is not None and sum(c * pow(r, i, ell) for i, c in enumerate(dics)) % ell:
            return ell, tuple(pow(r, i, ell) for i in range(prim.degree))
    return None


# ---------------------------------------------------------------------------
# the abstract field K and its elements
# ---------------------------------------------------------------------------

def primitive_modulus(p: IntPoly) -> IntPoly:
    """The primitive part of p; TrivialField when p is zero or of degree < 2."""
    prim = p.primitive()
    if prim.is_zero:
        raise TrivialField("the polynomial is zero")
    if prim.degree < 2:
        raise TrivialField(f"need degree >= 2, got {prim.degree}")
    return prim


def _rational(x) -> int | Fraction:
    """x itself, an int or a Fraction: both have a numerator and a denominator."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class NumberField:
    """K = Q[x]/(source), source of degree n >= 2, a proven field.

    create refuses a modulus that check_irreducible proves reducible
    (ReducibleModulus), or cannot decide within its budget (UnprovenModulus),
    so every field it returns is a field; create is the only constructor the
    program uses. `source` is the primitive integer model c*x^n + ... of the
    modulus, with c > 0, which every multiple of the modulus shares; element
    arithmetic reduces by it, so it stays in integers. Two fields are equal
    when their sources are. The cached properties live in __dict__.
    """

    __slots__ = ("source", "__dict__")

    def __init__(self, source: IntPoly):
        _set_source(self, source)

    def __setattr__(self, name, value):
        raise AttributeError(f"NumberField is immutable, cannot set {name}")

    def __eq__(self, other):
        if other.__class__ is not NumberField:
            return NotImplemented
        return self.source == other.source

    def __hash__(self) -> int:
        return hash((self.source,))

    @classmethod
    def create(cls, p: IntPoly) -> "NumberField":
        prim = primitive_modulus(p)
        factor = check_irreducible(prim)
        if factor is not None:
            raise ReducibleModulus(f"{prim} is reducible, factor {factor}", factor=factor)
        return cls(prim)

    @cached_property
    def n(self) -> int:
        return self.source.degree

    @cached_property
    def residue_map(self) -> tuple[int, tuple[int, ...]] | None:
        """(l, powers of r mod l) with p(r) = 0 mod l, found on first use."""
        return _residue_map(self.source)

    @cached_property
    def reduction(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(c, ((j, s_j), ...)) with source = c*x^n + sum_j s_j*x^j, s_j != 0.

        So c*z^n = -sum_j s_j*z^j in K: one reduction step scales by c and
        touches only the nonzero s_j.
        """
        cs = self.source.coeffs
        return cs[-1], tuple((j, s) for j, s in enumerate(cs[:-1]) if s)

    def element(self, coeffs) -> "NFElement":
        cs = [_rational(c) for c in coeffs]
        if len(cs) != self.n:
            raise ValueError(f"need exactly {self.n} coefficients, got {len(cs)}")
        # over the lcm of the reduced denominators the pair is already normal
        den = lcm(*(c.denominator for c in cs))
        return NFElement(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def from_rational(self, q) -> "NFElement":
        q = _rational(q)
        return NFElement(self, (q.numerator,) + (0,) * (self.n - 1), q.denominator)

    @property
    def zero(self) -> "NFElement":
        return self.from_rational(0)

    @property
    def one(self) -> "NFElement":
        return self.from_rational(1)

    @property
    def gen(self) -> "NFElement":
        return NFElement(self, (0, 1) + (0,) * (self.n - 2), 1)


_set_source = NumberField.source.__set__


def _normal(field: NumberField, nums, den: int) -> "NFElement":
    """The element sum_i nums[i]*z^i / den, put in normal form: one gcd."""
    g = int_gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return NFElement(field, tuple(nums), den)


def _bareiss_solve(rows: list[list[int]]) -> tuple[int, list[int]]:
    """(d, X) with A X = d b and d = +-det A, for the integer system rows = [A | b].

    Fraction-free elimination (E. Bareiss, Math. Comp. 22, 1968): after
    step k every entry is a (k+1)-minor of [A | b], so each division by the
    previous pivot is exact. X = adj(A) b up to the sign of d is integral by
    Cramer's rule, so back substitution divides exactly too. d = 0, with no
    X, when A is singular. rows is overwritten.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return 0, []
        rows[k], rows[p] = rows[p], rows[k]
        rk = rows[k]
        pivot = rk[k]
        for ri in rows[k + 1:]:
            f = ri[k]
            for j in range(k + 1, n + 1):
                ri[j] = (pivot * ri[j] - f * rk[j]) // prev
        prev = pivot
    xs = [0] * n
    for i in range(n - 1, -1, -1):
        ri = rows[i]
        acc = prev * ri[n] - sum(ri[j] * xs[j] for j in range(i + 1, n))
        xs[i] = acc // ri[i]
    return prev, xs


class NFElement:
    """sum_i nums[i]*z^i / den in K, immutable.

    Normal form: den > 0 and gcd(den, *nums) = 1. It is unique, so == and
    hash are structural, and den is the lcm of the reduced denominators of
    the coefficients.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums: tuple[int, ...], den: int):
        """Trusts (nums, den) to be normal; NumberField.element normalises."""
        _set_field(self, field)
        _set_nums(self, nums)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"NFElement is immutable, cannot set {name}")

    def __eq__(self, other):
        if not isinstance(other, NFElement):
            return NotImplemented
        return (
            self.nums == other.nums
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"NFElement(nums={self.nums}, den={self.den})"

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced rational coefficients, constant term first."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def _coerce(self, other) -> "NFElement | None":
        if isinstance(other, NFElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("elements belong to different number fields")
            return other
        return None

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def residue(self) -> int | None:
        """Image sum c_i r^i mod l under the residue map of the field.

        z -> r is a ring homomorphism R = Z_(l)[z]/(p) -> F_l, because
        p(r) = 0 mod l and l does not divide the leading coefficient of p. A
        nonzero image therefore proves the element nonzero; a zero image
        proves nothing. None when the field has no map or l divides den,
        i.e. (den being the lcm of the reduced denominators) some
        coefficient has a denominator divisible by l.

        p is irreducible (NumberField.create proves it) and r is a simple
        root of p mod l, so the kernel m = (l, z - r) is a regular prime:
        writing p = (z - r)g + l*h with g(r) != 0 mod l, g is a unit at m
        and z - r = -l*h/g, so m is principal after localising, and R_m is
        a discrete valuation ring of the field K. The map extends to R_m,
        and an element of R_m with a nonzero image is a unit there. This is
        what makes the key of a crossing (configuration.Configuration)
        independent of the triple that represents the point.
        """
        rmap = self.field.residue_map
        if rmap is None or self.den % rmap[0] == 0:
            return None
        ell, powers = rmap
        return sum(x * rp for x, rp in zip(self.nums, powers)) * pow(self.den, -1, ell) % ell

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return _normal(self.field, [x * db + y * da for x, y in zip(self.nums, o.nums)], da * db)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return _normal(self.field, [x * db - y * da for x, y in zip(self.nums, o.nums)], da * db)

    def __neg__(self):
        return NFElement(self.field, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        n = field.n
        out = [0] * (2 * n - 1)
        for i, a in enumerate(self.nums):
            if a:
                for k, b in enumerate(o.nums, i):
                    out[k] += a * b
        den = self.den * o.den
        c, red = field.reduction
        for i in range(2 * n - 2, n - 1, -1):
            t = out[i]
            if t:
                # t*z^i = (t/c) * z^(i-n) * c*z^n: scale everything below by c
                if c != 1:
                    for k in range(i):
                        out[k] *= c
                    den *= c
                for j, s in red:
                    out[i - n + j] -= t * s
        return _normal(field, out[:n], den)

    __rmul__ = __mul__

    def inv(self) -> "NFElement":
        """Multiplicative inverse by fraction-free elimination.

        With a = alpha/den and source = c*x^n + ..., the columns
        v_j = c^j * alpha * z^j (j < n) are integer vectors: v_(j+1) is
        c*z*v_j, reduced once. Solving [v_0 ... v_(n-1)] y = e_0 gives
        alpha * sum_j c^j y_j z^j = 1, so 1/a = den * sum_j c^j y_j z^j.
        K is a field, so a nonzero a has a nonzero determinant; a zero one
        is a failed self-check.
        """
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        field = self.field
        n = field.n
        if self.is_rational:
            return _normal(field, (self.den,) + (0,) * (n - 1), self.nums[0])
        c, red = field.reduction
        cols = [list(self.nums)]
        for _ in range(n - 1):
            v = cols[-1]
            t = v[-1]
            w = [0] + (v[:-1] if c == 1 else [c * x for x in v[:-1]])
            for j, s in red:
                w[j] -= t * s
            cols.append(w)
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
        det, ys = _bareiss_solve(rows)
        if det == 0:
            raise SelfCheckFailed(f"nonzero element {self} has no inverse in K")
        nums, cj = [], self.den
        for y in ys:
            nums.append(cj * y)
            cj *= c
        return _normal(field, nums, det)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = ["1", "z"] + [f"z^{i}" for i in range(2, self.field.n)]
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + names[i])
            else:
                parts.append(f"{c}*{names[i]}")
        return " + ".join(parts).replace("+ -", "- ")


# Slot setters: NFElement forbids attribute assignment after construction.
_set_field = NFElement.field.__set__
_set_nums = NFElement.nums.__set__
_set_den = NFElement.den.__set__


# ---------------------------------------------------------------------------
# embeddings K -> C: certified root discs and certified value discs
# ---------------------------------------------------------------------------

class Disc:
    """The closed disc |x - center| <= radius, around a root or a value.

    center and radius are floats, hence exact rationals, and every test on
    a disc is decided exactly on them.
    """

    __slots__ = ("center", "radius")

    def __init__(self, center: complex, radius: float):
        self.center = center
        self.radius = radius

    def disjoint_from(self, other: "Disc") -> bool:
        """|c1 - c2| > r1 + r2, decided exactly on the stored floats."""
        dx = Fraction(self.center.real) - Fraction(other.center.real)
        dy = Fraction(self.center.imag) - Fraction(other.center.imag)
        return dx * dx + dy * dy > (Fraction(self.radius) + Fraction(other.radius)) ** 2


def _horner(cs, x: int, y: int, k: int) -> tuple[int, int, int, int]:
    """(Re F, Im F, Re D, Im D): F = 2^(km) f(w), D = 2^(k(m-1)) f'(w) at w = (x + iy)/2^k.

    f(t) = sum_i cs[i] t^i and m = len(cs) - 1: Horner's rule on the integers
    cs[i] * 2^(k(m-i)) at x + iy gives F and its derivative D in one pass.
    """
    m = len(cs) - 1
    fr = fi = dr = di = 0
    for i in range(m, -1, -1):
        dr, di = dr * x - di * y + fr, dr * y + di * x + fi
        fr, fi = fr * x - fi * y + (cs[i] << k * (m - i)), fr * y + fi * x
    return fr, fi, dr, di


def _dyadic(*xs: float) -> tuple[list[int], int]:
    """(ns, k) with xs[i] = ns[i]/2^k exactly: a float is a dyadic rational."""
    ratios = [x.as_integer_ratio() for x in xs]
    k = max(d.bit_length() for _, d in ratios) - 1
    return [n * (1 << k) // d for n, d in ratios], k


def _up(x: Fraction) -> float:
    """The least float >= x; PrecisionExhausted when x exceeds every float."""
    try:
        q = float(x)
    except OverflowError:
        q = inf
    if q != inf and Fraction(q) < x:
        q = nextafter(q, inf)
    if q == inf:
        raise PrecisionExhausted("a certified bound does not fit a float")
    return q


def _sqrt_up(x: Fraction) -> float:
    """A float >= sqrt(x): round x up to a float, then its square root up."""
    q = _up(x)
    r = sqrt(q)
    return r if Fraction(r) ** 2 >= Fraction(q) else nextafter(r, inf)


def _aberth(p: IntPoly, ws: list[tuple[int, int]], k: int) -> list[tuple[int, int]]:
    """Aberth's iteration on p from ws, each pair (x, y) standing for (x + iy)/2^k.

    Newton's step for each root, corrected by the repulsion sum_j 1 / (w_i - w_j)
    of the others (O. Aberth, Math. Comp. 27, 1973), with 2^(kn) p(w) and
    2^(k(n-1)) p'(w) exact, from _horner. The sum is rounded to 2^(k-s),
    finer than 2^-k by the size of the largest w, and the step to the grid
    2^-k, so every root keeps the absolute precision 2^-k whatever its size
    (D. Bini and G. Fiorentino, Numer. Algorithms 23, 2000). It stops when
    no step exceeds one grid unit.
    """
    ws = list(ws)
    for _ in range(500):
        moved, s = 0, k + max(k, max(abs(v) for w in ws for v in w).bit_length())
        for i, (x, y) in enumerate(ws):
            fr, fi, dr, di = _horner(p.coeffs, x, y, k)
            sr = si = 0
            for u, v in ws:
                if d := (x - u) ** 2 + (y - v) ** 2:
                    sr += (x - u << s) // d
                    si -= (y - v << s) // d
            # F, D, S = (fr, fi), (dr, di), (sr, si): 2^k * step = F * 2^s / (D * 2^s - F * S)
            er, ei = (dr << s) - fr * sr + fi * si, (di << s) - fr * si - fi * sr
            if d := er * er + ei * ei:
                sx, sy = (fr * er + fi * ei << s) // d, (fi * er - fr * ei << s) // d
                ws[i] = (x - sx, y - sy)
                moved = max(moved, abs(sx), abs(sy))
        if moved <= 1:
            break
    return ws


def _conjugate_closed(ws: list[tuple[int, int]], k: int) -> list[complex]:
    """ws as floats, closed under conjugation: a w whose mirror image is nearer to it than to any
    other w is put on the real axis; each w in the upper half plane brings its exact conjugate."""
    real, upper = [], []
    for i, (x, y) in enumerate(ws):
        if all(4 * y * y < (x - u) ** 2 + (y + v) ** 2 for j, (u, v) in enumerate(ws) if j != i):
            real.append((x, 0))
        elif y > 0:
            upper.append((x, y))
    if len(real) + 2 * len(upper) != len(ws):
        raise PrecisionExhausted("root approximations do not pair up under conjugation")
    try:
        return [complex(x / 2**k, y / 2**k) for x, y in real + upper + [(x, -y) for x, y in upper]]
    except OverflowError:
        raise PrecisionExhausted("a root does not fit a float") from None


def isolate_roots(p: IntPoly) -> list[Disc]:
    """Disjoint certified discs, one per root of p, sorted by centre.

    p must be squarefree: every caller passes a polynomial that
    NumberField.create has proven irreducible. The sort is by real part,
    then imaginary part, and a root's index is its place in the list.
    _aberth starts off the real axis, on a circle around the integer c
    nearest to the centroid of the roots, sized by p shifted exactly to c,
    at the precision 2^-64, which doubles up to 2^-_PRECISION_CAP until
    the discs certify.
    """
    n = p.degree
    if n < 1:
        raise ValueError("no roots: polynomial is constant")
    c, b, k = round(Fraction(-p[n - 1], n * p.leading)), list(p.coeffs), 64
    for m in range(n):
        for i in range(n - 1, m - 1, -1):
            b[i] += c * b[i + 1]
    try:
        logs = [(log2(abs(b[i])) - log2(abs(b[n]))) / (n - i) for i in range(n) if b[i]]
        radius = 2.0 ** max(logs, default=0)
        starts = [rect(radius, 2 * pi * j / n + 0.7) * 2**k for j in range(n)]
        ws = [((c << k) + round(w.real), round(w.imag)) for w in starts]
    except OverflowError:
        raise PrecisionExhausted("the roots of p are too large for float centres") from None
    while True:
        ws = _aberth(p, ws, k)
        try:
            return _discs(p, _conjugate_closed(ws, k))
        except PrecisionExhausted:
            if k >= _PRECISION_CAP:
                raise
        ws, k = [(x << k, y << k) for x, y in ws], 2 * k


def _discs(p: IntPoly, approx: list[complex]) -> list[Disc]:
    """Certified discs around the root approximations approx of p, sorted by centre.

    The bound n*|p(w)/p'(w)| on p certifies that each disc holds a root,
    and pairwise disjointness of the n discs that each holds exactly one;
    it is the only test a disc must pass, whatever its radius. The bound
    is exact: at the float centre w = (x + iy)/2^k, _horner gives
    2^(kn) p(w) and 2^(k(n-1)) p'(w) in integers, and only the final square
    root is rounded, upward. PrecisionExhausted when a bound does not fit a
    float, or two discs overlap.
    """
    n = p.degree
    discs = []
    for i, w in enumerate(sorted(approx, key=lambda w: (w.real, w.imag))):
        (x, y), k = _dyadic(w.real, w.imag)
        fr, fi, dr, di = _horner(p.coeffs, x, y, k)
        if dr == di == 0:
            raise PrecisionExhausted(f"the derivative vanishes at the centre of root {i}")
        radius = _sqrt_up(Fraction(n * n * (fr * fr + fi * fi), dr * dr + di * di << 2 * k))
        discs.append(Disc(w, radius))
    for i, j in combinations(range(n), 2):
        if not discs[i].disjoint_from(discs[j]):
            raise PrecisionExhausted(f"root discs {i} and {j} overlap at the working float width")
    return discs


def embed(a: NFElement, d: Disc) -> Disc:
    """A certified disc holding a(zeta) for every zeta in the disc d.

    a is evaluated exactly at the centre w = (x + iy)/2^k of d, by _horner
    on its numerators. With A(x) = sum_i |a_i| x^i and rho >= |w|, Taylor's
    formula bounds |a(zeta) - a(w)| by A(rho + r) - A(rho) for
    |zeta - w| <= r, with A evaluated likewise at the dyadic rho + r and rho.
    a(w) is rounded to the float centre c, the exact slip
    |Re(a(w) - c)| + |Im(a(w) - c)| is added, and the sum is rounded up
    once. So for a = z the value disc is d itself. PrecisionExhausted when
    the value or its radius does not fit a float.
    """
    m = len(a.nums) - 1
    (x, y), k = _dyadic(d.center.real, d.center.imag)
    vr, vi = (Fraction(v, a.den << k * m) for v in _horner(a.nums, x, y, k)[:2])
    try:
        c = complex(float(vr), float(vi))
    except OverflowError:
        raise PrecisionExhausted("a value of an embedding does not fit a float") from None
    absolute = [abs(v) for v in a.nums]
    (rho, r), j = _dyadic(_sqrt_up(Fraction(x * x + y * y, 1 << 2 * k)), d.radius)
    growth = _horner(absolute, rho + r, 0, j)[0] - _horner(absolute, rho, 0, j)[0]
    slip = abs(Fraction(c.real) - vr) + abs(Fraction(c.imag) - vi)
    return Disc(c, _up(Fraction(growth, a.den << j * m) + slip))


def approximate(a: NFElement, d: Disc) -> complex:
    """a at the centre of d in floating point, for pictures: no certificate.

    Horner's rule in floats, over the correctly rounded coefficients of a.
    PrecisionExhausted when a coefficient or the value does not fit a float.
    """
    try:
        coeffs = [x / a.den for x in a.nums]
    except OverflowError:
        raise PrecisionExhausted("a coefficient does not fit a float") from None
    value = 0j
    for c in reversed(coeffs):
        value = value * d.center + c
    if not isfinite(value):
        raise PrecisionExhausted("a value of an embedding does not fit a float")
    return value
