"""Dense univariate polynomial arithmetic over Z/m.

Only what two users need: the irreducibility proof factors the modulus mod
a prime q and lifts the factors to Z/q^k; the residue map of K needs one
root mod a prime. Polynomials are lists of ints in [0, m), ascending degree,
trailing zeros stripped; every divisor has a unit leading coefficient.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list[int]) -> int:
    return len(f) - 1


def add(f: list[int], g: list[int], m: int) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    return trim([(a + (g[i] if i < len(g) else 0)) % m for i, a in enumerate(f)])


def sub(f: list[int], g: list[int], m: int) -> list[int]:
    return add(f, [-b for b in g], m)


def scale(c: int, f: list[int], m: int) -> list[int]:
    return trim([(c * a) % m for a in f])


def mul(f: list[int], g: list[int], m: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([c % m for c in out])


def quo_rem(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    f = f[:]
    dg = deg(g)
    quo = [0] * max(0, deg(f) - dg + 1)
    # a monic divisor, as every one in pow_mod and the Hensel step is, needs no inverse
    inv_lead = 1 if g[-1] == 1 else pow(g[-1], -1, m)
    while deg(f) >= dg:
        c = (f[-1] * inv_lead) % m
        shift = deg(f) - dg
        quo[shift] = c
        for i, b in enumerate(g):
            f[i + shift] = (f[i + shift] - c * b) % m
        trim(f)
    return trim(quo), f


def rem(f: list[int], g: list[int], m: int) -> list[int]:
    return quo_rem(f, g, m)[1]


def monic(f: list[int], q: int) -> list[int]:
    return scale(pow(f[-1], -1, q), f, q)


def gcd(f: list[int], g: list[int], q: int) -> list[int]:
    while g:
        f, g = g, rem(f, g, q)
    return monic(f, q) if f else f


def bezout(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """(s, t) with s*f + t*g = 1, deg s < deg g and deg t < deg f, for coprime f, g."""
    r0, r1, s0, s1 = f, g, [1], []
    while r1:
        quo, r = quo_rem(r0, r1, q)
        r0, r1, s0, s1 = r1, r, s1, sub(s0, mul(quo, s1, q), q)
    s = scale(pow(r0[0], -1, q), s0, q)  # r0 is the gcd, a nonzero constant
    return s, quo_rem(sub([1], mul(s, f, q), q), g, q)[0]


def pow_mod(f: list[int], e: int, modulus: list[int], q: int) -> list[int]:
    """f(x)^e mod modulus from the top bit of e down, so a step by f = x is a shift and one reduction."""
    result, base = [1], rem(f, modulus, q)
    for bit in bin(e)[2:]:
        result = rem(mul(result, result, q), modulus, q)
        if bit == "1":
            result = rem(mul(result, base, q), modulus, q)
    return result


def _equal_degree_factor(g: list[int], d: int, q: int) -> list[int]:
    """One factor of g, a squarefree product of monic irreducibles of degree d.

    D. Cantor and H. Zassenhaus, Math. Comp. 36, 1981: gcd(g, w^((q^d-1)/2) - 1)
    collects the factors where w is a nonzero square; each cut keeps the smaller
    part. w is x + c for c < q (for d = 1 and q >= 5 one of them separates any
    two roots), then the base-q digits of c * (2^64 - 59) mod q^deg(g), a prime
    no q here equals, so they run through every class mod g and some w cuts g.
    """
    e, c = (q**d - 1) // 2, 0
    while deg(g) > d:
        c += 1
        k = q + c if c < q else c * (2**64 - 59) % q ** deg(g)
        w = pow_mod(trim([k // q**i % q for i in range(deg(g))]), e, g, q)
        h = gcd(g, sub(w, [1], q), q)
        if 0 < deg(h) < deg(g):
            g = h if 2 * deg(h) <= deg(g) else quo_rem(g, h, q)[0]
    return g


def root(coeffs: list[int], q: int) -> int | None:
    """One root of coeffs mod q, or None when there is none.

    g = gcd(x^q - x, f) is the product of the distinct linear factors of f;
    equal-degree splitting with d = 1 leaves one of them.
    """
    f = trim([c % q for c in coeffs])
    if deg(f) < 1:
        return None
    f = monic(f, q)
    g = gcd(f, sub(pow_mod([0, 1], q, f, q), [0, 1], q), q)
    if deg(g) < 1:
        return None
    if g[0] == 0:  # 0 is a root; this also settles q = 2, where roots are 0 or 1
        return 0
    return (-_equal_degree_factor(g, 1, q)[0]) % q


def factor(coeffs: list[int], q: int) -> list[list[int]] | None:
    """The monic irreducible factors mod the odd prime q, lowest degree first.

    q must not divide the leading coefficient; None when the reduction is not
    squarefree. With the factors of degree < d divided out, gcd(f, x^(q^d) - x)
    is the product of those of degree d; a rest of degree < 2d is irreducible.
    """
    f = monic([c % q for c in coeffs], q)
    if gcd(f, trim([(i * c) % q for i, c in enumerate(f)][1:]), q) != [1]:
        return None

    factors, h, d = [], [0, 1], 0  # h = x^(q^d) mod f
    while deg(f) > 0:
        d += 1
        if 2 * d > deg(f):
            factors.append(f)
            break
        h = pow_mod(h, q, f, q)
        g = gcd(f, sub(h, [0, 1], q), q)
        if deg(g) > 0:
            f = quo_rem(f, g, q)[0]
            h = rem(h, f, q)
            while deg(g) > d:
                u = _equal_degree_factor(g, d, q)
                factors.append(u)
                g = quo_rem(g, u, q)[0]
            factors.append(g)
    return factors


def hensel_lift(f: list[int], factors: list[list[int]], q: int, bound: int):
    """(m, lifted), m = q^(2^j) > bound, lifted[i] the monic lift of factors[i].

    factors are the pairwise coprime monic factors of f mod q, q not
    dividing lc(f), and f = lc(f) * prod(lifted) mod m. Each factor h is split
    off g = lc(f) * (the rest) by steps mod q^2, q^4, ..., m that lift
    s*g + t*h = 1 too (von zur Gathen and Gerhard, Modern Computer Algebra, 15.10).
    """
    m, lc, lifted = q, f[-1], []
    while m <= bound:
        m *= m
    for i, h in enumerate(factors[:-1]):
        g = [lc % q]
        for u in factors[i + 1:]:
            g = mul(g, u, q)
        s, t = bezout(g, h, q)
        k = q
        while k < m:
            k *= k
            e = sub(f, mul(g, h, k), k)
            quo, r = quo_rem(mul(s, e, k), h, k)
            g = add(g, add(mul(t, e, k), mul(quo, g, k), k), k)
            h = add(h, r, k)
            b = sub(add(mul(s, g, k), mul(t, h, k), k), [1], k)
            c, d = quo_rem(mul(s, b, k), h, k)
            s, t = sub(s, d, k), sub(t, add(mul(t, b, k), mul(c, g, k), k), k)
        lifted.append(h)
        f = g
    lifted.append(scale(pow(lc, -1, m), f, m))
    return m, lifted
