"""Dense univariate polynomial arithmetic over GF(q), q prime.

Only what two users need: distinct-degree factorization patterns for the
irreducibility screen, and one root of the modulus for the residue map of K
that fingerprints points in the configuration builder. Polynomials are
lists of ints in [0, q), ascending degree, trailing zeros stripped.
"""

from __future__ import annotations


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list[int]) -> int:
    return len(f) - 1


def mul(f: list[int], g: list[int], q: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return trim(out)


def rem(f: list[int], g: list[int], q: int) -> list[int]:
    f = f[:]
    dg = deg(g)
    # a monic divisor, as every one in root and pow_mod is, needs no inverse
    inv_lead = 1 if g[-1] == 1 else pow(g[-1], q - 2, q)
    while deg(f) >= dg:
        c = (f[-1] * inv_lead) % q
        shift = deg(f) - dg
        for i, b in enumerate(g):
            f[i + shift] = (f[i + shift] - c * b) % q
        trim(f)
    return f


def gcd(f: list[int], g: list[int], q: int) -> list[int]:
    while g:
        f, g = g, rem(f, g, q)
    if f:
        inv_lead = pow(f[-1], q - 2, q)
        f = [(c * inv_lead) % q for c in f]
    return f


def monic(f: list[int], q: int) -> list[int]:
    inv_lead = pow(f[-1], q - 2, q)
    return [(c * inv_lead) % q for c in f]


def derivative(f: list[int], q: int) -> list[int]:
    return trim([(i * c) % q for i, c in enumerate(f)][1:])


def pow_mod(f: list[int], e: int, modulus: list[int], q: int) -> list[int]:
    """f(x)^e mod modulus by square-and-multiply on the exponent e."""
    result = [1]
    base = rem(f, modulus, q)
    while e:
        if e & 1:
            result = rem(mul(result, base, q), modulus, q)
        base = rem(mul(base, base, q), modulus, q)
        e >>= 1
    return result


def pow_q(f: list[int], modulus: list[int], q: int) -> list[int]:
    """f(x)^q mod modulus."""
    return pow_mod(f, q, modulus, q)


def _minus_power(f: list[int], k: int, q: int) -> list[int]:
    """f - x^k."""
    out = f + [0] * (k + 1 - len(f))
    out[k] = (out[k] - 1) % q
    return trim(out)


def root(coeffs: list[int], q: int) -> int | None:
    """One root of coeffs mod q, or None when there is none.

    g = gcd(x^q - x, f) is the product of the distinct linear factors of f.
    Equal-degree splitting then cuts g with gcd(g, (x+a)^((q-1)/2) - 1) for
    the deterministic shifts a = 1, 2, ... until one linear factor is left.
    For odd q some shift separates any two distinct roots, so the loop ends.
    """
    f = trim([c % q for c in coeffs])
    if deg(f) < 1:
        return None
    f = monic(f, q)
    g = gcd(f, _minus_power(pow_q([0, 1], f, q), 1, q), q)
    if deg(g) < 1:
        return None
    if g[0] == 0:  # 0 is a root; this also settles q = 2, where roots are 0 or 1
        return 0
    a = 0
    while deg(g) > 1:
        a += 1
        w = pow_mod([a % q, 1], (q - 1) // 2, g, q)
        d = gcd(g, _minus_power(w, 0, q), q)
        if 0 < deg(d) < deg(g):
            g = d if 2 * deg(d) <= deg(g) else quotient_exact(g, d, q)
    return (-g[0]) % q


def factor_degree_pattern(coeffs: list[int], q: int) -> list[int] | None:
    """Multiset of irreducible-factor degrees of coeffs mod q.

    Returns None when the reduction is unusable for the screen (degree
    dropped, or not squarefree mod q).
    """
    f = trim([c % q for c in coeffs])
    n = deg(f)
    if n != len(coeffs) - 1 or n < 1:
        return None
    f = monic(f, q)
    if gcd(f, derivative(f, q), q) != [1]:
        return None

    degrees: list[int] = []
    h = [0, 1]  # the polynomial x
    d = 0
    while deg(f) > 0:
        d += 1
        if 2 * d > deg(f):
            degrees.append(deg(f))
            break
        h = pow_q(h, f, q)
        g = gcd(f, _minus_power(h, 1, q), q)
        if deg(g) > 0:
            degrees.extend([d] * (deg(g) // d))
            f = quotient_exact(f, g, q)
            h = rem(h, f, q) if deg(f) > 0 else h
    return sorted(degrees)


def quotient_exact(f: list[int], g: list[int], q: int) -> list[int]:
    out = [0] * (deg(f) - deg(g) + 1)
    f = f[:]
    inv_lead = pow(g[-1], q - 2, q)
    while deg(f) >= deg(g):
        c = (f[-1] * inv_lead) % q
        shift = deg(f) - deg(g)
        out[shift] = c
        for i, b in enumerate(g):
            f[i + shift] = (f[i + shift] - c * b) % q
        trim(f)
    return trim(out)


def proper_factor_degrees(pattern: list[int]) -> set[int]:
    """All degrees of proper monic factors implied by a degree multiset."""
    n = sum(pattern)
    sums = {0}
    for d in pattern:
        sums |= {s + d for s in sums}
    return {s for s in sums if 0 < s < n}
